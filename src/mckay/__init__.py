"""Exact McKay correspondence toolkit for finite subgroups of SL2(C).

Pipeline: enumerate a catalog group exactly (cyclotomic matrix
entries), compute its character table by the class-algebra method,
build the McKay quiver and classify it as an affine ADE diagram, then
work with the attached combinatorics: finite root systems, weight
multiplicities of integrable highest-weight modules (two independent
algorithms), and the stratification and fiber bookkeeping of
fixed-point sets.
"""

from .chartab import CharacterTable, character_table, inner_product
from .cyclotomic import CycNumber, root_of_unity
from .errors import InvariantError
from .groups import (FiniteSubgroup, GroupElement, GroupSpec, build_group,
                     defining_character)
from .highest_weight import (DrinfeldData, MultiplicityTable,
                             drinfeld_polynomials, freudenthal,
                             freudenthal_box, weylkac_box, weylkac_oracle)
from .quiver import (CartanData, classify_ade, expected_ade_type, mckay_quiver,
                     reference_affine, reference_finite, to_dot)
from .roots import (MVStatus, RootSystem, m_v_status, positive_roots,
                    reconstruct_g_dim, restrict_to_finite, root_system_for)
from .strata import (FiberLabel, StratumLabel, cartan_apply,
                     enumerate_strata, enumerate_strata_rank1, fiber_parts,
                     partitions, transported_framing)

__all__ = [
    "CharacterTable", "character_table", "inner_product", "CycNumber",
    "root_of_unity", "InvariantError", "FiniteSubgroup",
    "GroupElement", "GroupSpec", "build_group", "defining_character",
    "DrinfeldData", "MultiplicityTable", "drinfeld_polynomials",
    "freudenthal", "freudenthal_box", "weylkac_box", "weylkac_oracle",
    "CartanData", "classify_ade", "expected_ade_type", "mckay_quiver",
    "reference_affine", "reference_finite", "to_dot", "MVStatus",
    "RootSystem", "m_v_status", "positive_roots", "reconstruct_g_dim",
    "restrict_to_finite", "root_system_for", "FiberLabel", "StratumLabel",
    "cartan_apply", "enumerate_strata", "enumerate_strata_rank1",
    "fiber_parts", "partitions", "transported_framing",
]
__version__ = "0.1.0"
