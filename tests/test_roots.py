from itertools import product

import pytest

from mckay import roots
from mckay.errors import InvariantError
from mckay.roots import (MVStatus, RootSystem, m_v_status, positive_roots,
                         reconstruct_g_dim, restrict_to_finite, root_system_for)
from mckay.quiver import reference_affine, reference_finite

from conftest import pipeline


def classical_positive_count(ade: str) -> int:
    kind, _, num = ade.partition("~")
    n = int(num) if num else {"E~6": 6, "E~7": 7, "E~8": 8}[ade]
    if kind == "A":
        return n * (n + 1) // 2
    if kind == "D":
        return n * (n - 1)
    return {6: 36, 7: 63, 8: 120}[n]


def test_a1_single_positive_root():
    system = positive_roots(((2,),))
    assert system.positive == ((1,),)


def test_a2_positive_roots():
    system = positive_roots(reference_finite("A~2"))
    assert set(system.positive) == {(1, 0), (0, 1), (1, 1)}


@pytest.mark.parametrize("ade", ["A~1", "A~3", "A~7", "D~4", "D~6", "D~8",
                                 "E~6", "E~7", "E~8"])
def test_positive_root_counts_match_the_classical_table(ade):
    system = positive_roots(reference_finite(ade))
    assert system.count == classical_positive_count(ade)


@pytest.mark.parametrize("ade", ["A~4", "D~5", "E~6", "E~7", "E~8"])
def test_every_positive_root_below_the_highest(ade):
    system = positive_roots(reference_finite(ade))
    theta = system.highest_root
    for beta in system.positive:
        assert all(b <= t for b, t in zip(beta, theta))


def test_highest_root_is_finite_part_of_delta():
    for text in ["cyclic:4", "binary-dihedral:3", "binary-icosahedral"]:
        _, _, cd = pipeline(text)
        system = root_system_for(cd)
        assert system.highest_root == restrict_to_finite(cd, cd.delta)


def test_m_v_status_delta_is_the_minimal_resolution():
    for text in ["cyclic:2", "binary-dihedral:2", "binary-tetrahedral"]:
        _, _, cd = pipeline(text)
        assert m_v_status(cd.delta, cd) is MVStatus.MINIMAL_RESOLUTION


def test_m_v_status_dichotomy_for_cyclic_2():
    _, _, cd = pipeline("cyclic:2")
    # the two root spaces of sl2 sit on either side of delta
    assert m_v_status((1, 0), cd) is MVStatus.SINGLE_POINT
    assert m_v_status((1, 2), cd) is MVStatus.SINGLE_POINT
    assert m_v_status((1, 3), cd) is MVStatus.EMPTY
    assert m_v_status((1, 4), cd) is MVStatus.EMPTY


def test_m_v_status_dichotomy_for_cyclic_3():
    _, _, cd = pipeline("cyclic:3")
    single = [v for a in range(3) for b in range(3)
              for v in [(1, a, b)]
              if m_v_status(v, cd) is MVStatus.SINGLE_POINT]
    # six roots of sl3
    assert len(single) == 6
    assert m_v_status((1, 1, 1), cd) is MVStatus.MINIMAL_RESOLUTION


def test_m_v_status_requires_trivial_multiplicity_one():
    _, _, cd = pipeline("cyclic:2")
    with pytest.raises(ValueError):
        m_v_status((0, 1), cd)
    with pytest.raises(ValueError):
        m_v_status((2, 1), cd)
    with pytest.raises(ValueError):
        m_v_status((1, -1), cd)


@pytest.mark.parametrize("text,dim", [
    ("cyclic:2", 3), ("cyclic:4", 15), ("binary-dihedral:2", 28),
    ("binary-tetrahedral", 78), ("binary-octahedral", 133),
    ("binary-icosahedral", 248),
])
def test_reconstructed_lie_algebra_dimension(text, dim):
    _, _, cd = pipeline(text)
    assert reconstruct_g_dim(cd) == dim
    system = root_system_for(cd)
    assert dim == 2 * system.count + cd.rank


@pytest.mark.parametrize("text,scale,dim", [
    ("cyclic:2", 3, 3), ("cyclic:3", 2, 8), ("cyclic:5", 2, 24),
    ("binary-dihedral:2", 2, 28), ("binary-dihedral:3", 2, 45),
    ("binary-tetrahedral", 2, 78),
])
def test_single_points_counted_in_a_box_give_dim_g(text, scale, dim):
    # every v with trivial multiplicity 1 up to scale * delta goes through
    # m_v_status; a single point restricts to theta + gamma <= 2 theta, so
    # the 2 delta box holds them all, and on A~1 the 3 delta box adds none
    _, _, cd = pipeline(text)
    box = [range(1, 2) if i == cd.trivial_vertex else range(scale * d + 1)
           for i, d in enumerate(cd.delta)]
    singles = sum(m_v_status(v, cd) is MVStatus.SINGLE_POINT for v in product(*box))
    assert singles + cd.rank == reconstruct_g_dim(cd) == dim


@pytest.mark.parametrize("cartan", [((2,), (-1,)), ((2, -1), (-1,)), ()],
                         ids=["column", "ragged", "empty"])
def test_a_matrix_that_is_not_square_is_refused(cartan):
    # ((2,), (-1,)) used to raise IndexError from the root-string closure
    with pytest.raises(InvariantError, match="not a nonempty square matrix"):
        RootSystem(cartan)


@pytest.mark.parametrize("moves", ["_string_moves", "_reflection_moves"])
@pytest.mark.parametrize("ade", ["A~59", "D~59", "E~8"])
def test_the_walk_carries_the_dense_pairings(ade, moves):
    cartan = reference_finite(ade)
    found = roots._closure(cartan, getattr(roots, moves), "no closure")
    assert len(found) == (1 if moves == "_string_moves" else 2) \
        * classical_positive_count(ade)
    for beta, pair in found.items():
        assert pair == [sum(c * b for c, b in zip(row, beta)) for row in cartan]


@pytest.mark.parametrize("cartan,count", [
    (((2, -2), (-1, 2)), 4),
    (((2, -1), (-3, 2)), 6),
    (((2, -1, 0), (-1, 2, -2), (0, -1, 2)), 9),
], ids=["B2", "G2", "B3"])
def test_non_symmetric_finite_cartan_matrices(cartan, count):
    # the walk steps pairings by columns; by rows these would not close
    # on the same roots
    assert positive_roots(cartan).count == count


@pytest.mark.parametrize("ade", ["A~1", "D~4", "E~8"])
def test_an_affine_cartan_matrix_is_refused(ade):
    adjacency, _ = reference_affine(ade)
    cartan = tuple(tuple(2 * (i == j) - a for j, a in enumerate(row))
                   for i, row in enumerate(adjacency))
    with pytest.raises(InvariantError, match="root generation did not terminate"):
        RootSystem(cartan)


def test_a_move_rule_that_drops_a_root_is_refused(monkeypatch):
    # the string closure never steps up, so (1, 1) is missing from it
    monkeypatch.setattr(roots, "_string_moves", lambda beta, pair, found: ())
    with pytest.raises(InvariantError,
                       match="string closure and reflection orbit disagree"):
        RootSystem(reference_finite("A~2"))


def test_a_frontier_that_empties_on_the_last_allowed_round_returns(monkeypatch):
    # the A1 orbit takes two rounds: alpha to -alpha, and back
    monkeypatch.setattr(roots, "GENERATION_BOUND_FACTOR", 2)
    assert positive_roots(((2,),)).positive == ((1,),)
    monkeypatch.setattr(roots, "GENERATION_BOUND_FACTOR", 1)
    with pytest.raises(InvariantError, match="reflection orbit did not close"):
        positive_roots(((2,),))
