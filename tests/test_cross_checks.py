"""Independent consistency oracles that cut across modules.

Frobenius-Schur indicators exercise the character table together with
the squaring power map against classical representation-theoretic
facts; level-one string functions check the weight multiplicities along
the imaginary direction against colored partition counts computed by a
separate generating-function recursion.
"""

from fractions import Fraction

import pytest

from mckay.cyclotomic import CycNumber
from mckay.groups import defining_character
from mckay.highest_weight import freudenthal_box

from conftest import lambda_0, pipeline


def frobenius_schur(group, chi) -> Fraction:
    """(1/|G|) sum over g of chi(g^2); squaring is constant on classes."""
    total = CycNumber.coerce(0)
    for c, members in enumerate(group.classes):
        rep = group.class_reps[c]
        squared_class = group.class_of[group.mult_table[rep][rep]]
        total = total + len(members) * chi[squared_class]
    value = total * Fraction(1, group.order)
    assert value.conductor == 1
    return value.rational_value()


@pytest.mark.parametrize("text", ["cyclic:2", "cyclic:5", "binary-dihedral:2",
                                  "binary-dihedral:5", "binary-tetrahedral",
                                  "binary-octahedral", "binary-icosahedral"])
def test_frobenius_schur_indicators_are_in_range(text):
    group, table, _ = pipeline(text)
    indicators = [frobenius_schur(group, row) for row in table.values]
    assert all(v in (-1, 0, 1) for v in indicators)
    assert indicators[table.trivial_index] == 1


@pytest.mark.parametrize("text", ["binary-dihedral:2", "binary-dihedral:4",
                                  "binary-tetrahedral", "binary-octahedral",
                                  "binary-icosahedral"])
def test_defining_representation_is_quaternionic_for_binary_families(text):
    group, table, _ = pipeline(text)
    chi_q = defining_character(group)
    assert frobenius_schur(group, chi_q) == -1
    # it is irreducible there, hence literally a row of the table
    assert any(all(a == b for a, b in zip(chi_q, row)) for row in table.values)


def test_defining_representation_indicator_for_cyclic_groups():
    group, _, _ = pipeline("cyclic:2")
    assert frobenius_schur(group, defining_character(group)) == 2
    for text in ["cyclic:3", "cyclic:5", "cyclic:8"]:
        group, _, _ = pipeline(text)
        assert frobenius_schur(group, defining_character(group)) == 0


def colored_partition_counts(bound: int, colors: int) -> list[int]:
    """Coefficients of prod_{j>=1} (1 - q^j)^(-colors) up to q^bound."""
    dp = [1] + [0] * bound
    for j in range(1, bound + 1):
        for _ in range(colors):
            for k in range(j, bound + 1):
                dp[k] += dp[k - j]
    return dp


@pytest.mark.parametrize("text,k_max", [
    ("cyclic:2", 4),
    ("cyclic:3", 3),
    ("cyclic:4", 2),
    ("binary-dihedral:2", 2),
])
def test_imaginary_direction_multiplicities_are_colored_partitions(text, k_max):
    _, _, cd = pipeline(text)
    cap = tuple(k_max * d for d in cd.delta)
    table = freudenthal_box(lambda_0(cd), cd, cap)
    expected = colored_partition_counts(k_max, cd.rank)
    got = [table.multiplicity(tuple(k * d for d in cd.delta))
           for k in range(k_max + 1)]
    assert got == expected
