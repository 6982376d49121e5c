"""Independent consistency oracles that cut across modules.

Frobenius-Schur indicators exercise the character table together with
the squaring power map against classical representation-theoretic
facts; level-one string functions check the weight multiplicities along
the imaginary direction against colored partition counts computed by a
separate generating-function recursion.  The whole basic module
L(Lambda_0) is checked against the Frenkel-Kac formula on types A, D, E6
and E7, and, for Z/n, against the residue count of partitions, the
torus-fixed points of the Hilbert scheme of points on the quotient.
"""

from fractions import Fraction
from operator import le

import pytest

from mckay.cyclotomic import CycNumber
from mckay.groups import defining_character
from mckay.highest_weight import freudenthal, freudenthal_box
from mckay.strata import partitions

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


def _ldl(a) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Unit lower triangular L and diagonal d with a = L diag(d) L^T,
    exactly, for a positive definite a."""
    n = len(a)
    low = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d: list[Fraction] = []
    for j in range(n):
        d.append(Fraction(a[j][j]) - sum(low[j][k] ** 2 * d[k] for k in range(j)))
        for i in range(j + 1, n):
            low[i][j] = (a[i][j] - sum(low[i][k] * low[j][k] * d[k]
                                       for k in range(j))) / d[j]
    return low, d


def frenkel_kac(cd, depth: int) -> dict[tuple[int, ...], int]:
    """The nonzero p_r(v_t - (beta, beta)/2), beta = v - v_t delta, over
    the height window of depth D.  For each v_t = k, beta on the finite
    vertices is fixed from the last one down, each entry of v from 0 to
    what the height leaves, and a branch is cut once the terms of
    (beta, beta) = sum_i d_i (beta_i + sum_{j > i} L_ji beta_j)^2 fixed
    so far pass 2k (Fincke and Pohst)."""
    t = cd.trivial_vertex
    finite = [i for i in range(cd.vertex_count) if i != t]
    low, d = _ldl([[cd.cartan[i][j] for j in finite] for i in finite])
    p = colored_partition_counts(depth, cd.rank)
    out = {}

    def walk(k, i, beta, norm, room):
        if i < 0:
            v = [0] * cd.vertex_count
            v[t] = k
            for vertex, b in zip(finite, beta):
                v[vertex] = b + k * cd.delta[vertex]
            out[tuple(v)] = p[k - norm // 2]
            return
        shift = k * cd.delta[finite[i]]
        for u in range(room + 1):
            beta[i] = u - shift
            term = d[i] * (beta[i] + sum(low[j][i] * beta[j]
                                         for j in range(i + 1, cd.rank))) ** 2
            if norm + term <= 2 * k:
                walk(k, i - 1, beta, norm + term, room - u)

    for k in range(depth + 1):
        walk(k, cd.rank - 1, [0] * cd.rank, 0, depth - k)
    return out


@pytest.mark.parametrize("text,depth,k", [
    ("cyclic:2", 40, 6), ("cyclic:5", 14, 2), ("binary-dihedral:3", 12, 2),
    ("binary-tetrahedral", 14, 1), ("binary-octahedral", 16, 1),
])
def test_the_basic_module_is_frenkel_kac(text, depth, k):
    # mult L(Lambda_0) at Lambda_0 - v is p_r(v_t - (beta, beta)/2)
    # (Frenkel and Kac 1980), on the height window of depth D and on the
    # box k delta, which both cores and their windows must give
    _, _, cd = pipeline(text)
    assert freudenthal(lambda_0(cd), cd, depth).entries == frenkel_kac(cd, depth)
    cap = tuple(k * d for d in cd.delta)
    box = {v: m for v, m in frenkel_kac(cd, sum(cap)).items() if all(map(le, v, cap))}
    assert freudenthal_box(lambda_0(cd), cd, cap).entries == box


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_partitions_by_residue_are_the_fock_space(n):
    # the torus-fixed points of Hilb^N(C^2)^(Z/n) are the partitions of
    # N; cell (i, j) lies on the vertex of residue j - i, read along the
    # cycle from the trivial vertex.  Counted by v, they are L(Lambda_0)
    # times the Heisenberg algebra: sum_k p(k) mult(Lambda_0 - v + k delta)
    _, _, cd = pipeline(f"cyclic:{n}")
    top = 14
    vertex = [cd.standard_labeling.index(c) for c in range(n)]
    counts: dict[tuple[int, ...], int] = {}
    for size in range(top + 1):
        for lam in partitions(size):
            v = [0] * n
            for i, row in enumerate(lam):
                for j in range(row):
                    v[vertex[(j - i) % n]] += 1
            counts[tuple(v)] = counts.get(tuple(v), 0) + 1
    basic = freudenthal(lambda_0(cd), cd, top).entries
    p = colored_partition_counts(top // n, 1)
    fock: dict[tuple[int, ...], int] = {}
    for u, m in basic.items():
        for k in range((top - sum(u)) // n + 1):
            v = tuple(a + k for a in u)
            fock[v] = fock.get(v, 0) + p[k] * m
    assert counts == fock
