import gc
import itertools
import random
from collections import Counter

import pytest

import mckay.strata as strata
from mckay.quiver import CartanData
from mckay.strata import (FiberLabel, StratumLabel, cartan_apply,
                          enumerate_strata, enumerate_strata_rank1,
                          fiber_parts, partitions, transported_framing)

from conftest import pipeline


def test_partitions_reverse_lexicographic():
    assert partitions(0) == [()]
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_listings_leave_no_reference_cycles():
    # garbage in a cycle waits for a full collection, so the memory of
    # repeated listings would climb until one runs
    _, _, cd = pipeline("binary-tetrahedral")
    gc.collect()
    gc.disable()
    try:
        enumerate_strata(12, (1,) * cd.vertex_count, cd)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_stratum_label_validation():
    with pytest.raises(ValueError):
        StratumLabel(v0=(0,), lam=(1, 2), residual=0)
    with pytest.raises(ValueError):
        StratumLabel(v0=(0,), lam=(0,), residual=0)
    with pytest.raises(ValueError):
        StratumLabel(v0=(0,), lam=(), residual=-1)


def test_rank1_strata_for_cyclic_2_n_4():
    _, _, cd = pipeline("cyclic:2")
    labels = enumerate_strata_rank1(4, cd)
    assert [(l.lam, l.residual) for l in labels] == \
        [((1, 1), 0), ((2,), 0), ((1,), 2), ((), 4)]
    assert all(l.v0 == (0, 0) and not l.candidate for l in labels)


def test_rank1_strata_small_windows():
    _, _, cd = pipeline("cyclic:2")
    assert [(l.lam, l.residual) for l in enumerate_strata_rank1(0, cd)] == \
        [((), 0)]
    assert [(l.lam, l.residual) for l in enumerate_strata_rank1(1, cd)] == \
        [((), 1)]


def _brute_force_type_count(n: int, group_order: int, free_orbits: int) -> int:
    """Independent oracle: enumerate invariant n-point multisets on a
    sample set (the origin plus some free orbits of a rotation) and
    count the distinct types (orbit-multiplicity partition, residual)."""
    points = [("origin", 0)]
    for orbit in range(free_orbits):
        points.extend(("orbit", orbit * group_order + k)
                      for k in range(group_order))

    def rotate(point):
        kind, tag = point
        if kind == "origin":
            return point
        orbit, k = divmod(tag, group_order)
        return ("orbit", orbit * group_order + (k + 1) % group_order)

    types = set()
    for multiset in itertools.combinations_with_replacement(points, n):
        counts = Counter(multiset)
        if Counter({rotate(p): c for p, c in counts.items()}) != counts:
            continue
        orbit_mults = Counter()
        residual = 0
        for (kind, tag), c in counts.items():
            if kind == "origin":
                residual = c
            else:
                orbit_mults[tag // group_order] += c
        lam = tuple(sorted((c // group_order for c in orbit_mults.values()),
                           reverse=True))
        types.add((lam, residual))
    return len(types)


@pytest.mark.parametrize("text,n", [("cyclic:2", 4), ("cyclic:2", 6),
                                    ("cyclic:3", 6)])
def test_rank1_strata_count_against_brute_force(text, n):
    _, _, cd = pipeline(text)
    order = cd.group_order
    needed = n // order
    got = len(enumerate_strata_rank1(n, cd))
    assert got == _brute_force_type_count(n, order, max(needed, 1))


def test_transported_framing_examples():
    _, _, cd = pipeline("cyclic:2")
    assert transported_framing((3, 1), (0, 0), cd) == (3, 1)
    assert transported_framing((2, 0), (1, 0), cd) == (0, 2)
    assert transported_framing((1, 0), (1, 0), cd) is None


def test_cartan_apply_is_the_dense_product():
    rng = random.Random(7)
    for text in ["cyclic:2", "cyclic:7", "binary-dihedral:4", "binary-icosahedral"]:
        _, _, cd = pipeline(text)
        for _ in range(50):
            v = [rng.randrange(-6, 7) for _ in range(cd.vertex_count)]
            assert cartan_apply(cd, v) == tuple(
                sum(c * x for c, x in zip(row, v)) for row in cd.cartan)


def test_transported_framing_preserves_level():
    rng = random.Random(11)
    for text in ["cyclic:4", "binary-dihedral:3", "binary-tetrahedral"]:
        _, _, cd = pipeline(text)
        n = cd.vertex_count
        for _ in range(100):
            w = tuple(rng.randrange(5) for _ in range(n))
            v0 = tuple(rng.randrange(4) for _ in range(n))
            moved = tuple(a - b for a, b in zip(w, cartan_apply(cd, v0)))
            assert sum(m * d for m, d in zip(moved, cd.delta)) == \
                sum(a * d for a, d in zip(w, cd.delta))


def test_fiber_decomposition_zero_stratum_is_identity():
    _, _, cd = pipeline("binary-dihedral:2")
    zero = (0,) * cd.vertex_count
    s = StratumLabel(v0=zero, lam=(), residual=3)
    v = (2, 1, 0, 1, 2)
    w = (1, 0, 0, 1, 0)
    fiber = fiber_parts(v, w, s.v0, s.lam, cd)
    assert fiber == FiberLabel(lagrangian_v=v, transported_w=w, punctual_parts=())
    assert not fiber.empty


def test_fiber_decomposition_delta_example():
    _, _, cd = pipeline("cyclic:2")
    s = StratumLabel(v0=(0, 0), lam=(1,), residual=0)
    fiber = fiber_parts((1, 1), (1, 0), s.v0, s.lam, cd)
    assert fiber.lagrangian_v == (0, 0)
    assert fiber.punctual_parts == (1,)
    assert not fiber.empty


def test_fiber_decomposition_flags_negative_labels():
    _, _, cd = pipeline("cyclic:2")
    s = StratumLabel(v0=(0, 0), lam=(2,), residual=0)
    fiber = fiber_parts((1, 1), (1, 0), s.v0, s.lam, cd)
    assert fiber.empty


@pytest.mark.parametrize("v,w,v0", [
    ((1, 1, 1), (1, 0, 0), (-1, 0, 0)),
    ((-1, 1, 1), (1, 0, 0), (0, 0, 0)),
    ((1, 1, 1), (-1, 0, 0), (0, 0, 0)),
], ids=["negative-v0", "negative-v", "negative-w"])
def test_negative_vectors_are_refused(v, w, v0):
    _, _, cd = pipeline("cyclic:3")
    with pytest.raises(ValueError, match="componentwise nonnegative"):
        fiber_parts(v, w, v0, (), cd)


@pytest.mark.parametrize("lam", [(0,), (-1,), (2, 0), (1, -3)])
def test_partition_parts_that_are_not_positive_are_refused(lam):
    _, _, cd = pipeline("cyclic:3")
    with pytest.raises(ValueError, match="lam parts must be positive integers"):
        fiber_parts((1, 1, 1), (1, 0, 0), (0, 0, 0), lam, cd)


def test_fiber_parts_lists_the_punctual_parts_in_descending_order():
    _, _, cd = pipeline("cyclic:3")
    fiber = fiber_parts((1, 1, 1), (1, 0, 0), (0, 0, 0), (1, 3, 2), cd)
    assert fiber.punctual_parts == (3, 2, 1)


@pytest.mark.parametrize("v,w,v0", [
    ((1,), (1, 0, 0), (0, 0, 0)),
    ((1, 0, 0), (1, 0, 0, 5), (0, 0, 0)),
    ((1, 0, 0), (1, 0, 0), (0, 0)),
    ((1, 0, 0), (1, 0, 0, 5), (0, 0)),
], ids=["short-v", "long-w", "short-v0", "long-w-and-short-v0"])
def test_vectors_of_the_wrong_length_are_refused(v, w, v0):
    _, _, cd = pipeline("cyclic:3")
    with pytest.raises(ValueError, match="3 entries, one per vertex"):
        fiber_parts(v, w, v0, (), cd)
    if len(v) == 3:
        with pytest.raises(ValueError, match="3 entries, one per vertex"):
            transported_framing(w, v0, cd)
    if len(v0) != 3:
        with pytest.raises(ValueError, match="3 entries, one per vertex"):
            cartan_apply(cd, v0)


def test_fiber_bookkeeping_identity_raw():
    rng = random.Random(23)
    for text in ["cyclic:3", "binary-dihedral:2"]:
        _, _, cd = pipeline(text)
        n = cd.vertex_count
        for _ in range(200):
            v = tuple(rng.randrange(8) for _ in range(n))
            w = tuple(rng.randrange(4) for _ in range(n))
            v0 = tuple(rng.randrange(2) for _ in range(n))
            lam = tuple(sorted((rng.randrange(1, 3)
                                for _ in range(rng.randrange(3))), reverse=True))
            s = StratumLabel(v0=v0, lam=lam, residual=0)
            fiber = fiber_parts(v, w, s.v0, s.lam, cd)
            if fiber.empty:
                continue
            m = sum(lam)
            rebuilt = tuple(l + a + m * d for l, a, d in
                            zip(fiber.lagrangian_v, v0, cd.delta))
            assert rebuilt == v


def test_strata_over_the_budget_are_refused():
    _, _, cd = pipeline("cyclic:2")
    # one v0 plus the partitions of every m <= 60
    with pytest.raises(ValueError, match="6639350 vectors and labels"):
        enumerate_strata_rank1(120, cd)
    with pytest.raises(ValueError, match="6639350 vectors and labels"):
        enumerate_strata(120, (1, 0), cd)
    # the budget counts the labels of the 56 v0 that pass the framing
    # filter, not those of all 1596 v0 of weight <= 55
    assert len(enumerate_strata(55, (2, 1), cd)) == 135730
    # 2850 v0 of weight <= 74 plus 1156360 labels of the 75 that pass
    with pytest.raises(ValueError, match="1159210 vectors and labels"):
        enumerate_strata(74, (2, 1), cd)
    with pytest.raises(ValueError, match="at least"):
        enumerate_strata(10 ** 7, (2, 1), cd)
    # the coin-change count stops at the first doubled cut over the
    # budget: the 30421755 vectors of weight <= 16
    _, _, cd12 = pipeline("cyclic:12")
    with pytest.raises(ValueError, match="at least 30421755 vectors"):
        enumerate_strata(10 ** 6, (2,) + (0,) * 11, cd12)


def _lifted_to_zero(n, w, v0, cd):
    """Whether some prefix of v0 leaves an entry j of w - C v0 negative by
    exactly the most its unfixed neighbours k can still add, max |C_jk|
    rem // delta_k with rem the points the prefix leaves, and v0 then
    lifts it back to exactly 0."""
    final = transported_framing(w, v0, cd)
    for i in range(len(v0)):
        prefix = v0[:i + 1] + (0,) * (len(v0) - i - 1)
        pair = tuple(a - b for a, b in zip(w, cartan_apply(cd, prefix)))
        rem = n - sum(a * d for a, d in zip(prefix, cd.delta))
        for j in range(i + 1):
            reach = [-c * rem // cd.delta[k] for k, c in cd.sparse_cartan[j] if k > i]
            if reach and pair[j] < 0 and pair[j] + max(reach) == 0 == final[j]:
                return True
    return False


def _bounded_v0s(delta, n):
    """(weight, v0) for every v0 >= 0 of weight sum(v0_i delta_i) <= n, in
    lexicographic order: each entry runs up to what the points left allow."""
    if not delta:
        return [(0, ())]
    return [(a * delta[0] + used, (a,) + rest) for a in range(n // delta[0] + 1)
            for used, rest in _bounded_v0s(delta[1:], n - a * delta[0])]


def _walk_matches_the_filter(cd, n):
    """Compare the pruned walk with a brute-force filter on six framings,
    each at weight 0 and n; return whether some kept v0 != 0 leaves an
    entry of w - C v0 at exactly 0, and whether some kept v0 needs the
    walk's bound on what later entries add to be exact, not one lower."""
    r, trivial = cd.vertex_count, cd.trivial_vertex
    framings = [tuple(2 * (i == trivial) for i in range(r)),
                tuple(int(i in (trivial, r - 1)) for i in range(r)),
                (1,) * r, (2,) * r,
                # zeros next to nonzero entries
                tuple(i % 2 for i in range(r)), tuple(2 * (i % 3 == 0) for i in range(r))]
    bounded = _bounded_v0s(cd.delta, n)
    boundary = lifted = False
    for w in framings:
        for top in (0, n):
            expected = [(used, v0) for used, v0 in bounded
                        if used <= top and transported_framing(w, v0, cd) is not None]
            assert strata._framed_v0s(top, w, cd) == expected
            boundary |= any(0 in transported_framing(w, v0, cd)
                            for _, v0 in expected if any(v0))
            lifted |= any(_lifted_to_zero(top, w, v0, cd) for _, v0 in expected)
    return boundary, lifted


@pytest.mark.parametrize("text,n", [
    ("cyclic:2", 6), ("cyclic:12", 2), ("binary-dihedral:2", 12), ("binary-dihedral:5", 4),
    ("binary-tetrahedral", 6), ("binary-icosahedral", 6)])
def test_pruned_walk_keeps_what_the_framing_filter_keeps(text, n):
    _, _, cd = pipeline(text)
    assert _walk_matches_the_filter(cd, n) == (True, True)


def test_pruned_walk_bounds_by_the_later_neighbour_that_can_add_most():
    # E~6 with the vertex of delta 2 next to the trivial vertex first: its
    # later neighbours are the trivial vertex (delta 1) and the centre
    # (delta 3), so rem points raise its entry by up to rem, not rem // 3
    _, _, cd = pipeline("binary-tetrahedral")
    order = (3, 0, 6, 1, 2, 4, 5)
    reordered = CartanData(tuple(tuple(cd.adjacency[i][j] for j in order) for i in order),
                           tuple(cd.delta[i] for i in order), order.index(cd.trivial_vertex))
    assert _walk_matches_the_filter(reordered, 6) == (True, True)


def test_labels_come_in_order_and_each_partition_count_is_listed_once():
    # one list per m, each built from the shorter ones and shared by every v0
    ascending = strata._ascending_partitions(48)
    assert len(ascending) == 49
    for m, listed in enumerate(ascending):
        assert listed == partitions(m)[::-1]
    _, _, cd = pipeline("cyclic:2")
    labels = enumerate_strata(40, (2, 1), cd)
    keys = [(sum(a * d for a, d in zip(l.v0, cd.delta)), l.v0, -sum(l.lam), l.lam)
            for l in labels]
    assert len(keys) == 19246 and keys == sorted(set(keys))


def test_enumerate_strata_zero_points():
    _, _, cd = pipeline("cyclic:2")
    labels = enumerate_strata(0, (2, 1), cd)
    assert [(l.v0, l.lam, l.residual) for l in labels] == [((0, 0), (), 0)]


def test_enumerate_strata_rank_one_reduces_to_the_symmetric_product():
    _, _, cd = pipeline("cyclic:3")
    w = tuple(1 if i == cd.trivial_vertex else 0 for i in range(3))
    assert enumerate_strata(7, w, cd) == enumerate_strata_rank1(7, cd)


def test_enumerate_strata_candidate_filter():
    _, _, cd = pipeline("cyclic:2")
    labels = enumerate_strata(2, (2, 0), cd)
    entries = {(l.v0, l.lam): l for l in labels}
    assert ((1, 0), ()) in entries
    assert entries[((1, 0), ())].candidate
    assert entries[((1, 0), ())].residual == 1
    # w - C v0 with a negative entry is filtered out
    assert all(l.v0 != (0, 1) for l in labels)
    assert transported_framing((2, 0), (0, 1), cd) is None


def test_enumerate_strata_respects_the_point_budget():
    _, _, cd = pipeline("cyclic:2")
    for n in range(6):
        for label in enumerate_strata(n, (3, 1), cd):
            used = sum(a * d for a, d in zip(label.v0, cd.delta))
            assert used + cd.group_order * sum(label.lam) + label.residual == n
