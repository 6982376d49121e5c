"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured time.  Run with `pytest tests/test_acceptance.py -v -s`.

Everything is exact (integer/cyclotomic equality, no tolerances); the
stated runtime budgets are asserted where given.
"""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

from mckay.chartab import inner_product
from mckay.cyclotomic import CycNumber
from mckay.groups import GroupSpec
from mckay.highest_weight import (freudenthal, freudenthal_box, weylkac_box,
                                  weylkac_oracle)
from mckay.quiver import expected_ade_type
from mckay.roots import MVStatus, m_v_status, reconstruct_g_dim
from mckay.strata import cartan_apply, enumerate_strata_rank1, fiber_parts, \
    StratumLabel

from conftest import lambda_0, pipeline

CATALOG = [f"cyclic:{n}" for n in range(2, 9)] + \
    [f"binary-dihedral:{m}" for m in range(2, 7)] + \
    ["binary-tetrahedral", "binary-octahedral", "binary-icosahedral"]

MINIMAL_FAMILIES = ["cyclic:2", "binary-dihedral:2", "binary-tetrahedral",
                    "binary-octahedral", "binary-icosahedral"]


def _report(number: int, description: str, elapsed: float) -> None:
    print(f"criterion {number} PASS: {description} [{elapsed:.2f}s]", flush=True)


def test_criterion_1_mckay_table_classification():
    start = time.perf_counter()
    for text in CATALOG:
        spec = GroupSpec.parse(text)
        _, table, cd = pipeline(text)
        assert cd.ade_type == expected_ade_type(spec), text
        n = cd.vertex_count
        for i in range(n):
            assert sum(cd.cartan[i][j] * cd.delta[j] for j in range(n)) == 0
        assert cd.delta == table.degrees
        assert sum(d * d for d in cd.delta) == spec.order
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(1, f"{len(CATALOG)} groups classify as expected affine ADE, "
            "C*delta=0, delta=degrees, sum(delta^2)=|G|", elapsed)


def test_criterion_2_orthogonality_exact():
    start = time.perf_counter()
    for text in CATALOG:
        group, table, _ = pipeline(text)
        r = table.n_classes
        for i in range(r):
            for j in range(r):
                assert inner_product(table.values[i], table.values[j], group) \
                    == (1 if i == j else 0), (text, i, j)
        for c1 in range(r):
            for c2 in range(r):
                acc = CycNumber.coerce(0)
                for i in range(r):
                    acc = acc + table.values[i][c1] * table.values[i][c2].conj()
                expected = Fraction(group.order, table.class_sizes[c1]) \
                    if c1 == c2 else 0
                assert acc == expected, (text, c1, c2)
    _report(2, "row and column orthogonality hold exactly for all catalog "
            "groups", time.perf_counter() - start)


def test_criterion_3_lie_algebra_dimensions():
    for text in ["cyclic:2", "cyclic:4", "binary-dihedral:2",
                 "binary-tetrahedral", "binary-octahedral",
                 "binary-icosahedral"]:
        pipeline(text)  # group/table construction is shared, not timed here
    start = time.perf_counter()
    expected = {"cyclic:2": 3, "cyclic:4": 15, "binary-dihedral:2": 28,
                "binary-tetrahedral": 78, "binary-octahedral": 133,
                "binary-icosahedral": 248}
    for text, dim in expected.items():
        _, _, cd = pipeline(text)
        assert reconstruct_g_dim(cd) == dim, text
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(3, "reconstructed dim g = 3, 15, 28, 78, 133, 248", elapsed)


def test_criterion_4_two_algorithm_character_agreement():
    start = time.perf_counter()
    depth = 8
    checked = 0
    for text in MINIMAL_FAMILIES:
        _, _, cd = pipeline(text)
        n = cd.vertex_count
        framings = {lambda_0(cd)}
        for i in range(n):
            framings.add(tuple(1 if k == i else 0 for k in range(n)))
        combined = list(lambda_0(cd))
        combined[1 if cd.trivial_vertex != 1 else 0] += 1
        framings.add(tuple(combined))
        for w in sorted(framings):
            assert freudenthal(w, cd, depth) == weylkac_oracle(w, cd, depth), \
                (text, w)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(4, f"freudenthal and the character series agree on {checked} "
            f"(family, framing) pairs at depth {depth}", elapsed)


def test_criterion_5_basic_representation_structure():
    start = time.perf_counter()
    for text in MINIMAL_FAMILIES:
        _, _, cd = pipeline(text)
        w0 = lambda_0(cd)
        trivial = cd.trivial_vertex

        box_f = freudenthal_box(w0, cd, cd.delta)
        assert box_f.multiplicity((0,) * cd.vertex_count) == 1, text
        assert box_f.multiplicity(cd.delta) == cd.rank, text
        box_k = weylkac_box(w0, cd, cd.delta)
        assert box_f.entries == box_k.entries, text

        simplex = freudenthal(w0, cd, 8)

        def check_slice(table, vectors):
            for v in vectors:
                if v[trivial] != 1:
                    continue
                status = m_v_status(v, cd)
                m = table.multiplicity(v)
                assert (m >= 1) == (status is not MVStatus.EMPTY), (text, v)
                if v != cd.delta:
                    assert (m == 1) == (status is MVStatus.SINGLE_POINT), \
                        (text, v)

        check_slice(box_f, itertools.product(*(range(c + 1)
                                               for c in cd.delta)))
        simplex_vectors = [v for v in simplex.entries] + \
            [v for v in itertools.product(range(3), repeat=cd.vertex_count)
             if sum(v) <= 8]
        check_slice(simplex, simplex_vectors)
    _report(5, "basic module: m(0)=1, m(delta)=rank, and the trivial-"
            "multiplicity-one slice matches the component dichotomy",
            time.perf_counter() - start)


def _brute_force_types(n: int, group_order: int, free_orbits: int) -> int:
    points = [("o", 0)] + [("f", orbit * group_order + k)
                           for orbit in range(free_orbits)
                           for k in range(group_order)]

    def rotate(point):
        kind, tag = point
        if kind == "o":
            return point
        orbit, k = divmod(tag, group_order)
        return ("f", orbit * group_order + (k + 1) % group_order)

    types = set()
    for multiset in itertools.combinations_with_replacement(points, n):
        counts = Counter(multiset)
        if Counter({rotate(p): c for p, c in counts.items()}) != counts:
            continue
        orbit_mult = Counter()
        residual = 0
        for (kind, tag), c in counts.items():
            if kind == "o":
                residual = c
            else:
                orbit_mult[tag // group_order] += c
        lam = tuple(sorted((c // group_order for c in orbit_mult.values()),
                           reverse=True))
        types.add((lam, residual))
    return len(types)


def test_criterion_6_strata_brute_force_oracle():
    start = time.perf_counter()
    for text in ["cyclic:2", "cyclic:3"]:
        _, _, cd = pipeline(text)
        order = cd.group_order
        for n in range(9):
            got = len(enumerate_strata_rank1(n, cd))
            expected = _brute_force_types(n, order, max(n // order, 1))
            assert got == expected, (text, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(6, "rank-one stratum counts match the brute-force invariant "
            "multiset enumeration for n <= 8", elapsed)


def test_criterion_7_transported_framing_level_conservation():
    start = time.perf_counter()
    rng = random.Random(2024)
    for text in CATALOG:
        _, _, cd = pipeline(text)
        n = cd.vertex_count
        level = lambda vec: sum(x * d for x, d in zip(vec, cd.delta))
        for _ in range(1000):
            w = tuple(rng.randrange(6) for _ in range(n))
            v0 = tuple(rng.randrange(4) for _ in range(n))
            moved = tuple(a - b for a, b in zip(w, cartan_apply(cd, v0)))
            assert level(moved) == level(w)
    _report(7, "level of w - C v0 equals level of w on 1000 random pairs "
            "per group", time.perf_counter() - start)


def test_criterion_8_fiber_bookkeeping_identity():
    start = time.perf_counter()
    rng = random.Random(515)
    checked = 0
    for text in CATALOG:
        _, _, cd = pipeline(text)
        n = cd.vertex_count
        for _ in range(200):
            v = tuple(rng.randrange(10) for _ in range(n))
            w = tuple(rng.randrange(4) for _ in range(n))
            v0 = tuple(rng.randrange(3) for _ in range(n))
            parts = tuple(sorted((rng.randrange(1, 4)
                                  for _ in range(rng.randrange(3))),
                                 reverse=True))
            stratum = StratumLabel(v0=v0, lam=parts, residual=0)
            fiber = fiber_parts(v, w, stratum.v0, stratum.lam, cd)
            if fiber.empty:
                continue
            m = sum(parts)
            assert v == tuple(l + a + m * d for l, a, d in
                              zip(fiber.lagrangian_v, v0, cd.delta)), (text, v)
            checked += 1
    _report(8, f"drop(v) = drop(lagrangian) + v0 + m*delta on {checked} "
            "nonempty random fibers", time.perf_counter() - start)
