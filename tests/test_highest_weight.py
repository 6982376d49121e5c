from operator import add, le, sub

import pytest

from mckay.cyclotomic import CycNumber, root_of_unity
from mckay.errors import InvariantError
from mckay.highest_weight import (MultiplicityTable, _freudenthal_core,
                                  _numerator_signs, _packing, _weylkac_core,
                                  _window_roots, drinfeld_polynomials,
                                  freudenthal, freudenthal_box, weylkac_box,
                                  weylkac_oracle)
from mckay.roots import MVStatus, m_v_status, root_system_for, unrestrict
from mckay.strata import cartan_apply

from conftest import lambda_0, pipeline


def test_highest_weight_has_multiplicity_one():
    _, _, cd = pipeline("cyclic:3")
    for w in [(1, 0, 0), (0, 1, 1), (2, 0, 1)]:
        table = freudenthal(w, cd, 3)
        assert table.multiplicity((0, 0, 0)) == 1


def test_depth_zero_table_is_the_highest_weight_alone():
    _, _, cd = pipeline("cyclic:2")
    table = weylkac_oracle((1, 0), cd, 0)
    assert table.entries == {(0, 0): 1}
    assert freudenthal((1, 0), cd, 0).entries == {(0, 0): 1}


def test_one_step_freudenthal_value_by_hand():
    # basic framing for the double-edge quiver: denominator 2, sum 2
    _, _, cd = pipeline("cyclic:2")
    table = freudenthal((1, 0), cd, 1)
    assert table.multiplicity((1, 0)) == 1
    assert table.multiplicity((0, 1)) == 0


def test_delta_multiplicity_is_the_rank():
    for text in ["cyclic:2", "cyclic:3", "binary-dihedral:2",
                 "binary-tetrahedral"]:
        _, _, cd = pipeline(text)
        table = freudenthal_box(lambda_0(cd), cd, cd.delta)
        assert table.multiplicity(cd.delta) == cd.rank


@pytest.mark.parametrize("text,w,depth", [
    ("cyclic:2", (1, 0), 6),
    ("cyclic:2", (1, 1), 5),
    ("cyclic:3", (1, 0, 0), 5),
    ("cyclic:3", (1, 1, 0), 4),
    ("binary-dihedral:2", (1, 0, 0, 0, 0), 5),
    ("binary-dihedral:2", (0, 0, 1, 0, 1), 4),
    ("binary-tetrahedral", (1, 0, 0, 0, 0, 0, 0), 5),
    ("cyclic:2", (1, 0), 0),
    ("cyclic:2", (1, 0), 1),
    # dense quotients: 4 646 nonzero entries of 5 005, and 769 of 1 891
    ("binary-icosahedral", (3,) * 9, 6),
    ("cyclic:2", (5, 7), 60),
])
def test_two_algorithms_agree(text, w, depth):
    _, _, cd = pipeline(text)
    assert freudenthal(w, cd, depth) == weylkac_oracle(w, cd, depth)


def test_box_windows_agree_with_each_other_and_with_the_simplex():
    # uneven caps, a 0 in the last entry (runs of length 1), a 0 inside,
    # leading zeros with the largest entry not last, caps 7 and 8 on
    # either side of a power of 2 with weights past both; None is the
    # box below delta, here under Lambda_0 + Lambda_1
    for text, w, cap in [("cyclic:3", (1, 0, 0), (2, 2, 2)),
                         ("cyclic:3", (1, 0, 0), (1, 2, 0)),
                         ("binary-dihedral:2", (1, 0, 0, 0, 0),
                          (2, 1, 0, 1, 2)),
                         ("binary-dihedral:2", (1, 0, 0, 0, 0),
                          (0, 2, 1, 0, 2)),
                         ("binary-dihedral:2", (1, 1, 0, 0, 0),
                          (0, 2, 1, 0, 2)),
                         ("binary-dihedral:2", (1, 1, 0, 0, 0), None),
                         ("binary-dihedral:2", (0, 1, 8, 9, 1),
                          (0, 1, 7, 8, 1)),
                         ("binary-tetrahedral", (1, 1, 0, 0, 0, 0, 0), None)]:
        _, _, cd = pipeline(text)
        cap = cd.delta if cap is None else cap
        box_f = freudenthal_box(w, cd, cap)
        box_k = weylkac_box(w, cd, cap)
        assert box_f.entries == box_k.entries
        simplex = freudenthal(w, cd, sum(cap))
        overlap = {v: m for v, m in simplex.entries.items()
                   if all(a <= b for a, b in zip(v, cap))}
        assert overlap == box_f.entries


@pytest.mark.parametrize("text,w,window,wider", [
    # a box with a zero cap entry, and a height window of depth 4 that
    # cuts the delta string (1, 0, 0), (2, 1, 1), (3, 2, 2) after (2, 1, 1)
    ("binary-dihedral:2", (1, 1, 0, 0, 0), (2, 2, 1, 0, 2), (3, 3, 2, 1, 3)),
    ("cyclic:3", (1, 0, 0), 4, 7)])
def test_drops_on_the_window_edge_are_kept(text, w, window, wider):
    _, _, cd = pipeline(text)
    n = cd.vertex_count
    if isinstance(window, int):
        algorithms, cap, depth = (freudenthal, weylkac_oracle), (window,) * n, window
    else:
        algorithms, cap, depth = (freudenthal_box, weylkac_box), window, sum(window)
    table, oracle = (algorithm(w, cd, window) for algorithm in algorithms)
    assert table.entries == oracle.entries
    for v in table.entries:
        assert all(map(le, v, cap)) and sum(v) <= depth, v
    # the edge drops are the ones a wider window holds inside this one
    inside = {v: m for v, m in algorithms[0](w, cd, wider).entries.items()
              if all(map(le, v, cap)) and sum(v) <= depth}
    assert inside == table.entries
    assert any(sum(v) == depth for v in table.entries)
    if not isinstance(window, int):
        for i, c in enumerate(cap):
            assert any(v[i] == c for v in table.entries), i


@pytest.mark.parametrize("text,depth", [
    ("cyclic:2", 12), ("binary-dihedral:2", 8), ("binary-tetrahedral", 8),
    ("binary-icosahedral", None)])
def test_every_nonzero_drop_has_a_nonzero_predecessor(text, depth):
    # L(w) = U(n-) v_w, the fact Freudenthal's frontier walks on, read
    # off the Weyl-Kac tables; None is the box below delta
    _, _, cd = pipeline(text)
    w = lambda_0(cd)
    table = (weylkac_box(w, cd, cd.delta) if depth is None
             else weylkac_oracle(w, cd, depth))
    assert len(table.entries) > 1
    for v in table.entries:
        if any(v):
            assert any(table.multiplicity(v[:i] + (v[i] - 1,) + v[i + 1:])
                       for i in range(len(v)) if v[i]), v


def test_the_deepest_e8_window_the_cli_accepts():
    _, _, cd = pipeline("binary-icosahedral")
    table = freudenthal(lambda_0(cd), cd, 14)
    assert table == weylkac_oracle(lambda_0(cd), cd, 14)
    with pytest.raises(ValueError, match="budget"):
        freudenthal(lambda_0(cd), cd, 15)


@pytest.mark.parametrize("text,depth", [
    ("cyclic:2", 12), ("binary-dihedral:2", 6),
    ("binary-tetrahedral", None), ("binary-octahedral", None)])
def test_denominator_identity_matches_the_root_multiplicities(text, depth):
    # Kac's denominator identity: the alternating sum over the Weyl orbit
    # of rho is the product of (1 - e^-beta)^mult over the positive
    # roots; None is the box below delta
    _, _, cd = pipeline(text)
    n = cd.vertex_count
    cap, depth = ((cd.delta, sum(cd.delta)) if depth is None
                  else ((depth,) * n, depth))
    product = {(0,) * n: 1}
    for beta, mult in _window_roots(cd, cap, depth):
        for _ in range(mult):
            for v, c in list(product.items()):
                u = tuple(map(add, v, beta))
                if all(map(le, u, cap)) and sum(u) <= depth:
                    product[u] = product.get(u, 0) - c
            product = {v: c for v, c in product.items() if c}
    fields, bias, _ = packing = _packing(cap)
    walked = {}
    for height, level in enumerate(
            _numerator_signs((0,) * n, cd, cap, depth, packing)):
        for key, sign in level.items():
            v = tuple(((key - bias) >> s) & mask for s, mask in fields)
            assert sum(v) == height and v not in walked
            walked[v] = sign
    assert walked == product


@pytest.mark.parametrize("text", ["cyclic:2", "binary-dihedral:2", "binary-tetrahedral",
                                  "binary-octahedral", "binary-icosahedral"])
def test_window_roots_are_every_candidate_inside_the_window(text):
    # a filter of every candidate: the finite positives, and s delta and
    # s delta +- beta for every shift s up to the depth; height windows
    # just below, at and just above 0, h(delta) and 2 h(delta), and the
    # boxes below delta and 2 delta
    _, _, cd = pipeline(text)
    n, h_delta = cd.vertex_count, sum(cd.delta)
    finite = [unrestrict(cd, beta, 0) for beta in root_system_for(cd).positive]
    windows = [((depth,) * n, depth) for s in range(3)
               for depth in (s * h_delta - 1, s * h_delta, s * h_delta + 1) if depth >= 0]
    windows += [(tuple(s * d for d in cd.delta), s * h_delta) for s in (1, 2)]
    for cap, depth in windows:
        candidates = [(beta, 1) for beta in finite]
        for s in range(1, depth + 1):
            base = tuple(s * d for d in cd.delta)
            candidates.append((base, cd.rank))
            candidates += [(tuple(map(add, base, beta)), 1) for beta in finite]
            candidates += [(tuple(map(sub, base, beta)), 1) for beta in finite]
        expected = sorted(((v, m) for v, m in candidates
                           if all(map(le, v, cap)) and sum(v) <= depth),
                          key=lambda item: (sum(item[0]), item[0]))
        assert _window_roots(cd, cap, depth) == expected


@pytest.mark.parametrize("text,w,cap,depth", [
    # boxes with cap entries 0, 1, 2^k - 1 and 2^k: a reflection whose
    # pairing is past cap_i would carry out of field i into the next
    ("cyclic:2", (5, 5), (0, 8), None),
    ("cyclic:2", (9, 0), (7, 4), None),
    ("cyclic:3", (0, 0, 9), (0, 0, 3), None),
    ("cyclic:3", (1, 4, 9), (4, 7, 1), None),
    ("cyclic:3", (5, 0, 2), (8, 0, 3), None),
    ("binary-dihedral:2", (2, 0, 0, 0, 0), (0, 1, 2, 3, 4), None),
    ("binary-dihedral:2", (0, 3, 1, 0, 5), (8, 0, 4, 1, 7), None),
    ("binary-tetrahedral", (1, 0, 2, 0, 0, 3, 0), (0, 1, 3, 4, 1, 2, 8), None),
    ("binary-tetrahedral", (0, 9, 0, 0, 2, 0, 5), (1, 2, 1, 0, 4, 3, 7), None),
    # height windows: every cap entry D, under the depth D < n D
    ("cyclic:2", (5, 5), None, 8),
    ("cyclic:3", (0, 0, 9), None, 7),
    ("cyclic:3", (3, 1, 0), None, 4),
    ("binary-dihedral:2", (2, 0, 0, 0, 0), None, 3),
    ("binary-tetrahedral", (0, 0, 0, 0, 0, 0, 4), None, 4),
    ("binary-tetrahedral", (1, 0, 0, 0, 0, 0, 0), None, 1),
    # a mixed cap under a depth below its sum, which only the cores take
    ("cyclic:3", (0, 2, 9), (4, 1, 8), 7),
    ("binary-dihedral:2", (2, 0, 0, 0, 0), (0, 1, 2, 3, 4), 6),
    ("binary-dihedral:2", (0, 5, 0, 3, 1), (7, 2, 4, 0, 8), 12),
    ("binary-tetrahedral", (3, 0, 1, 0, 9, 0, 0), (8, 4, 1, 0, 3, 7, 2), 11),
    # large framings, where Freudenthal steps a root below a drop many
    # times (up to 29 on A~1), each step one more addition to the key
    ("cyclic:2", (9, 9), None, 40),
    ("binary-dihedral:2", (5, 5, 5, 5, 5), None, 10),
    # a root whose entry equals its cap, next to a cap-0 field: the step
    # to 0 keeps the field's top bit clear, and the next one sets it
    ("cyclic:2", (3, 1), (1, 0), None),
    ("binary-dihedral:2", (3, 3, 3, 0, 3), (1, 1, 1, 0, 2), None),
    ("binary-tetrahedral", (9, 0, 9, 0, 9, 0, 9), (1, 0, 1, 2, 0, 4, 3), None),
    # deeply negative pairings: Freudenthal admits v + e_i only when its
    # reflection v - (1 - pair_i) e_i is in the table, and most are not
    ("cyclic:2", (9, 0), None, 60),
    ("binary-dihedral:2", (6, 0, 0, 0, 0), None, 12),
    # 1 - pair_i at cap_i next to a cap-0 field: the reflection is below
    # 0, so its key sets a top bit and the neighbour is left out
    ("cyclic:2", (5, 0), (0, 1), None),
    ("binary-tetrahedral", (1, 0, 0, 1, 0, 0, 9), (2, 1, 0, 4, 2, 4, 8), None)])
def test_weylkac_matches_freudenthal_where_the_packing_is_tight(text, w, cap,
                                                                 depth):
    _, _, cd = pipeline(text)
    if cap is None:
        assert weylkac_oracle(w, cd, depth) == freudenthal(w, cd, depth)
    elif depth is None:
        assert weylkac_box(w, cd, cap) == freudenthal_box(w, cd, cap)
    else:
        assert (_weylkac_core(w, cd, cap, depth)
                == _freudenthal_core(w, cd, cap, depth))


def _origin_scaled(monkeypatch, factor):
    """_numerator_signs with the origin term of every numerator but the
    denominator's multiplied by factor."""
    def scaled(w, cd, cap, depth, packing):
        levels = _numerator_signs(w, cd, cap, depth, packing)
        if any(w):
            _, bias, _ = packing
            levels[0][bias] *= factor  # the drop 0, biased
        return levels
    monkeypatch.setattr("mckay.highest_weight._numerator_signs", scaled)


def test_a_negative_series_coefficient_is_refused(monkeypatch):
    # the quotient becomes the character minus twice 1 / N_0
    _origin_scaled(monkeypatch, -1)
    _, _, cd = pipeline("cyclic:2")
    for algorithm, window in [(weylkac_oracle, 3), (weylkac_box, (2, 2))]:
        with pytest.raises(InvariantError, match=r"negative coefficient at "
                           r"v=\(0, 0\) in the character series"):
            algorithm((1, 0), cd, window)


def test_a_highest_weight_multiplicity_other_than_1_is_refused(monkeypatch):
    # the quotient becomes the character plus 1 / N_0, which is >= 0
    _origin_scaled(monkeypatch, 2)
    _, _, cd = pipeline("cyclic:2")
    for algorithm, window in [(weylkac_oracle, 3), (weylkac_box, (2, 2))]:
        with pytest.raises(InvariantError,
                           match="highest weight multiplicity is not 1"):
            algorithm((1, 0), cd, window)


def test_tables_compare_by_framing_window_and_entries():
    _, _, cd = pipeline("cyclic:2")
    box = freudenthal_box((1, 0), cd, (1, 0))
    simplex = freudenthal((1, 0), cd, 1)
    assert box.entries == simplex.entries == {(0, 0): 1, (1, 0): 1}
    assert box != simplex
    assert box == weylkac_box((1, 0), cd, (1, 0))
    assert simplex == weylkac_oracle((1, 0), cd, 1)
    assert box != MultiplicityTable((1, 0), None, (1, 1), box.entries)
    assert simplex != MultiplicityTable((1, 0), 2, None, simplex.entries)
    with pytest.raises(TypeError,
                       match="unhashable type: 'MultiplicityTable'"):
        hash(box)


@pytest.mark.parametrize("cap", [(1, -1, 1), (1, 1), (1, 1, 1, 1)])
def test_malformed_caps_are_rejected(cap):
    _, _, cd = pipeline("cyclic:3")
    for algorithm in (freudenthal_box, weylkac_box):
        with pytest.raises(ValueError, match="cap"):
            algorithm((1, 0, 0), cd, cap)


def test_windows_over_the_budget_are_refused():
    _, _, cd = pipeline("cyclic:3")
    # C(3 + 180, 3) = 1 004 731 and 1001 * 1001 * 1 = 1 002 001 vectors
    for algorithm in (freudenthal, weylkac_oracle):
        with pytest.raises(ValueError, match="1004731 drop vectors"):
            algorithm((1, 0, 0), cd, 180)
    for algorithm in (freudenthal_box, weylkac_box):
        with pytest.raises(ValueError, match="1002001 drop vectors"):
            algorithm((1, 0, 0), cd, (1000, 1000, 0))


def test_weyl_invariance_within_the_window():
    _, _, cd = pipeline("binary-dihedral:2")
    w = (1, 0, 0, 0, 0)
    depth = 6
    table = freudenthal(w, cd, depth)
    n = cd.vertex_count
    for v in list(table.entries):
        # s_i moves the drop v by <w - C v, alpha_i^vee> alpha_i
        pairing = [a - b for a, b in zip(w, cartan_apply(cd, v))]
        for i in range(n):
            moved = list(v)
            moved[i] += pairing[i]
            image = tuple(moved)
            if min(image) >= 0 and sum(image) <= depth:
                assert table.multiplicity(image) == table.multiplicity(v)


def test_zero_framing_rejected():
    _, _, cd = pipeline("cyclic:2")
    with pytest.raises(ValueError):
        freudenthal((0, 0), cd, 2)
    for algorithm in (freudenthal, weylkac_oracle):
        with pytest.raises(ValueError, match="depth must be nonnegative"):
            algorithm((1, 0), cd, -1)
    with pytest.raises(ValueError):
        freudenthal((1,), cd, 2)


def test_basic_multiplicities_match_the_component_dichotomy():
    for text in ["cyclic:2", "cyclic:3", "binary-dihedral:2"]:
        _, _, cd = pipeline(text)
        table = freudenthal_box(lambda_0(cd), cd, cd.delta)
        t = cd.trivial_vertex
        import itertools
        for v in itertools.product(*(range(c + 1) for c in cd.delta)):
            if v[t] != 1 or v == cd.delta:
                continue
            status = m_v_status(v, cd)
            m = table.multiplicity(v)
            assert (m == 1) == (status is MVStatus.SINGLE_POINT)
            assert (m >= 1) == (status is not MVStatus.EMPTY)


def test_drinfeld_polynomials():
    data = drinfeld_polynomials([[], [3], [3, 3], [root_of_unity(4)]])
    one = CycNumber.coerce(1)
    assert data.polynomials[0] == (one,)
    assert data.polynomials[1] == (one, CycNumber.coerce(-3))
    assert data.polynomials[2] == (one, CycNumber.coerce(-6), CycNumber.coerce(9))
    assert data.polynomials[3] == (one, -root_of_unity(4))
    # degree equals the multiset size and the constant term is 1
    for eigs, poly in zip(data.eigenvalues, data.polynomials):
        assert len(poly) == len(eigs) + 1
        assert poly[0] == 1


def test_drinfeld_rejects_zero_eigenvalues():
    with pytest.raises(ValueError):
        drinfeld_polynomials([[0]])
