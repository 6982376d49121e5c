import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mckay.errors import InvariantError
from mckay.quiver import (CartanData, classify_ade, expected_ade_type, reference_affine,
                          to_dot)
from mckay.groups import GroupSpec
from mckay.highest_weight import freudenthal, freudenthal_box, weylkac_box, weylkac_oracle
from mckay.roots import m_v_status
from mckay.strata import enumerate_strata, fiber_parts, transported_framing

from conftest import pipeline

ALL_SPECS = ["cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6",
             "cyclic:7", "cyclic:8",
             "binary-dihedral:2", "binary-dihedral:3", "binary-dihedral:4",
             "binary-dihedral:5", "binary-dihedral:6",
             "binary-tetrahedral", "binary-octahedral", "binary-icosahedral",
             "cyclic:24"]


def test_reference_diagrams_have_delta_in_the_kernel():
    for ade in ["A~1", "A~2", "A~5", "D~4", "D~7", "E~6", "E~7", "E~8"]:
        adj, delta = reference_affine(ade)
        n = len(adj)
        for i in range(n):
            row = sum((2 if i == j else 0) * delta[j] - adj[i][j] * delta[j]
                      for j in range(n))
            assert row == 0
        assert delta[0] == 1


def test_cyclic_2_adjacency_is_a_double_edge():
    _, _, cd = pipeline("cyclic:2")
    assert cd.adjacency == ((0, 2), (2, 0))
    assert cd.ade_type == "A~1"


def test_cyclic_3_adjacency_is_a_triangle():
    _, _, cd = pipeline("cyclic:3")
    assert cd.adjacency == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert cd.ade_type == "A~2"


@pytest.mark.parametrize("text", ALL_SPECS)
def test_classified_types_match_the_classical_assignment(text):
    _, _, cd = pipeline(text)
    assert cd.ade_type == expected_ade_type(GroupSpec.parse(text))


@pytest.mark.parametrize("text", ALL_SPECS)
def test_cartan_kernel_and_delta(text):
    _, table, cd = pipeline(text)
    n = cd.vertex_count
    assert cd.delta == table.degrees
    for i in range(n):
        assert sum(cd.cartan[i][j] * cd.delta[j] for j in range(n)) == 0
    assert cd.delta[cd.trivial_vertex] == 1
    assert sum(d * d for d in cd.delta) == table.group.order
    assert all(cd.adjacency[i][i] == 0 for i in range(n))
    assert all(cd.adjacency[i][j] == cd.adjacency[j][i]
               for i in range(n) for j in range(n))


def test_binary_icosahedral_delta_max_entry():
    _, _, cd = pipeline("binary-icosahedral")
    assert cd.ade_type == "E~8"
    assert max(cd.delta) == 6


def test_standard_labeling_is_a_delta_preserving_isomorphism():
    for text in ["binary-dihedral:4", "binary-octahedral"]:
        _, _, cd = pipeline(text)
        ref_adj, ref_delta = reference_affine(cd.ade_type)
        lab = cd.standard_labeling
        assert sorted(lab) == list(range(cd.vertex_count))
        assert lab[cd.trivial_vertex] == 0
        for i in range(cd.vertex_count):
            assert cd.delta[i] == ref_delta[lab[i]]
            for j in range(cd.vertex_count):
                assert cd.adjacency[i][j] == ref_adj[lab[i]][lab[j]]


def test_classify_branch_graph_as_d4():
    adj = ((0, 0, 1, 0, 0), (0, 0, 1, 0, 0), (1, 1, 0, 1, 1),
           (0, 0, 1, 0, 0), (0, 0, 1, 0, 0))
    ade, _ = classify_ade(adj, (1, 1, 2, 1, 1), 0)
    assert ade == "D~4"


def test_classify_square_as_a3():
    adj = ((0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0))
    ade, lab = classify_ade(adj, (1, 1, 1, 1), root_vertex=2)
    assert ade == "A~3"
    assert lab[2] == 0


def test_classify_rejects_non_ade_graphs():
    complete = tuple(tuple(0 if i == j else 1 for j in range(4))
                     for i in range(4))
    with pytest.raises(InvariantError):
        classify_ade(complete, (1, 1, 1, 1), 0)
    disconnected = ((0, 2, 0, 0), (2, 0, 0, 0), (0, 0, 0, 2), (0, 0, 2, 0))
    with pytest.raises(InvariantError):
        classify_ade(disconnected, (1, 1, 1, 1), 0)
    with pytest.raises(InvariantError, match="root vertex 4 is not a vertex"):
        classify_ade(((0, 2), (2, 0)), (1, 1), 4)


def _relabelled(ade_type, rng):
    """The reference diagram with its vertices shuffled: reference
    vertex k becomes vertex new[k]."""
    ref_adj, ref_delta = reference_affine(ade_type)
    n = len(ref_adj)
    new = rng.sample(range(n), n)
    adj = [[0] * n for _ in range(n)]
    delta = [0] * n
    for k in range(n):
        delta[new[k]] = ref_delta[k]
        for j in range(n):
            adj[new[k]][new[j]] = ref_adj[k][j]
    return tuple(map(tuple, adj)), tuple(delta), new


def test_classify_a_relabelled_41_cycle_with_a_root():
    adj, delta, new = _relabelled("A~40", random.Random(40))
    root = new[17]
    ade, lab = classify_ade(adj, delta, root_vertex=root)
    assert ade == "A~40" and lab[root] == 0
    assert sorted(lab) == list(range(41))
    cycle = [new[k] for k in range(41)]
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        assert (lab[u] - lab[v]) % 41 in (1, 40)


def test_classify_a_relabelled_d32_with_a_root():
    adj, delta, new = _relabelled("D~32", random.Random(32))
    ref_adj, ref_delta = reference_affine("D~32")
    root = new[32]  # a delta = 1 leaf at the far end
    ade, lab = classify_ade(adj, delta, root_vertex=root)
    assert ade == "D~32" and lab[root] == 0
    assert sorted(lab) == list(range(33))
    for i in range(33):
        assert delta[i] == ref_delta[lab[i]]
        for j in range(33):
            assert adj[i][j] == ref_adj[lab[i]][lab[j]]


@pytest.mark.parametrize("ade_type", ["A~1", "A~2", "A~3", "A~4", "A~5",
                                      "A~6", "D~4", "D~5", "D~6", "E~6"])
def test_classify_returns_the_least_isomorphism(ade_type):
    # the smallest delta-preserving bijection found by trying them all
    ref_adj, ref_delta = reference_affine(ade_type)
    n = len(ref_adj)
    rng = random.Random(ade_type)
    for _ in range(3):
        adj, delta, _ = _relabelled(ade_type, rng)
        for root in rng.sample(range(n), 2):
            least = min((p for p in itertools.permutations(range(n))
                         if p[root] == 0
                         and all(delta[i] == ref_delta[p[i]] for i in range(n))
                         and all(adj[i][j] == ref_adj[p[i]][p[j]]
                                 for i in range(n) for j in range(n))),
                        default=None)
            if least is None:
                with pytest.raises(InvariantError):
                    classify_ade(adj, delta, root_vertex=root)
            else:
                assert classify_ade(adj, delta, root_vertex=root) == \
                    (ade_type, least)


@pytest.mark.parametrize("text,det", [
    ("cyclic:2", 2), ("cyclic:5", 5), ("cyclic:8", 8),
    ("binary-dihedral:2", 4), ("binary-dihedral:6", 4),
    ("binary-tetrahedral", 3), ("binary-octahedral", 2),
    ("binary-icosahedral", 1),
])
def test_finite_cartan_determinants_match_classical_indices(text, det):
    _, _, cd = pipeline(text)
    finite = [[c for j, c in enumerate(row) if j != cd.trivial_vertex]
              for i, row in enumerate(cd.cartan) if i != cd.trivial_vertex]
    assert _rank_and_determinant(finite) == (cd.rank, det)


def _rank_and_determinant(matrix):
    """Rank of an integer matrix, and its determinant if it is square, by
    Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank, det = 0, Fraction(1)
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = -det
        top = rows[rank]
        det *= top[col]
        for row in rows[rank + 1:]:
            factor = row[col] / top[col]
            row[:] = [x - factor * t for x, t in zip(row, top)]
        rank += 1
    return rank, det


@pytest.mark.parametrize("matrix,rank,det", [
    (((0, 1), (1, 0)), 2, -1),  # needs a row swap
    (((1, 2, 3), (2, 4, 6), (1, 0, 1)), 2, 0),
    ((), 0, 1),
    (((2, -2), (-2, 2)), 1, 0),  # the affine Cartan matrix of A~1
    (((0, 2, 1), (3, 0, 0), (1, 1, 4)), 3, -21),
])
def test_the_rank_and_determinant_oracle(matrix, rank, det):
    assert _rank_and_determinant(matrix) == (rank, det)


# one or two reference diagrams on at most 6 vertices
_DIAGRAMS = [("A~1",), ("A~2",), ("A~3",), ("A~4",), ("A~5",), ("D~4",), ("D~5",),
             ("A~1", "A~1"), ("A~1", "A~2"), ("A~1", "A~3"), ("A~2", "A~2")]


@st.composite
def _small_quivers(draw):
    """A quiver on at most 6 vertices: either reference diagrams side by
    side with their delta and the vertices shuffled, so the accept path
    and the disconnected refusal are drawn, with any vertex as the
    trivial one, or symmetric edge counts 0-2 (loops too) with delta
    entries 0-3 and any trivial vertex, or one just out of range."""
    if draw(st.booleans()):
        blocks = [reference_affine(t) for t in draw(st.sampled_from(_DIAGRAMS))]
        old = [(b, k) for b, (adj, _) in enumerate(blocks) for k in range(len(adj))]
        place = [old[p] for p in draw(st.permutations(range(len(old))))]
        adjacency = tuple(tuple(blocks[b][0][k][l] if b == c else 0 for c, l in place)
                          for b, k in place)
        delta = tuple(blocks[b][1][k] for b, k in place)
        return adjacency, delta, draw(st.integers(0, len(place) - 1))

    r = draw(st.integers(0, 6))
    upper = {(i, j): draw(st.integers(0, 2)) for i in range(r) for j in range(i, r)}
    adjacency = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(r))
                      for i in range(r))
    delta = tuple(draw(st.lists(st.integers(0, 3), min_size=r, max_size=r)))
    return adjacency, delta, draw(st.integers(-1, r))


def test_cartan_data_is_a_kernel_line_or_an_invariant_error():
    # C * delta = 0, delta >= 1 and the classification must give a C of
    # rank r - 1 (Perron-Frobenius), and any other input one exception type
    accepted = []

    @settings(max_examples=200, deadline=None)
    @given(_small_quivers())
    def check(quiver):
        try:
            cd = CartanData(*quiver)
        except InvariantError:
            return
        assert _rank_and_determinant(cd.cartan)[0] == cd.vertex_count - 1
        assert all(sum(c * d for c, d in zip(row, cd.delta)) == 0 for row in cd.cartan)
        accepted.append(cd.ade_type)

    check()
    assert accepted


def test_dot_output_shape():
    _, _, cd = pipeline("cyclic:3")
    dot = to_dot(cd)
    assert dot.startswith("graph")
    assert "doublecircle" in dot
    assert dot.count(" -- ") == sum(sum(row) for row in cd.adjacency) // 2
    assert "(d=1)" in dot


# the bench's catalog workload, then the largest accepted spec of each
# infinite family
SPARSE_SPECS = (ALL_SPECS[:-1] + ["cyclic:12", "cyclic:16", "cyclic:18",
                                  "binary-dihedral:10", "binary-dihedral:16",
                                  "cyclic:60", "binary-dihedral:57"])


@pytest.mark.parametrize("text", SPARSE_SPECS)
def test_sparse_cartan_holds_the_nonzero_entries_row_by_row(text):
    _, _, cd = pipeline(text)
    assert isinstance(cd.sparse_cartan, tuple)
    assert len(cd.sparse_cartan) == cd.vertex_count
    for row, sparse in zip(cd.cartan, cd.sparse_cartan):
        assert isinstance(sparse, tuple)
        assert sparse == tuple((j, c) for j, c in enumerate(row) if c)
    hash(cd)


def test_cartan_data_json_round_trip():
    _, _, cd = pipeline("binary-tetrahedral")
    assert CartanData.from_json_obj(cd.to_json_obj()) == cd


@pytest.mark.parametrize("key,value", [
    ("ade_type", "A~6"),
    ("standard_labeling", [0, 2, 1, 3, 4, 5, 6]),
    ("cartan", [[2] * 7] * 7),
    ("delta", [1, 1, 1, 1, 1, 1, 1]),
])
def test_cartan_data_from_json_rejects_data_that_do_not_verify(key, value):
    _, _, cd = pipeline("binary-tetrahedral")
    obj = cd.to_json_obj()
    obj[key] = value
    with pytest.raises(InvariantError):
        CartanData.from_json_obj(obj)


def test_stored_cartan_data_with_a_short_delta_is_refused():
    # this used to raise IndexError from the C * delta sum
    _, _, cd = pipeline("binary-tetrahedral")
    obj = cd.to_json_obj()
    obj["delta"] = [1]
    with pytest.raises(InvariantError, match="delta or the trivial vertex"):
        CartanData.from_json_obj(obj)


@pytest.mark.parametrize("adjacency,delta,trivial,message", [
    (((0, 2), (2, 0), (1, 1)), (1, 1, 1), 0, "adjacency is not square"),
    (((0, 2), (2, 0)), (1, 1), 2, "delta or the trivial vertex"),
], ids=["short-rows", "trivial-vertex"])
def test_cartan_data_checks_the_shape_before_indexing(adjacency, delta, trivial,
                                                      message):
    # each of these used to raise IndexError
    with pytest.raises(InvariantError, match=message):
        CartanData(adjacency, delta, trivial)


@pytest.mark.parametrize("x", [(), (1, 0), (1, 0, 0, 0), (1, -1, 0), (-1, -1, -1)])
def test_a_vertex_vector_has_one_nonnegative_entry_per_vertex(x):
    _, _, cd = pipeline("cyclic:3")
    with pytest.raises(ValueError) as refusal:
        cd.vertex_vector(x, "x")
    assert str(refusal.value) == ("x must have 3 entries, one per vertex, "
                                  "componentwise nonnegative")
    assert cd.vertex_vector(iter([0, 2, 1]), "x") == (0, 2, 1)


def test_every_library_entry_refuses_a_vertex_vector_by_its_name():
    _, _, cd = pipeline("cyclic:3")
    ok, bad = (1, 0, 0), (1, -1, 0)
    for call, name in [
            (lambda x: freudenthal(x, cd, 2), "framing"),
            (lambda x: weylkac_oracle(x, cd, 2), "framing"),
            (lambda x: freudenthal_box(ok, cd, x), "cap"),
            (lambda x: weylkac_box(ok, cd, x), "cap"),
            (lambda x: enumerate_strata(3, x, cd), "framing"),
            (lambda x: fiber_parts(x, ok, ok, (), cd), "v"),
            (lambda x: fiber_parts(ok, x, ok, (), cd), "w"),
            (lambda x: fiber_parts(ok, ok, x, (), cd), "v0"),
            (lambda x: transported_framing(x, ok, cd), "w"),
            (lambda x: transported_framing(ok, x, cd), "v0"),
            (lambda x: m_v_status(x, cd), "v")]:
        for x in (bad, ok[:2]):
            with pytest.raises(ValueError, match=f"^{name} must have 3 entries, one per "
                               "vertex, componentwise nonnegative$"):
                call(x)
