"""McKay quiver, affine Cartan data, and ADE classification.

The quiver has one vertex per irreducible character; the number of
edges between vertices i and j is the multiplicity of character j in
the product of the defining character with character i.  Its graph is
classified against explicit reference affine diagrams, and the data
(adjacency, Cartan matrix, kernel vector, labeling) is verified rather
than assumed: C * delta = 0 with delta positive and primitive, and the
classification.  The kernel of C is then the line through delta by
Perron-Frobenius, with no linear algebra: A = 2I - C is nonnegative and,
as the quiver is connected, irreducible, and A delta = 2 delta with
delta > 0 makes 2 its Perron root, which is simple (Kac,
Infinite-dimensional Lie algebras, Thm 4.3).

Reference labelings put the affine vertex at 0; the finite diagram on
vertices 1..n follows the usual conventions (chains numbered along the
diagram, branch vertex carrying the fork).
"""

from __future__ import annotations

import json
from functools import lru_cache

from .chartab import CharacterTable
from .errors import InvariantError
from .groups import GroupSpec
from .record import Record, _set

__all__ = [
    "CartanData",
    "mckay_quiver",
    "classify_ade",
    "reference_affine",
    "reference_finite",
    "expected_ade_type",
    "to_dot",
]

Matrix = tuple[tuple[int, ...], ...]


class CartanData(Record):
    """Affine Cartan data of a quiver with delta as its dimension vector.
    The constructor checks: a square adjacency, delta and the trivial
    vertex in range of it, C * delta = 0, delta >= 1 with delta = 1 at
    the trivial vertex, and classification with the trivial vertex as
    the root, the one check of symmetry, loops and connectivity; it
    derives the vertex count, the Cartan matrix C = 2I - A, the type and
    the labeling.

    These prove that ker C is the line through delta.  A = 2I - C is
    nonnegative (classification matches it edge for edge with a
    reference diagram), and irreducible because the quiver is connected.
    A delta = 2 delta with delta > 0, so 2 is the Perron root of A,
    which is simple: ker C = R delta.

    sparse_cartan[i] holds the (j, C_ij) with C_ij != 0, j ascending: row
    i of C, and column i, as C is symmetric.  standard_labeling[v] is the
    reference vertex of ade_type that v corresponds to; the trivial
    vertex maps to 0.
    """

    __slots__ = ("adjacency", "delta", "trivial_vertex", "vertex_count", "cartan",
                 "sparse_cartan", "ade_type", "standard_labeling")

    def __init__(self, adjacency: Matrix, delta: tuple[int, ...], trivial_vertex: int):
        _set(self, "adjacency", adjacency)
        _set(self, "delta", delta)
        _set(self, "trivial_vertex", trivial_vertex)
        r = len(adjacency)
        if any(len(row) != r for row in adjacency):
            raise InvariantError("quiver adjacency is not square")
        if len(delta) != r or not 0 <= trivial_vertex < r:
            raise InvariantError("delta or the trivial vertex does not fit the quiver")
        cartan = tuple(tuple((2 if i == j else 0) - adjacency[i][j] for j in range(r))
                       for i in range(r))
        sparse = tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in cartan)
        if any(sum(c * delta[j] for j, c in row) for row in sparse):
            raise InvariantError("C * delta != 0")
        if min(delta) < 1 or delta[trivial_vertex] != 1:
            raise InvariantError("delta is not a primitive positive kernel vector")
        ade_type, labeling = classify_ade(adjacency, delta, trivial_vertex)
        _set(self, "vertex_count", r)
        _set(self, "cartan", cartan)
        _set(self, "sparse_cartan", sparse)
        _set(self, "ade_type", ade_type)
        _set(self, "standard_labeling", labeling)

    @property
    def rank(self) -> int:
        return self.vertex_count - 1

    @property
    def group_order(self) -> int:
        return sum(d * d for d in self.delta)

    def vertex_vector(self, x, name: str) -> tuple[int, ...]:
        """x as a tuple, refused unless it has one nonnegative entry per
        vertex: the one check of every framing, cap and dimension vector."""
        x = tuple(x)
        if len(x) != self.vertex_count or min(x) < 0:
            raise ValueError(f"{name} must have {self.vertex_count} entries, "
                             "one per vertex, componentwise nonnegative")
        return x

    def to_json_obj(self) -> dict:
        return {
            "vertex_count": self.vertex_count,
            "adjacency": [list(r) for r in self.adjacency],
            "cartan": [list(r) for r in self.cartan],
            "delta": list(self.delta),
            "trivial_vertex": self.trivial_vertex,
            "ade_type": self.ade_type,
            "standard_labeling": list(self.standard_labeling),
        }

    @staticmethod
    def from_json_obj(obj: dict) -> CartanData:
        """Rebuilt by the constructor from the adjacency, delta and
        trivial vertex, with every invariant checked again; the stored
        JSON must serialize to the rebuilt data's text, so the Cartan
        matrix, type, labeling and every integer's spelling must match."""
        cd = CartanData(tuple(tuple(int(a) for a in row) for row in obj["adjacency"]),
                        tuple(int(d) for d in obj["delta"]), int(obj["trivial_vertex"]))
        if json.dumps(cd.to_json_obj()) != json.dumps(obj):
            raise InvariantError("stored Cartan data or JSON integers differ from "
                                 "what their quiver gives")
        return cd


# -- reference diagrams ------------------------------------------------

def _from_edges(count: int, edges: list[tuple[int, int]],
                delta: tuple[int, ...]) -> tuple[Matrix, tuple[int, ...]]:
    adj = [[0] * count for _ in range(count)]
    for a, b in edges:
        adj[a][b] += 1
        adj[b][a] += 1
    return tuple(tuple(r) for r in adj), delta


@lru_cache(maxsize=None)
def reference_affine(ade_type: str) -> tuple[Matrix, tuple[int, ...]]:
    """Adjacency and kernel vector of the reference affine diagram."""
    kind, _, num = ade_type.partition("~")
    n = int(num) if num else 0
    if kind == "A" and n == 1:
        return ((0, 2), (2, 0)), (1, 1)
    if kind == "A" and n >= 2:
        edges = [(i, i + 1) for i in range(n)] + [(n, 0)]
        return _from_edges(n + 1, edges, (1,) * (n + 1))
    if kind == "D" and n >= 4:
        edges = [(0, 2), (1, 2)] + [(i, i + 1) for i in range(2, n - 2)]
        edges += [(n - 2, n - 1), (n - 2, n)]
        delta = (1, 1) + (2,) * (n - 3) + (1, 1)
        return _from_edges(n + 1, edges, delta)
    if ade_type == "E~6":
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4), (0, 2)]
        return _from_edges(7, edges, (1, 1, 2, 2, 3, 2, 1))
    if ade_type == "E~7":
        edges = [(0, 1), (1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)]
        return _from_edges(8, edges, (1, 2, 2, 3, 4, 3, 2, 1))
    if ade_type == "E~8":
        edges = [(0, 8), (8, 7), (7, 6), (6, 5), (5, 4), (4, 3), (3, 1), (2, 4)]
        return _from_edges(9, edges, (1, 2, 3, 4, 6, 5, 4, 3, 2))
    raise ValueError(f"unknown affine ADE type {ade_type!r}")


@lru_cache(maxsize=None)
def reference_finite(ade_type: str) -> Matrix:
    """Finite Cartan matrix: delete vertex 0 of the reference diagram."""
    adj, _ = reference_affine(ade_type)
    n = len(adj) - 1
    return tuple(tuple((2 if i == j else 0) - adj[i + 1][j + 1] for j in range(n))
                 for i in range(n))


def expected_ade_type(spec: GroupSpec) -> str:
    """The classical assignment; tests compare the computed type to it."""
    if spec.family == "cyclic":
        return f"A~{spec.parameter - 1}"
    if spec.family == "binary-dihedral":
        return f"D~{spec.parameter + 2}"
    return {"binary-tetrahedral": "E~6", "binary-octahedral": "E~7",
            "binary-icosahedral": "E~8"}[spec.family]


def _candidate_types(count: int) -> list[str]:
    out = [f"A~{count - 1}"] if count >= 2 else []
    if count >= 5:
        out.append(f"D~{count - 1}")
    return out + {7: ["E~6"], 8: ["E~7"], 9: ["E~8"]}.get(count, [])


def _isomorphisms(adjacency: Matrix, delta: tuple[int, ...], ref_adj: Matrix,
                  ref_delta: tuple[int, ...], parent: dict[int, int | None]
                  ) -> list[tuple[int, ...]]:
    """Every delta-preserving isomorphism onto the reference diagram
    that sends the root to vertex 0.  Partial maps grow in breadth-first
    order: each vertex after the root goes to an unused reference
    neighbour of its parent's image, and only maps that still agree on
    delta and edges are kept."""
    partial: list[dict[int, int]] = [{}]
    for v, p in parent.items():
        grown = []
        for image in partial:
            targets = ((0,) if p is None else
                       [t for t, edges in enumerate(ref_adj[image[p]]) if edges])
            for t in targets:
                if (t not in image.values() and delta[v] == ref_delta[t]
                        and adjacency[v][v] == ref_adj[t][t]
                        and all(adjacency[v][u] == ref_adj[t][s]
                                for u, s in image.items())):
                    grown.append({**image, v: t})
        partial = grown
    return [tuple(image[v] for v in range(len(image))) for image in partial]


def classify_ade(adjacency: Matrix, delta: tuple[int, ...],
                 root_vertex: int) -> tuple[str, tuple[int, ...]]:
    """Identify the graph with a reference affine ADE diagram.

    Returns the type tag and an explicit vertex bijection onto the
    reference labeling: labeling[v] is the reference vertex of v, delta
    labels and edge multiplicities are preserved, and root_vertex is
    sent to vertex 0.  Of all such bijections the lexicographically
    smallest tuple is returned, so the labeling does not depend on how
    the search runs.  Raises InvariantError if the graph matches no
    reference.
    """
    adjacency = tuple(tuple(row) for row in adjacency)
    n = len(adjacency)
    if any(len(row) != n for row in adjacency):
        raise InvariantError("adjacency matrix is not square")
    if any(adjacency[i][j] != adjacency[j][i] for i in range(n) for j in range(n)):
        raise InvariantError("adjacency matrix is not symmetric")
    delta = tuple(delta)
    if n < 2 or len(delta) != n:
        raise InvariantError("not an affine ADE diagram")
    if not 0 <= root_vertex < n:
        raise InvariantError(f"root vertex {root_vertex} is not a vertex")
    # each vertex reached from the root, mapped to its breadth-first parent
    parent: dict[int, int | None] = {root_vertex: None}
    queue = list(parent)
    for v in queue:  # the loop also visits what it appends
        for u, edges in enumerate(adjacency[v]):
            if edges and u not in parent:
                parent[u] = v
                queue.append(u)
    if len(parent) != n:
        raise InvariantError("not an affine ADE diagram: graph is disconnected")
    for ade_type in _candidate_types(n):
        ref_adj, ref_delta = reference_affine(ade_type)
        labelings = _isomorphisms(adjacency, delta, ref_adj, ref_delta, parent)
        if labelings:
            return ade_type, min(labelings)
    raise InvariantError("not an affine ADE diagram")


# -- the quiver itself -------------------------------------------------

def mckay_quiver(table: CharacterTable) -> CartanData:
    """Adjacency a_ij = multiplicity of character j in (defining * i),
    as the table's constructor proved it."""
    return CartanData(table.mckay_adjacency, table.degrees, table.trivial_index)


def to_dot(cd: CartanData) -> str:
    """DOT rendering with delta labels; the trivial vertex is double-circled."""
    lines = ["graph mckay_quiver {"]
    for v in range(cd.vertex_count):
        shape = "doublecircle" if v == cd.trivial_vertex else "circle"
        lines.append(f'  v{v} [label="ρ{v} (d={cd.delta[v]})", shape={shape}];')
    for i in range(cd.vertex_count):
        for j in range(i + 1, cd.vertex_count):
            lines.extend([f"  v{i} -- v{j};"] * cd.adjacency[i][j])
    lines.append("}")
    return "\n".join(lines) + "\n"
