"""Finite root systems and the fixed-point dichotomy.

Positive roots are generated two independent ways (root-string closure
from the simple roots, and the reflection orbit of the simple roots),
as two move rules over one walk that steps each vector's coroot
pairings by sparse Cartan columns, and the two sets are required to
agree.  Roots are integer vectors in the simple-root basis of the
reference finite diagram, i.e. reference vertices 1..n from the
classification; dimension vectors on the quiver are moved into these
coordinates through standard_labeling.

The status of the fixed-point component attached to a dimension vector
v with trivial multiplicity 1 follows the restriction of the weight
functional to the finite Cartan subalgebra: the affine simple root at
the trivial vertex restricts to minus the highest root theta, so the
relevant finite vector is (v restricted) - theta.  It is delta exactly
when that vector vanishes (the minimal resolution), a single point
exactly when it is a root, and empty otherwise; summing the single
points and the Cartan rank recovers dim g.
"""

from __future__ import annotations

import enum
from functools import lru_cache

from .errors import InvariantError
from .quiver import CartanData, Matrix, reference_affine, reference_finite
from .record import Record, _set

__all__ = [
    "RootSystem",
    "MVStatus",
    "positive_roots",
    "root_system_for",
    "m_v_status",
    "reconstruct_g_dim",
    "restrict_to_finite",
    "unrestrict",
]

GENERATION_BOUND_FACTOR = 10


class MVStatus(enum.Enum):
    EMPTY = "empty"
    SINGLE_POINT = "single_point"
    MINIMAL_RESOLUTION = "minimal_resolution"


class RootSystem(Record):
    """The positive roots of a finite Cartan matrix, in the simple-root
    basis, ordered by (height, vector): the highest root comes last.
    The constructor requires a nonempty square matrix, generates the
    roots two ways, by root-string closure and by the reflection orbit
    of the simple roots, and requires the two sets to agree and the
    highest root to be unique; positive_set holds them as a frozenset."""

    __slots__ = ("cartan", "positive", "positive_set")

    def __init__(self, cartan: Matrix):
        if not cartan or any(len(row) != len(cartan) for row in cartan):
            raise InvariantError("the Cartan matrix is not a nonempty square matrix")
        _set(self, "cartan", cartan)
        by_strings = set(_closure(cartan, _string_moves,
                                  "root generation did not terminate; "
                                  "the Cartan matrix is not finite ADE type"))
        orbit = _closure(cartan, _reflection_moves, "reflection orbit did not close")
        if by_strings != {beta for beta in orbit if min(beta) >= 0}:
            raise InvariantError("string closure and reflection orbit disagree")
        ordered = sorted(by_strings, key=lambda b: (sum(b), b))
        heights = [sum(b) for b in ordered]
        if heights.count(heights[-1]) != 1:
            raise InvariantError("highest root is not unique")
        _set(self, "positive", tuple(ordered))
        _set(self, "positive_set", frozenset(ordered))

    @property
    def count(self) -> int:
        return len(self.positive)

    @property
    def highest_root(self) -> tuple[int, ...]:
        return self.positive[-1]

    def is_root(self, vector: tuple[int, ...]) -> bool:
        """Membership in the full root system (either sign)."""
        return not self.positive_set.isdisjoint((vector, tuple(-x for x in vector)))

    def to_json_obj(self) -> dict:
        return {"cartan": [list(r) for r in self.cartan],
                "positive_roots": [list(r) for r in self.positive]}


def _closure(cartan: Matrix, moves, failure: str) -> dict[tuple[int, ...], list[int]]:
    """Every vector reached from the simple roots by the moves, with its
    pairings p_j = sum_l C[j][l] beta_l, walked one frontier at a time.
    moves(beta, pair, found) yields (i, k) for the step beta + k alpha_i,
    which adds k times column i of C to the pairings.  A frontier still
    open after GENERATION_BOUND_FACTOR n^2 rounds raises failure."""
    n = len(cartan)
    columns = [[(j, c) for j, c in enumerate(col) if c] for col in zip(*cartan)]
    found = {tuple(int(j == i) for j in range(n)): [row[i] for row in cartan]
             for i in range(n)}
    frontier = list(found.items())
    for _ in range(GENERATION_BOUND_FACTOR * n * n):
        fresh = []
        for beta, pair in frontier:
            for i, k in moves(beta, pair, found):
                step = list(beta)
                step[i] += k
                candidate = tuple(step)
                if candidate not in found:
                    stepped = pair[:]
                    for j, c in columns[i]:
                        stepped[j] += k * c
                    found[candidate] = stepped
                    fresh.append((candidate, stepped))
        frontier = fresh
        if not frontier:
            return found
    raise InvariantError(failure)


def _string_moves(beta, pair, found):
    """Up the alpha_i string through beta when it reaches further below
    beta than the pairing p_i: when p_i < 0, or when beta - k alpha_i is
    found for k = 1 .. p_i + 1."""
    for i, p in enumerate(pair):
        if p < 0:
            yield i, 1
        elif beta[i] > p:
            step = list(beta)
            for _ in range(p + 1):
                step[i] -= 1
                if tuple(step) not in found:
                    break
            else:
                yield i, 1


def _reflection_moves(beta, pair, found):
    """The simple reflections that move beta: s_i beta = beta - p_i alpha_i."""
    return ((i, -p) for i, p in enumerate(pair) if p)


def positive_roots(cartan_finite: Matrix) -> RootSystem:
    """The root system of a finite Cartan matrix given as any rows."""
    return RootSystem(tuple(tuple(row) for row in cartan_finite))


@lru_cache(maxsize=None)
def _root_system_for_type(ade_type: str) -> RootSystem:
    system = positive_roots(reference_finite(ade_type))
    _, ref_delta = reference_affine(ade_type)
    theta = tuple(ref_delta[1:])
    if system.highest_root != theta:
        raise InvariantError("highest root differs from the finite part of delta")
    return system


def root_system_for(cd: CartanData) -> RootSystem:
    return _root_system_for_type(cd.ade_type)


def restrict_to_finite(cd: CartanData, v) -> tuple[int, ...]:
    """Drop the trivial vertex and reorder into reference coordinates."""
    out = [0] * cd.rank
    for vertex, value in enumerate(v):
        if vertex == cd.trivial_vertex:
            continue
        out[cd.standard_labeling[vertex] - 1] = value
    return tuple(out)


def unrestrict(cd: CartanData, finite_part, at_trivial: int) -> tuple[int, ...]:
    """Inverse of restrict_to_finite: reference coordinates onto the
    quiver vertices, with at_trivial on the trivial vertex."""
    return tuple(at_trivial if ref == 0 else finite_part[ref - 1]
                 for ref in cd.standard_labeling)


def m_v_status(v, cd: CartanData) -> MVStatus:
    """Classify the fixed-point component of a dimension vector with
    trivial multiplicity 1: the minimal resolution at delta, otherwise
    a single point or empty according to the root dichotomy."""
    v = cd.vertex_vector(v, "v")
    if v[cd.trivial_vertex] != 1:
        raise ValueError("the component trichotomy is only defined for "
                         "trivial multiplicity 1")
    if v == cd.delta:
        return MVStatus.MINIMAL_RESOLUTION
    system = root_system_for(cd)
    theta = system.highest_root
    gamma = tuple(a - t for a, t in zip(restrict_to_finite(cd, v), theta))
    return MVStatus.SINGLE_POINT if system.is_root(gamma) else MVStatus.EMPTY


def reconstruct_g_dim(cd: CartanData) -> int:
    """dim g as (number of single-point components with trivial
    multiplicity 1) + rank: v is a single point exactly when it restricts
    to theta + gamma, gamma a root, and each root (within +-theta) gives one."""
    return 2 * root_system_for(cd).count + cd.rank
