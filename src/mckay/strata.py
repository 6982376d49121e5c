"""Stratification of fixed-point sets and fiber bookkeeping.

A stratum is labeled by the dimension vector of the locally-free part,
a partition recording cycle multiplicities at distinct nonzero points
of the quotient singularity, and the residual multiplicity at the
origin.  Points are counted upstairs throughout: a free orbit costs
the group order, the locally-free part costs sum(v0_i * delta_i), and
the residual is whatever remains of n.

The transported framing w - C v0 must be the class of an honest
representation, so nonnegativity is enforced as a necessary
nonemptiness filter; labels with a nonzero locally-free part are only
candidates (no sufficient criterion is implemented).  In rank one, the
only locally-free sheaf trivial at infinity is the trivial line
bundle, so v0 = 0 is forced there.  A listing of more than
STRATA_BUDGET vectors and labels is refused before any label is listed:
with a framing, the v0 are counted before the v0 walk, their labels after.

A listing is a list of blocks (v0, residual, partitions) in printed
order, each standing for the labels (v0, lam, residual), one per lam:
the library wraps them in StratumLabel, and the CLI writes their JSON
from templates.  The partition lists of every free-orbit count are built
once, from each other, and shared by every v0.  The framed v0 come from a
walk that carries w - C v0 one Cartan column at a time and drops a branch
as soon as an entry is negative beyond what the later entries can add, so
the vectors that fail the filter are mostly never built.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import itemgetter, sub

from .quiver import CartanData
from .record import Record, _set

__all__ = [
    "StratumLabel",
    "FiberLabel",
    "partitions",
    "enumerate_strata_rank1",
    "cartan_apply",
    "transported_framing",
    "fiber_parts",
    "enumerate_strata",
]


class StratumLabel(Record):
    """(locally-free part, partition of free-orbit multiplicities,
    residual multiplicity at the origin).  A label with a nonzero
    locally-free part is only a candidate."""

    __slots__ = ("v0", "lam", "residual", "candidate")

    def __init__(self, v0: tuple[int, ...], lam: tuple[int, ...], residual: int):
        if any(x < 0 for x in v0):
            raise ValueError("v0 must be componentwise nonnegative")
        if any(a <= 0 for a in lam):
            raise ValueError("partition parts must be positive")
        if any(a < b for a, b in zip(lam, lam[1:])):
            raise ValueError("partition parts must be weakly decreasing")
        if residual < 0:
            raise ValueError("residual multiplicity must be nonnegative")
        _set(self, "v0", v0)
        _set(self, "lam", lam)
        _set(self, "residual", residual)
        _set(self, "candidate", any(v0))

    def to_json_obj(self) -> dict:
        return {"v0": list(self.v0), "lam": list(self.lam),
                "residual": self.residual, "candidate": self.candidate}


class FiberLabel(Record):
    """Label of the fiber over a stratum point: a Lagrangian central
    fiber for the transported framing, times punctual pieces.  It is
    empty when the Lagrangian label has a negative entry or there is no
    transported framing."""

    __slots__ = ("lagrangian_v", "transported_w", "punctual_parts", "empty")

    def __init__(self, lagrangian_v: tuple[int, ...], transported_w: tuple[int, ...] | None,
                 punctual_parts: tuple[int, ...]):
        _set(self, "lagrangian_v", lagrangian_v)
        _set(self, "transported_w", transported_w)
        _set(self, "punctual_parts", punctual_parts)
        _set(self, "empty", transported_w is None or any(a < 0 for a in lagrangian_v))

    def to_json_obj(self) -> dict:
        return {
            "lagrangian_v": list(self.lagrangian_v),
            "transported_w": None if self.transported_w is None
            else list(self.transported_w),
            "punctual_parts": list(self.punctual_parts),
            "empty": self.empty,
        }


def partitions(m: int) -> list[tuple[int, ...]]:
    """All partitions of m, in reverse-lexicographic order.  Each one
    follows from the one before: strip its trailing 1s, lower the last
    part left by one to k, and refill greedily with parts at most k."""
    if m < 0:
        raise ValueError("cannot partition a negative integer")
    out: list[tuple[int, ...]] = []
    part = [m] if m else []
    while True:
        out.append(tuple(part))
        cut = len(part)
        while cut and part[cut - 1] == 1:
            cut -= 1
        if not cut:
            return out
        k = part[cut - 1] - 1
        whole, rest = divmod(len(part) - cut + 1, k)
        part[cut - 1:] = [k] * (whole + 1) + ([rest] if rest else [])


def _coin_change(coins, top: int) -> list[int]:
    """ways[u] for u = 0 .. top: the number of multisets of coins that
    sum to u; with the coins 1 .. top it is the partition count p(u)."""
    ways = [1] + [0] * top
    for d in coins:
        for u in range(d, top + 1):
            ways[u] += ways[u - d]
    return ways


STRATA_BUDGET = 1_000_000  # most v0 vectors plus labels one call may list
_PARTITION_CUT = 100  # p(100) alone is over the budget


def _refuse_over_budget(n: int, count: int, cut: bool) -> None:
    if count > STRATA_BUDGET:
        bound = "at least " if cut else ""
        raise ValueError(f"strata for n = {n} list {bound}{count} vectors and "
                         f"labels, more than the budget of {STRATA_BUDGET}")


def enumerate_strata_rank1(n: int, cd: CartanData) -> list[StratumLabel]:
    """All strata of the invariant n-point locus: a partition worth of
    free orbits plus the residue at the origin.  Ordered by total
    partition size descending, then lexicographically."""
    return _labels(_list_strata(n, None, cd))


def cartan_apply(cd: CartanData, v) -> tuple[int, ...]:
    """C v, for any integer vector v on the vertices."""
    v = tuple(v)
    if len(v) != cd.vertex_count:
        raise ValueError(f"v must have {cd.vertex_count} entries, one per vertex")
    return tuple(sum(c * v[j] for j, c in row) for row in cd.sparse_cartan)


def transported_framing(w, v0, cd: CartanData) -> tuple[int, ...] | None:
    """w - C v0 when componentwise nonnegative, else None: the fiber of
    the locally-free part at the origin must be a representation."""
    moved = tuple(map(sub, cd.vertex_vector(w, "w"),
                      cartan_apply(cd, cd.vertex_vector(v0, "v0"))))
    return moved if min(moved) >= 0 else None


def fiber_parts(v, w, v0, lam, cd: CartanData) -> FiberLabel:
    """Fiber bookkeeping from raw pieces: the residual Lagrangian label
    v - v0 - m*delta with the transported framing, and one punctual
    factor per partition part, in descending order.  v, w and v0 must be
    nonnegative, and the parts of lam positive."""
    v, w, v0 = (cd.vertex_vector(x, name)
                for x, name in ((v, "v"), (w, "w"), (v0, "v0")))
    lam = tuple(sorted(lam, reverse=True))
    if any(part <= 0 for part in lam):
        raise ValueError("lam parts must be positive integers")
    m = sum(lam)
    lagrangian = tuple(a - b - m * d for a, b, d in zip(v, v0, cd.delta))
    return FiberLabel(lagrangian, transported_framing(w, v0, cd), lam)


def _bounded_count(weights: tuple[int, ...], n: int) -> int:
    """The number of nonnegative vectors v with sum(v_i * weights_i) <=
    n, their coin-change count.  Refused when it is above STRATA_BUDGET.
    The count runs over sums cut at 1, 2, 4, ... and stops at n or at the
    first cut whose count, which only lowers the full one, is over the
    budget."""
    top = 1
    while True:
        top = min(top, n)
        ways = _coin_change(weights, top)
        if top == n or sum(ways) > STRATA_BUDGET:
            break
        top *= 2
    _refuse_over_budget(n, sum(ways), top < n)
    return sum(ways)


def _framed_v0s(n: int, w: tuple[int, ...], cd: CartanData
                ) -> list[tuple[int, tuple[int, ...]]]:
    """(sum(v0_i delta_i), v0) for every nonnegative v0 with that sum at
    most n and w - C v0 nonnegative, v0 in lexicographic order.  The walk
    fixes v0 one entry at a time and carries pair = w - C v0: a unit
    added to v0_i lowers it by the sparse Cartan column
    cd.sparse_cartan[i] (C is symmetric, so column i is row i).  Once
    v0_j is fixed, its unfixed neighbours k can only raise entry j, by at
    most max |C_jk| rem / delta_k with rem the points left, so a branch
    is dropped as soon as an entry is negative beyond that.  A branch
    whose points are spent is finished with zeros at once."""
    rows, delta = cd.sparse_cartan, cd.delta
    # watch[i]: (j, a, b, falls) for each entry j that v0_i leaves open or
    # final, a / b the largest |C_jk| / delta_k over its unfixed neighbours
    # k (0 / 1 if none); falls when raising v0_i does not raise entry j
    watch: list[list[tuple[int, int, int, bool]]] = [[] for _ in rows]
    for j, row in enumerate(rows):
        for i in range(j, row[-1][0] + 1):
            a, b = max(((-c, delta[k]) for k, c in row if k > i),
                       key=lambda ab: Fraction(*ab), default=(0, 1))
            watch[i].append((j, a, b, dict(row).get(i, 0) >= 0))
    kept = []
    # depth first, the smallest next entry popped first
    stack = [((), n, list(w))]
    while stack:
        prefix, remaining, pair = stack.pop()
        i = len(prefix)
        if i == len(rows) or not remaining:
            # v0 is zero from i on: the unfixed entries of pair only rose
            # from w >= 0, and the others passed with no room left
            kept.append((n - remaining, prefix + (0,) * (len(rows) - i)))
            continue
        d, children, value, rem = delta[i], [], 0, remaining
        while True:
            for j, a, b, falls in watch[i]:
                if pair[j] < 0 and pair[j] + a * rem // b < 0:
                    break
            else:
                children.append((prefix + (value,), rem, pair))
                falls = False
            # an entry that fails and falls fails for every larger v0_i
            if falls or rem < d:
                break
            value, rem, pair = value + 1, rem - d, pair[:]
            for j, c in rows[i]:
                pair[j] -= c
        stack.extend(reversed(children))
    return kept


def _ascending_partitions(cut: int) -> list[list[tuple[int, ...]]]:
    """The partitions of each m = 0 .. cut, in lexicographic order, each
    list built from the shorter ones: the partitions of m with parts at
    most k are those with parts at most k - 1, then (k,) + each partition
    of m - k with parts at most k."""
    ascending: list[list[tuple[int, ...]]] = [[()]] + [[] for _ in range(cut)]
    for k in range(1, cut + 1):
        for m in range(k, cut + 1):
            ascending[m].extend([(k,) + rest for rest in ascending[m - k]])
    return ascending


def _list_strata(n: int, w, cd: CartanData
                 ) -> list[tuple[tuple[int, ...], int, list[tuple[int, ...]]]]:
    """The listing for framing w (rank one when w is None) as blocks
    (v0, residual, partitions) in printed order: one block per kept v0
    and free-orbit count m, holding the partitions of m in lexicographic
    order, whose labels are (v0, lam, residual) for each lam.  The kept
    v0 are those of a nonnegative transported framing, walked by
    _framed_v0s in lexicographic order and sorted stably by sum(v0_i
    delta_i), so ordered by (sum(v0_i delta_i), v0); m runs down from
    the most free orbits the remaining points hold; in rank one v0 = 0
    alone is kept.  Refused first when the v0 vectors plus the labels
    are more than STRATA_BUDGET: each kept v0 brings one label per
    partition of every m <= (n - sum(v0_i delta_i)) // |Gamma|.  Cutting
    m at _PARTITION_CUT only lowers the count, and a cut count is already
    over the budget; v0 = 0 is always kept, so past the refusal no m is
    above the cut."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    rank_one = tuple(int(i == cd.trivial_vertex) for i in range(cd.vertex_count))
    w = rank_one if w is None else cd.vertex_vector(w, "framing")
    if w == rank_one:
        vectors, kept = 1, [(0, (0,) * cd.vertex_count)]
    else:
        vectors = _bounded_count(cd.delta, n)
        kept = sorted(_framed_v0s(n, w, cd), key=itemgetter(0))
    order = cd.group_order
    cut = min(n // order, _PARTITION_CUT)
    p = _coin_change(range(1, cut + 1), cut)
    labels_up_to = list(itertools.accumulate(p))
    count = vectors + sum(labels_up_to[min((n - used) // order, cut)]
                          for used, _ in kept)
    _refuse_over_budget(n, count, cut < n // order)
    ascending = _ascending_partitions(cut)
    return [(v0, n - used - order * m, ascending[m])
            for used, v0 in kept
            for m in range((n - used) // order, -1, -1)]


def _labels(blocks) -> list[StratumLabel]:
    return [StratumLabel(v0, lam, residual)
            for v0, residual, lams in blocks for lam in lams]


def enumerate_strata(n: int, w, cd: CartanData) -> list[StratumLabel]:
    """Candidate strata for framing w: all (v0, lam) with the upstairs
    point count  |Gamma|*|lam| + sum(v0_i delta_i)  at most n and a
    nonnegative transported framing.  Labels with v0 != 0 carry the
    candidate flag (no sufficient nonemptiness criterion is known
    here); in rank one only v0 = 0 occurs."""
    return _labels(_list_strata(n, w, cd))
