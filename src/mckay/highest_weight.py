"""Weight multiplicities of integrable highest-weight modules, twice.

Multiplicities m(v) are indexed by the drop vector v >= 0: the module
with highest weight  sum w_i Lambda_i  has weight  w - sum v_i alpha_i
with multiplicity m(v).  Two independent algorithms are provided:

  * freudenthal: the Freudenthal recursion, with non-dominant weights
    handled by reflecting to a smaller drop (multiplicities are Weyl
    invariant).  It carries the weight's pairing with the coroots along
    each row instead of recomputing it per drop;
  * weylkac_oracle: a truncated series evaluation of the character as
    (alternating sum over the affine Weyl orbit of w + rho) divided by
    the product of (1 - e^-beta)^mult over positive roots.  The series
    lies row by row in one flat list, and each factor is divided out in
    one sweep of (source, destination) row pairs.

Both run over one finite window of drop vectors: either all v of height
at most D, or all v componentwise below a cap (the cap form reaches
the imaginary root of the big exceptional types cheaply, since the box
below delta is small while the height simplex is astronomically big).
Both walk the window row by row, a row fixing every coordinate but the
last, in lex order; that order puts every u < v componentwise before v,
which is all either recursion needs.  The window owns the row layout,
so neither algorithm looks at the window's shape.  A window of more
than WINDOW_BUDGET vectors is refused up front.  All arithmetic is
exact integers.

The symmetric form is fixed by (Lambda_i, alpha_j) = delta_ij and
(alpha_i, alpha_j) = C_ij, with rho = sum Lambda_i; positive affine
roots are the finite positives, the shifts (n delta +- finite), and
the imaginary multiples of delta carrying multiplicity rank.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import add, mul, sub

from .cyclotomic import CycNumber
from .errors import InvariantError
from .quiver import CartanData
from .record import Record, _set
from .roots import root_system_for, unrestrict

__all__ = [
    "MultiplicityTable",
    "DrinfeldData",
    "freudenthal",
    "freudenthal_box",
    "weylkac_oracle",
    "weylkac_box",
    "drinfeld_polynomials",
]


class MultiplicityTable(Record):
    """Nonzero weight multiplicities within a finite window; tables are
    equal when their framing, window and entries are."""

    __slots__ = ("framing", "depth", "cap", "entries")

    def __init__(self, framing: tuple[int, ...], depth: int | None,
                 cap: tuple[int, ...] | None, entries: dict[tuple[int, ...], int]):
        _set(self, "framing", framing)
        _set(self, "depth", depth)
        _set(self, "cap", cap)
        _set(self, "entries", entries)

    def multiplicity(self, v) -> int:
        return self.entries.get(tuple(v), 0)

    __hash__ = None  # the entries are a dict

    def sorted_items(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.entries.items(), key=lambda kv: (sum(kv[0]), kv[0]))


WINDOW_BUDGET = 1_000_000  # most drop vectors one window may hold


def _check_framing(w, cd: CartanData) -> tuple[int, ...]:
    w = tuple(w)
    if len(w) != cd.vertex_count:
        raise ValueError("framing length does not match the vertex count")
    if any(x < 0 for x in w):
        raise ValueError("framing entries must be nonnegative")
    if not any(w):
        raise ValueError("the framing must be nonzero")
    return w


class _Window:
    """A downward-closed set of drop vectors v >= 0: a simplex
    (sum(v) <= depth) or a box (v <= cap componentwise).  Its rows are
    laid end to end in lex order, and it owns their addressing: offset
    places a member, and passes pairs each row of v - beta with the row
    of v.  A box row starts at a mixed-radix sum of its prefix; a
    simplex row is looked up by its prefix.  Only member, size, rows,
    offset and passes look at which of the two it is, so the algorithms
    never do."""

    def __init__(self, n: int, depth: int | None = None,
                 cap: tuple[int, ...] | None = None):
        self.n, self.depth, self.cap = n, depth, cap
        if self.size > WINDOW_BUDGET:
            raise ValueError(f"the window holds {self.size} drop vectors, "
                             f"more than the budget of {WINDOW_BUDGET}")

    @classmethod
    def simplex(cls, n: int, depth: int) -> _Window:
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        return cls(n, depth=depth)

    @classmethod
    def box(cls, n: int, cap) -> _Window:
        cap = tuple(cap)
        if len(cap) != n:
            raise ValueError(f"cap must have {n} entries, got {len(cap)}")
        if any(c < 0 for c in cap):
            raise ValueError("cap entries must be nonnegative")
        return cls(n, cap=cap)

    def member(self, v) -> bool:
        if min(v) < 0:
            return False
        if self.cap is None:
            return sum(v) <= self.depth
        return all(a <= c for a, c in zip(v, self.cap))

    @property
    def size(self) -> int:
        if self.cap is None:
            return math.comb(self.n + self.depth, self.n)
        return math.prod(c + 1 for c in self.cap)

    def rows(self):
        """(prefix, run) in lex order of the prefix over the first n - 1
        coordinates; the row holds prefix + (k,) for 0 <= k < run."""
        if self.cap is not None:
            run = self.cap[-1] + 1
            return ((prefix, run) for prefix in itertools.product(
                *(range(c + 1) for c in self.cap[:-1])))
        prefixes = [((), 0)]
        for _ in range(self.n - 1):
            prefixes = [(prefix + (k,), height + k)
                        for prefix, height in prefixes
                        for k in range(self.depth - height + 1)]
        return ((prefix, self.depth - height + 1)
                for prefix, height in prefixes)

    @functools.cached_property
    def _starts(self) -> dict[tuple[int, ...], int]:
        """Flat offset of each simplex row, by its prefix."""
        starts = {}
        size = 0
        for prefix, run in self.rows():
            starts[prefix] = size
            size += run
        return starts

    @functools.cached_property
    def _strides(self) -> tuple[int, ...]:
        """Mixed-radix place values of the box coordinates."""
        strides = [1]
        for c in reversed(self.cap[1:]):
            strides.append(strides[-1] * (c + 1))
        return tuple(reversed(strides))

    def offset(self, v) -> int:
        """Position of member v when the rows are laid end to end."""
        if self.cap is None:
            return self._starts[v[:-1]] + v[-1]
        return sum(map(mul, v, self._strides))

    def passes(self, beta) -> list[tuple[int, int, int]]:
        """(src, dst, run) per row of the members v >= beta: the run
        entries from offset src hold v - beta for the run entries v from
        offset dst, in the rows' order.  The v - beta fill the simplex
        of depth - height(beta).  A box row starts at a linear function
        of its prefix, so there dst = src + offset(beta)."""
        if self.cap is None:
            start, head, last = self._starts, beta[:-1], beta[-1]
            shifted = _Window(self.n, depth=self.depth - sum(beta))
            return [(start[q], start[tuple(map(add, q, head))] + last, run)
                    for q, run in shifted.rows()]
        srcs = [0]
        for c, b, stride in zip(self.cap[:-1], beta[:-1], self._strides[:-1]):
            srcs = [s + k * stride for s in srcs for k in range(c - b + 1)]
        shift, run = self.offset(beta), self.cap[-1] - beta[-1] + 1
        return [(src, src + shift, run) for src in srcs]


def _window_roots(cd: CartanData, window: _Window
                  ) -> list[tuple[tuple[int, ...], int]]:
    """Positive affine roots inside the window with their
    multiplicities, sorted by height.  Each root s delta, s delta +- beta
    dominates (s - 1) delta, so the shifts stop at the first multiple of
    delta outside the window."""
    delta = cd.delta
    finite = [unrestrict(cd, beta, 0) for beta in root_system_for(cd).positive]
    candidates = [(beta, 1) for beta in finite]
    shift = 1
    while window.member(tuple((shift - 1) * d for d in delta)):
        base = tuple(shift * d for d in delta)
        candidates.append((base, cd.rank))
        for beta in finite:
            candidates.append((tuple(b + x for b, x in zip(base, beta)), 1))
            candidates.append((tuple(b - x for b, x in zip(base, beta)), 1))
        shift += 1
    roots = [(vec, mult) for vec, mult in candidates if window.member(vec)]
    roots.sort(key=lambda item: (sum(item[0]), item[0]))
    return roots


def _sparse_rows(cartan) -> list[list[tuple[int, int]]]:
    return [[(j, c) for j, c in enumerate(row) if c] for row in cartan]


def _freudenthal_core(w: tuple[int, ...], cd: CartanData, window: _Window,
                      roots: list[tuple[tuple[int, ...], int]]
                      ) -> dict[tuple[int, ...], int]:
    """The recursion over window.rows(), whose lex order puts every
    u < v componentwise before v: each v - k beta and each reflected
    drop is final when it is read.  pair = w - C v, the weight's
    pairing with the simple coroots, is set once per row and stepped
    by the last Cartan column along it."""
    head = [row[:-1] for row in cd.cartan]
    last = [(i, row[-1]) for i, row in enumerate(cd.cartan) if row[-1]]
    # C is symmetric, so (beta, weight at u) = beta . pair(u), and the
    # step u -> u - beta raises it by (beta, beta)
    root_data = [(beta, mult, [(i, b) for i, b in enumerate(beta) if b],
                  sum(beta[i] * c * beta[j] for i, row in enumerate(cd.cartan)
                      for j, c in enumerate(row)))
                 for beta, mult in roots]
    table: dict[tuple[int, ...], int] = {}
    for prefix, run in window.rows():
        pair = [wi - sum(map(mul, row, prefix)) for wi, row in zip(w, head)]
        for k in range(run):
            if k:
                for i, c in last:
                    pair[i] -= c
            v = prefix + (k,)
            low = min(pair)
            if low < 0:
                # multiplicities are Weyl invariant: reflect in a wall
                # the weight lies beyond, to a smaller drop
                i = pair.index(low)
                moved = list(v)
                moved[i] += low
                if moved[i] >= 0:
                    value = table.get(tuple(moved))
                    if value:
                        table[v] = value
                continue
            if not any(v):
                table[v] = 1
                continue
            denominator = sum(a * (wi + 2 + p) for a, wi, p in zip(v, w, pair))
            if denominator <= 0:
                raise InvariantError(
                    f"Freudenthal denominator {denominator} at dominant "
                    f"v={v}; bookkeeping is corrupt")
            rhs = 0
            for beta, mult, support, norm in root_data:
                steps = min(v[i] // b for i, b in support)
                term = sum(b * pair[i] for i, b in support)
                u = v
                for _ in range(steps):
                    u = tuple(map(sub, u, beta))
                    term += norm
                    m_u = table.get(u)
                    if m_u:
                        rhs += mult * m_u * term
            rhs *= 2
            if rhs % denominator:
                raise InvariantError(f"non-integral multiplicity at v={v}")
            value = rhs // denominator
            if value < 0:
                raise InvariantError(f"negative multiplicity at v={v}")
            if value:
                table[v] = value
    return table


def _numerator_signs(w: tuple[int, ...], cd: CartanData,
                     member) -> dict[tuple[int, ...], int]:
    """Alternating sum over the affine Weyl orbit of w + rho, recorded
    by the drop of the orbit point below w + rho.  Drops grow
    monotonically along geodesics from the identity, so pruning to the
    window loses nothing inside it."""
    n = cd.vertex_count
    rows = _sparse_rows(cd.cartan)
    zero = tuple([0] * n)
    signs: dict[tuple[int, ...], int] = {zero: 1}
    queue = [zero]
    while queue:
        drop = queue.pop()
        sign = signs[drop]
        for i in range(n):
            pairing = (w[i] + 1) - sum(c * drop[j] for j, c in rows[i])
            moved = list(drop)
            moved[i] += pairing
            candidate = tuple(moved)
            if candidate not in signs and member(candidate):
                signs[candidate] = -sign
                queue.append(candidate)
    return signs


def _weylkac_core(w: tuple[int, ...], cd: CartanData, window: _Window,
                  roots: list[tuple[tuple[int, ...], int]]
                  ) -> dict[tuple[int, ...], int]:
    """The numerator laid out row by row in one flat list, divided by
    each factor (1 - e^-beta) in place: every entry at v >= beta gains
    the entry at v - beta, row by row as window.passes(beta) pairs
    them.  The rows run in increasing lex order, which refines the
    componentwise order of a downward-closed window, so every source
    entry is final before it is read."""
    series = [0] * window.size
    for drop, sign in _numerator_signs(w, cd, window.member).items():
        series[window.offset(drop)] = sign

    for beta, mult in roots:
        passes = window.passes(beta)
        for _ in range(mult):
            for src, dst, run in passes:
                for k in range(run):
                    value = series[src + k]
                    if value:
                        series[dst + k] += value

    table = {}
    row = 0
    for prefix, run in window.rows():
        for k in range(run):
            value = series[row + k]
            if value:
                v = prefix + (k,)
                if value < 0:
                    raise InvariantError(f"negative coefficient at v={v} in "
                                         "the character series")
                table[v] = value
        row += run
    if table.get(tuple([0] * cd.vertex_count)) != 1:
        raise InvariantError("highest weight multiplicity is not 1")
    return table


def _table(core, w, cd: CartanData, window: _Window) -> MultiplicityTable:
    w = _check_framing(w, cd)
    entries = core(w, cd, window, _window_roots(cd, window))
    return MultiplicityTable(framing=w, depth=window.depth, cap=window.cap,
                             entries=entries)


def freudenthal(w, cd: CartanData, depth: int) -> MultiplicityTable:
    """Multiplicities for all drops of height <= depth."""
    return _table(_freudenthal_core, w, cd,
                  _Window.simplex(cd.vertex_count, depth))


def freudenthal_box(w, cd: CartanData, cap) -> MultiplicityTable:
    """Multiplicities for all drops componentwise below cap."""
    return _table(_freudenthal_core, w, cd, _Window.box(cd.vertex_count, cap))


def weylkac_oracle(w, cd: CartanData, depth: int) -> MultiplicityTable:
    """Same table as freudenthal, by the truncated character series."""
    return _table(_weylkac_core, w, cd, _Window.simplex(cd.vertex_count, depth))


def weylkac_box(w, cd: CartanData, cap) -> MultiplicityTable:
    """Same table as freudenthal_box, by the truncated character series."""
    return _table(_weylkac_core, w, cd, _Window.box(cd.vertex_count, cap))


class DrinfeldData(Record):
    """Per-vertex eigenvalue multisets and the polynomials P_i(u), the
    product over the i-th multiset of (1 - a u), which the constructor
    derives; coefficients are listed from the constant term up, so
    P_i(0) = 1."""

    __slots__ = ("eigenvalues", "polynomials")

    def __init__(self, eigenvalues: tuple[tuple[CycNumber, ...], ...]):
        _set(self, "eigenvalues", eigenvalues)
        polynomials = []
        for values in eigenvalues:
            poly = [CycNumber.coerce(1)]
            for a in values:
                nxt = [CycNumber.coerce(0)] * (len(poly) + 1)
                for k, c in enumerate(poly):
                    nxt[k] = nxt[k] + c
                    nxt[k + 1] = nxt[k + 1] - a * c
                poly = nxt
            polynomials.append(tuple(poly))
        _set(self, "polynomials", tuple(polynomials))

    def to_json_obj(self) -> dict:
        return {
            "eigenvalues": [[a.to_json_obj() for a in vs]
                            for vs in self.eigenvalues],
            "polynomials": [[c.to_json_obj() for c in poly]
                            for poly in self.polynomials],
        }


def drinfeld_polynomials(eigenvalue_multisets) -> DrinfeldData:
    """P_i(u) = prod over the i-th multiset of (1 - a u); each multiset
    is coerced to cyclotomic numbers and sorted, and an eigenvalue 0 is
    refused."""
    multisets = []
    for values in eigenvalue_multisets:
        coerced = sorted((CycNumber.coerce(a) for a in values),
                         key=lambda a: a.sort_key())
        if any(a.is_zero() for a in coerced):
            raise ValueError("eigenvalue 0 is not invertible")
        multisets.append(tuple(coerced))
    return DrinfeldData(tuple(multisets))
