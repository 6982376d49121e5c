"""Weight multiplicities of integrable highest-weight modules, twice.

Multiplicities m(v) are indexed by the drop vector v >= 0: the module
with highest weight  sum w_i Lambda_i  has weight  w - sum v_i alpha_i
with multiplicity m(v).  Two independent algorithms are provided:

  * freudenthal: the Freudenthal recursion, with non-dominant weights
    handled by reflecting to a smaller drop (multiplicities are Weyl
    invariant).  It walks only the weights of the module, and steps
    the weight's pairing with the coroots from each drop to the next
    instead of recomputing it;
  * weylkac_oracle: a truncated series evaluation of the character as
    the quotient of two alternating sums over affine Weyl orbits, that
    of w + rho by that of rho.  By Kac's denominator identity the
    latter is the product of (1 - e^-beta)^mult over positive roots.
    The quotient is pushed through the window by height, and only its
    nonzero entries do any work.  The orbit walks and the push carry
    each drop packed into one int.

Both run over one finite window of drop vectors, a cap and a height
bound: all v <= cap componentwise with sum(v) <= depth.  A height
window of depth D is the cap (D, ..., D) with depth D; a box is its own
cap with depth sum(cap), and reaches the imaginary root of the big
exceptional types cheaply, where the height simplex is astronomically
big.  One bound implies the other, so a window holds min(C(n + depth,
n), prod(cap_i + 1)) vectors; one of more than WINDOW_BUDGET is refused
up front.  Freudenthal walks the window height by height from v = 0,
and only through the weights of the module: L(w) = U(n-) v_w, so each
v != 0 with m(v) != 0 has some m(v - e_i) != 0.  It tries v + e_i over
a weight v only when the reflection of v + e_i in wall i, a lower drop,
is already a weight.  All arithmetic is exact integers.

The symmetric form is fixed by (Lambda_i, alpha_j) = delta_ij and
(alpha_i, alpha_j) = C_ij, with rho = sum Lambda_i; positive affine
roots are the finite positives, the shifts (n delta +- finite), and
the imaginary multiples of delta carrying multiplicity rank.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, and_, itemgetter, le, mul, rshift, sub

from .cyclotomic import CycNumber
from .errors import InvariantError
from .quiver import CartanData
from .record import Record, _set
from .roots import root_system_for

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


def _window_roots(cd: CartanData, cap: tuple[int, ...], depth: int
                  ) -> list[tuple[tuple[int, ...], int]]:
    """Positive affine roots inside the window with their
    multiplicities, sorted by height.  The roots beta, s delta and
    s delta +- beta have heights h(beta), s h(delta) and s h(delta) +-
    h(beta), with 0 < h(beta) < h(delta), so a candidate is built only
    when its height is at most the depth, and then checked against the
    cap; the shifts stop at the first s with (s - 1) h(delta) >= depth."""
    delta, h_delta = cd.delta, sum(cd.delta)
    place = itemgetter(*cd.standard_labeling)
    finite = [(h, place((0, *beta))) for beta in root_system_for(cd).positive
              if (h := sum(beta)) <= depth or h >= h_delta - depth]
    candidates = [(beta, 1) for h, beta in finite if h <= depth]
    for shift in range(1, (depth - 1) // h_delta + 2):
        base, height = tuple(shift * d for d in delta), shift * h_delta
        if height <= depth:
            candidates.append((base, cd.rank))
        for h, beta in finite:
            if height + h <= depth:
                candidates.append((tuple(map(add, base, beta)), 1))
            if height - h <= depth:
                candidates.append((tuple(map(sub, base, beta)), 1))
    roots = [(vec, mult) for vec, mult in candidates if all(map(le, vec, cap))]
    roots.sort(key=lambda item: (sum(item[0]), item[0]))
    return roots


def _freudenthal_core(w: tuple[int, ...], cd: CartanData, cap: tuple[int, ...],
                      depth: int) -> dict[tuple[int, ...], int]:
    """The recursion over a frontier, one height at a time: each
    v - k beta and each reflected drop lies lower, so it is final when
    it is read.  pair = w - C v, the weight's pairing with the simple
    coroots, is stepped from the parent's by the sparse Cartan column
    cd.sparse_cartan[i] (C is symmetric, so column i is row i).  The
    frontier and the table are keyed by cap - v packed by _packing, so
    v - beta stays nonnegative exactly when key + beta sets no top bit:
    a root that does not fit below v costs one addition and one mask.
    v itself is unpacked only at a dominant weight and for the result.
    v + e_i joins the frontier only as a weight: when pair_i >= 1, or
    when its reflection in wall i, v - (1 - pair_i) e_i, is in the table."""
    rows = cd.sparse_cartan
    fields, bias, high = _packing(cap)
    shifts, masks = zip(*fields)
    units = [1 << shift for shift in shifts]

    def drop(key):
        return tuple(map(sub, cap, map(and_, map(rshift, repeat(key - bias), shifts), masks)))

    # v + e_i stays under the cap unless field i of the key holds bias_i
    steps = [(row, unit, mask * unit, bias & mask * unit, limit)
             for row, unit, mask, limit in zip(rows, units, masks, cap)]
    # C is symmetric, so (beta, weight at u) = beta . pair(u), and the
    # step u -> u - beta raises it by (beta, beta): 0 for s delta, the one
    # root of height s h(delta) with s = beta_trivial, 2 for a real root
    t, h_delta = cd.trivial_vertex, sum(cd.delta)
    root_data = [(sum(map(mul, beta, units)), mult, beta, 2 * (sum(beta) != beta[t] * h_delta))
                 for beta, mult in _window_roots(cd, cap, depth)]
    table: dict[int, int] = {}
    origin = sum(map(mul, cap, units)) + bias
    frontier = {origin: w}
    height = 0
    while frontier:
        following = {}
        for key, pair in frontier.items():
            low = min(pair)
            if low < 0:
                # multiplicities are Weyl invariant: reflect in a wall
                # the weight lies beyond, to a smaller drop; one below 0
                # sets a top bit, which no table key has
                i = pair.index(low)
                value = table.get(key - low * units[i], 0) if -low <= cap[i] else 0
            elif key == origin:
                value = 1
            else:
                v = drop(key)
                denominator = sum(a * (wi + 2 + p)
                                  for a, wi, p in zip(v, w, pair))
                if denominator <= 0:
                    raise InvariantError(
                        f"Freudenthal denominator {denominator} at dominant "
                        f"v={v}; bookkeeping is corrupt")
                rhs = 0
                for packed, mult, beta, norm in root_data:
                    u = key + packed
                    if u & high:
                        continue  # beta does not fit below v
                    term = sum(map(mul, beta, pair))
                    while not u & high:
                        term += norm
                        m_u = table.get(u)
                        if m_u:
                            rhs += mult * m_u * term
                        u += packed
                rhs *= 2
                if rhs % denominator:
                    raise InvariantError(f"non-integral multiplicity at v={v}")
                value = rhs // denominator
            if value <= 0:
                raise InvariantError(f"multiplicity {value} at v={drop(key)} on the "
                                     "frontier, which holds only weights")
            table[key] = value
            if height == depth:
                continue
            for p, (row, unit, field, floor, limit) in zip(pair, steps):
                u = key - unit
                # v + e_i reflects in wall i to v - (1 - p) e_i; past cap_i
                # (never, on a weight) its key could carry into field i + 1
                if key & field != floor and u not in following and (
                        p > 0 or 1 - p <= limit and key + (1 - p) * unit in table):
                    stepped = list(pair)
                    for j, c in row:
                        stepped[j] -= c
                    following[u] = tuple(stepped)
        frontier, height = following, height + 1
    return {drop(key): value for key, value in table.items()}


def _packing(cap: tuple[int, ...]) -> tuple[list[tuple[int, int]], int, int]:
    """The layout of a drop packed into one int, as (fields, bias, high):
    field i holds v_i + bias_i in b_i + 1 bits at (shift_i, mask_i), with
    b_i = cap_i.bit_length() and bias_i = 2^b_i - 1 - cap_i; high holds
    every field's top bit.  A sum v_i + d_i <= 2 cap_i never carries out
    of its field, and sets its top bit exactly when it is above cap_i."""
    fields, bias, high, shift = [], 0, 0, 0
    for c in cap:
        bits = c.bit_length()
        fields.append((shift, (2 << bits) - 1))
        bias += ((1 << bits) - 1 - c) << shift
        high += 1 << (shift + bits)
        shift += bits + 1
    return fields, bias, high


def _numerator_signs(w: tuple[int, ...], cd: CartanData, cap: tuple[int, ...],
                     depth: int, packing) -> list[dict[int, int]]:
    """Alternating sum over the affine Weyl orbit of w + rho, as dicts
    key -> sign by height, key the drop of the orbit point below w + rho
    packed by _packing and biased.  Drops grow monotonically along
    geodesics from the identity, so pruning to the window loses nothing
    inside it.  s_i with pairing p adds p to field i; p <= cap_i keeps
    the field from carrying, so its top bit flags a drop above cap_i."""
    fields, bias, high = packing
    steps = [(c, shift, row) for c, (shift, _), row in zip(cap, fields, cd.sparse_cartan)]
    levels = [{bias: 1}] + [{} for _ in range(depth)]
    # a key, its height, its children's sign, its pairing w + rho - C drop
    queue = [(bias, 0, -1, [x + 1 for x in w])]
    while queue:
        key, height, sign, pairing = queue.pop()
        room = depth - height
        for (c, shift, row), p in zip(steps, pairing):
            if p < 0 or p > c or p > room:
                continue  # s_i lowers the drop or leaves the window
            moved = key + (p << shift)
            level = levels[height + p]
            if moved & high or moved in level:
                continue
            level[moved] = sign
            stepped = pairing[:]
            for j, x in row:
                stepped[j] -= x * p
            queue.append((moved, height + p, -sign, stepped))
    return levels


def _weylkac_core(w: tuple[int, ...], cd: CartanData, cap: tuple[int, ...],
                  depth: int) -> dict[tuple[int, ...], int]:
    """The character as the quotient N_w / N_0 of two numerators: by
    Kac's denominator identity N_0 is the product of (1 - e^-beta)^mult
    over the positive roots.  The quotient is pushed height by height:
    an entry at v is final when its height comes up, and it then
    subtracts its value times N_0[d] at every v + d in the window, one
    int sum and one test of its top bits on drops packed by _packing."""
    n = cd.vertex_count
    packing = fields, bias, high = _packing(cap)
    # N_0 by height, unbiased and negated; its origin term is never read
    denominator = [[(key - bias, -sign) for key, sign in level.items()]
                   for level in _numerator_signs((0,) * n, cd, cap, depth,
                                                 packing)]
    buckets = _numerator_signs(w, cd, cap, depth, packing)

    table = {}
    for height, bucket in enumerate(buckets):
        for key, value in bucket.items():
            if not value:
                continue
            v = tuple(((key - bias) >> s) & mask for s, mask in fields)
            if value < 0:
                raise InvariantError(f"negative coefficient at v={v} in "
                                     "the character series")
            table[v] = value
            for step in range(1, depth - height + 1):
                target = buckets[height + step]
                for d, sign in denominator[step]:
                    moved = key + d
                    if not moved & high:
                        target[moved] = target.get(moved, 0) + sign * value
    if table.get((0,) * n) != 1:
        raise InvariantError("highest weight multiplicity is not 1")
    return table


def _table(core, w, cd: CartanData, depth, cap) -> MultiplicityTable:
    """core over the window named by a depth or a cap (the other None),
    as the pair (cap, depth): D gives ((D, ..., D), D), a cap (cap,
    sum(cap)).  No entry exceeds the height, and no height exceeds the
    sum of the caps, so each window is its simplex and its box at once,
    and the smaller of the two counts is its size."""
    n = cd.vertex_count
    if cap is None:
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        bound, height = (depth,) * n, depth
    else:
        cap = bound = cd.vertex_vector(cap, "cap")
        height = sum(cap)
    size = min(math.comb(n + height, n), math.prod(c + 1 for c in bound))
    if size > WINDOW_BUDGET:
        raise ValueError(f"the window holds {size} drop vectors, "
                         f"more than the budget of {WINDOW_BUDGET}")
    w = cd.vertex_vector(w, "framing")
    if not any(w):
        raise ValueError("the framing must be nonzero")
    return MultiplicityTable(framing=w, depth=depth, cap=cap,
                             entries=core(w, cd, bound, height))


def freudenthal(w, cd: CartanData, depth: int) -> MultiplicityTable:
    """Multiplicities for all drops of height <= depth."""
    return _table(_freudenthal_core, w, cd, depth, None)


def freudenthal_box(w, cd: CartanData, cap) -> MultiplicityTable:
    """Multiplicities for all drops componentwise below cap."""
    return _table(_freudenthal_core, w, cd, None, cap)


def weylkac_oracle(w, cd: CartanData, depth: int) -> MultiplicityTable:
    """Same table as freudenthal, by the truncated character series."""
    return _table(_weylkac_core, w, cd, depth, None)


def weylkac_box(w, cd: CartanData, cap) -> MultiplicityTable:
    """Same table as freudenthal_box, by the truncated character series."""
    return _table(_weylkac_core, w, cd, None, cap)


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
