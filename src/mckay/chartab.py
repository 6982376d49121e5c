"""Exact character tables from a multiplication table.

Dixon's method over a prime field F_p with p = 1 mod exponent: one
seeded element X of the class algebra splits it.  The Krylov rows of
right multiplication by X give, in one elimination, the minimal
polynomial of X and, from its r roots, the r central characters; a
draw that does not separate them is replaced by the next one.  Degrees
follow from the central characters, and each character is lifted to
exact cyclotomic numbers once per rational class: on g of order o,
Newton's identities turn chi(g^j), j <= d, into the characteristic
polynomial of g in F_p (valid as d < p), which factors uniquely into
the multiplicities m_t of zeta_o^t, as o | exponent makes the o-th
roots of unity distinct in F_p.  The other classes of a rational class,
those of g^k with k prime to o, take the Galois conjugate sigma_k of the
value on g, checked against their F_p values.  There is no floating
point anywhere.  Every table, whether built here or read back from JSON,
has its rows sorted by its constructor and is reduced once more, into a
prime field of its own: one `pairings` call there proves its rows
orthonormal and gives the McKay multiplicities, both certified exact
integers.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from .cyclotomic import CycNumber, _prime_power_structure
from .errors import InvariantError
from .groups import FiniteSubgroup, defining_character, read_value
from .record import Record, _set

__all__ = ["CharacterTable", "character_table", "inner_product", "pairings"]


class CharacterTable(Record):
    """The irreducible characters of a group, one row per character and
    one column per class, rows sorted with the trivial character first
    and then by (degree, lexicographic values), as the constructor sorts
    them; it derives the degrees, the class sizes, the defining values
    (the trace of the defining representation on each class) and the
    McKay adjacency, from which the quiver is built.
    """

    __slots__ = ("group", "values", "degrees", "class_sizes", "defining_values",
                 "mckay_adjacency")

    trivial_index = 0  # not a field: the canonical order puts it first

    def __init__(self, group: FiniteSubgroup, values: tuple[tuple[CycNumber, ...], ...]):
        values = tuple(sorted(values, key=_row_key))
        _set(self, "group", group)
        _set(self, "values", values)
        one = CycNumber.coerce(1)
        if any(v != one for v in values[0]):
            raise InvariantError("trivial character row is missing")
        if not all(row[0].is_integer() and row[0].rational_value() > 0
                   for row in values):
            raise InvariantError("a degree is not a positive integer")
        _set(self, "degrees", tuple(int(row[0].rational_value()) for row in values))
        _set(self, "class_sizes", group.class_sizes)
        _set(self, "defining_values", defining_character(group))
        # rows only: for a square table X, X D X* = |G| I already gives
        # the column relations X* X = |G| D^-1 (at the identity class,
        # sum d^2 = |G|)
        r = self.n_classes
        rows, adjacency = pairings(self, (self.values[0], self.defining_values))
        if rows != tuple(tuple(int(i == j) for j in range(r)) for i in range(r)):
            raise InvariantError("character rows are not orthonormal")
        _set(self, "mckay_adjacency", adjacency)

    @property
    def n_classes(self) -> int:
        return len(self.class_sizes)

    def to_json_obj(self) -> dict:
        return {
            "spec": str(self.group.spec),
            "degrees": list(self.degrees),
            "class_sizes": list(self.class_sizes),
            "trivial_index": self.trivial_index,
            "values": [[v.to_json_obj() for v in row] for row in self.values],
            "defining_values": [v.to_json_obj() for v in self.defining_values],
        }

    @staticmethod
    def from_json_obj(obj: dict, group: FiniteSubgroup) -> CharacterTable:
        """Rebuilt from the values on `group`, with every check run again;
        the stored JSON must serialize to the rebuilt table's text, so the
        spec, row order, degrees, class sizes, defining values and every
        integer's spelling must match."""
        seen = {}
        table = CharacterTable(group, tuple(
            tuple(read_value(v, group.order, seen) for v in row) for row in obj["values"]))
        if json.dumps(table.to_json_obj()) != json.dumps(obj):
            raise InvariantError("stored spec, row order, degrees, class sizes, defining "
                                 "values or JSON integers differ from the rebuilt table")
        return table


def _row_key(row) -> tuple:
    """Canonical row order: the trivial character, then the values, the
    first of which, row[0], is the degree."""
    one = CycNumber.coerce(1)
    return (not all(v == one for v in row), tuple(v.sort_key() for v in row))


def inner_product(chi, psi, group: FiniteSubgroup) -> CycNumber:
    """(1/|G|) sum over classes of |C| chi(C) conj(psi(C))."""
    chi, psi = tuple(chi), tuple(psi)
    if len(chi) != len(group.classes) or len(psi) != len(group.classes):
        raise ValueError("class function length does not match the class count")
    total = CycNumber.coerce(0)
    for size, a, b in zip(group.class_sizes, chi, psi):
        total = total + CycNumber.coerce(a) * CycNumber.coerce(b).conj() * size
    return total * Fraction(1, group.order)


def pairings(table: CharacterTable, chis) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """One integer matrix a_ij = (1/|G|) sum_c |C_c| chi(c) chi_i(c)
    conj(chi_j(c)) per class function chi in `chis`, all proved exact in
    one prime field; chi = 1 gives the row inner products, the defining
    character the McKay multiplicities.

    Proof.  Each value x must have integer canonical coefficients, so it
    lies in Z[zeta_e], e the lcm of the exponent and the conductors, and
    |s(x)| <= L1(x), the sum of the |coefficients|, under every complex
    embedding s (each basis element is a root of unity).  Let B = L1 L^2,
    L1 and L the largest L1 of a value of any chi and of the table; as
    class sizes are positive, |s(sum)| <= |G|B.  Let P = 1 (mod e) be the
    smallest prime above 2|G|B.  P splits completely in Q(zeta_e): the
    phi(e) maps zeta_e -> w^u, u prime to e and w a primitive e-th root
    in F_P, are the reductions modulo the primes above P, and conjugation
    turns the map u into the map -u.  Each value's image under the map u
    must be the map-1 image of the same function on the class of g^u, g
    in the value's class (for a character, chi(g^u) = sigma_u(chi(g))).
    As g -> g^u permutes the classes and keeps their sizes, each sum then
    has its map-1 residue under every map, so one product, under the map
    1, gives a_ij, the residue of sum/|G|, required to lie in [0, B].
    Then y = sum - |G| a_ij lies in every prime above P, so P^phi(e)
    divides its norm, while |s(y)| <= 2|G|B < P under every s; hence
    N(y) = 0 and y = 0.
    """
    functions = [tuple(map(CycNumber.coerce, chi)) for chi in chis]
    values = (*functions, *table.values)
    group, r, k = table.group, table.n_classes, len(functions)
    if len(values) != r + k or any(len(row) != r for row in values):
        raise ValueError("class function length does not match the class count")
    if any(v.denominator != 1 for row in values for v in row):
        raise InvariantError("a character value has a non-integer coefficient")
    l1 = [max(sum(abs(c) for _, c in v.numerators) for v in row) for row in values]
    bound = max(l1[:k]) * max(l1[k:]) ** 2
    e = lcm(group.exponent, *(v.conductor for row in values for v in row))
    p, powers = _prime_field(2 * group.order * bound, e)
    # each distinct value is reduced once per map, then read off by index
    distinct = {}
    cells = [[distinct.setdefault(v, len(distinct)) for v in row] for row in values]
    images = {}
    for u in range(e):
        if gcd(u, e) == 1:
            image = [sum(c * powers[t * u * (e // v.conductor) % e]
                         for t, c in v.numerators) % p for v in distinct]
            images[u] = [[image[i] for i in row] for row in cells]
    for u, rows in images.items():
        moved = [classes[u % len(classes)] for classes in group.power_classes]
        if any(row != [first[c] for c in moved] for row, first in zip(rows, images[1])):
            raise InvariantError("a class function is not Galois-equivariant: "
                                 "chi(g^u) and sigma_u(chi(g)) differ mod P")
    inv_order = pow(group.order, -1, p)
    conj = [[s * inv_order * x % p for s, x in zip(table.class_sizes, row)]
            for row in images[e - 1][k:]]
    matrices = tuple(tuple(tuple(sum(map(mul, row_i, row_j)) % p for row_j in conj)
                           for row_i in ([w * x % p for w, x in zip(chi, row)]
                                         for row in images[1][k:]))
                     for chi in images[1][:k])
    if any(a > bound for matrix in matrices for row in matrix for a in row):
        raise InvariantError("a character pairing is not an integer in [0, B]")
    return matrices


# -- prime field helpers (tiny dense linear algebra mod p) -------------

def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _prime_field(threshold: int, e: int) -> tuple[int, list[int]]:
    """The smallest prime p = 1 (mod e) above threshold, and the powers
    zeta_e^t in F_p for t < e, zeta_e = g^((p-1)/e) with g the least
    primitive root mod p."""
    p = threshold // e * e + 1
    while p <= threshold or not _is_prime(p):
        p += e
    primes = [q for q, *_ in _prime_power_structure(p - 1)]
    g = next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in primes))
    zeta = pow(g, (p - 1) // e, p)
    return p, [pow(zeta, t, p) for t in range(e)]


def _split_field(group: FiniteSubgroup) -> tuple[int, list[int]]:
    """The prime field of the Dixon split, p above 2 |G|^(3/2), e the exponent."""
    return _prime_field(2 * isqrt(group.order ** 3), group.exponent)


def _rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    rows = [row[:] for row in rows]
    pivots = []
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _poly_roots(coeffs: list[int], p: int) -> list[int]:
    roots = []
    for x in range(p):
        acc = 0
        for c in coeffs:
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


# -- the Dixon solve ---------------------------------------------------

# Seeded draws of the splitting element X, and how many are tried.
_SPLIT_SEED = 0
_SPLIT_TRIES = 64


def _split(group: FiniteSubgroup, x: list[int], p: int) -> list[list[int]] | None:
    """The central characters, as values on the class sums, when
    X = sum_k x_k C_k separates them; None when it does not.

    M[j][l] = sum over a in C_j of x[class(a^-1 z_l)], z_l the
    representative of class l, is right multiplication by X in the class
    basis, so the Krylov rows u_t = u_0 M^t, u_0 the unit, are the
    coordinates of X^t.  A central character omega is an algebra map, so
    U omega = (lambda^0, ..., lambda^(r-1)) with lambda = omega(X) and U
    the rows u_0 ... u_(r-1).  X separates the r characters exactly when
    U is invertible; then u_r = c U gives the minimal polynomial
    x^r - sum_t c_t x^t, whose r distinct roots in F_p are the lambdas.
    """
    r = len(x)
    table, class_of = group.mult_table, group.class_of
    inverse_rows = [[table[group.inverse_of[a]] for a in cls] for cls in group.classes]
    # M by columns: columns[l][j] = M[j][l]
    columns = [[sum(x[class_of[row[z]]] for row in rows) % p for rows in inverse_rows]
               for z in group.class_reps]
    u = [[int(c == 0) for c in range(r)]]
    for _ in range(r):
        u.append([sum(map(mul, u[-1], col)) % p for col in columns])
    reduced, pivots = _rref([row + [int(i == t) for i in range(r)]
                             for t, row in enumerate(u[:r])], p)
    if pivots != list(range(r)):
        return None
    inverse = [row[r:] for row in reduced]
    c = [sum(map(mul, u[r], col)) % p for col in zip(*inverse)]
    roots = _poly_roots([1, *(-ct % p for ct in reversed(c))], p)
    if len(roots) != r:
        return None
    return [[sum(map(mul, row, powers)) % p for row in inverse]
            for powers in ([pow(lam, t, p) for t in range(r)] for lam in roots)]


def _lift_row(chi_fp: list[int], degree: int, power_classes: tuple[tuple[int, ...], ...],
              zeta_pows: list[int], p: int, seen: dict) -> list[CycNumber]:
    """Exact values of a character of degree d from its values in F_p,
    lifted once per rational class.  On its first class, of order o,
    Newton's identities give the characteristic polynomial of g from the
    power sums chi(g^j), j <= d, dividing by k <= d < p.  As o | e, the
    exponent, and p = 1 (mod e), the o-th roots zeta_o^t = zeta_pows[te/o]
    are distinct in F_p, so the polynomial factors uniquely: m_t is how
    often x - zeta_o^t divides it, a linear remainder's root is looked up,
    and the m_t must sum to d.  The class of g^k, k prime to o, takes the
    multiplicities under t -> kt mod o, and for k > d, where Newton did
    not read it, its F_p value must be sum_t m_t zeta_o^(kt).  `seen`
    holds one table's values by (o, multiplicities), each built once."""
    inverses = [pow(k, -1, p) for k in range(1, degree + 1)]
    values: list[CycNumber | None] = [None] * len(power_classes)
    for c, powers in enumerate(power_classes):
        if values[c] is not None:
            continue
        o = len(powers)
        roots = zeta_pows[::len(zeta_pows) // o]
        # poly[k] = (-1)^k e_k, so k poly[k] = -sum_{i<=k} poly[k-i] p_i
        sums = [chi_fp[powers[j % o]] for j in range(1, degree + 1)]
        poly = [1]
        for inv in inverses:
            poly.append(-sum(map(mul, reversed(poly), sums)) * inv % p)
        mults, t = {}, 0
        while len(poly) > 1 and t < o:
            if len(poly) == 2 and -poly[1] % p in roots:  # x - zeta_o^t: look t up
                t = roots.index(-poly[1] % p)
            quotient = [1]
            for a in poly[1:]:
                quotient.append((quotient[-1] * roots[t] + a) % p)
            if quotient.pop():
                t += 1
            else:
                poly = quotient
                mults[t] = mults.get(t, 0) + 1
        if len(poly) > 1:
            raise InvariantError(f"eigenvalue multiplicities sum to {degree + 1 - len(poly)}, "
                                 f"expected {degree}")
        for k in range(o):
            if gcd(k, o) == 1:
                target = powers[k]
                if k > degree and chi_fp[target] != sum(
                        m * roots[k * t % o] for t, m in mults.items()) % p:
                    raise InvariantError(f"chi(g^{k}) and sigma_{k}(chi(g)) differ mod p")
                if values[target] is None:
                    key = (o, tuple(sorted((k * t % o, m) for t, m in mults.items())))
                    if key not in seen:
                        seen[key] = CycNumber(o, dict(key[1]))
                    values[target] = seen[key]
    return values


def character_table(group: FiniteSubgroup) -> CharacterTable:
    r = len(group.classes)
    order = group.order
    p, zeta_pows = _split_field(group)

    rng = random.Random(_SPLIT_SEED)
    for _ in range(_SPLIT_TRIES):
        omegas = _split(group, [0, *(rng.randrange(p) for _ in range(r - 1))], p)
        if omegas is not None:
            break
    else:
        raise InvariantError(
            f"no seeded element separated the central characters in {_SPLIT_TRIES} draws")

    inv_sizes = [pow(s, -1, p) for s in group.class_sizes]

    rows, seen = [], {}
    for omega in omegas:
        # power_classes[c][-1] is the class of g^-1
        norm = sum(omega[c] * omega[group.power_classes[c][-1]] * inv_sizes[c]
                   for c in range(r)) % p
        if norm == 0:
            raise InvariantError("degenerate central character norm")
        degree_sq = order * pow(norm, -1, p) % p
        # unique: two such d sum to at most 2 sqrt|G| < p
        degree = next((d for d in range(1, isqrt(order) + 1)
                       if d * d % p == degree_sq), None)
        if degree is None:
            raise InvariantError("no degree d <= sqrt|G| has d^2 = |G|/norm mod p")
        # chi(g) = d * omega(g) / |C(g)| in F_p
        chi_fp = [degree * omega[c] % p * inv_sizes[c] % p for c in range(r)]
        rows.append(tuple(_lift_row(chi_fp, degree, group.power_classes, zeta_pows, p, seen)))
    return CharacterTable(group, tuple(rows))
