"""Exact character tables from a multiplication table.

The class-algebra method of Burnside and Dixon: build the class-sum
multiplication constants, simultaneously diagonalize the (commuting)
class matrices over a prime field F_p with p = 1 mod exponent, read off
central characters and degrees there, and lift each character value to
an exact cyclotomic number through the discrete-log correspondence
between F_p roots of unity and powers of zeta_exponent.  There is no
floating point anywhere; orthogonality is verified exactly before the
table is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .cyclotomic import CycNumber
from .errors import InternalError
from .groups import FiniteSubgroup, GroupSpec, defining_character

__all__ = ["CharacterTable", "CharacterSolverError", "character_table", "inner_product"]


class CharacterSolverError(InternalError):
    """Class-algebra diagonalization or verification failed."""


@dataclass(frozen=True)
class CharacterTable:
    """Irreducible characters, rows sorted with the trivial character
    first and then by (degree, lexicographic values).

    defining_values carries the trace of the defining 2-dimensional
    representation on each class; the McKay quiver is built from it.
    """

    group_spec: GroupSpec
    degrees: tuple[int, ...]
    values: tuple[tuple[CycNumber, ...], ...]
    class_sizes: tuple[int, ...]
    trivial_index: int
    defining_values: tuple[CycNumber, ...]

    def __post_init__(self):
        one = CycNumber.coerce(1)
        if self.trivial_index != 0 or any(v != one for v in self.values[0]):
            raise CharacterSolverError("trivial character row is missing")

    @property
    def n_classes(self) -> int:
        return len(self.class_sizes)

    @property
    def group_order(self) -> int:
        return sum(self.class_sizes)

    def to_json_obj(self) -> dict:
        return {
            "spec": str(self.group_spec),
            "degrees": list(self.degrees),
            "class_sizes": list(self.class_sizes),
            "trivial_index": self.trivial_index,
            "values": [[v.to_json_obj() for v in row] for row in self.values],
            "defining_values": [v.to_json_obj() for v in self.defining_values],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> CharacterTable:
        return CharacterTable(
            group_spec=GroupSpec.parse(obj["spec"]),
            degrees=tuple(obj["degrees"]),
            values=tuple(tuple(CycNumber.from_json_obj(v) for v in row)
                         for row in obj["values"]),
            class_sizes=tuple(obj["class_sizes"]),
            trivial_index=obj["trivial_index"],
            defining_values=tuple(CycNumber.from_json_obj(v)
                                  for v in obj["defining_values"]),
        )


def inner_product(chi, psi, group: FiniteSubgroup) -> CycNumber:
    """(1/|G|) sum over classes of |C| chi(C) conj(psi(C))."""
    chi, psi = tuple(chi), tuple(psi)
    if len(chi) != len(group.classes) or len(psi) != len(group.classes):
        raise ValueError("class function length does not match the class count")
    total = CycNumber.coerce(0)
    for size, a, b in zip(group.class_sizes, chi, psi):
        total = total + CycNumber.coerce(a) * CycNumber.coerce(b).conj() * size
    return total * Fraction(1, group.order)


# -- prime field helpers (tiny dense linear algebra mod p) -------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _dixon_prime(order: int, exponent: int) -> int:
    """Smallest prime p = 1 (mod exponent) above the 2*|G|^(3/2) margin."""
    threshold = 2 * isqrt(order ** 3)
    p = exponent + 1
    while p <= threshold or not _is_prime(p):
        p += exponent
    return p


def _primitive_root(p: int) -> int:
    factors = []
    m = p - 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise CharacterSolverError(f"no primitive root mod {p}")


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


def _nullspace(mat: list[list[int]], p: int) -> list[list[int]]:
    n = len(mat)
    reduced, pivots = _rref(mat, p)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for row, piv in zip(reduced, pivots):
            vec[piv] = (-row[f]) % p
        basis.append(vec)
    return basis


def _charpoly(mat: list[list[int]], p: int) -> list[int]:
    """Coefficients [1, c1, ..., cn] of det(xI - M) by Faddeev-LeVerrier."""
    n = len(mat)
    coeffs = [1]
    m = [row[:] for row in mat]
    for k in range(1, n + 1):
        trace = sum(m[i][i] for i in range(n)) % p
        c = (-trace * pow(k, -1, p)) % p
        coeffs.append(c)
        if k == n:
            break
        for i in range(n):
            m[i][i] = (m[i][i] + c) % p
        m = [[sum(mat[i][t] * m[t][j] for t in range(n)) % p for j in range(n)]
             for i in range(n)]
    return coeffs


def _poly_roots(coeffs: list[int], p: int) -> list[int]:
    roots = []
    for x in range(p):
        acc = 0
        for c in coeffs:
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


def _sqrt_mod(a: int, p: int) -> int | None:
    a %= p
    for x in range(p):
        if x * x % p == a:
            return x
    return None


# -- the Dixon solve ---------------------------------------------------

def _class_constants(group: FiniteSubgroup) -> list[list[list[int]]]:
    """a[i][j][k]: number of ways a fixed element of class k factors as
    (element of class i) * (element of class j)."""
    r = len(group.classes)
    table, class_of = group.mult_table, group.class_of
    counts = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i, ci in enumerate(group.classes):
        for x in ci:
            row = table[x]
            for j, cj in enumerate(group.classes):
                cij = counts[i][j]
                for y in cj:
                    cij[class_of[row[y]]] += 1
    sizes = group.class_sizes
    for i in range(r):
        for j in range(r):
            for k in range(r):
                if counts[i][j][k] % sizes[k]:
                    raise CharacterSolverError(
                        "class products are not constant on classes")
    return [[[counts[i][j][k] // sizes[k] for k in range(r)] for j in range(r)]
            for i in range(r)]


def _common_eigenlines(mats: list[list[list[int]]], p: int, r: int) -> list[list[int]]:
    """Split F_p^r into the common one-dimensional eigenspaces of the
    transposed class matrices, by iterated eigenspace refinement."""
    identity = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    spaces = [(identity, list(range(r)))]
    for mat in mats:
        if all(len(rows) == 1 for rows, _ in spaces):
            break
        transposed = [[mat[j][i] for j in range(r)] for i in range(r)]
        refined = []
        for rows, pivots in spaces:
            k = len(rows)
            if k == 1:
                refined.append((rows, pivots))
                continue
            image = [[sum(row[t] * transposed[t][j] for t in range(r)) % p
                      for j in range(r)] for row in rows]
            # coordinates relative to an rref basis are the pivot columns;
            # transpose so that row eigenvectors become kernel vectors
            restricted = [[image[j][pivots[i]] for j in range(k)] for i in range(k)]
            eigenvalues = _poly_roots(_charpoly(restricted, p), p)
            covered = 0
            for lam in eigenvalues:
                shifted = [[(restricted[i][j] - (lam if i == j else 0)) % p
                            for j in range(k)] for i in range(k)]
                basis = _nullspace(shifted, p)
                sub = [[sum(vec[t] * rows[t][j] for t in range(k)) % p
                        for j in range(r)] for vec in basis]
                covered += len(basis)
                refined.append(_rref(sub, p))
            if covered != k:
                raise CharacterSolverError(
                    "class matrix is not diagonalizable over the chosen prime field")
        spaces = refined
    if not all(len(rows) == 1 for rows, _ in spaces) or len(spaces) != r:
        raise CharacterSolverError("class algebra did not split into eigenlines")
    return [rows[0] for rows, _ in spaces]


def _lift_row(group: FiniteSubgroup, chi_fp: list[int], degree: int,
              power_class: list[list[int]], zeta_fp: int, p: int) -> list[CycNumber]:
    e = group.exponent
    inv_e = pow(e, -1, p)
    zeta_pows = [1] * e
    for t in range(1, e):
        zeta_pows[t] = zeta_pows[t - 1] * zeta_fp % p
    values = []
    for c in range(len(group.classes)):
        mults = {}
        for t in range(e):
            m = 0
            for s in range(e):
                m += chi_fp[power_class[c][s]] * zeta_pows[(-s * t) % e]
            m = m % p * inv_e % p
            if m:
                mults[t] = Fraction(m)
        total = sum(int(v) for v in mults.values())
        if total != degree:
            raise CharacterSolverError(
                f"eigenvalue multiplicities sum to {total}, expected {degree}")
        values.append(CycNumber(e, mults))
    return values


def _verify_orthogonality(table: CharacterTable) -> None:
    rows = table.values
    sizes = table.class_sizes
    order = table.group_order
    r = len(rows)
    for i in range(r):
        for j in range(i, r):
            acc = CycNumber.coerce(0)
            for c in range(r):
                acc = acc + rows[i][c] * rows[j][c].conj() * sizes[c]
            expected = order if i == j else 0
            if acc != expected:
                raise CharacterSolverError(f"row orthogonality fails at ({i},{j})")
    for c in range(r):
        for c2 in range(c, r):
            acc = CycNumber.coerce(0)
            for i in range(r):
                acc = acc + rows[i][c] * rows[i][c2].conj()
            expected = Fraction(order, sizes[c]) if c == c2 else Fraction(0)
            if acc != expected:
                raise CharacterSolverError(f"column orthogonality fails at ({c},{c2})")


def character_table(group: FiniteSubgroup) -> CharacterTable:
    r = len(group.classes)
    order = group.order
    e = group.exponent
    p = _dixon_prime(order, e)

    constants = _class_constants(group)
    lines = _common_eigenlines(constants, p, r)

    identity_class = group.class_of[group.identity_index]
    inverse_class = [group.class_of[group.inverse_of[rep]] for rep in group.class_reps]
    sizes = group.class_sizes
    inv_sizes = [pow(s, -1, p) for s in sizes]

    power_class = []
    for rep in group.class_reps:
        row = []
        x = group.identity_index
        for _ in range(e):
            row.append(group.class_of[x])
            x = group.mult_table[x][rep]
        power_class.append(row)

    zeta_fp = pow(_primitive_root(p), (p - 1) // e, p)

    rows = []
    for line in lines:
        if line[identity_class] == 0:
            raise CharacterSolverError("central character vanishes on the identity")
        scale = pow(line[identity_class], -1, p)
        omega = [v * scale % p for v in line]
        norm = sum(omega[c] * omega[inverse_class[c]] * inv_sizes[c]
                   for c in range(r)) % p
        if norm == 0:
            raise CharacterSolverError("degenerate central character norm")
        degree_sq = order * pow(norm, -1, p) % p
        root = _sqrt_mod(degree_sq, p)
        if root is None:
            raise CharacterSolverError("degree squared is not a square mod p")
        degree = min(root, p - root)
        # chi(g) = d * omega(g) / |C(g)| in F_p
        chi_fp = [degree * omega[c] % p * inv_sizes[c] % p for c in range(r)]
        rows.append((degree, _lift_row(group, chi_fp, degree, power_class,
                                       zeta_fp, p)))

    if sum(d * d for d, _ in rows) != order:
        raise CharacterSolverError("degrees do not satisfy sum d^2 = |G|")

    one = CycNumber.coerce(1)
    rows.sort(key=lambda item: (not all(v == one for v in item[1]), item[0],
                                tuple(v.sort_key() for v in item[1])))

    table = CharacterTable(
        group_spec=group.spec,
        degrees=tuple(d for d, _ in rows),
        values=tuple(tuple(vals) for _, vals in rows),
        class_sizes=sizes,
        trivial_index=0,
        defining_values=defining_character(group),
    )
    _verify_orthogonality(table)
    return table
