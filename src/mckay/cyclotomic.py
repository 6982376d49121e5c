"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is a finite sum  sum_k (a_k / d) * zeta_N^k,  held as integer
numerators a_k over one common denominator d >= 1, with no a_k zero and
gcd(a_k, ..., d) = 1; the exponents k are reduced to a canonical basis,
so that equality of values is equality of representations.  The basis
is the product, over the prime powers q = p^v exactly dividing N, of
the power bases {zeta_q^a : 0 <= a < phi(q)}: an exponent k is
canonical iff each of its CRT digits a_p = k * ((N/q)^-1 mod q) mod q
satisfies a_p < phi(q).  Out-of-range digits are rewritten with the
relations zeta_N^N = 1 and the vanishing of the Phi_p sums
sum_{j<p} zeta_N^{k + j*N/p} = 0; the rewrite of zeta_N^k is an integer
combination of canonical powers, worked out the first time the pair
(N, k) occurs and remembered.

Every operation works on Python ints: products and sums of numerators,
the rewrite, then one gcd that restores the normal form of the
denominator.  The rational coefficients a_k / d (`terms`) are built
only when asked for.

The conductor is minimized eagerly: a prime p is dropped from N exactly
when every exponent in canonical form is divisible by p (zeta_N^e =
zeta_{N/p}^{e/p}), so N becomes N / gcd(N, k, ...).  Rational numbers
therefore always have conductor 1, and conductors congruent to 2 mod 4
never survive normalization.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

__all__ = ["CycNumber", "root_of_unity"]

_RationalLike = (int, Fraction)


@lru_cache(maxsize=None)
def _prime_power_structure(n: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """(p, q=p^v, cofactor=n//q, inverse of cofactor mod q, phi(q)) per prime p | n."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            cof = n // q
            out.append((p, q, cof, pow(cof, -1, q), q - q // p))
        p += 1 if p == 2 else 2
    if m > 1:
        q, cof = m, n // m
        out.append((m, q, cof, pow(cof, -1, q), q - 1))
    return tuple(out)


def _expansion(n: int, k: int) -> tuple[tuple[int, int], ...]:
    """zeta_n^k, 0 <= k < n, as canonical (exponent, integer) terms.
    Each rewrite changes one CRT digit only and leaves it in range, so
    at most one rewrite per prime is stacked on any path."""
    structure = _prime_power_structure(n)
    out: dict[int, int] = {}
    stack = [(k, 1)]
    while stack:
        e, c = stack.pop()
        for p, q, cof, inv, phi in structure:
            a = (e * inv) % q
            if a < phi:
                continue
            if p == 2:
                # zeta_q^a = -zeta_q^(a - q/2)
                stack.append(((e - (q // 2) * cof) % n, -c))
            else:
                # top base-p digit of a is p-1: expand the Phi_p relation
                step = q // p
                r = a - (p - 1) * step
                for j in range(p - 1):
                    stack.append(((e + (j * step + r - a) * cof) % n, -c))
            break
        else:
            out[e] = out.get(e, 0) + c
    return tuple((e, c) for e, c in out.items() if c)


# conductor -> {exponent: its canonical expansion}, filled lazily: a
# product looks up every exponent it makes, so the lookup is one dict
# access, and only exponents that occur are ever expanded
_EXPANSIONS: dict[int, dict[int, tuple[tuple[int, int], ...]]] = {}


def _reduce_digits(n: int, raw: dict[int, int]) -> dict[int, int]:
    """Rewrite integer coefficients on exponents in [0, n) into the
    canonical basis; zero coefficients may remain in the result."""
    memo = _EXPANSIONS.get(n)
    if memo is None:
        memo = _EXPANSIONS[n] = {}
    out: dict[int, int] = {}
    for e, c in raw.items():
        if not c:
            continue
        terms = memo.get(e)
        if terms is None:
            terms = memo[e] = _expansion(n, e)
        for f, k in terms:
            out[f] = out.get(f, 0) + c * k
    return out


def _make(n: int, coeffs: dict[int, int], den: int) -> CycNumber:
    """The value sum_e coeffs[e]/den zeta_n^e from canonical exponents
    and den >= 1: drops zero numerators, divides out the common gcd and
    minimizes the conductor."""
    items = [t for t in sorted(coeffs.items()) if t[1]]
    if not items:
        return _ZERO
    exponents, numerators = zip(*items)
    g = gcd(den, *numerators)
    if g > 1:
        den //= g
        items = [(e, c // g) for e, c in items]
    m = gcd(n, *exponents)
    if m > 1:
        n //= m
        items = [(e // m, c) for e, c in items]
    return _raw(n, tuple(items), den)


def _from_integers(n: int, items, den: int) -> CycNumber:
    """The value sum a/den zeta_n^e over the (e, a) in `items`, for any
    integer exponents e and den >= 1, in canonical form."""
    raw: dict[int, int] = {}
    for e, a in items:
        e %= n
        raw[e] = raw.get(e, 0) + a
    return _make(n, _reduce_digits(n, raw), den)


_new = object.__new__
_set = object.__setattr__


def _raw(conductor: int, numerators: tuple[tuple[int, int], ...], den: int) -> CycNumber:
    """Wrap an already-normal representation without re-reducing."""
    obj = _new(CycNumber)
    _set(obj, "conductor", conductor)
    _set(obj, "numerators", numerators)
    _set(obj, "denominator", den)
    return obj


def _rational_text(a: int, b: int) -> str:
    """str(Fraction(a, b)) for b >= 1: 'a' or 'a/b' in lowest terms."""
    g = gcd(a, b)
    return str(a // g) if g == b else f"{a // g}/{b // g}"


def _parse_rational(text: str) -> tuple[int, int]:
    """'a' or 'a/b' with b >= 1, as the integers (a, b)."""
    num, slash, den = text.partition("/")
    den = int(den) if slash else 1
    if den < 1:
        raise ValueError(f"denominator of {text!r} is not a positive integer")
    return int(num), den


class CycNumber:
    """An element of Q(zeta_N) in canonical reduced form.  Immutable.

    `numerators` holds the canonical (exponent, integer numerator)
    pairs in exponent order, all over `denominator`; `terms` is the
    same value as (exponent, Fraction) pairs."""

    __slots__ = ("conductor", "numerators", "denominator")

    def __new__(cls, conductor: int, terms: dict | None = None) -> CycNumber:
        if conductor < 1:
            raise ValueError("conductor must be a positive integer")
        items = list((terms or {}).items())
        if all(type(c) is int for _, c in items):
            return _from_integers(conductor, items, 1)
        items = [(e, Fraction(c)) for e, c in items]
        den = lcm(*(c.denominator for _, c in items))
        return _from_integers(
            conductor, [(e, c.numerator * (den // c.denominator)) for e, c in items], den)

    def __setattr__(self, name, value):
        raise AttributeError("CycNumber is immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    def coerce(value) -> CycNumber:
        if isinstance(value, CycNumber):
            return value
        if isinstance(value, int):
            return _raw(1, ((0, int(value)),), 1) if value else _ZERO
        if isinstance(value, Fraction):
            return (_raw(1, ((0, value.numerator),), value.denominator)
                    if value else _ZERO)
        raise TypeError(f"cannot interpret {value!r} as a cyclotomic number")

    # -- queries -----------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        d = self.denominator
        return tuple((e, Fraction(c, d)) for e, c in self.numerators)

    def is_zero(self) -> bool:
        return not self.numerators

    def rational_value(self) -> Fraction:
        if self.conductor != 1:
            raise ValueError(f"{self} is not rational")
        if not self.numerators:
            return Fraction(0)
        return Fraction(self.numerators[0][1], self.denominator)

    def is_integer(self) -> bool:
        return self.conductor == 1 and self.denominator == 1

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def __eq__(self, other) -> bool:
        if isinstance(other, _RationalLike):
            other = CycNumber.coerce(other)
        if not isinstance(other, CycNumber):
            return NotImplemented
        return (self.numerators == other.numerators
                and self.denominator == other.denominator
                and self.conductor == other.conductor)

    def __hash__(self) -> int:
        if self.conductor == 1:
            # equal to an int or a Fraction, so hashed as that value is
            c, d = self.numerators[0][1] if self.numerators else 0, self.denominator
            return hash(c if d == 1 else Fraction(c, d))
        return hash((self.conductor, self.denominator, self.numerators))

    def sort_key(self) -> tuple:
        """Deterministic total order key (no arithmetic meaning): the
        order of (conductor, terms).  An int compares with a Fraction by
        value, so integer coefficients need no Fraction."""
        if self.denominator == 1:
            return (self.conductor, self.numerators)
        return (self.conductor, self.terms)

    # -- ring operations ---------------------------------------------

    def _combine(self, other: CycNumber, sign: int) -> CycNumber:
        """self + sign * other."""
        if not other.numerators:
            return self
        if not self.numerators and sign == 1:
            return other
        n1, n2 = self.conductor, other.conductor
        n = n1 if n1 == n2 else n1 * n2 // gcd(n1, n2)
        d1, d2 = self.denominator, other.denominator
        d = d1 if d1 == d2 else d1 // gcd(d1, d2) * d2
        k1, s1, k2, s2 = n // n1, d // d1, n // n2, sign * (d // d2)
        # canonical forms stay canonical under lifting; only cancellation
        # can change the conductor
        merged = {e * k1: c * s1 for e, c in self.numerators}
        for e, c in other.numerators:
            e *= k2
            merged[e] = merged.get(e, 0) + c * s2
        return _make(n, merged, d)

    def __add__(self, other) -> CycNumber:
        if not isinstance(other, CycNumber):
            try:
                other = CycNumber.coerce(other)
            except TypeError:
                return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> CycNumber:
        return _raw(self.conductor, tuple((e, -c) for e, c in self.numerators),
                    self.denominator)

    def __sub__(self, other) -> CycNumber:
        if not isinstance(other, CycNumber):
            try:
                other = CycNumber.coerce(other)
            except TypeError:
                return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other) -> CycNumber:
        return (-self) + other

    def __mul__(self, other) -> CycNumber:
        if not isinstance(other, CycNumber):
            try:
                other = CycNumber.coerce(other)
            except TypeError:
                return NotImplemented
        a, b = self.numerators, other.numerators
        if not a or not b:
            return _ZERO
        d = self.denominator * other.denominator
        n1, n2 = self.conductor, other.conductor
        if n1 == 1 or n2 == 1:
            # a rational factor r keeps the exponents and the conductor
            terms, r, n = (a, b[0][1], n1) if n2 == 1 else (b, a[0][1], n2)
            return _make(n, {e: c * r for e, c in terms}, d)
        if n1 == n2:
            n = n1
        else:
            n = n1 * n2 // gcd(n1, n2)
            k1, k2 = n // n1, n // n2
            a = [(e * k1, c) for e, c in a]
            b = [(e * k2, c) for e, c in b]
        prod: dict[int, int] = {}
        for e1, c1 in a:
            for e2, c2 in b:
                e = e1 + e2
                if e >= n:
                    e -= n
                prod[e] = prod.get(e, 0) + c1 * c2
        return _make(n, _reduce_digits(n, prod), d)

    __rmul__ = __mul__

    def galois(self, k: int) -> CycNumber:
        """Image under zeta_N -> zeta_N^k; k must be coprime to the conductor."""
        n = self.conductor
        if gcd(k, n) != 1:
            raise ValueError(f"galois exponent {k} not coprime to conductor {n}")
        raw = {(e * k) % n: c for e, c in self.numerators}
        return _make(n, _reduce_digits(n, raw), self.denominator)

    def conj(self) -> CycNumber:
        """Complex conjugation, zeta -> zeta^-1."""
        return self.galois(self.conductor - 1) if self.conductor > 1 else self

    def __pow__(self, exponent: int) -> CycNumber:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError(f"negative exponent {exponent}: CycNumber has no division")
        result = _ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return result

    # -- serialization -----------------------------------------------

    def to_json_obj(self) -> dict:
        d = self.denominator
        return {"N": self.conductor,
                "terms": [[e, _rational_text(c, d)] for e, c in self.numerators]}

    @staticmethod
    def from_json_obj(obj: dict) -> CycNumber:
        """Coefficients are parsed as 'a' or 'a/b' straight to integers;
        the result is put in canonical form."""
        n = int(obj["N"])
        if n < 1:
            raise ValueError("conductor must be a positive integer")
        parsed = [(int(e), *_parse_rational(c)) for e, c in obj["terms"]]
        den = lcm(*(d for _, _, d in parsed))
        return _from_integers(n, [(e, a * (den // d)) for e, a, d in parsed], den)

    def __repr__(self) -> str:
        if not self.numerators:
            return "CycNumber(0)"
        if self.conductor == 1:
            return f"CycNumber({self.rational_value()})"
        bits = []
        for e, c in self.terms:
            zeta = f"z{self.conductor}^{e}" if e else "1"
            bits.append(f"{c}*{zeta}")
        return "CycNumber(" + " + ".join(bits) + ")"


_ZERO = _raw(1, (), 1)
_ONE = _raw(1, ((0, 1),), 1)


def root_of_unity(n: int, k: int = 1) -> CycNumber:
    """zeta_n^k in canonical form.  Requires n >= 1."""
    if n < 1:
        raise ValueError("order of a root of unity must be a positive integer")
    return CycNumber(n, {k % n: 1})
