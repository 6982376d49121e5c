"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is stored as a finite sum  sum_k c_k * zeta_N^k  with rational
coefficients, reduced to a canonical basis so that equality of values is
equality of representations.  The basis is the product, over the prime
powers q = p^v exactly dividing N, of the power bases {zeta_q^a : 0 <= a
< phi(q)}: an exponent k is canonical iff each of its CRT digits a_p =
k * ((N/q)^-1 mod q) mod q satisfies a_p < phi(q).  Out-of-range digits
are rewritten with the relations zeta_N^N = 1 and the vanishing of the
Phi_p sums  sum_{j<p} zeta_N^{k + j*N/p} = 0.

The conductor is minimized eagerly: a prime p is dropped from N exactly
when every exponent in canonical form is divisible by p (zeta_N^e =
zeta_{N/p}^{e/p}).  Rational numbers therefore always have conductor 1,
and conductors congruent to 2 mod 4 never survive normalization.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd

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


def _reduce_digits(n: int, raw: dict[int, Fraction]) -> dict[int, Fraction]:
    """Rewrite arbitrary exponents mod n into canonical digit range."""
    structure = _prime_power_structure(n)
    out: dict[int, Fraction] = {}
    stack = [(e % n, c) for e, c in raw.items()]
    while stack:
        e, c = stack.pop()
        if not c:
            continue
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
            acc = out.get(e)
            total = c if acc is None else acc + c
            if total:
                out[e] = total
            elif acc is not None:
                del out[e]
    return out


def _minimize_conductor(n: int, terms: dict[int, Fraction]) -> tuple[int, dict[int, Fraction]]:
    if not terms:
        return 1, {}
    changed = True
    while changed and n > 1:
        changed = False
        for p, _, _, _, _ in _prime_power_structure(n):
            if all(e % p == 0 for e in terms):
                terms = {e // p: c for e, c in terms.items()}
                n //= p
                changed = True
                break
    return n, terms


class CycNumber:
    """An element of Q(zeta_N) in canonical reduced form.  Immutable."""

    __slots__ = ("conductor", "terms", "_hash")

    def __init__(self, conductor: int, terms: dict[int, Fraction] | None = None):
        if conductor < 1:
            raise ValueError("conductor must be a positive integer")
        raw = {e: Fraction(c) for e, c in (terms or {}).items()}
        reduced = _reduce_digits(conductor, raw)
        n, reduced = _minimize_conductor(conductor, reduced)
        object.__setattr__(self, "conductor", n)
        object.__setattr__(self, "terms", tuple(sorted(reduced.items())))
        object.__setattr__(self, "_hash", hash((n, self.terms)))

    def __setattr__(self, name, value):
        raise AttributeError("CycNumber is immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    def _raw(conductor: int, terms: tuple[tuple[int, Fraction], ...]) -> CycNumber:
        """Wrap an already-canonical representation without re-reducing."""
        obj = object.__new__(CycNumber)
        object.__setattr__(obj, "conductor", conductor)
        object.__setattr__(obj, "terms", terms)
        object.__setattr__(obj, "_hash", hash((conductor, terms)))
        return obj

    @staticmethod
    def coerce(value) -> CycNumber:
        if isinstance(value, CycNumber):
            return value
        if isinstance(value, _RationalLike):
            f = Fraction(value)
            return CycNumber._raw(1, ((0, f),) if f else ())
        raise TypeError(f"cannot interpret {value!r} as a cyclotomic number")

    # -- queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return self.conductor == 1

    def rational_value(self) -> Fraction:
        if self.conductor != 1:
            raise ValueError(f"{self} is not rational")
        return self.terms[0][1] if self.terms else Fraction(0)

    def is_integer(self) -> bool:
        return self.is_rational() and self.rational_value().denominator == 1

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, _RationalLike):
            other = CycNumber.coerce(other)
        if not isinstance(other, CycNumber):
            return NotImplemented
        return self.conductor == other.conductor and self.terms == other.terms

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> tuple:
        """Deterministic total order key (no arithmetic meaning)."""
        return (self.conductor, self.terms)

    # -- ring operations ---------------------------------------------

    def _lift(self, n: int) -> dict[int, Fraction]:
        scale = n // self.conductor
        return {e * scale: c for e, c in self.terms}

    def __add__(self, other) -> CycNumber:
        try:
            other = CycNumber.coerce(other)
        except TypeError:
            return NotImplemented
        if self.conductor == 1 and other.conductor == 1:
            s = self.rational_value() + other.rational_value()
            return CycNumber._raw(1, ((0, s),) if s else ())
        n = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
        merged = self._lift(n)
        for e, c in other._lift(n).items():
            acc = merged.get(e)
            total = c if acc is None else acc + c
            if total:
                merged[e] = total
            elif acc is not None:
                del merged[e]
        # canonical forms stay canonical under lifting; only cancellation
        # can change the conductor
        n, merged = _minimize_conductor(n, merged)
        return CycNumber._raw(n, tuple(sorted(merged.items())))

    __radd__ = __add__

    def __neg__(self) -> CycNumber:
        return CycNumber._raw(self.conductor, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other) -> CycNumber:
        try:
            other = CycNumber.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> CycNumber:
        return (-self) + other

    def __mul__(self, other) -> CycNumber:
        try:
            other = CycNumber.coerce(other)
        except TypeError:
            return NotImplemented
        if other.conductor == 1:
            if not other.terms:
                return CycNumber._raw(1, ())
            r = other.terms[0][1]
            return CycNumber._raw(self.conductor, tuple((e, c * r) for e, c in self.terms))
        if self.conductor == 1:
            return other * self
        n = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
        a, b = self._lift(n), other._lift(n)
        prod: dict[int, Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                if e >= n:
                    e -= n
                acc = prod.get(e)
                prod[e] = c1 * c2 if acc is None else acc + c1 * c2
        reduced = _reduce_digits(n, prod)
        n, reduced = _minimize_conductor(n, reduced)
        return CycNumber._raw(n, tuple(sorted(reduced.items())))

    __rmul__ = __mul__

    def galois(self, k: int) -> CycNumber:
        """Image under zeta_N -> zeta_N^k; k must be coprime to the conductor."""
        n = self.conductor
        if gcd(k, n) != 1:
            raise ValueError(f"galois exponent {k} not coprime to conductor {n}")
        reduced = _reduce_digits(n, {(e * k) % n: c for e, c in self.terms})
        n, reduced = _minimize_conductor(n, reduced)
        return CycNumber._raw(n, tuple(sorted(reduced.items())))

    def conj(self) -> CycNumber:
        """Complex conjugation, zeta -> zeta^-1."""
        return self.galois(self.conductor - 1) if self.conductor > 1 else self

    def inv(self) -> CycNumber:
        """Multiplicative inverse, via the product of Galois conjugates."""
        if not self.terms:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.conductor == 1:
            return CycNumber._raw(1, ((0, 1 / self.rational_value()),))
        n = self.conductor
        cofactor = CycNumber._raw(1, ((0, Fraction(1)),))
        for k in range(2, n):
            if gcd(k, n) == 1:
                cofactor = cofactor * self.galois(k)
        norm = self * cofactor
        if not norm.is_rational():
            raise ArithmeticError("norm of a cyclotomic number must be rational")
        return cofactor * (1 / norm.rational_value())

    def __truediv__(self, other) -> CycNumber:
        try:
            other = CycNumber.coerce(other)
        except TypeError:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other) -> CycNumber:
        return CycNumber.coerce(other) * self.inv()

    def __pow__(self, exponent: int) -> CycNumber:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inv() ** (-exponent)
        result = CycNumber._raw(1, ((0, Fraction(1)),))
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return result

    # -- embedding and serialization ----------------------------------

    def to_complex(self) -> complex:
        """Floating-point embedding (display/tests only, never core arithmetic)."""
        n = self.conductor
        return sum(float(c) * cmath.exp(2j * cmath.pi * e / n) for e, c in self.terms)

    def to_json_obj(self) -> dict:
        return {"N": self.conductor, "terms": [[e, str(c)] for e, c in self.terms]}

    @staticmethod
    def from_json_obj(obj: dict) -> CycNumber:
        return CycNumber(int(obj["N"]), {int(e): Fraction(c) for e, c in obj["terms"]})

    def __repr__(self) -> str:
        if not self.terms:
            return "CycNumber(0)"
        if self.conductor == 1:
            return f"CycNumber({self.terms[0][1]})"
        bits = []
        for e, c in self.terms:
            zeta = f"z{self.conductor}^{e}" if e else "1"
            bits.append(f"{c}*{zeta}")
        return "CycNumber(" + " + ".join(bits) + ")"


def root_of_unity(n: int, k: int = 1) -> CycNumber:
    """zeta_n^k in canonical form.  Requires n >= 1."""
    if n < 1:
        raise ValueError("order of a root of unity must be a positive integer")
    return CycNumber(n, {k % n: Fraction(1)})
