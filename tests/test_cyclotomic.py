import cmath
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mckay.cyclotomic import CycNumber, root_of_unity

conductors = st.integers(min_value=1, max_value=24)
coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def cyc_numbers(draw):
    n = draw(conductors)
    terms = draw(st.dictionaries(st.integers(min_value=0, max_value=23),
                                 coefficients, max_size=4))
    return CycNumber(n, terms)


def to_complex(a: CycNumber) -> complex:
    """The value under zeta_N -> exp(2 pi i / N): a float check on the
    exact arithmetic, which the package itself never uses."""
    n = a.conductor
    return sum(float(c) * cmath.exp(2j * cmath.pi * e / n) for e, c in a.terms)


def test_i_squared_is_minus_one():
    i = root_of_unity(4, 1)
    assert i * i == -1


def test_fifth_roots_sum_to_minus_one():
    z = root_of_unity(5)
    assert z + z ** 2 + z ** 3 + z ** 4 == -1


def test_conjugation_inverts_roots_of_unity():
    assert root_of_unity(8).conj() == root_of_unity(8, 7)


def test_zero_order_rejected():
    with pytest.raises(ValueError):
        root_of_unity(0)
    with pytest.raises(ValueError):
        CycNumber(0, {})


def test_conductor_minimized():
    z8 = root_of_unity(8)
    assert (z8 ** 2).conductor == 4
    assert root_of_unity(6).conductor == 3
    assert (z8 - z8).conductor == 1
    assert ((1 + z8) - z8).conductor == 1
    assert (z8 ** 4) == -1


def test_rationals_have_conductor_one():
    x = CycNumber.coerce(Fraction(3, 4))
    assert x.conductor == 1 and x.rational_value() == Fraction(3, 4)


@given(coefficients)
def test_a_rational_value_hashes_as_the_number_it_equals(q):
    for number in (q, q.numerator) if q.denominator == 1 else (q,):
        x = CycNumber.coerce(number)
        assert x == number and hash(x) == hash(number)
        assert len({x, number}) == 1
    # a rational reached through Q(zeta_3) is the same key
    z = root_of_unity(3)
    assert {(z + q) - z: 1}[q] == 1


@given(cyc_numbers(), cyc_numbers(), cyc_numbers())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(cyc_numbers(), cyc_numbers())
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()


@given(cyc_numbers())
def test_conjugation_is_an_involution(a):
    assert a.conj().conj() == a


def test_conjugation_fixes_rationals():
    x = CycNumber.coerce(Fraction(-7, 3))
    assert x.conj() == x


@given(cyc_numbers())
def test_normalizing_canonical_form_is_identity(a):
    assert CycNumber(a.conductor, dict(a.terms)) == a


@given(cyc_numbers(), cyc_numbers())
def test_float_embedding_tracks_exact_arithmetic(a, b):
    assert abs(to_complex(a + b) - (to_complex(a) + to_complex(b))) < 1e-9
    assert abs(to_complex(a * b) - to_complex(a) * to_complex(b)) < 1e-9


def test_equal_canonical_forms_embed_identically():
    z = root_of_unity(12)
    w = root_of_unity(4, 3) * root_of_unity(3)
    assert z == w
    assert abs(to_complex(z) - to_complex(w)) < 1e-9
    assert abs(to_complex(z) - cmath.exp(2j * cmath.pi / 12)) < 1e-9


@given(cyc_numbers())
def test_json_round_trip(a):
    packed = json.loads(json.dumps(a.to_json_obj()))
    assert CycNumber.from_json_obj(packed) == a


def test_json_deserialization_renormalizes():
    messy = {"N": 8, "terms": [[0, "1"], [4, "1"]]}
    assert CycNumber.from_json_obj(messy) == 0
    folded = CycNumber.from_json_obj({"N": 8, "terms": [[2, "1"]]})
    assert folded.conductor == 4


def test_json_terms_sorted_by_exponent():
    x = root_of_unity(8, 3) + root_of_unity(8, 1) + 2
    ks = [k for k, _ in x.to_json_obj()["terms"]]
    assert ks == sorted(ks)


@given(cyc_numbers(), st.integers(min_value=2, max_value=24))
def test_galois_action_is_multiplicative(a, k):
    from math import gcd
    n = a.conductor
    if gcd(k, n) != 1:
        with pytest.raises(ValueError):
            a.galois(k)
    else:
        assert a.galois(k) * a.galois(k) == (a * a).galois(k)


def test_power_including_negative():
    z = root_of_unity(5)
    assert z ** 5 == 1
    with pytest.raises(ValueError, match="negative exponent"):
        z ** -1
    assert (2 * z) ** 0 == 1


def test_values_are_immutable():
    z = root_of_unity(8)
    with pytest.raises(AttributeError):
        z.conductor = 4
    with pytest.raises(AttributeError):
        z.terms = ()


def _canonical_exponent(k, n):
    """Each CRT digit of k below phi(q), q = p^v exactly dividing n."""
    m, p = n, 2
    while m > 1:
        if m % p == 0:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            if k * pow(n // q, -1, q) % q >= q - q // p:
                return False
        p += 1
    return True


@given(cyc_numbers(), cyc_numbers())
def test_integer_numerators_over_one_denominator(a, b):
    from math import gcd
    for x in (a, b, a + b, a * b, -a, a.conj()):
        exponents = [e for e, _ in x.numerators]
        numerators = [c for _, c in x.numerators]
        assert type(x.denominator) is int and x.denominator >= 1
        assert all(type(c) is int and c != 0 for c in numerators)
        assert gcd(x.denominator, *numerators) == 1
        assert exponents == sorted(set(exponents))
        assert all(0 <= e < x.conductor and _canonical_exponent(e, x.conductor)
                   for e in exponents)
        assert x.terms == tuple((e, Fraction(c, x.denominator))
                                for e, c in x.numerators)
        if x:
            assert gcd(x.conductor, *exponents) == 1  # the conductor is minimal


@given(cyc_numbers(), cyc_numbers())
def test_json_coefficients_are_fraction_strings(a, b):
    for x in (a, b, a * b):
        assert [c for _, c in x.to_json_obj()["terms"]] == \
            [str(Fraction(c, x.denominator)) for _, c in x.numerators]


@given(st.lists(cyc_numbers(), min_size=2, max_size=12))
def test_sort_key_orders_as_conductor_and_terms(xs):
    by_key = sorted(range(len(xs)), key=lambda i: xs[i].sort_key())
    by_terms = sorted(range(len(xs)), key=lambda i: (xs[i].conductor, xs[i].terms))
    assert by_key == by_terms
