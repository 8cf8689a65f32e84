"""Coefficient fields: the primality test behind prime_field, and the
rationals, whose integral elements are ints under the fractions backend."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncres.field import MAX_MODULUS, is_prime, prime_field, rationals

Q = rationals()
# under gmpy2 every element is an mpq, and the type checks below do not apply
FRACTIONS_BACKEND = type(Q.one).__module__ == "fractions"

CARMICHAEL_BELOW_10_4 = (561, 1105, 1729, 2465, 2821, 6601, 8911)


def trial_division(n):
    if n < 2:
        return False
    q = 2
    while q * q <= n:
        if n % q == 0:
            return False
        q += 1
    return True


def test_prime_field_primality():
    assert prime_field(32003).char == 32003
    assert prime_field(2 ** 61 - 1).char == 2 ** 61 - 1
    for n in CARMICHAEL_BELOW_10_4:
        with pytest.raises(ValueError, match="not prime"):
            prime_field(n)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=str(MAX_MODULUS)):
        prime_field(10 ** 400)
    assert time.perf_counter() - t0 < 0.1


def test_is_prime_matches_trial_division():
    assert [n for n in range(10 ** 4) if is_prime(n)] == \
        [n for n in range(10 ** 4) if trial_division(n)]
    # composite, yet strong probable primes to every prime base up to 37
    # and up to 31 respectively
    assert not is_prime(318665857834031151167461)
    assert not is_prime(3825123056546413051)


def plain(x):
    """x as a fractions.Fraction, whatever the backend's type."""
    return Fraction(int(x.numerator), int(x.denominator))


def rendered(x):
    """What to_str printed when every rational was a Fraction."""
    x = plain(x)
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def assert_element(r, want):
    assert plain(r) == want and r == want and hash(r) == hash(want)
    assert Q.to_str(r) == rendered(want)
    if FRACTIONS_BACKEND:  # an int exactly when integral
        assert (r.__class__ is int) == (want.denominator == 1), repr(r)
        assert r.__class__ in (int, Fraction)


# ints, non-integral Fractions, and `one` (a Fraction equal to 1), as they
# come out of the field's own constructors
elements = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(Q.from_int),
    st.builds(Q.from_ratio, st.integers(-10 ** 4, 10 ** 4),
              st.integers(1, 60)),
    st.sampled_from([Q.zero, Q.one, Q.neg(Q.one)]),
)


@settings(max_examples=300, deadline=None)
@given(elements, elements)
def test_rational_ops_match_fraction_arithmetic(a, b):
    x, y = plain(a), plain(b)
    assert_element(Q.add(a, b), x + y)
    assert_element(Q.sub(a, b), x - y)
    assert_element(Q.mul(a, b), x * y)
    assert_element(Q.neg(a), -x)
    if y:
        assert_element(Q.inv(b), 1 / y)
        assert_element(Q.mul(a, Q.inv(b)), x / y)


@settings(max_examples=200, deadline=None)
@given(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 6))
def test_rational_embeddings(num, den):
    assert_element(Q.from_ratio(num, den), Fraction(num, den))
    assert_element(Q.from_int(num), Fraction(num))


def test_rational_constants_and_integral_ratios():
    assert Q.zero == 0 and Q.one == 1 and Q.to_str(Q.one) == "1"
    assert Q.from_ratio(6, 3) == 2 and Q.to_str(Q.from_ratio(-6, 4)) == "-3/2"
    assert Q.inv(Q.from_ratio(-1, 3)) == -3
    if FRACTIONS_BACKEND:
        assert Q.zero.__class__ is int
        assert Q.from_ratio(6, 3).__class__ is int
        assert Q.inv(Q.from_ratio(-1, 3)).__class__ is int
        assert Q.inv(Q.one).__class__ is int
        # the benchmark names the backend after the type of `one`
        assert Q.one.__class__ is Fraction
