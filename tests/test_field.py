"""Coefficient fields: the primality test behind prime_field."""

import time

import pytest

from ncres.field import MAX_MODULUS, is_prime, prime_field

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
