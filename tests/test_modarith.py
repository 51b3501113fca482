import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corewalk.modarith import inverse_range, is_prime, mod_inverse, primes_in_range

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 101, 257, 1009]


@given(st.sampled_from(SMALL_PRIMES), st.integers(-10**6, 10**6))
def test_mod_inverse_inverts(p, a):
    if a % p == 0:
        with pytest.raises(ValueError):
            mod_inverse(a, p)
    else:
        inv = a * mod_inverse(a, p) % p
        assert inv == 1


def test_mod_inverse_frozen():
    assert mod_inverse(2, 7) == 4
    assert mod_inverse(-3, 7) == 2
    assert mod_inverse(2, 9) == 5


def test_mod_inverse_rejects_noninvertible():
    with pytest.raises(ValueError):
        mod_inverse(3, 9)
    with pytest.raises(ValueError):
        mod_inverse(0, 7)


@given(st.sampled_from(SMALL_PRIMES))
def test_inverse_range_matches_mod_inverse(p):
    inv = inverse_range(p - 1, p)
    assert inv[0] == 0
    assert len(inv) == p
    for k in range(1, p):
        assert inv[k] == mod_inverse(k, p)


def test_inverse_range_frozen():
    assert inverse_range(4, 5).tolist() == [0, 1, 3, 2, 4]


def test_inverse_range_detects_composite_modulus():
    with pytest.raises(ValueError):
        inverse_range(8, 9)


def test_inverse_range_rejects_bad_length():
    with pytest.raises(ValueError):
        inverse_range(7, 7)


def test_is_prime_small_values_match_sieve():
    limit = 2000
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            for j in range(i * i, limit + 1, i):
                sieve[j] = False
    for n in range(limit + 1):
        assert is_prime(n) == sieve[n], n


def test_is_prime_known_hard_cases():
    # Carmichael numbers and large primes the witness set must get right
    assert not is_prime(561)
    assert not is_prime(1105)
    assert not is_prime(29341)
    assert is_prime(2**31 - 1)
    assert is_prime(10**6 + 3)
    assert not is_prime(10**6 + 1)
    assert not is_prime((10**6 + 3) * (10**6 + 33))


def test_is_prime_rejects_nonpositive():
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(-7)


def test_primes_in_range_frozen():
    assert primes_in_range(3, 30) == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_in_range(1, 10) == [2, 3, 5, 7]
    assert primes_in_range(14, 16) == []
    assert primes_in_range(29, 29) == [29]
    assert primes_in_range(10, 5) == []


@settings(max_examples=30)
@given(st.integers(1, 3000), st.integers(0, 120))
def test_primes_in_range_agrees_with_is_prime(lo, width):
    hi = lo + width
    expected = [n for n in range(lo, hi + 1) if is_prime(n)]
    assert primes_in_range(lo, hi) == expected
