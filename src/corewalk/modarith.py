"""Exact elementary number theory helpers.

Everything here is integer-only: a batched table of modular inverses and
deterministic primality testing.  No floating point is used anywhere, so
results are exact at any magnitude.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

# The int64 passes rely on p < _FAST_P_LIMIT = 2^31: residue products stay
# below p^2 < 2^62 (inverse_range, the walk replay, the pair tables).  The
# size reduction splits each runner count b_i <= sum(m) < p^2 < 2^62 into
# 16-bit limbs; a limb product is below 2^32, so a limb sum over fewer than
# 2^31 terms (one block of _BLOCK runners) stays below 2^63.  Counts outside
# 0 <= b_i < 2^63 are refused with ValueError (size_from_bead_multiplicities).
# Witness entries r, s <= isqrt(p) <= 46340 fit uint16; their sums and squares
# do not.
_FAST_P_LIMIT = 1 << 31
assert math.isqrt(_FAST_P_LIMIT - 1) < 1 << 16

# Vectorized passes take this many labels at a time, so their temporaries
# stay O(_BLOCK) whatever p is.
_BLOCK = 1 << 14


def label_blocks(start: int, stop: int) -> Iterator[tuple[int, int]]:
    """Consecutive half-open ranges [lo, hi) of at most _BLOCK labels."""
    for lo in range(start, stop, _BLOCK):
        yield lo, min(lo + _BLOCK, stop)


def _fermat_inverses(k: np.ndarray, p: int) -> np.ndarray:
    """k^(p-2) mod p by square-and-multiply; every product is below p^2."""
    acc = k.copy()
    for bit in bin(p - 2)[3:]:  # the bits after the leading 1
        np.multiply(acc, acc, out=acc)
        np.remainder(acc, p, out=acc)
        if bit == "1":
            np.multiply(acc, k, out=acc)
            np.remainder(acc, p, out=acc)
    return acc


def inverse_range(n: int, p: int) -> np.ndarray:
    """Inverses of 1..n modulo a prime p, as an int64 array.

    inv[k] = k^(p-2) mod p for 1 <= k <= n (index 0 holds 0), in blocks of
    _BLOCK residues at a time.  Up to p/2, odd k get Fermat exponentiation
    and even k = 2j get inv(j) inv(2) once j lies in an earlier block; above
    p/2, inv(p-k) = p - inv(k).  Every product is below p^2 < 2^62 because
    p < _FAST_P_LIMIT.  Each block up to p/2 is checked with k inv[k] = 1
    mod p, which fails for some k whenever p is composite and n reaches its
    smallest prime factor.
    """
    if n >= p or n < 0:
        raise ValueError(f"need 0 <= n < p, got n={n}, p={p}")
    if p >= _FAST_P_LIMIT:
        raise ValueError(f"modulus must stay below {_FAST_P_LIMIT}, got {p}")
    inv = np.zeros(n + 1, dtype=np.int64)
    half = min(n, p // 2)
    for lo, hi in label_blocks(1, half + 1):
        k = np.arange(lo, hi, dtype=np.int64)
        if 2 * lo >= hi:
            odd, even = lo | 1, lo + (lo & 1)
            inv[odd:hi:2] = _fermat_inverses(np.arange(odd, hi, 2, dtype=np.int64), p)
            halves = inv[even // 2 : (hi + 1) // 2]
            inv[even:hi:2] = halves * ((p + 1) // 2) % p  # (p+1)/2 = inv(2) for odd p
        else:
            inv[lo:hi] = _fermat_inverses(k, p)
        bad = np.flatnonzero(inv[lo:hi] * k % p != 1)
        if bad.size:
            raise ValueError(f"modulus {p} is not prime: k * inv(k) != 1 at k = {lo + int(bad[0])}")
    for lo, hi in label_blocks(half + 1, n + 1):
        inv[lo:hi] = p - inv[p - lo : p - hi : -1]
    return inv


# Strong-pseudoprime witnesses that make Miller-Rabin deterministic for all
# n < 3.3e24, which comfortably covers the supported range n < 2**63.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**63."""
    if n < 2:
        return False
    for a in _MR_WITNESSES:
        if n % a == 0:
            return n == a
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_odd_prime(p: int) -> int:
    """p itself when it is an odd prime; ValueError otherwise."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    return p


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi, in increasing order."""
    if hi < lo:
        return []
    out = []
    if lo <= 2 <= hi:
        out.append(2)
    start = max(3, lo)
    if start % 2 == 0:
        start += 1
    for n in range(start, hi + 1, 2):
        if is_prime(n):
            out.append(n)
    return out
