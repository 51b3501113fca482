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
# below p^2 < 2^62 (inverse_range, the classification), and the walk replay's
# unreduced terms below 2p^2 < 2^63 (_first_failing_label).  The
# size reduction splits each runner count b_i <= sum(m) < p^2 < 2^62 into
# 24-bit limbs L_j; L_j L_k < 2^48 and t L_j < 2^38 for an offset t < _BLOCK,
# so a limb sum over one block of _BLOCK = 2^14 runners stays below 2^62.
# Counts outside 0 <= b_i < 2^63 are refused with ValueError
# (size_from_bead_multiplicities).  mod_p reduces an int64 a as a - (a // p) p:
# (a // p) p lies in (a - p, a], so |(a // p) p| <= |a| < 2^63 for a >= 0 and
# nothing wraps for any a >= p - 2^63; every term it reduces is nonnegative.
# Witness entries r, s <= isqrt(p) <= 46340 fit uint16; their sums and squares
# do not.  Minimal-pair entries 1 <= x, y < p <= 2^31 - 1 fit int32; their sums
# and products do not, so every reader that adds or multiplies them widens a
# block to int64 first.
_FAST_P_LIMIT = 1 << 31
assert math.isqrt(_FAST_P_LIMIT - 1) < 1 << 16
assert _FAST_P_LIMIT - 1 <= np.iinfo(np.int32).max

# Vectorized passes take this many labels at a time, so their temporaries
# stay O(_BLOCK) whatever p is.
_BLOCK = 1 << 14


def label_blocks(start: int, stop: int) -> Iterator[tuple[int, int]]:
    """Consecutive half-open ranges [lo, hi) of at most _BLOCK labels."""
    for lo in range(start, stop, _BLOCK):
        yield lo, min(lo + _BLOCK, stop)


def mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """a mod p in place for a 1-D int64 array a and a scalar p > 0; returns a.

    numpy divides by a scalar with a precomputed multiply and shift
    (Granlund & Montgomery, PLDI 1994) but takes a remainder with one
    hardware division per entry, so a - (a // p) p beats a %= p.  It runs
    one block of _BLOCK entries at a time through one quotient buffer, so
    its temporary is O(_BLOCK) whatever the length of a.
    """
    q = np.empty(min(a.size, _BLOCK), dtype=np.int64)
    for lo, hi in label_blocks(0, a.size):
        block, qb = a[lo:hi], q[: hi - lo]
        np.floor_divide(block, p, out=qb)
        qb *= p
        block -= qb
    return a


def _fermat_inverses(k: np.ndarray, p: int) -> np.ndarray:
    """k^(p-2) mod p by square-and-multiply; every product is below p^2."""
    acc = k.copy()
    for bit in bin(p - 2)[3:]:  # the bits after the leading 1
        mod_p(np.multiply(acc, acc, out=acc), p)
        if bit == "1":
            mod_p(np.multiply(acc, k, out=acc), p)
    return acc


def inverse_range(n: int, p: int) -> np.ndarray:
    """Inverses of 1..n modulo a prime p, as an int64 array.

    inv[k] = k^(p-2) mod p for 1 <= k <= n (index 0 holds 0), by batch
    inversion (Montgomery, Math. Comp. 48 (1987), 10.3.1).  1..h with
    h = min(n, p/2) is laid out as rows of C = min(_BLOCK, h) columns, the
    last row possibly partial.  A forward sweep leaves each column's running
    products in inv itself; the last C entries, one per column, are the
    column totals, and one Fermat exponentiation inverts them.  A backward
    sweep then sets inv(k) = run * prefix(row above) and run <- run * k, a
    few products per k and no p-length temporary.  Above p/2,
    inv(p-k) = p - inv(k).  Every product has both factors below p, so it
    stays below p^2 < 2^62 because p < _FAST_P_LIMIT.

    Each row up to p/2 is checked with k inv[k] = 1 mod p, which fails for
    some k whenever p is composite and n reaches its smallest prime factor q.
    A factor poisons its whole column, so an earlier k can fail too: the
    report names the smallest k with gcd(k, p) > 1 in a failing row (q when
    q <= h), else the smallest failing k.
    """
    if n >= p or n < 0:
        raise ValueError(f"need 0 <= n < p, got n={n}, p={p}")
    if p >= _FAST_P_LIMIT:
        raise ValueError(f"modulus must stay below {_FAST_P_LIMIT}, got {p}")
    inv = np.zeros(n + 1, dtype=np.int64)
    if n == 0:
        return inv
    half = min(n, p // 2)
    cols = min(_BLOCK, half)
    rows = [(lo, min(lo + cols, half + 1)) for lo in range(1, half + 1, cols)]
    inv[1 : cols + 1] = np.arange(1, cols + 1)
    for lo, hi in rows[1:]:
        row = inv[lo:hi]
        np.multiply(np.arange(lo, hi, dtype=np.int64), inv[lo - cols : hi - cols], out=row)
        mod_p(row, p)
    run = _fermat_inverses(inv[half + 1 - cols : half + 1], p)  # of the column totals
    if half % cols:  # the last cols entries start at column half % cols
        run = np.roll(run, half % cols)
    failed = shared = 0
    for lo, hi in reversed(rows):
        out, r = inv[lo:hi], run[: hi - lo]
        k = np.arange(lo, hi, dtype=np.int64)
        if lo > 1:
            np.multiply(r, inv[lo - cols : hi - cols], out=out)
            mod_p(out, p)
            r *= k
            mod_p(r, p)
        else:
            out[...] = r
        k *= out
        mod_p(k, p)
        bad = np.flatnonzero(k != 1)
        if bad.size:  # rows go downward, so the last report is the smallest
            failed = lo + int(bad[0])
            common = np.flatnonzero(np.gcd(np.arange(lo, hi), p) > 1)
            shared = lo + int(common[0]) if common.size else shared
    if failed:
        raise ValueError(f"modulus {p} is not prime: k * inv(k) != 1 at k = {shared or failed}")
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
