"""Operation lists of the three workloads, made from a seed.

An op is one argv for ``corewalk.cli.main``.  A round is a list of ops; a
child runs its workload's first ops once, then repeats whole rounds, so every
run attempts the same ops in the same proportions whatever its length.  The
seed only picks where a window of consecutive primes starts.  Every window
stays inside one value of isqrt(p), so every seed pays the same number of
cold pair-table builds (they are cached per isqrt(p)) and ops of one workload
cost nearly the same on every seed.  The primes come from this module's own
test, so corewalk only receives the generated inputs.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("verify-1e6", "table-4e6", "crosscheck")

# Bands of primes with a single isqrt value: (10^6, 1001^2) and (4*10^6, 2001^2).
VERIFY_BAND = (10**6, 1001**2)
TABLE_BAND = (4 * 10**6, 2001**2)
VERIFY_WINDOW = 24
TABLE_WINDOW = 32

# crosscheck: small-p ops, each band again inside one isqrt value
DP_BAND = (441, 484)  # isqrt 21, below the dynamic program's cap of 500
DP_WINDOW = 4
SMALL_VERIFY_BAND = (2500, 2601)  # isqrt 50
SMALL_VERIFY_WINDOW = 6
PARTS_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)
WALK_PRIMES = (3, 5, 7)
TOTIENT_N = 10**6


def is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: exact for n < 3.2 * 10^9."""
    if n < 2:
        return False
    for a in (2, 3, 5, 7):
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def band_primes(band: tuple[int, int]) -> list[int]:
    lo, hi = band
    primes = [n for n in range(lo + 1, hi) if is_prime(n)]
    if len({math.isqrt(n) for n in primes}) != 1:
        raise ValueError(f"band {band} spans more than one isqrt value")
    return primes


def window(band: tuple[int, int], size: int, rng: random.Random) -> list[int]:
    primes = band_primes(band)
    if len(primes) < size:
        raise ValueError(f"band {band} holds {len(primes)} primes, fewer than {size}")
    start = rng.randrange(len(primes) - size + 1)
    return primes[start : start + size]


def _verify(p: int) -> list[str]:
    return ["verify", "--min", str(p), "--max", str(p), "--format", "json"]


def first_ops(workload: str) -> list[list[str]]:
    """Ops each child runs once, before its rounds.

    crosscheck leads with the totient sweep (about 1 s), so that its first
    op times real work, not a 10 ms verify that would mostly time host noise,
    while its rounds, and so ops_per_s and op_p50_ms, are the small-p ops.
    """
    return [["totient-check", "--n-max", str(TOTIENT_N)]] if workload == "crosscheck" else []


def rounds(workload: str, seed: int) -> list[list[list[str]]]:
    """The distinct rounds of a workload; a run cycles through them in order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-1e6":
        return [[_verify(p)] for p in window(VERIFY_BAND, VERIFY_WINDOW, rng)]
    if workload == "table-4e6":
        return [[["table", "--min", str(p), "--max", str(p)]] for p in window(TABLE_BAND, TABLE_WINDOW, rng)]
    if workload == "crosscheck":
        ops = [_verify(p) for p in window(SMALL_VERIFY_BAND, SMALL_VERIFY_WINDOW, rng)]
        ops += [["lambda", "-p", str(p), "--emit", "parts"] for p in PARTS_PRIMES]
        ops += [["oracle", "-p", str(p), "--mode", "walks"] for p in WALK_PRIMES]
        ops.append(["oracle", "-p", "3", "--mode", "partitions"])
        ops += [["oracle", "-p", str(p), "--mode", "longest-dp"] for p in window(DP_BAND, DP_WINDOW, rng)]
        return [ops]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
