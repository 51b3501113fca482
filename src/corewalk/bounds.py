"""Exact inequality checks for the size and gap statistics of the profile.

Every bound involving p^(3/2) is decided by comparing signed squares of
integer forms, so no floating point enters any verdict.  Polynomial bounds
divide exactly over the integers for the relevant p; divisibility is
asserted rather than floored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import VerificationError
from .modarith import totient_sieve
from .residue_walk import LambdaProfile, _row_sums

STATED_THEOREM_MIN_P = 10**6
STATED_C_UPPER_MIN_P = 17
STATED_C_LOWER_MIN_P = 10**6
STATED_C18_MIN_P = 256


def _signed_square(u: int) -> int:
    """u * |u|: strictly increasing, so comparisons survive the squaring."""
    return u * abs(u)


def mcspirit_ono_bound(p: int) -> int:
    """(p^6 - 2 p^5 + 2 p^4 - 3 p^2 + 2 p) / 24, exactly."""
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    val = p**6 - 2 * p**5 + 2 * p**4 - 3 * p**2 + 2 * p
    q, r = divmod(val, 24)
    if r:
        raise ArithmeticError(f"bound polynomial is not divisible by 24 at p={p}")
    return q


def mcdowell_upper(p: int) -> int:
    """(p^6 - 4 p^5 + 5 p^4 + 12 p^3 - 42 p^2 + 52 p - 24) / 24, exactly."""
    if p < 3:
        raise ValueError(f"p must be at least 3, got {p}")
    val = p**6 - 4 * p**5 + 5 * p**4 + 12 * p**3 - 42 * p**2 + 52 * p - 24
    q, r = divmod(val, 24)
    if r:
        raise ArithmeticError(f"bound polynomial is not divisible by 24 at p={p}")
    return q


def mcdowell_construction_value(p: int) -> Fraction:
    """(p^6 + 6 p^4 - 12 p^3 + 89 p^2 - 120 p - 48) / 96 as an exact rational.

    Reported for comparison only; nothing is asserted against it.
    """
    if p < 3:
        raise ValueError(f"p must be at least 3, got {p}")
    return Fraction(p**6 + 6 * p**4 - 12 * p**3 + 89 * p**2 - 120 * p - 48, 96)


class Bound(NamedTuple):
    """One inequality at one prime: its verdict, whether it is asserted, its margin.

    ok is None exactly when margin is None (the check is empty at this p);
    asserted says whether a False ok is an error or a data point outside
    the stated range.
    """

    ok: Optional[bool]
    asserted: bool
    margin: Optional[int]


def _strict(margin: Optional[int], asserted: bool) -> Bound:
    return Bound(None if margin is None else margin > 0, asserted, margin)


def _weak(margin: int, asserted: bool) -> Bound:
    return Bound(margin >= 0, asserted, margin)


def theorem_interval_check(p: int, size: int) -> dict[str, Bound]:
    """Decide p^6/24 - p^5 sqrt(p) < size < p^6/24 - (1/200) p^5 sqrt(p).

    With L = p^6 - 24 size both inequalities become one-sided comparisons of
    L against multiples of p^5 sqrt(p): the lower bound is L < 24 p^5
    sqrt(p), i.e. sgn-square(L) < 576 p^11, and the upper bound is 25 L >
    3 p^5 sqrt(p) scaled to sgn-square(25 L) > 9 p^11.  Strictness is safe
    because p^11 is an odd prime power, never a perfect square times a
    matching integer on the other side.
    """
    if p < 2 or size < 0:
        raise ValueError("need p >= 2 and size >= 0")
    p11 = p**11
    big_l = p**6 - 24 * size
    stated = p > STATED_THEOREM_MIN_P
    return {
        "theorem_lower": _strict(576 * p11 - _signed_square(big_l), stated),
        "theorem_upper": _strict(_signed_square(25 * big_l) - 9 * p11, stated),
    }


def c_bounds_check(profile: LambdaProfile) -> dict[str, Bound]:
    """Bounds on the gap statistic c and the prefix value at floor(p/18), p = profile.p.

    c < (11/3) p sqrt(p) compares 9 c^2 against 121 p^3; the lower bound
    c > (6/5) p sqrt(p) - 16 p compares (5c + 80p)^2 against 36 p^3; and
    c_k < (2/5) p sqrt(p) + p at k = floor(p/18) compares 25 (c_k - p)^2
    against 4 p^3.  The k = 0 case has nothing to check.
    """
    p, c = profile.p, profile.c
    p3 = p**3
    k = p // 18
    margin_c18: Optional[int] = None
    if k >= 1:
        ck = k * p - _row_sums(profile.m, 1, k + 1, p)[0]  # d_i = p - m_i
        margin_c18 = 4 * p3 - _signed_square(5 * (ck - p))
    return {
        "c_upper": _strict(121 * p3 - 9 * c * c, p >= STATED_C_UPPER_MIN_P),
        "c_lower": _strict(_signed_square(5 * c + 80 * p) - 36 * p3, p > STATED_C_LOWER_MIN_P),
        "c18": _strict(margin_c18, p > STATED_C18_MIN_P),  # STATED_C18_MIN_P >= 18, so k >= 1
    }


def bounds_report(profile: LambdaProfile) -> dict[str, Bound]:
    """Every size and gap inequality at p = profile.p, by name, in output order.

    Each margin is an exact integer, or None for c18 while floor(p/18) = 0.
    The theorem and c bounds are strict, ok when margin > 0; eq1_upper,
    bound_chain, mcspirit_ono_upper and construction_comparison are not, ok
    when margin >= 0.  construction_comparison's margin is scaled by 96 and
    is never asserted.
    """
    p, size = profile.p, profile.size
    ono = mcspirit_ono_bound(p)
    upper = mcdowell_upper(p)
    construction = mcdowell_construction_value(p)
    return {
        **theorem_interval_check(p, size),
        "eq1_upper": _weak(upper - size, True),
        "bound_chain": _weak(ono - upper, True),
        "mcspirit_ono_upper": _weak(ono - size, True),
        "construction_comparison": _weak(int(96 * (size - construction)), False),
        **c_bounds_check(profile),
    }


def totient_partial_sum(n: int) -> Fraction:
    """Sum of phi(m)/m for m <= n, exactly.  Fine for modest n only."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    phi = totient_sieve(n)
    total = Fraction(0)
    for m in range(1, n + 1):
        total += Fraction(phi[m], m)
    return total


@dataclass(frozen=True)
class TotientCheckResult:
    """Outcome of the sweep, with the tightest certified slack.

    slack_bounds encloses 5K-scaled truth: the slack at argmin_n lies in
    [slack_bounds[0], slack_bounds[1]).  exact_slack is filled by an exact
    rational recomputation when argmin_n is small enough to afford one.
    """

    n_max: int
    ok: bool
    first_violation: Optional[int]
    argmin_n: int
    slack_bounds: tuple[Fraction, Fraction]
    exact_slack: Optional[Fraction]


_EXACT_RECHECK_LIMIT = 5_000
_SCALE_BITS = 40  # the first attempt's K = 2**_SCALE_BITS; each retry adds 24 bits


def totient_sum_check(n_max: int) -> TotientCheckResult:
    """Check sum_{m<=n} phi(m)/m > (3/5) n - 6 for every n <= n_max.

    The running sum A_n is pinned by the integer S_n = sum of
    floor(5 K phi(m) / m) with K = 2**_SCALE_BITS: 5 K A_n lies in
    [S_n, S_n + n).  Comparing S_n against K (3n - 30) certifies each n
    exactly; should any n ever land inside the enclosure width (about
    n / 5K, vastly below the observed slack of ~6) the sweep restarts with
    more bits, so a returned verdict is always exact.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    phi = totient_sieve(n_max)
    for attempt in range(4):
        kk = 1 << (_SCALE_BITS + 24 * attempt)
        five_k = 5 * kk
        s = 0
        min_lo: Optional[int] = None
        argmin = 1
        outcome: Optional[tuple[bool, int, int]] = None
        undecided = False
        for n in range(1, n_max + 1):
            s += five_k * phi[n] // n
            lo = s - kk * (3 * n - 30)
            if lo <= 0:
                if lo + n <= 0:
                    outcome = (False, n, lo)
                else:
                    undecided = True
                break
            if min_lo is None or lo < min_lo:
                min_lo = lo
                argmin = n
        if undecided:
            continue
        if outcome is not None:
            _, bad_n, lo = outcome
            bounds = (Fraction(lo, five_k), Fraction(lo + bad_n, five_k))
            exact = _exact_slack(bad_n)
            return TotientCheckResult(n_max, False, bad_n, bad_n, bounds, exact)
        assert min_lo is not None
        bounds = (Fraction(min_lo, five_k), Fraction(min_lo + argmin, five_k))
        exact = _exact_slack(argmin)
        return TotientCheckResult(n_max, True, None, argmin, bounds, exact)
    raise VerificationError(f"could not certify the totient bound up to n={n_max}")


def _exact_slack(n: int) -> Optional[Fraction]:
    if n > _EXACT_RECHECK_LIMIT:
        return None
    return totient_partial_sum(n) - Fraction(3 * n - 30, 5)
