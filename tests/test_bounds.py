from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corewalk import bounds
from corewalk.bounds import (
    STATED_C18_MIN_P,
    STATED_C_LOWER_MIN_P,
    STATED_C_UPPER_MIN_P,
    STATED_THEOREM_MIN_P,
    Bound,
    bounds_report,
    c_bounds_check,
    mcdowell_construction_value,
    mcdowell_upper,
    mcspirit_ono_bound,
    theorem_interval_check,
    totient_partial_sum,
    totient_sieve,
    totient_sum_check,
)
from corewalk.modarith import primes_in_range
from corewalk.residue_walk import lambda_profile

PRIMES_TO_200 = primes_in_range(3, 200)


def test_bound_polynomials_frozen():
    assert mcspirit_ono_bound(3) == 16
    assert mcspirit_ono_bound(5) == 440
    assert mcdowell_upper(3) == 10
    assert mcdowell_upper(5) == 289
    assert mcdowell_upper(11) == 50500


def test_tightest_polynomial_bound_is_attained_at_p3():
    assert lambda_profile(3).size == mcdowell_upper(3) == 10


def test_construction_value_frozen():
    assert mcdowell_construction_value(3) == Fraction(1284, 96)
    assert mcdowell_construction_value(5) == Fraction(19452, 96)
    # non-integral and above the true maximum at small p, below it at scale
    assert mcdowell_construction_value(3).denominator > 1
    assert mcdowell_construction_value(3) > 10
    assert mcdowell_construction_value(5) > 198
    p = 10**6 + 3
    assert mcdowell_construction_value(p) < lambda_profile(p).size


@given(st.sampled_from(primes_in_range(3, 20_000)))
def test_bound_evaluation_matches_horner_form(p):
    horner_ono = ((((p - 2) * p + 2) * p * p - 3) * p + 2) * p
    assert mcspirit_ono_bound(p) * 24 == horner_ono
    horner_upper = (((((p - 4) * p + 5) * p + 12) * p - 42) * p + 52) * p - 24
    assert mcdowell_upper(p) * 24 == horner_upper
    assert mcspirit_ono_bound(p) == mcspirit_ono_bound(p)


@pytest.mark.parametrize("p", primes_in_range(2, 500))
def test_bound_polynomials_divide_exactly(p):
    # divisibility by 24 must hold for every prime, or the call raises
    mcspirit_ono_bound(p)
    if p >= 3:
        mcdowell_upper(p)


def test_bound_polynomials_reject_tiny_p():
    with pytest.raises(ValueError):
        mcspirit_ono_bound(1)
    with pytest.raises(ValueError):
        mcdowell_upper(2)


@pytest.mark.parametrize("p", PRIMES_TO_200)
def test_size_sits_inside_both_polynomial_bounds(p):
    size = lambda_profile(p).size
    assert size <= mcdowell_upper(p) <= mcspirit_ono_bound(p)


def test_theorem_interval_frozen():
    tv = theorem_interval_check(5, 198)
    assert tv["theorem_lower"].ok and tv["theorem_upper"].ok
    assert not tv["theorem_lower"].asserted and not tv["theorem_upper"].asserted
    big = theorem_interval_check(10**6 + 3, lambda_profile(10**6 + 3).size)
    assert big["theorem_lower"].ok and big["theorem_upper"].ok
    assert big["theorem_lower"].asserted and big["theorem_upper"].asserted


def test_theorem_interval_detects_fabricated_sizes():
    p = 10**6 + 3
    too_small = theorem_interval_check(p, 0)
    assert not too_small["theorem_lower"].ok
    too_large = theorem_interval_check(p, p**6 // 24)
    assert not too_large["theorem_upper"].ok


def test_theorem_margins_are_exact_integers():
    tv = theorem_interval_check(5, 198)
    big_l = 5**6 - 24 * 198
    assert tv["theorem_lower"].margin == 576 * 5**11 - big_l * abs(big_l)
    assert tv["theorem_upper"].margin == (25 * big_l) * abs(25 * big_l) - 9 * 5**11


def test_c_bounds_frozen():
    prof = lambda_profile(17)
    cb = c_bounds_check(prof)
    assert prof.c == 80
    assert cb["c_upper"].ok
    assert cb["c_upper"].asserted
    assert cb["c18"].ok is None  # floor(17/18) = 0
    assert cb["c18"].margin is None
    assert not cb["c18"].asserted
    assert not cb["c_lower"].asserted


@pytest.mark.parametrize("p", primes_in_range(17, 300))
def test_c_bounds_hold_in_small_range(p):
    cb = c_bounds_check(lambda_profile(p))
    assert cb["c_upper"].ok
    assert cb["c_lower"].ok
    if p // 18 >= 1:
        assert cb["c18"].ok is not None


REPORT_KEYS = [
    "theorem_lower", "theorem_upper", "eq1_upper", "bound_chain",
    "mcspirit_ono_upper", "construction_comparison", "c_upper", "c_lower", "c18",
]
STRICT_KEYS = {"theorem_lower", "theorem_upper", "c_upper", "c_lower", "c18"}


def _stated(p: int) -> dict[str, bool]:
    theorem = p > STATED_THEOREM_MIN_P
    return {
        "theorem_lower": theorem,
        "theorem_upper": theorem,
        "eq1_upper": True,
        "bound_chain": True,
        "mcspirit_ono_upper": True,
        "construction_comparison": False,
        "c_upper": p >= STATED_C_UPPER_MIN_P,
        "c_lower": p > STATED_C_LOWER_MIN_P,
        "c18": p // 18 >= 1 and p > STATED_C18_MIN_P,
    }


def test_bounds_report_shape():
    for p in primes_in_range(3, 300) + [10**6 + 3]:
        report = bounds_report(lambda_profile(p))
        assert list(report) == REPORT_KEYS
        assert all(isinstance(bound, Bound) for bound in report.values())
        stated = _stated(p)
        for name, (ok, asserted, margin) in report.items():
            if margin is None:
                assert ok is None, (p, name)
            elif name in STRICT_KEYS:
                assert ok is (margin > 0), (p, name)
            else:
                assert ok is (margin >= 0), (p, name)
            assert asserted is stated[name], (p, name)
        assert (report["c18"].margin is None) == (p < 18)
        assert [name for name, bound in report.items() if bound.asserted and bound.ok is False] == []


@pytest.mark.parametrize("p", PRIMES_TO_200)
def test_no_asserted_failures_on_honest_profiles(p):
    report = bounds_report(lambda_profile(p))
    assert [name for name, bound in report.items() if bound.asserted and bound.ok is False] == []


def test_totient_sieve_frozen():
    assert totient_sieve(10) == [0, 1, 1, 2, 2, 4, 2, 6, 4, 6, 4]


@settings(max_examples=25)
@given(st.integers(1, 300))
def test_totient_divisor_sum_identity(n):
    phi = totient_sieve(n)
    assert sum(phi[d] for d in range(1, n + 1) if n % d == 0) == n


def test_totient_partial_sum_frozen():
    assert totient_partial_sum(1) == 1
    assert totient_partial_sum(10) == Fraction(1307, 210)


def test_totient_check_frozen_slacks():
    r1 = totient_sum_check(1)
    assert r1.ok
    assert r1.exact_slack == Fraction(32, 5)
    r6 = totient_sum_check(100)
    assert r6.ok
    assert r6.argmin_n == 6
    assert r6.exact_slack == Fraction(31, 5)
    lo, hi = r6.slack_bounds
    assert lo <= Fraction(31, 5) < hi


def test_totient_check_certifies_at_low_precision(monkeypatch):
    # K = 2^0 forces the undecided branch and a precision escalation
    monkeypatch.setattr(bounds, "_SCALE_BITS", 0)
    r = totient_sum_check(1000)
    assert r.ok
    assert r.argmin_n == 6


def test_totient_check_rejects_bad_input():
    with pytest.raises(ValueError):
        totient_sum_check(0)
    with pytest.raises(ValueError):
        totient_sieve(-1)
    with pytest.raises(ValueError):
        totient_partial_sum(-1)
