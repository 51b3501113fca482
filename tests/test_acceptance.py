"""End-to-end acceptance checks.

One test per criterion, each printing a single CRITERION line with its
verdict and timing.  Run with `pytest tests/test_acceptance.py -v -s` to see
the lines; the whole module is also part of the default suite.
"""

import time
from fractions import Fraction

from corewalk.bounds import (
    bounds_report,
    c_bounds_check,
    mcdowell_upper,
    mcspirit_ono_bound,
    theorem_interval_check,
    totient_partial_sum,
    totient_sum_check,
)
from corewalk.cli import main
from corewalk.errors import ClassificationError
from corewalk.modarith import primes_in_range
from corewalk.oracle import exhaustive_partition_search, longest_walk_dp, max_size_walk, minimal_pair_direct
from corewalk.residue_walk import (
    check_st_lemmas,
    check_sum_identity,
    check_symmetry,
    classify_residues,
    lambda_profile,
    profile_to_partition,
    validate_walk,
)


def _report(num: int, name: str, ok: bool, t0: float) -> None:
    dt = time.perf_counter() - t0
    print(f"CRITERION {num} {name}: {'PASS' if ok else 'FAIL'} ({dt:.2f}s)")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_known_example(tmp_path):
    # the p = 3 maximum, all routes: profile, CLI, walk, both oracles; < 1 s
    t0 = time.perf_counter()
    prof = lambda_profile(3)
    lam = profile_to_partition(prof)
    ok = lam.parts == (4, 2, 2, 1, 1) and prof.size == 10
    wv = validate_walk(prof)
    ok = ok and wv.ok
    out = tmp_path / "lambda3.txt"
    ok = ok and main(["lambda", "-p", "3", "--emit", "parts", "--output", str(out)]) == 0
    text = out.read_text()
    ok = ok and "size: 10" in text and "parts: 4,2,2,1,1" in text
    search = exhaustive_partition_search(3, 16)
    ok = ok and search.parts == (4, 2, 2, 1, 1)
    walk = max_size_walk(3)
    ok = ok and walk.m == (2, 1) and walk.size == 10
    elapsed = time.perf_counter() - t0
    _report(1, "known example p=3", ok and elapsed < 1.0, t0)


def test_criterion_2_oracle_equivalence():
    # exhaustive enumeration at p <= 7, longest-walk DP for all p <= 200; < 1 min
    t0 = time.perf_counter()
    ok = True
    for p in (3, 5, 7):
        cand = max_size_walk(p)
        prof = lambda_profile(p)
        ok = ok and cand.m == tuple(prof.m[1:].tolist()) and cand.size == prof.size
    prof5 = lambda_profile(5)
    ok = ok and prof5.size == 198 and prof5.m[1:].tolist() == [4, 2, 2, 3]
    for p in primes_in_range(3, 200):
        result = longest_walk_dp(p)
        ok = ok and result.m == tuple(lambda_profile(p).m[1:].tolist())
    elapsed = time.perf_counter() - t0
    _report(2, "oracle equivalence", ok and elapsed < 60.0, t0)


def test_criterion_3_fast_path_correctness():
    # closed-form pairs equal brute-force pairs for every residue, p <= 2000; < 5 min
    t0 = time.perf_counter()
    ok = True
    try:
        for p in primes_in_range(3, 2000):
            cls = classify_residues(p)
            for i in range(1, p - 1):
                if (cls.x[i], cls.y[i]) != minimal_pair_direct(i, p):
                    ok = False
                    break
            if not ok:
                break
    except ClassificationError:
        ok = False
    elapsed = time.perf_counter() - t0
    _report(3, "fast path vs direct search", ok and elapsed < 300.0, t0)


def test_criterion_4_lemma_sweep():
    # pair bounds, mirror symmetries, bead and gap identities for p <= 2000; < 5 min
    t0 = time.perf_counter()
    ok = True
    for p in primes_in_range(3, 2000):
        cls = classify_residues(p)
        prof = lambda_profile(p, cls)
        viol, _ = check_st_lemmas(cls)
        ok = ok and not viol
        ok = ok and check_symmetry(prof) == []
        ok = ok and check_sum_identity(prof) == []
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    _report(4, "lemma inequality sweep", ok and elapsed < 300.0, t0)


def test_criterion_5_c_bounds():
    # gap-count bounds over their stated ranges up to 10^4; < 5 min
    t0 = time.perf_counter()
    ok = True
    for p in primes_in_range(17, 10**4):
        cb = c_bounds_check(lambda_profile(p))
        ok = ok and cb["c_upper"].ok
        if p >= 257:
            ok = ok and cb["c18"].ok is True
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    _report(5, "c statistic bounds", ok and elapsed < 300.0, t0)


def test_criterion_6_theorem_at_scale():
    # the 20 smallest primes above 10^6, full asserted report each; < 1 min
    t0 = time.perf_counter()
    primes = []
    n = 10**6 + 1
    while len(primes) < 20:
        primes.extend(primes_in_range(n, n + 999))
        n += 1000
    primes = primes[:20]
    ok = len(primes) == 20
    for p in primes:
        prof = lambda_profile(p)
        tv = theorem_interval_check(p, prof.size)
        ok = ok and tv["theorem_lower"].ok and tv["theorem_upper"].ok and tv["theorem_lower"].asserted
        ok = ok and prof.size <= mcdowell_upper(p) <= mcspirit_ono_bound(p)
        ok = ok and all(bound.ok is not False for bound in bounds_report(prof).values() if bound.asserted)
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    _report(6, "main theorem at scale", ok and elapsed < 60.0, t0)


def test_criterion_7_totient_bound():
    # harmonic totient sum lower bound for every n <= 10^5; < 10 s
    t0 = time.perf_counter()
    result = totient_sum_check(10**5)
    ok = result.ok and result.first_violation is None
    ok = ok and totient_partial_sum(10) == Fraction(1307, 210)
    ok = ok and result.exact_slack == Fraction(31, 5) and result.argmin_n == 6
    elapsed = time.perf_counter() - t0
    _report(7, "totient lower bound", ok and elapsed < 10.0, t0)
