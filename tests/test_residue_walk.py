import dataclasses
import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corewalk import modarith, residue_walk
from corewalk.errors import VerificationError
from corewalk.modarith import primes_in_range
from corewalk.oracle import minimal_pair_direct
from corewalk.partitions import is_p_core, is_p_regular
from corewalk.residue_walk import (
    LambdaProfile,
    S_CLASS,
    T_CLASS,
    WalkValidation,
    _coprime_pair_tables,
    check_st_lemmas,
    check_sum_identity,
    check_symmetry,
    classify_residues,
    lambda_profile,
    partition_from_row_counts,
    profile_to_partition,
    validate_walk,
)

PRIMES_TO_100 = primes_in_range(3, 100)


def test_classification_p3():
    cls = classify_residues(3)
    assert cls.kind[1:2].tolist() == [T_CLASS]
    assert (cls.wr[1], cls.ws[1]) == (1, 1)
    assert (cls.x[1], cls.y[1]) == (1, 1)


def test_classification_p5():
    cls = classify_residues(5)
    assert cls.kind[1:4].tolist() == [S_CLASS, T_CLASS, S_CLASS]
    assert cls.wr[1:4].tolist() == [2, 1, 1]
    assert cls.ws[1:4].tolist() == [1, 1, 2]
    assert list(zip(cls.x[1:4].tolist(), cls.y[1:4].tolist())) == [(1, 2), (1, 1), (2, 1)]


def test_classification_p11():
    cls = classify_residues(11)
    assert cls.kind[1:10].tolist() == [
        S_CLASS, S_CLASS, T_CLASS, S_CLASS, T_CLASS, S_CLASS, T_CLASS, S_CLASS, S_CLASS,
    ]
    assert cls.x[1:10].tolist() == [1, 1, 1, 3, 1, 2, 2, 3, 5]
    assert cls.y[1:10].tolist() == [5, 3, 2, 2, 1, 3, 1, 1, 1]


def test_pair_tables_hold_each_coprime_pair_once():
    for k in range(1, 201):
        mn, mx, _ = _coprime_pair_tables(k)
        pairs = sorted(zip(mn.tolist(), mx.tolist()))
        assert pairs == [(a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1) if gcd(a, b) == 1]


@pytest.mark.parametrize("k", [2, 3, 10, 200, 1000])
def test_pair_tables_invert_the_smaller_entry(k):
    mn, mx, inv = _coprime_pair_tables(k)
    assert bool((mx >= 2).all())
    assert bool((mn * inv % mx == 1).all())
    assert bool(((1 <= inv) & (inv < mx)).all())  # so inv is pow(mn, -1, mx)


def test_pair_tables_memory_is_linear_in_pairs():
    _coprime_pair_tables.cache_clear()
    tracemalloc.start()
    try:
        mn, _, _ = _coprime_pair_tables(1000)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mn.size == 304_191
    # three int32 columns, 12.0 B per pair held, written level by level: a
    # 16.6 B build peak measured (int64 tables joined from a list of levels:
    # 24.2 B held, a 49.6 B peak)
    assert held < 12.5 * mn.size
    assert peak < 17 * mn.size


def test_classification_rejects_bad_p():
    with pytest.raises(ValueError):
        classify_residues(2)
    with pytest.raises(ValueError):
        classify_residues(9)
    with pytest.raises(ValueError):
        classify_residues(2**31 + 11)


def test_classification_array_layout():
    # arrays are indexed by label: only 1..p-2 carry a class, a witness and a pair
    cls = classify_residues(13)
    for arr in (cls.kind, cls.wr, cls.ws, cls.x, cls.y):
        assert arr.shape == (13,)
        assert arr[0] == 0 and arr[12] == 0
        assert (arr[1:12] >= 1).all()


@pytest.mark.parametrize("p", PRIMES_TO_100)
def test_witness_congruences(p):
    # an S witness means i = s/(r-s), a T witness means i = -s/(r+s), mod p
    cls = classify_residues(p)
    for i in range(1, p - 1):
        r, s = int(cls.wr[i]), int(cls.ws[i])
        if cls.kind[i] == S_CLASS:
            assert r != s
            assert i == s * pow(r - s, -1, p) % p
        else:
            assert cls.kind[i] == T_CLASS
            assert i == (p - s) * pow(r + s, -1, p) % p


@pytest.mark.parametrize("p", PRIMES_TO_100)
def test_fast_pairs_match_direct_search(p):
    cls = classify_residues(p)
    for i in range(1, p - 1):
        assert (cls.x[i], cls.y[i]) == minimal_pair_direct(i, p), (p, i)


@pytest.mark.parametrize("p", PRIMES_TO_100)
def test_pairs_respect_step_bounds(p):
    for i in range(1, p - 1):
        x, y = minimal_pair_direct(i, p)
        assert 1 <= x <= pow(i, -1, p)  # the steps from p-1 to 0 along label i
        assert 1 <= y <= pow(-(i + 1), -1, p)  # the steps from 0 to p-1 along label i+1
        assert (i * x + (i + 1) * y) % p == 0


def test_step_bounds_frozen():
    # labels lie in 1..p-2
    assert [minimal_pair_direct(i, 5) for i in (1, 2, 3)] == [(1, 2), (1, 1), (2, 1)]
    with pytest.raises(ValueError):
        minimal_pair_direct(0, 5)
    with pytest.raises(ValueError):
        minimal_pair_direct(4, 5)


def test_profile_p3():
    prof = lambda_profile(3)
    assert prof.m[1:].tolist() == [2, 1]
    assert prof.b[1:].tolist() == [2, 3]
    assert prof.d[1:].tolist() == [1, 2]
    assert prof.c == 2
    assert prof.size == 10


def test_profile_p5():
    prof = lambda_profile(5)
    assert prof.m[1:].tolist() == [4, 2, 2, 3]
    assert prof.b[1:].tolist() == [4, 6, 8, 11]
    assert prof.c_prefix[1:].tolist() == [1, 4, 7, 9]
    assert prof.c == 8
    assert prof.size == 198


def test_profile_p11():
    prof = lambda_profile(11)
    assert prof.m[1:].tolist() == [10, 5, 7, 6, 8, 8, 6, 7, 5, 9]
    assert prof.c == 38
    assert prof.size == 29773
    assert int(prof.m[1:].sum()) == 71


def test_profile_accepts_precomputed_classification():
    cls = classify_residues(7)
    assert lambda_profile(7, cls).size == lambda_profile(7).size
    with pytest.raises(ValueError):
        lambda_profile(11, cls)


@pytest.mark.parametrize("p", PRIMES_TO_100)
def test_profile_invariants(p):
    prof = lambda_profile(p)
    m, b, d, c_prefix = prof.m, prof.b, prof.d, prof.c_prefix
    assert int(m[1]) == p - 1 and int(m[p - 1]) == p - 2
    assert int(d[1]) == 1 and int(d[p - 1]) == 2
    assert int(c_prefix[p - 1]) == prof.c + 1
    assert (c_prefix[1 : p - 1] + c_prefix[p - 2 : 0 : -1] == prof.c).all()
    assert (m[2 : p - 1] == m[p - 2 : 1 : -1]).all()
    assert (b[1:] == np.cumsum(m[1:])).all()
    # doubled bead total identity
    assert 2 * int(b[1:].sum()) == p * p * (p - 1) - p * prof.c - 2


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_materialized_partition_is_p_core_p_regular(p):
    prof = lambda_profile(p)
    lam = profile_to_partition(prof)
    assert lam.size == prof.size
    assert is_p_core(lam, p)
    assert is_p_regular(lam, p)


def test_profile_to_partition_frozen(monkeypatch):
    assert profile_to_partition(lambda_profile(3)).parts == (4, 2, 2, 1, 1)
    monkeypatch.setattr(residue_walk, "MAX_PARTS", 100)
    with pytest.raises(ValueError, match="above the cap of 100"):
        profile_to_partition(lambda_profile(101))


def test_profile_to_partition_counts_parts_exactly(monkeypatch):
    def build(p, row_counts):
        raise AssertionError("a refused profile reached the part builder")

    prof = lambda_profile(11)
    monkeypatch.setattr(residue_walk, "partition_from_row_counts", build)
    m = prof.m.copy()
    m[1] = 2**60  # 10 * 2^60 parts: an int64 sum of the weighted rows wraps below the cap
    with pytest.raises(ValueError, match="parts"):
        profile_to_partition(dataclasses.replace(prof, m=m))
    m[1] = -1
    with pytest.raises(ValueError, match="nonnegative"):
        profile_to_partition(dataclasses.replace(prof, m=m))


def test_partition_from_row_counts():
    assert partition_from_row_counts(3, (2, 1)).parts == (4, 2, 2, 1, 1)
    assert partition_from_row_counts(3, (0, 0)).parts == ()
    with pytest.raises(ValueError):
        partition_from_row_counts(3, (1,))
    with pytest.raises(ValueError):
        partition_from_row_counts(3, (1, -1))


def test_validate_walk_p3_vertices():
    # the walk 0, 1, 2, 1 itself is max_size_walk(3).m == (2, 1) in test_oracle.py
    assert validate_walk(lambda_profile(3)) == WalkValidation(True, None)


@pytest.mark.parametrize("p", PRIMES_TO_100)
def test_validate_walk_accepts_honest_profiles(p):
    wv = validate_walk(lambda_profile(p))
    assert wv.ok, wv.violation


def _tampered(prof: LambdaProfile, label: int, delta: int) -> LambdaProfile:
    m = prof.m.copy()
    m[label] += delta
    return dataclasses.replace(prof, m=m)


def test_validate_walk_rejects_tampered_row_counts():
    prof = lambda_profile(5)
    shrunk = _tampered(prof, 2, -1)
    wv = validate_walk(shrunk)
    assert not wv.ok
    assert "labels (2,3)" in wv.violation
    grown = _tampered(prof, 2, +1)
    assert not validate_walk(grown).ok
    short_climb = _tampered(prof, 1, -1)
    wv = validate_walk(short_climb)
    assert not wv.ok
    assert "opening climb" in wv.violation
    bad_descent = _tampered(prof, 4, +1)
    wv = validate_walk(bad_descent)
    assert not wv.ok
    assert "final descent" in wv.violation


def test_validate_walk_names_the_violation_for_huge_row_counts():
    # two rows of 2^62 make an int64 sum of m wrap negative; the replay
    # still stops at the first of them
    prof = lambda_profile(1009)
    m = prof.m.copy()
    m[1007] = m[1008] = 2**62
    assert int(m[1:].sum()) < 0
    wv = validate_walk(dataclasses.replace(prof, m=m))
    assert not wv.ok
    assert wv.violation == "walk hits 0 inside a label-1007 segment from 1008"


def test_validate_walk_names_a_short_last_row():
    # a last row that makes sum(m) = 10 fails only at label p-1, after
    # 966130 edges that all pass
    p = 1009
    prof = lambda_profile(p)
    m = prof.m.copy()
    m[p - 1] = 10 - int(m[1 : p - 1].sum())
    wv = validate_walk(dataclasses.replace(prof, m=m))
    assert not wv.ok
    assert wv.violation == f"label-{p - 1} block is shorter than the return to p-1"


@pytest.mark.parametrize("p", PRIMES_TO_100)
def test_structural_checks_pass_on_honest_profiles(p):
    cls = classify_residues(p)
    prof = lambda_profile(p, cls)
    assert check_symmetry(prof) == []
    assert check_sum_identity(prof) == []
    viol, _notes = check_st_lemmas(cls)
    assert viol == []


def test_symmetry_check_catches_broken_profile():
    prof = lambda_profile(7)
    bad = _tampered(prof, 2, +1)
    assert any("row count symmetry" in v for v in check_symmetry(bad))


def test_sum_identity_check_catches_broken_profile():
    prof = lambda_profile(7)
    bad = _tampered(prof, 3, +1)
    assert any("bead total" in v for v in check_sum_identity(bad))


def _shifted(obj, field: str, index: int, delta: int):
    arr = getattr(obj, field).copy()
    arr[index] += delta
    return dataclasses.replace(obj, **{field: arr})


def test_symmetry_check_catches_broken_pair_mirror():
    prof = lambda_profile(11)
    assert check_symmetry(_shifted(prof, "x", 1, 1)) == ["pair mirror symmetry fails at i=1"]


@pytest.mark.parametrize(
    "index, expected",
    [
        (10, ["bead total identity fails", "gap total does not equal c + 1"]),
        (1, ["gap prefix symmetry fails"]),
    ],
)
def test_sum_identity_check_catches_broken_gap_prefix(index, expected):
    # c_prefix[index] = index p - b[index] rises by one: the runner counts b
    # drop by one at index and, below the last runner, rise back at index + 1.
    # At the last runner sum m (so the gap total) and sum b both move while
    # the prefixes stay mirrored; at runner 1 only the mirror breaks.
    prof = lambda_profile(11)
    b = prof.b.copy()
    b[index] -= 1
    if index + 1 < prof.p:
        b[index + 1] += 1
    assert check_sum_identity(dataclasses.replace(prof, m=np.diff(b, prepend=0))) == expected


@pytest.mark.parametrize(
    "kind, new_sum, expected_viol, expected_notes",
    [
        (S_CLASS, lambda rs: 1, ["fraction-form lower bound fails"], []),
        (S_CLASS, lambda rs: 101, ["fraction-form upper bound fails"], []),
        (T_CLASS, lambda rs: rs + 1, ["sum-form bound fails"], ["sum-form equality missed"]),
        (T_CLASS, lambda rs: rs - 1, [], ["sum-form equality missed"]),
    ],
)
def test_lemma_check_catches_each_broken_bound(kind, new_sum, expected_viol, expected_notes):
    cls = classify_residues(101)
    i = int(np.flatnonzero(cls.kind == kind)[0])
    x, y = cls.x.copy(), cls.y.copy()
    x[i], y[i] = new_sum(int(cls.wr[i] + cls.ws[i])), 0  # the pair sum x + y is now new_sum
    viol, notes = check_st_lemmas(dataclasses.replace(cls, x=x, y=y))
    assert viol == [f"{text} at i={i}" for text in expected_viol]
    assert notes == [f"{text} at i={i}" for text in expected_notes]


@pytest.mark.parametrize(
    "i, kind, value, expected_viol, expected_notes",
    [
        # x + y = 2^63 wraps to -2^63: the exact sum breaks the sum-form bound
        (10, T_CLASS, 2**62, ["sum-form bound fails"], ["sum-form equality missed"]),
        # x + y = -2^63 - 2 wraps to 2^63 - 2, and 3 (x + y) wraps again
        (2, S_CLASS, -(2**62) - 1, ["fraction-form lower bound fails"], []),
        # x + y = 2^62 fits, but 3 (x + y) wraps to -2^62
        (2, S_CLASS, 2**61, ["fraction-form upper bound fails"], []),
    ],
)
def test_lemma_check_decides_on_the_exact_pair_sum(i, kind, value, expected_viol, expected_notes):
    cls = classify_residues(101)
    assert cls.kind[i] == kind and (kind == T_CLASS or max(cls.wr[i], cls.ws[i]) == 3)
    x, y = cls.x.astype(np.int64), cls.y.astype(np.int64)  # int64 copies, so the sum can wrap
    x[i] = y[i] = value
    viol, notes = check_st_lemmas(dataclasses.replace(cls, x=x, y=y))
    assert viol == [f"{text} at i={i}" for text in expected_viol]
    assert notes == [f"{text} at i={i}" for text in expected_notes]


@pytest.mark.parametrize(
    "label, dc, expected",
    [
        # one more climb row: sum b and sum m move, and m_1 - m_{p-1} no
        # longer equals p (p-1) - sum m - c, while m_i = m_{p-i} holds inside
        (1, 0, ["bead total identity fails", "gap total does not equal c + 1", "gap prefix symmetry fails"]),
        # one more label-2 row and c one lower: the gap total and m_1 - m_{p-1}
        # still match, and m_2 != m_{p-2} is left to check_symmetry
        (2, -1, ["bead total identity fails"]),
    ],
)
def test_sum_identity_gap_prefix_reads_the_ends_and_the_mirror(label, dc, expected):
    prof = lambda_profile(11)
    bad = dataclasses.replace(_tampered(prof, label, 1), c=prof.c + dc)
    assert check_sum_identity(bad) == expected
    # the interior mirror m_i = m_{p-i} (2 <= i <= p-2) is check_symmetry's row-count symmetry
    assert check_symmetry(bad) == ([] if label == 1 else [f"row count symmetry fails at i={label}"])


@pytest.mark.parametrize("block", [7, 1 << 14])
def test_lemma_check_keeps_message_order_across_blocks(monkeypatch, block):
    # residues of p = 101 and the pair sum x + y each is given; in blocks of
    # 7 labels every message first fails in its own block, in the reverse of
    # the message order, and fails again in a later block
    cls = classify_residues(101)
    rs = cls.wr.astype(np.int64) + cls.ws
    sums = {10: rs[10] - 1, 27: rs[27] + 1, 60: rs[60] + 1, 52: 101, 81: 1, 95: 1}
    assert [int(cls.kind[i]) for i in sums] == [T_CLASS] * 3 + [S_CLASS] * 3
    x, y = cls.x.copy(), cls.y.copy()
    for i, t in sums.items():
        x[i], y[i] = t, 0
    monkeypatch.setattr(modarith, "_BLOCK", block)
    viol, notes = check_st_lemmas(dataclasses.replace(cls, x=x, y=y))
    assert viol == [
        "fraction-form lower bound fails at i=81",
        "fraction-form upper bound fails at i=52",
        "sum-form bound fails at i=27",
    ]
    assert notes == ["sum-form equality missed at i=10"]


def test_lemma_check_temporaries_do_not_grow_with_p():
    peaks = []
    for p in (primes_in_range(50_000, 50_100)[0], primes_in_range(200_000, 200_100)[0]):
        cls = classify_residues(p)
        tracemalloc.start()
        try:
            assert check_st_lemmas(cls)[0] == []
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 1 << 20, peaks


def test_sum_identity_bead_total_is_exact_near_int64_limit():
    prof = lambda_profile(11)
    p = prof.p
    m = np.full(p, 2**62 - 1, dtype=np.int64)
    m[0] = 0
    weights = list(range(p, 0, -1))  # p - i
    # sum b = sum (p - i) m_i; p - 1 = -1 mod p, so lowering m_1 by one raises it by one mod p
    m[1] -= (-1 - sum(map(int.__mul__, weights[1:], m[1:].tolist()))) % p
    total = sum(map(int.__mul__, weights[1:], m[1:].tolist()))
    assert total % p == p - 1
    assert int(((p - np.arange(p)) * m)[1:].sum()) != total  # a plain int64 sum wraps here
    c = (p * p * (p - 1) - 2 - 2 * total) // p
    assert not any("bead total" in v for v in check_sum_identity(dataclasses.replace(prof, m=m, c=c)))
    m[1] += 1
    assert any("bead total" in v for v in check_sum_identity(dataclasses.replace(prof, m=m, c=c)))


def test_profile_rejects_broken_classification():
    cls = classify_residues(11)
    x = cls.x.copy()
    x[1] += 1
    with pytest.raises(VerificationError, match="pair mirror symmetry"):
        lambda_profile(11, dataclasses.replace(cls, x=x))
    # from classify_residues y is x reversed; a hand-built y is checked on its own
    y = cls.y.copy()
    y[3] = 0
    with pytest.raises(VerificationError, match="pair positivity"):
        lambda_profile(11, dataclasses.replace(cls, y=y))


def test_profile_rejects_bad_p():
    for bad in (2, 4, 1, 0):
        with pytest.raises(ValueError):
            lambda_profile(bad)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(primes_in_range(100, 1000)))
def test_fast_pairs_match_direct_on_sampled_larger_primes(p):
    cls = classify_residues(p)
    for i in range(1, p - 1, 17):
        assert (cls.x[i], cls.y[i]) == minimal_pair_direct(i, p)
