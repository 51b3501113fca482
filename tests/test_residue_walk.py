import dataclasses
import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corewalk import residue_walk
from corewalk.errors import VerificationError
from corewalk.modarith import mod_inverse, primes_in_range
from corewalk.partitions import is_p_core, is_p_regular
from corewalk.residue_walk import (
    LambdaProfile,
    S_CLASS,
    T_CLASS,
    _coprime_pair_tables,
    check_st_lemmas,
    check_sum_identity,
    check_symmetry,
    classify_residues,
    lambda_profile,
    minimal_pair_direct,
    partition_from_row_counts,
    profile_to_partition,
    step_bounds,
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
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mn.size == 304_191
    assert peak < 100 * mn.size


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
            assert i == s * mod_inverse(r - s, p) % p
        else:
            assert cls.kind[i] == T_CLASS
            assert i == (p - s) * mod_inverse(r + s, p) % p


@pytest.mark.parametrize("p", PRIMES_TO_100)
def test_fast_pairs_match_direct_search(p):
    cls = classify_residues(p)
    for i in range(1, p - 1):
        direct = minimal_pair_direct(i, p)
        assert (cls.x[i], cls.y[i]) == (direct.x, direct.y), (p, i)


@pytest.mark.parametrize("p", PRIMES_TO_100)
def test_pairs_respect_step_bounds(p):
    for i in range(1, p - 1):
        sb = step_bounds(i, p)
        x, y = minimal_pair_direct(i, p).x, minimal_pair_direct(i, p).y
        assert 1 <= x <= sb.x_max
        assert 1 <= y <= sb.y_max
        assert (i * x + (i + 1) * y) % p == 0


def test_step_bounds_frozen():
    sb = step_bounds(1, 5)
    assert (sb.x_max, sb.y_max) == (1, 2)
    assert step_bounds(2, 5).x_max == 3
    with pytest.raises(ValueError):
        step_bounds(0, 5)
    with pytest.raises(ValueError):
        step_bounds(4, 5)


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


def test_profile_to_partition_frozen():
    assert profile_to_partition(lambda_profile(3)).parts == (4, 2, 2, 1, 1)
    with pytest.raises(ValueError):
        profile_to_partition(lambda_profile(101), max_parts=100)


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
    with pytest.raises(ValueError, match="max_parts"):
        profile_to_partition(prof, max_parts=2**32)


def test_partition_from_row_counts():
    assert partition_from_row_counts(3, (2, 1)).parts == (4, 2, 2, 1, 1)
    assert partition_from_row_counts(3, (0, 0)).parts == ()
    with pytest.raises(ValueError):
        partition_from_row_counts(3, (1,))
    with pytest.raises(ValueError):
        partition_from_row_counts(3, (1, -1))


def test_validate_walk_p3_vertices():
    wv = validate_walk(lambda_profile(3))
    assert wv.ok
    assert wv.vertices == [0, 1, 2, 1]
    assert wv.final_residue == 1


@pytest.mark.parametrize("p", PRIMES_TO_100)
def test_validate_walk_accepts_honest_profiles(p):
    wv = validate_walk(lambda_profile(p))
    assert wv.ok, wv.violation
    assert wv.final_residue == 1
    if wv.vertices is not None:
        assert len(wv.vertices) == int(lambda_profile(p).m[1:].sum()) + 1
        assert 0 not in wv.vertices[1:]


def test_validate_walk_skips_recording_when_long():
    prof = lambda_profile(5)
    wv = validate_walk(prof, vertex_cap=3)
    assert wv.ok
    assert wv.vertices is None


def _tampered(prof: LambdaProfile, label: int, delta: int) -> LambdaProfile:
    m = prof.m.copy()
    m[label] += delta
    b = np.zeros_like(m)
    np.cumsum(m[1:], out=b[1:])
    return LambdaProfile(prof.p, m, b, prof.d, prof.c_prefix, prof.x, prof.y, prof.c, prof.size)


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


@pytest.mark.parametrize("p", PRIMES_TO_100)
def test_structural_checks_pass_on_honest_profiles(p):
    cls = classify_residues(p)
    prof = lambda_profile(p, cls)
    assert check_symmetry(prof) == []
    assert check_sum_identity(prof) == []
    viol, _notes = check_st_lemmas(cls, prof)
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
    [(10, ["gap total does not equal c + 1"]), (1, ["gap prefix symmetry fails"])],
)
def test_sum_identity_check_catches_broken_gap_prefix(index, expected):
    prof = lambda_profile(11)
    assert check_sum_identity(_shifted(prof, "c_prefix", index, 1)) == expected


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
    prof = lambda_profile(101, cls)
    i = int(np.flatnonzero(cls.kind == kind)[0])
    x, y = prof.x.copy(), prof.y.copy()
    x[i], y[i] = new_sum(int(cls.wr[i] + cls.ws[i])), 0  # the pair sum x + y is now new_sum
    viol, notes = check_st_lemmas(cls, dataclasses.replace(prof, x=x, y=y))
    assert viol == [f"{text} at i={i}" for text in expected_viol]
    assert notes == [f"{text} at i={i}" for text in expected_notes]


def test_sum_identity_bead_total_is_exact_near_int64_limit():
    prof = lambda_profile(11)
    p = prof.p
    b = np.full(p, 2**62 - 1, dtype=np.int64)
    b[0] = 0
    b[1] -= (sum(b[1:].tolist()) + 1) % p
    total = sum(b[1:].tolist())
    assert total % p == p - 1
    assert int(b[1:].sum()) != total  # a plain int64 sum wraps here
    c = (p * p * (p - 1) - 2 - 2 * total) // p
    big = dataclasses.replace(prof, b=b, c=c)
    assert not any("bead total" in v for v in check_sum_identity(big))
    b[1] += 1
    assert any("bead total" in v for v in check_sum_identity(big))


def test_profile_rejects_broken_classification():
    cls = classify_residues(11)
    x = cls.x.copy()
    x[1] += 1
    with pytest.raises(VerificationError, match="pair mirror symmetry"):
        lambda_profile(11, dataclasses.replace(cls, x=x))


def test_profile_rejects_bad_p():
    for bad in (2, 4, 1, 0):
        with pytest.raises(ValueError):
            lambda_profile(bad)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(primes_in_range(100, 1000)))
def test_fast_pairs_match_direct_on_sampled_larger_primes(p):
    cls = classify_residues(p)
    for i in range(1, p - 1, 17):
        direct = minimal_pair_direct(i, p)
        assert (cls.x[i], cls.y[i]) == (direct.x, direct.y)
