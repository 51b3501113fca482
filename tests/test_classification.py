"""classify_residues against its p-length-bincount reference and its corruptions.

classify_residues decides its duplicate and coverage checks with uint8 class
marks on the lower half of the residues, stores the witnesses as uint16 and
the pairs as int32, and holds ws and y as reversed views of wr and x.  The
version it replaced, with two int64 bincounts and int64 witnesses over all
residues, is kept here as a reference; every ClassificationError branch is
reached by a corrupted pair table, or by a corrupted inverse table where no
pair table can reach it.
"""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from corewalk import residue_walk
from corewalk.errors import ClassificationError
from corewalk.modarith import _FAST_P_LIMIT, inverse_range, primes_in_range, require_odd_prime
from corewalk.residue_walk import (
    S_CLASS,
    T_CLASS,
    ResidueClassification,
    _coprime_pair_tables,
    _PairTables,
    check_st_lemmas,
    classify_residues,
    lambda_profile,
)


def reference_classify_residues(p: int) -> ResidueClassification:
    """The classification with p-length int64 bincounts and witnesses, verbatim."""
    require_odd_prime(p)
    if p >= _FAST_P_LIMIT:
        raise ValueError(f"p must stay below {_FAST_P_LIMIT} for the table pipeline")
    k = math.isqrt(p)
    mn, mx, inv_mn_mod_mx = _coprime_pair_tables(k)
    inv_small = inverse_range(2 * k, p)

    # witnesses (r, s): both orientations (mx, mn) and (mn, mx) of every pair,
    # then (1, 1), which only the sum form has
    r = np.concatenate((mx, mn, [1]))
    s = np.concatenate((mn, mx, [1]))
    inv_diff = inv_small[mx - mn]  # inv(r - s) for (mx, mn); p minus it for (mn, mx)
    inv_sum = inv_small[mn + mx]
    i_s = s[:-1] * np.concatenate((inv_diff, p - inv_diff)) % p
    i_t = (p - s) * np.concatenate((inv_sum, inv_sum, inv_small[2:3])) % p

    for name, idx in (("fraction-form", i_s), ("sum-form", i_t)):
        if idx.size and (int(idx.min()) < 1 or int(idx.max()) > p - 2):
            raise ClassificationError(f"{name} witness fell outside 1..p-2 at p={p}")
    cnt_s = np.bincount(i_s, minlength=p)
    cnt_t = np.bincount(i_t, minlength=p)
    if int(cnt_s.max()) > 1:
        raise ClassificationError(f"duplicate fraction-form witness at i={int(cnt_s.argmax())}, p={p}")
    if int(cnt_t.max()) > 1:
        raise ClassificationError(f"duplicate sum-form witness at i={int(cnt_t.argmax())}, p={p}")
    uncovered = np.flatnonzero(cnt_s[1 : p - 1] + cnt_t[1 : p - 1] == 0)
    if uncovered.size:
        raise ClassificationError(f"no witness at i={int(uncovered[0]) + 1}, p={p}")

    kind = np.zeros(p, dtype=np.uint8)
    wr = np.zeros(p, dtype=np.int64)
    ws = np.zeros(p, dtype=np.int64)
    x = np.zeros(p, dtype=np.int64)
    y = np.zeros(p, dtype=np.int64)
    kind[i_t] = T_CLASS
    wr[i_t] = x[i_t] = r  # a sum-form pair is its witness
    ws[i_t] = y[i_t] = s

    # fraction-form pairs solve s*x + r*y = p; the split point a = mn*w is
    # the unique multiple of mn in (0, r*s) congruent to p modulo mx, so
    # (x, y) = (w, other) for (r, s) = (mx, mn) and (other, w) for (mn, mx)
    w = (p % mx) * inv_mn_mod_mx % mx
    if w.size and int(w.min()) < 1:
        raise ClassificationError(f"degenerate split point at p={p}")
    rem = p - mn * w
    if np.any(rem % mx):
        raise ClassificationError(f"split point misses divisibility at p={p}")
    other = rem // mx
    kind[i_s] = S_CLASS
    wr[i_s] = r[:-1]
    ws[i_s] = s[:-1]
    x[i_s] = np.concatenate((w, other))
    y[i_s] = np.concatenate((other, w))

    idx = np.arange(1, p - 1, dtype=np.int64)
    bad = np.flatnonzero((idx * x[1 : p - 1] + (idx + 1) * y[1 : p - 1]) % p)
    if bad.size:
        raise ClassificationError(f"pair fails its congruence at i={int(bad[0]) + 1}, p={p}")
    return ResidueClassification(p, kind, wr, ws, x, y)


@pytest.mark.parametrize("p", primes_in_range(3, 3000) + [10007, 100003, 1000003])
def test_classification_matches_reference(p):
    got, want = classify_residues(p), reference_classify_residues(p)
    assert got.kind.dtype == want.kind.dtype
    # the pairs are stored as int32 (every entry is below p < 2^31); the reference keeps int64
    assert got.x.dtype == got.y.dtype == np.int32
    for name in ("kind", "wr", "ws", "x", "y"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_mirrored_orientations_land_on_p_minus_1():
    # i = s/(r-s) and i = -s/(r+s) for (r, s) = (mx, mn) and (mn, mx), in Python ints
    for p in primes_in_range(3, 3000):
        cls, k = classify_residues(p), math.isqrt(p)
        for mx in range(2, k + 1):
            for mn in range(1, mx):
                if math.gcd(mn, mx) > 1:
                    continue
                f = mn * pow(mx - mn, -1, p) % p, mx * pow(mn - mx, -1, p) % p
                t = -mn * pow(mn + mx, -1, p) % p, -mx * pow(mn + mx, -1, p) % p
                assert f[0] + f[1] == p - 1 and t[0] + t[1] == p - 1, (p, mn, mx)
                for form, (i, j) in ((S_CLASS, f), (T_CLASS, t)):
                    if cls.kind[i] == form:  # fraction-form witnesses take priority
                        assert (cls.wr[i], cls.ws[i]) == (mx, mn), (p, mn, mx)
                    if cls.kind[j] == form:
                        assert (cls.wr[j], cls.ws[j]) == (mn, mx), (p, mn, mx)
                assert cls.kind[f[0]] == cls.kind[f[1]] == S_CLASS
        half = (p - 1) // 2  # where (1, 1), its own mirror, lands
        assert -pow(2, -1, p) % p == half
        if cls.kind[half] == T_CLASS:
            assert cls.wr[half] == cls.ws[half] == 1


def test_upper_half_mirrors_the_lower_half():
    # same class, swapped witness and pair; ws and y are wr and x reversed, so
    # each mirrored fact has one home, which the profile keeps
    for p in primes_in_range(3, 3000):
        cls = classify_residues(p)
        i = np.arange(1, p - 1)
        j = p - 1 - i
        assert np.array_equal(cls.kind[j], cls.kind[i]), p
        for a, b in (("wr", "ws"), ("ws", "wr"), ("x", "y"), ("y", "x")):
            assert np.array_equal(getattr(cls, a)[j], getattr(cls, b)[i]), (p, a)
        assert np.shares_memory(cls.y, cls.x) and np.shares_memory(cls.ws, cls.wr), p
        assert lambda_profile(p, cls).x is cls.x, p
        half = (p - 1) // 2  # the pair (1, 1), written twice to one entry and never summed
        assert cls.x[half] == cls.y[half] == 1, p


def test_witness_bound_fits_uint16():
    # every witness entry is at most isqrt(p) < isqrt(_FAST_P_LIMIT)
    assert math.isqrt(_FAST_P_LIMIT - 1) < 2**16


def test_lemma_check_widens_witnesses_before_arithmetic():
    # synthetic witnesses whose r + s and mx^2 wrap in 16 bits
    cls = classify_residues(101)
    i_s = int(np.flatnonzero(cls.kind == S_CLASS)[0])
    i_t = int(np.flatnonzero(cls.kind == T_CLASS)[0])
    wr, ws = cls.wr.copy(), cls.ws.copy()
    wr[i_s] = 40000
    wr[i_t], ws[i_t] = 40000, 25537  # r + s = 65537 = 2^16 + 1
    viol, notes = check_st_lemmas(dataclasses.replace(cls, wr=wr, ws=ws))
    assert viol == []
    assert notes == [f"sum-form equality missed at i={i_t}"]


def test_pair_table_cache_keeps_one_table():
    _coprime_pair_tables(10)
    _coprime_pair_tables(11)
    assert _coprime_pair_tables.cache_info().currsize == 1


def test_classification_memory_per_residue():
    p = 200003
    _coprime_pair_tables(math.isqrt(p))  # warm: the table is not counted
    tracemalloc.start()
    try:
        lambda_profile(p, classify_residues(p))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 21 * p  # 19.6 B per residue measured


def test_classification_and_profile_hold_at_most_16_bytes_per_residue():
    # kind (1 B), wr (2 B), x (4 B) and m (8 B): 15 B per residue; ws and y are views
    p = 200003
    _coprime_pair_tables(math.isqrt(p))  # warm: the table is not counted
    tracemalloc.start()
    try:
        cls = classify_residues(p)
        prof = lambda_profile(p, cls)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert prof.p == cls.p == p
    assert held <= 16 * p


def _corrupted(edit):
    """Serve the k = 10 pair table (p = 101) with edit(mn, mx, inv) applied to copies."""

    @functools.wraps(edit)  # the edit's name stays the test case's id
    def patch(monkeypatch):
        tables = _PairTables(*edit(*(a.copy() for a in _coprime_pair_tables(10))))
        monkeypatch.setattr(residue_walk, "_coprime_pair_tables", lambda k: tables)

    return patch


def _corrupted_inverse(n, value):
    """Serve the classification's inverse table with inv(n) set to value."""
    honest = residue_walk.inverse_range

    def inverse(monkeypatch):
        def inverse_range(k, p):
            inv = honest(k, p)
            inv[n] = value
            return inv

        monkeypatch.setattr(residue_walk, "inverse_range", inverse_range)

    return inverse


def _position(mn, mx, pair):
    return int(np.flatnonzero((mn == pair[0]) & (mx == pair[1]))[0])


def _repeat(mn, mx, inv):
    j = _position(mn, mx, (3, 5))
    return np.append(mn, mn[j]), np.append(mx, mx[j]), np.append(inv, inv[j])


def _repeat_swapped(mn, mx, inv):
    # (2, 3) again as (3, 2): both its sum-form residues recur, while its
    # fraction-form residues, read at the negative index mn - mx, land apart
    j = _position(mn, mx, (2, 3))
    return np.append(mn, mx[j]), np.append(mx, mn[j]), np.append(inv, inv[j])


def _equal_entries(mn, mx, inv):
    return np.append(mn, 2), np.append(mx, 2), np.append(inv, 1)  # r - s = 0


def _drop(mn, mx, inv):
    keep = np.arange(mn.size) != _position(mn, mx, (3, 5))
    return mn[keep], mx[keep], inv[keep]


def _inverse(pair, value):
    def edit(mn, mx, inv):
        j = _position(mn, mx, pair)
        inv[j] = value(inv[j])
        return mn, mx, inv

    return edit


def _swap_entries(mn, mx, inv):
    j = _position(mn, mx, (8, 9))
    mn[j], mx[j], inv[j] = 9, 8, 1  # 9 = 1 mod 8
    return mn, mx, inv


@pytest.mark.parametrize(
    "edit, message",
    [
        (_corrupted(_repeat), "duplicate fraction-form witness at i=48, p=101"),
        (_corrupted(_repeat_swapped), "duplicate sum-form witness at i=40, p=101"),
        (_corrupted(_equal_entries), "fraction-form witness fell outside 1..p-2 at p=101"),
        (_corrupted(_drop), "no witness at i=12, p=101"),
        (_corrupted(_inverse((1, 3), lambda v: 0)), "degenerate split point at p=101"),
        (_corrupted(_inverse((1, 3), lambda v: v + 1)), "split point misses divisibility at p=101"),
        (_corrupted(_swap_entries), "pair fails its congruence at i=40, p=101"),
        # no pair-table edit lands a fraction-form witness on its own mirror
        # (p-1)/2 = 50 with the sum-form residues in range; (1, 10) is the only
        # pair with mx - mn = 9, and inv(9) = 96 puts it on (101 - 10) 96 = 50
        (_corrupted_inverse(9, 96), "duplicate fraction-form witness at i=50, p=101"),
    ],
)
def test_classification_catches_corrupted_pair_table(monkeypatch, edit, message):
    edit(monkeypatch)
    with pytest.raises(ClassificationError) as err:
        classify_residues(101)
    assert str(err.value) == message
