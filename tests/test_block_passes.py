"""The int64 block passes against their Python-int references.

validate_walk, inverse_range and size_from_bead_multiplicities evaluate
p-length loops as numpy passes over blocks of modarith._BLOCK labels, and
modarith.mod_p reduces modulo p one block at a time.  The scalar loops they
replaced are kept here as references, and every test that compares the two
shrinks the block so that failures and sums straddle block edges.
check_symmetry's block pass is compared with its whole-array form the same
way.  The readers of the int32 minimal pairs are run on int64 copies too,
and must reach the same verdicts.
"""

import dataclasses
import operator
import tracemalloc
from functools import lru_cache
from itertools import count
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corewalk import modarith
from corewalk.modarith import _FAST_P_LIMIT, inverse_range, mod_p, primes_in_range
from corewalk.oracle import enumerate_valid_walks, longest_walk_dp
from corewalk.residue_walk import (
    S_CLASS,
    T_CLASS,
    LambdaProfile,
    ResidueClassification,
    WalkValidation,
    _first_failing_label,
    _runner_blocks,
    check_st_lemmas,
    check_sum_identity,
    check_symmetry,
    classify_residues,
    lambda_profile,
    size_from_bead_multiplicities,
    validate_walk,
)

PRIMES_TO_600 = primes_in_range(3, 600)


def reference_validate_walk(profile: LambdaProfile) -> WalkValidation:
    """The scalar replay validate_walk used before its block pass, verbatim
    except that the inverse table comes from pow(k, -1, p) and no vertex is
    recorded."""
    p = profile.p
    m = profile.m
    y = profile.y
    inv = [0] + [pow(k, -1, p) for k in range(1, p)]
    state: dict = {"v": 0}

    def advance(label: int, k: int) -> Optional[str]:
        v = state["v"]
        if k < 0:
            return f"negative segment length {k} at label {label}"
        steps_to_zero = (p - v) * inv[label] % p or p
        if k >= steps_to_zero:
            return f"walk hits 0 inside a label-{label} segment from {v}"
        state["v"] = (v + k * label) % p
        return None

    def done(violation: Optional[str]) -> WalkValidation:
        return WalkValidation(violation is None, violation)

    m1 = int(m[1])
    if m1 < p - 1:
        return done(f"opening climb needs {p - 1} label-1 edges, profile has {m1}")
    err = advance(1, p - 1)
    if err:
        return done(err)
    if state["v"] != p - 1:
        return done("opening climb does not end at p-1")
    err = advance(1, m1 - (p - 1))
    if err:
        return done(err)
    for i in range(2, p):
        y_max = p - inv[i]  # inverse of -i
        tail = y_max - int(y[i - 1])
        mi = int(m[i])
        if tail < 0:
            return done(f"stored pair exceeds its cap before label {i}")
        if mi < tail:
            return done(f"label-{i} block is shorter than the return to p-1")
        err = advance(i, tail)
        if err:
            return done(err)
        if state["v"] != p - 1:
            return done(f"excursion over labels ({i - 1},{i}) does not return to p-1")
        rest = mi - tail
        if i == p - 1 and rest != p - 2:
            return done(f"final descent needs {p - 2} label-{p - 1} edges, got {rest}")
        err = advance(i, rest)
        if err:
            return done(err)
    if state["v"] != 1:
        return done(f"walk ends at {state['v']}, expected 1")
    return done(None)


def reference_check_symmetry(profile: LambdaProfile) -> list[str]:
    """check_symmetry's whole-array comparisons before its block pass, verbatim."""
    p = profile.p
    out = []
    mism = np.flatnonzero(profile.x[1 : p - 1] != profile.y[p - 2 : 0 : -1])
    if mism.size:
        out.append(f"pair mirror symmetry fails at i={int(mism[0]) + 1}")
    mism = np.flatnonzero(profile.m[2 : p - 1] != profile.m[p - 2 : 1 : -1])
    if mism.size:
        out.append(f"row count symmetry fails at i={int(mism[0]) + 2}")
    return out


def reference_size(p: int, b) -> int:
    """The Python-int size formula size_from_bead_multiplicities used before its limb pass."""
    s1 = sum(b)
    s2 = sum(map(operator.mul, b, b))
    sl = sum(map(operator.mul, count(1), b))
    doubled = -s1 * s1 + p * s2 + 2 * sl - (p - 1) * s1
    half, rem = divmod(doubled, 2)
    assert rem == 0 and half >= 0
    return half


@lru_cache(maxsize=None)
def _profile(p: int) -> LambdaProfile:
    return lambda_profile(p)


def _tamper(prof: LambdaProfile, field: str, changes: dict[int, int]) -> LambdaProfile:
    # an int64 copy: the stored pairs are int32, and the deltas reach 2^62
    arr = getattr(prof, field).astype(np.int64)
    for idx, delta in changes.items():
        arr[idx] += delta
    return dataclasses.replace(prof, **{field: arr})


def _assert_same_replay(prof: LambdaProfile, block: int) -> None:
    expected = reference_validate_walk(prof)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modarith, "_BLOCK", block)
        got = validate_walk(prof)
    assert got.ok == expected.ok
    assert got.violation == expected.violation


@st.composite
def tampered_profiles(draw):
    p = draw(st.sampled_from(PRIMES_TO_600))
    prof = _profile(p)
    delta = st.one_of(
        st.integers(-3 * p, 3 * p).filter(bool),
        st.sampled_from([-(1 << 62), 1 << 62]),
    )
    kind = draw(st.sampled_from(["m", "y", "pair"]))
    if kind == "m":
        return _tamper(prof, "m", {draw(st.integers(1, p - 1)): draw(delta)})
    if kind == "y":
        return _tamper(prof, "y", {draw(st.integers(1, p - 2)): draw(delta)})
    up, down = draw(st.lists(st.integers(1, p - 1), min_size=2, max_size=2, unique=True))
    return _tamper(prof, "m", {up: 1, down: -1})


@settings(max_examples=300, deadline=None)
@given(tampered_profiles(), st.sampled_from([1, 7, 64]))
def test_block_replay_matches_scalar_replay(prof, block):
    _assert_same_replay(prof, block)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31, 61, 97])
def test_block_replay_matches_scalar_replay_at_every_label(p):
    prof = _profile(p)
    _assert_same_replay(prof, 7)
    for label in range(1, p):
        for delta in (-2, -1, 1, 2):
            _assert_same_replay(_tamper(prof, "m", {label: delta}), 7)
        # y[label] sets label+1's tail; a shift by p-1 or p takes it to or past
        # steps_to_zero, or below 0 where steps_to_zero - inv(i) < 0
        for delta in (-p, 1 - p, -2, -1, 1, 2, p - 1, p):
            if label <= p - 2:
                _assert_same_replay(_tamper(prof, "y", {label: delta}), 7)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31])
def test_block_replay_matches_scalar_replay_where_only_the_tail_range_fails(p):
    # label i starts at v = p-1 + r (i-1) mod p for any count r < inv(i-1) of
    # label i-1's last edges.  A tail of steps_to_zero - inv(i) + j p returns
    # to p-1, so these tampers fail label i only by tail < 0 or by
    # tail >= steps_to_zero, the cases that its equality check stands in for
    prof = _profile(p)
    y = prof.y.astype(np.int64)
    for i in range(2, p):
        inv_prev, inv_i = pow(i - 1, -1, p), pow(i, -1, p)
        prev_tail = p - inv_prev - int(y[i - 2])
        for r in range(inv_prev):
            to_zero = (1 - r * (i - 1)) * inv_i % p or p  # from v = p-1 + r (i-1)
            for tail in (to_zero - inv_i, to_zero - inv_i + p):
                if not 0 <= tail < to_zero:
                    m, ys = prof.m.copy(), y.copy()
                    m[i - 1], m[i], ys[i - 1] = prev_tail + r, max(tail, 0), p - inv_i - tail
                    _assert_same_replay(dataclasses.replace(prof, m=m, y=ys), 7)


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("p", [3, 5, 7, 61, 409, 599])
def test_block_pass_flags_no_label_of_an_honest_walk(p, block):
    prof = _profile(p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modarith, "_BLOCK", block)
        assert _first_failing_label(p, prof.m, prof.y, inverse_range((p - 1) // 2, p)) == (p, 1)


@settings(max_examples=200, deadline=None)
@given(tampered_profiles(), st.sampled_from([1, 7, 64]))
def test_block_symmetry_check_matches_whole_array_check(prof, block):
    # a tampered y is a copy, apart from x: its pair mirror fails too
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modarith, "_BLOCK", block)
        assert check_symmetry(prof) == reference_check_symmetry(prof)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 61, 409])
def test_half_table_replay_matches_scalar_replay_at_the_midpoint(p):
    # labels (p-1)/2 and (p+1)/2 read the half table's last entry and the first
    # inverse rebuilt as p - inv(p-i); a block of (p+1)/2 labels straddles the
    # two, and at p = 3, 5 and 7 the table holds 1 to 3 entries
    prof, half = _profile(p), (p - 1) // 2
    tampered = [prof, _tamper(prof, "m", {half: 1, half + 1: -1}), _tamper(prof, "m", {half: -1, half + 1: 1})]
    for label in (half, half + 1):
        tampered += [_tamper(prof, "m", {label: delta}) for delta in (-2, -1, 1, 2)]
        if label >= 2:  # y[label-1] sets label's tail
            tampered += [_tamper(prof, "y", {label - 1: d}) for d in (-p, 1 - p, -2, -1, 1, 2, p - 1, p)]
    for tampered_prof in tampered:
        for block in (1, 7, half + 1):
            _assert_same_replay(tampered_prof, block)


MOD_PRIMES = [3, 1000003, (1 << 31) - 1]


def _mod_edges(p: int) -> list[int]:
    return [0, 1, -1, p - 1, p, -p, 1 << 62, -(1 << 62)]


def _assert_mod_p(values: list[int], p: int, block: int) -> None:
    a = np.array(values, dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modarith, "_BLOCK", block)
        got = mod_p(a, p)
    assert got is a  # in place
    assert a.tolist() == [v % p for v in values]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mod_p_matches_python_ints(data):
    p = data.draw(st.sampled_from(MOD_PRIMES))
    n = data.draw(st.sampled_from([1, 7, 64, 65]))
    entry = st.one_of(st.integers(-(1 << 62), 1 << 62), st.sampled_from(_mod_edges(p)))
    _assert_mod_p(data.draw(st.lists(entry, min_size=n, max_size=n)), p, 64)


@pytest.mark.parametrize("n", [1, 7, 64, 65])
@pytest.mark.parametrize("p", MOD_PRIMES)
def test_mod_p_at_the_edges_across_a_block_edge(p, n):
    # every edge at every offset of a block of 64 and of the entry after it
    edges = _mod_edges(p)
    for shift in range(len(edges)):
        _assert_mod_p([edges[(j + shift) % len(edges)] for j in range(n)], p, 64)


def test_mod_p_temporaries_stay_one_block():
    # 2^20 entries, 8 MiB: a full-length quotient would take as much again
    p = 1000003
    a = np.arange(-(1 << 19), 1 << 19, dtype=np.int64) * 8796093022
    expected = np.remainder(a, p)
    peak = _peak_traced_bytes(lambda: mod_p(a, p))
    assert np.array_equal(a, expected)
    assert 8 * modarith._BLOCK <= peak < 2 * 8 * modarith._BLOCK, peak


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_limb_size_matches_python_ints(data):
    n = data.draw(st.sampled_from([1, 63, 64, 65, 130, 200]))
    b = data.draw(st.lists(st.integers(0, (1 << 62) - 1), min_size=n, max_size=n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modarith, "_BLOCK", 64)
        got = size_from_bead_multiplicities(n + 1, b)
    assert got == reference_size(n + 1, b)


def test_limb_size_at_the_largest_counts_across_a_block_edge():
    b = [(1 << 63) - 1] * 65 + [0, 1, 0xFFFF, 1 << 48]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modarith, "_BLOCK", 64)
        got = size_from_bead_multiplicities(len(b) + 1, b)
    assert got == reference_size(len(b) + 1, b)


LIMB_EDGES = [(1 << 24) - 1, 1 << 24, (1 << 48) - 1, 1 << 48, 1 << 62, (1 << 63) - 1]


@pytest.mark.parametrize("block", [64, 1 << 14])
@pytest.mark.parametrize("value", LIMB_EDGES)
def test_limb_size_at_the_24_bit_limb_edges(value, block):
    # a full block of one count, then the other edges and a partial block; at
    # 2^14 runners of 2^63 - 1 the limb sums reach their bound, below 2^62
    b = [value] * block + LIMB_EDGES + [0, 1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modarith, "_BLOCK", block)
        got = size_from_bead_multiplicities(len(b) + 1, b)
    assert got == reference_size(len(b) + 1, b)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_size_from_row_count_blocks_matches_python_ints(data):
    # lambda_profile's path: b = cumsum(m) built block by block, carried across edges
    n = data.draw(st.sampled_from([1, 63, 64, 65, 130, 200]))
    top = data.draw(st.sampled_from([3, 1 << 20, 1 << 40]))
    rows = data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    m = np.array([0] + rows, dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modarith, "_BLOCK", 64)
        got = size_from_bead_multiplicities(n + 1, _runner_blocks(m))
    assert got == reference_size(n + 1, np.cumsum(m[1:]).tolist())


def test_limb_size_matches_python_ints_at_p_1000003():
    prof = lambda_profile(1000003)
    assert prof.size == reference_size(prof.p, prof.b[1:].tolist())


@pytest.mark.parametrize(
    "b",
    [
        [1, 1 << 63],
        np.array([1, 1 << 63], dtype=np.uint64),
        [1, 1 << 70],
        [1, -1],
        [1.0, 2.0],
    ],
)
def test_counts_outside_the_bound_are_refused(b):
    with pytest.raises(ValueError):
        size_from_bead_multiplicities(3, b)


@pytest.mark.parametrize(
    "blocks",
    [
        [np.array([1, -1])],
        [np.array([1, 1 << 63], dtype=np.uint64)],
        [np.array([1.0, 2.0])],
        [np.array([1])],
        [np.array([1]), np.array([2, 3])],
    ],
)
def test_block_iterators_meet_the_same_refusals(blocks):
    with pytest.raises(ValueError):
        size_from_bead_multiplicities(3, iter(blocks))


def test_block_iterators_hold_at_most_2_14_counts_a_block():
    # the limb sums stay below 2^62 only over blocks of at most 2^14 runners
    n = (1 << 14) + 1
    with pytest.raises(ValueError, match="at most 2\\^14"):
        size_from_bead_multiplicities(n + 1, iter([np.ones(n, dtype=np.int64)]))
    blocks = [np.ones(n - 1, dtype=np.int64), np.ones(1, dtype=np.int64)]
    assert size_from_bead_multiplicities(n + 1, iter(blocks)) == reference_size(n + 1, [1] * n)


@pytest.mark.parametrize("block", [64, 1 << 14])
def test_inverse_range_at_the_supported_limit(block):
    p = (1 << 31) - 1  # the largest prime below _FAST_P_LIMIT
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modarith, "_BLOCK", block)
        inv = inverse_range(1000, p)
    assert inv.dtype == np.int64
    assert inv[1:].tolist() == [pow(k, -1, p) for k in range(1, 1001)]
    with pytest.raises(ValueError):
        inverse_range(1000, _FAST_P_LIMIT + 11)


@pytest.mark.parametrize("p", [2, 3, 5, 101, 1009])
def test_inverse_range_across_block_edges(p):
    # rows of min(_BLOCK, p/2) columns: one row, several rows, a partial last
    # row; k above p/2 mirror p-k
    for block in (2, 7, 64):
        for n in sorted({1, p // 2, p // 2 + 1, p - 1}):
            if n < p:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(modarith, "_BLOCK", block)
                    inv = inverse_range(n, p)
                assert inv.tolist() == [0] + [pow(k, -1, p) for k in range(1, n + 1)], (block, n)


def test_inverse_range_rejects_composite_modulus_in_a_later_block():
    # 561 = 3 * 11 * 17 is a Carmichael number: k^560 = 1 for every k coprime
    # to it, so the first block [1, 3) passes and its factor 3 fails
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modarith, "_BLOCK", 2)
        with pytest.raises(ValueError, match="not prime: .* at k = 3$"):
            inverse_range(20, 561)


@pytest.mark.parametrize("block", [1, 2, 7, 64])
@pytest.mark.parametrize("q", [9, 25, 91, 561, 1105, 7 * 13 * 19, 101 * 103])
def test_inverse_range_names_the_smallest_prime_factor(q, block):
    # a factor poisons its whole column, yet the report names the factor
    factor = next(d for d in count(2) if q % d == 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modarith, "_BLOCK", block)
        for n in (factor, q // 2, q - 1):
            with pytest.raises(ValueError, match=f"not prime: .* at k = {factor}$"):
                inverse_range(n, q)


def test_replay_bounds_hold_at_the_supported_limit():
    # _first_failing_label's int64 terms at their extremes, in Python ints:
    # rest clipped to [-1, p], 1 <= i, inv(i) < p and 0 <= v < p; the two
    # terms mod_p reduces are nonnegative, and none reaches 2^62
    p = (1 << 31) - 1  # the largest prime below _FAST_P_LIMIT
    i, rests, limit = p - 1, (-1, p), 1 << 62
    assert max(abs(r * i) for r in rests) <= p * (p - 1) < limit
    ends = [p - 1 + r * i for r in rests]
    assert 0 <= min(ends) and max(ends) < p * p < limit
    to_zero = [(p - v) * inv - 1 for v in (0, p - 1) for inv in (1, p - 1)]
    assert 0 <= min(to_zero) and max(to_zero) < p * (p - 1)
    # and numpy's int64 gives the same values, so nothing wraps
    v, inv = np.array([0, 0, p - 1, p - 1]), np.array([1, p - 1, 1, p - 1])
    arr = np.concatenate((p - 1 + np.array(rests) * i, (p - v) * inv - 1))
    assert arr.dtype == np.int64 and arr.tolist() == ends + to_zero


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("p", [13, 61, 409])
@pytest.mark.parametrize("field, value", [("m", 1 << 62), ("m", -(1 << 62)), ("y", -(1 << 62))])
def test_block_replay_matches_scalar_replay_at_extreme_entries(p, block, field, value):
    prof = _profile(p)
    for label in (p // 2, p - 1):  # label i reads m[i] and y[i-1]
        arr = getattr(prof, field).astype(np.int64)  # the int32 pairs cannot hold the value
        arr[label if field == "m" else label - 1] = value
        _assert_same_replay(dataclasses.replace(prof, **{field: arr}), block)


INT32 = np.iinfo(np.int32)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pair_readers_agree_on_int32_and_int64_pairs(data):
    # the stored int32 pairs and int64 copies of them, tampered at random
    # entries with values that fit 32 bits, give every pair reader one verdict
    p = data.draw(st.sampled_from(PRIMES_TO_600))
    prof = _profile(p)
    cls = classify_residues(p)
    x, y, m = cls.x.copy(), cls.y.copy(), prof.m.copy()
    value = st.one_of(st.integers(INT32.min, INT32.max), st.integers(-3 * p, 3 * p))
    for _ in range(data.draw(st.integers(1, 3))):
        arr = data.draw(st.sampled_from([x, y, m]))
        arr[data.draw(st.integers(0, p - 1))] = data.draw(value)
    wide = x.astype(np.int64), y.astype(np.int64)
    assert x.dtype == y.dtype == np.int32
    results = []
    for xs, ys in ((x, y), wide):
        tampered = dataclasses.replace(prof, x=xs, y=ys, m=m)
        results.append(
            (
                check_st_lemmas(dataclasses.replace(cls, x=xs, y=ys)),
                validate_walk(tampered),
                check_symmetry(tampered),
                check_sum_identity(tampered),
            )
        )
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "kind, witness, expected",
    [
        (S_CLASS, (2, 1), (["fraction-form upper bound fails at i=1"], [])),
        (T_CLASS, (1, 1), (["sum-form bound fails at i=1"], ["sum-form equality missed at i=1"])),
    ],
)
def test_lemma_check_sums_int32_pairs_at_the_supported_limit(kind, witness, expected):
    # p = 2^31 - 1 and x = y = 2^31 - 1, the largest entries an int32 pair
    # holds: their int32 sum wraps to -2, and the exact sum 2^32 - 2 = 2p
    # breaks each form's upper bound.  Only label 1 is classified (label 2
    # has no class), and one block covers the labels that the arrays hold.
    p = INT32.max
    pair = np.array([0, p, 0], dtype=np.int32)
    assert int((pair + pair)[1]) == -2
    wr, ws = (np.array([0, w, 0], dtype=np.uint16) for w in witness)
    cls = ResidueClassification(p, np.array([0, kind, 0], dtype=np.uint8), wr, ws, pair, pair)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modarith, "_BLOCK", 1 << 31)
        verdict = check_st_lemmas(cls)
        wide = pair.astype(np.int64)
        assert check_st_lemmas(dataclasses.replace(cls, x=wide, y=wide)) == verdict
    assert verdict == expected


def test_oracles_stay_on_python_ints():
    assert all(type(k) is int for k in longest_walk_dp(31).m)
    seen = []
    enumerate_valid_walks(5, lambda cand: seen.append(cand.size))
    assert all(type(size) is int for size in seen)


def _peak_traced_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_pass_temporaries_do_not_grow_with_p():
    extra = {"walk": [], "size": []}
    for p in (primes_in_range(50_000, 50_100)[0], primes_in_range(200_000, 200_100)[0]):
        prof = lambda_profile(p)
        inv_bytes = inverse_range((p - 1) // 2, p).nbytes
        assert validate_walk(prof).ok
        extra["walk"].append(_peak_traced_bytes(lambda: validate_walk(prof)) - inv_bytes)
        b = prof.b[1:]
        extra["size"].append(_peak_traced_bytes(lambda: size_from_bead_multiplicities(p, b)))
    for name, (small, large) in extra.items():
        assert abs(large - small) < 1 << 20, (name, small, large)


def test_walk_replay_holds_half_an_inverse_table():
    # above the profile: the int64 inverses of 1..(p-1)/2, 4 B per residue,
    # and the block temporaries; 11.3 B per residue measured, 14.7 B with
    # the p-length table
    p = 200003
    prof = _profile(p)
    assert _peak_traced_bytes(lambda: validate_walk(prof)) < 12 * p
