"""The int64 block passes against their Python-int references.

validate_walk, inverse_range and size_from_bead_multiplicities evaluate
p-length loops as numpy passes over blocks of modarith._BLOCK labels.  The
scalar loops they replaced are kept here as references, and every test that
compares the two shrinks the block so that failures and sums straddle block
edges.
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
from corewalk.modarith import _FAST_P_LIMIT, inverse_range, primes_in_range
from corewalk.oracle import enumerate_valid_walks, longest_walk_dp
from corewalk.residue_walk import (
    LambdaProfile,
    WalkValidation,
    _first_failing_label,
    lambda_profile,
    size_from_bead_multiplicities,
    validate_walk,
)

PRIMES_TO_600 = primes_in_range(3, 600)


def reference_validate_walk(profile: LambdaProfile, vertex_cap: int = 100_000) -> WalkValidation:
    """The scalar replay validate_walk used before its block pass, verbatim
    except that the inverse table comes from pow(k, -1, p) and the vertex cap
    counts the vertices the replay visits before it stops."""
    p = profile.p
    m = profile.m
    y = profile.y
    inv = [0] + [pow(k, -1, p) for k in range(1, p)]
    state: dict = {"v": 0, "vertices": [0] if vertex_cap >= 1 else None}

    def advance(label: int, k: int) -> Optional[str]:
        v = state["v"]
        if k < 0:
            return f"negative segment length {k} at label {label}"
        steps_to_zero = (p - v) * inv[label] % p or p
        if k >= steps_to_zero:
            return f"walk hits 0 inside a label-{label} segment from {v}"
        recorded = state["vertices"]
        if recorded is not None and len(recorded) + k > vertex_cap:
            state["vertices"] = None
        elif recorded is not None:
            recorded.extend((v + j * label) % p for j in range(1, k + 1))
        state["v"] = (v + k * label) % p
        return None

    def done(violation: Optional[str]) -> WalkValidation:
        final = state["v"] if violation is None else None
        return WalkValidation(violation is None, violation, state["vertices"], final)

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
    arr = getattr(prof, field).copy()
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
    assert got.vertices == expected.vertices
    assert got.final_residue == expected.final_residue


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
            if label <= p - 2:
                _assert_same_replay(_tamper(prof, "y", {label: delta}), 7)


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("p", [3, 5, 7, 61, 409, 599])
def test_block_pass_flags_no_label_of_an_honest_walk(p, block):
    prof = _profile(p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modarith, "_BLOCK", block)
        assert _first_failing_label(p, prof.m, prof.y, inverse_range(p - 1, p)) == (p, 1)


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
    # blocks after the first derive even k from k/2; k above p/2 mirror p-k
    for n in sorted({1, p // 2, p // 2 + 1, p - 1}):
        if n < p:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(modarith, "_BLOCK", 7)
                inv = inverse_range(n, p)
            assert inv.tolist() == [0] + [pow(k, -1, p) for k in range(1, n + 1)]


def test_inverse_range_rejects_composite_modulus_in_a_later_block():
    # 561 = 3 * 11 * 17 is a Carmichael number: k^560 = 1 for every k coprime
    # to it, so the first block [1, 3) passes and its factor 3 fails
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modarith, "_BLOCK", 2)
        with pytest.raises(ValueError, match="not prime: .* at k = 3$"):
            inverse_range(20, 561)


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
        inv_bytes = inverse_range(p - 1, p).nbytes
        assert validate_walk(prof).ok
        extra["walk"].append(_peak_traced_bytes(lambda: validate_walk(prof)) - inv_bytes)
        b = prof.b[1:]
        extra["size"].append(_peak_traced_bytes(lambda: size_from_bead_multiplicities(p, b)))
    for name, (small, large) in extra.items():
        assert abs(large - small) < 1 << 20, (name, small, large)
