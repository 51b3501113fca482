"""The longest-walk construction of the maximal p-core p'-partition.

An aligned abacus display corresponds to a walk on the residues mod p that
starts at 0, uses edge labels (gap counts per row) in nondecreasing order and
never returns to 0.  The unique longest such walk climbs from 0 to p-1 with
p-1 edges labelled 1, then for every label pair (i, i+1) makes a maximal
excursion that returns to p-1, and finally descends from p-1 to 1 with p-2
edges labelled p-1.  The excursion for (i, i+1) is cut short by the minimal
positive pair (x_i, y_i) with i x_i + (i+1) y_i = 0 mod p, taken under the
caps x_i <= inv(i) and y_i <= inv(-(i+1)).

Minimal pairs come from a two-way classification of the residues i: either
i = s/(r-s) mod p for coprime 0 < r, s < sqrt(p) (not both 1), in which case
s x + r y = p has a unique best split, or i = -s/(r+s) mod p and the pair is
(r, s) itself.  Both witnesses exist for no i twice, and together they cover
all of 1..p-2.  Everything here is verified against brute-force search in the
oracle module; the closed forms are what make p ~ 10^6 cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .abacus import BeadMultiplicities, size_from_bead_multiplicities
from .errors import ClassificationError, VerificationError
from .modarith import inverse_range, is_prime, isqrt, mod_inverse
from .partitions import Partition

# codes stored in ResidueClassification.kind
S_CLASS = 1
T_CLASS = 2

# int64 products in the table pipeline stay below 2**62 as long as p < 2**31
_FAST_P_LIMIT = 1 << 31

DEFAULT_MAX_PARTS = 20_000_000


class StepBounds(NamedTuple):
    i: int
    x_max: int
    y_max: int


@dataclass(frozen=True)
class MinimalPairRecord:
    i: int
    x: int
    y: int


@dataclass(frozen=True, eq=False)
class LambdaProfile:
    """Profile of the maximal p-core p'-partition.

    Arrays are padded so index i holds the value for label i (index 0 is
    unused): m[i] rows with i gaps, b[i] = m[1] + ... + m[i] beads on runner
    i, d[i] = p - m[i], c_prefix[i] = d[1] + ... + d[i].  The pair arrays x,
    y are meaningful for 1 <= i <= p-2.
    """

    p: int
    m: np.ndarray
    b: np.ndarray
    d: np.ndarray
    c_prefix: np.ndarray
    x: np.ndarray
    y: np.ndarray
    c: int
    size: int


@dataclass(frozen=True)
class WalkValidation:
    ok: bool
    violation: Optional[str]
    vertices: Optional[list[int]]
    final_residue: Optional[int]


def _validate_odd_prime(p: int) -> None:
    if p == 2:
        raise ValueError("p = 2 is not supported; the construction needs an odd prime")
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def step_bounds(i: int, p: int) -> StepBounds:
    """Caps for the (i, i+1) excursion: x_max = inv(i), y_max = inv(-(i+1)).

    x_max counts the steps from p-1 to 0 along label i, y_max the steps from
    0 to p-1 along label i+1.
    """
    _validate_odd_prime(p)
    if not 1 <= i <= p - 2:
        raise ValueError(f"label must lie in 1..{p - 2}, got {i}")
    return StepBounds(i, mod_inverse(i, p), mod_inverse(-(i + 1), p))


def minimal_pair_direct(i: int, p: int) -> MinimalPairRecord:
    """Reference search for the minimal admissible pair, by increasing sum.

    For each candidate sum t there is exactly one pair x = (i+1) t,
    y = -i t mod p with x + y = t mod p, so scanning t upward and accepting
    the first pair with x + y = t, x <= x_max, y <= y_max returns the
    minimum.  The scan provably terminates by t = x_max + y_max, where the
    candidate is (x_max, y_max) itself.
    """
    sb = step_bounds(i, p)
    x_step = (i + 1) % p
    y_step = (-i) % p
    x = x_step
    y = y_step
    for t in range(2, sb.x_max + sb.y_max + 1):
        x += x_step
        if x >= p:
            x -= p
        y += y_step
        if y >= p:
            y -= p
        if x + y == t and x <= sb.x_max and y <= sb.y_max:
            return MinimalPairRecord(i, x, y)
    raise VerificationError(f"no admissible pair found for i={i}, p={p}")


class _PairTables(NamedTuple):
    r_all: np.ndarray
    s_all: np.ndarray
    r_ne: np.ndarray
    s_ne: np.ndarray
    mn: np.ndarray
    mx: np.ndarray
    inv_mn_mod_mx: np.ndarray


@lru_cache(maxsize=6)
def _coprime_pair_tables(k: int) -> _PairTables:
    """Ordered coprime pairs (r, s) with 1 <= r, s <= k, plus inverse data."""
    vals = np.arange(1, k + 1, dtype=np.int64)
    r_idx, s_idx = np.nonzero(np.gcd.outer(vals, vals) == 1)
    r_all = (r_idx + 1).astype(np.int64)
    s_all = (s_idx + 1).astype(np.int64)
    ne = r_all != s_all
    r_ne = r_all[ne]
    s_ne = s_all[ne]
    mn = np.minimum(r_ne, s_ne)
    mx = np.maximum(r_ne, s_ne)
    inv_mn_mod_mx = np.fromiter(
        (pow(a, -1, b) for a, b in zip(mn.tolist(), mx.tolist())),
        dtype=np.int64,
        count=len(mn),
    )
    return _PairTables(r_all, s_all, r_ne, s_ne, mn, mx, inv_mn_mod_mx)


@dataclass(frozen=True, eq=False)
class ResidueClassification:
    """Witness classification of residues 1..p-2, as arrays indexed by i.

    kind[i] is S_CLASS or T_CLASS, (wr[i], ws[i]) is the witness (r, s) and
    (x[i], y[i]) the minimal pair; index 0 and p-1 hold zeros.
    """

    p: int
    kind: np.ndarray
    wr: np.ndarray
    ws: np.ndarray
    x: np.ndarray
    y: np.ndarray


def classify_residues(p: int) -> ResidueClassification:
    """Classify every residue 1..p-2 by its witness pair (r, s).

    Enumerates all coprime pairs below sqrt(p) once, lands each candidate on
    its residue, and checks the three facts the construction depends on:
    candidates stay inside 1..p-2, no residue receives two witnesses of the
    same kind, and every residue receives at least one.  Fraction-form
    witnesses take priority when both kinds exist.
    """
    _validate_odd_prime(p)
    if p >= _FAST_P_LIMIT:
        raise ValueError(f"p must stay below {_FAST_P_LIMIT} for the table pipeline")
    k = isqrt(p)
    tables = _coprime_pair_tables(k)
    inv_small = np.array(inverse_range(2 * k, p), dtype=np.int64)

    diff = tables.r_ne - tables.s_ne
    base = inv_small[np.abs(diff)]
    inv_diff = np.where(diff > 0, base, p - base)
    i_s = (tables.s_ne * inv_diff) % p
    i_t = ((p - tables.s_all) * inv_small[tables.r_all + tables.s_all]) % p

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
    wr[i_t] = tables.r_all
    ws[i_t] = tables.s_all
    x[i_t] = tables.r_all
    y[i_t] = tables.s_all

    # fraction-form pairs solve s*x + r*y = p; the split point a = mn*w is
    # the unique multiple of mn in (0, r*s) congruent to p modulo mx
    mn, mx = tables.mn, tables.mx
    w = (p % mx) * tables.inv_mn_mod_mx % mx
    if w.size and int(w.min()) < 1:
        raise ClassificationError(f"degenerate split point at p={p}")
    rem = p - mn * w
    if np.any(rem % mx):
        raise ClassificationError(f"split point misses divisibility at p={p}")
    other = rem // mx
    s_gt = tables.s_ne > tables.r_ne
    kind[i_s] = S_CLASS
    wr[i_s] = tables.r_ne
    ws[i_s] = tables.s_ne
    x[i_s] = np.where(s_gt, other, w)
    y[i_s] = np.where(s_gt, w, other)

    idx = np.arange(1, p - 1, dtype=np.int64)
    bad = np.flatnonzero((idx * x[1 : p - 1] + (idx + 1) * y[1 : p - 1]) % p)
    if bad.size:
        raise ClassificationError(f"pair fails its congruence at i={int(bad[0]) + 1}, p={p}")
    return ResidueClassification(p, kind, wr, ws, x, y)


def _check(condition: bool, what: str, p: int) -> None:
    if not condition:
        raise VerificationError(f"profile invariant violated at p={p}: {what}")


def lambda_profile(p: int, classification: Optional[ResidueClassification] = None) -> LambdaProfile:
    """Row counts, runner counts and exact size of the maximal profile.

    m[1] = p-1 and m[p-1] = p-2 are the climb and the descent; in between,
    m[i] = p - y[i-1] - x[i] counts the label-i rows of the two adjacent
    excursions.  The profile is returned only if check_symmetry and
    check_sum_identity find nothing and the pairs, rows and anchors are sane.
    """
    _validate_odd_prime(p)
    cls_ = classification if classification is not None else classify_residues(p)
    if cls_.p != p:
        raise ValueError(f"classification is for p={cls_.p}, not p={p}")
    x, y = cls_.x, cls_.y

    m = np.zeros(p, dtype=np.int64)
    m[1] = p - 1
    m[p - 1] = p - 2
    if p >= 5:
        m[2 : p - 1] = p - y[1 : p - 2] - x[2 : p - 1]
    d = np.zeros(p, dtype=np.int64)
    d[1:] = p - m[1:]
    c_prefix = np.zeros(p, dtype=np.int64)
    np.cumsum(d[1:], out=c_prefix[1:])
    c = int(np.sum(x[1 : p - 1]) + np.sum(y[1 : p - 1]))
    b = np.zeros(p, dtype=np.int64)
    np.cumsum(m[1:], out=b[1:])

    _check(bool((x[1 : p - 1] >= 1).all()) and bool((y[1 : p - 1] >= 1).all()), "pair positivity", p)
    _check(bool((m[1:] >= 0).all()), "nonnegative row counts", p)
    _check(int(d[1]) == 1 and int(d[p - 1]) == 2, "anchor gap counts", p)

    size = size_from_bead_multiplicities(BeadMultiplicities(p, tuple(b[1:].tolist())))
    profile = LambdaProfile(p, m, b, d, c_prefix, x, y, c, size)
    violations = check_symmetry(profile) + check_sum_identity(profile)
    _check(not violations, "; ".join(violations), p)
    return profile


def partition_from_row_counts(p: int, row_counts) -> Partition:
    """Partition of the aligned display with row_counts[i-1] rows of i gaps.

    Rows are stacked by increasing gap count; every bead in a row contributes
    a part equal to the running total of gaps, and a row with i gaps holds
    p - i beads.
    """
    counts = list(row_counts)
    if len(counts) != p - 1:
        raise ValueError(f"expected {p - 1} row counts, got {len(counts)}")
    parts: list[int] = []
    w = 0
    for i, rows in enumerate(counts, start=1):
        rows = int(rows)
        if rows < 0:
            raise ValueError("row counts must be nonnegative")
        width = p - i
        for _ in range(rows):
            w += i
            parts.extend([w] * width)
    parts.reverse()
    return Partition(tuple(parts))


def profile_to_partition(profile: LambdaProfile, max_parts: int = DEFAULT_MAX_PARTS) -> Partition:
    """Materialize the explicit partition; refuses absurdly long part lists."""
    p = profile.p
    m = profile.m
    widths = p - np.arange(p, dtype=np.int64)
    total = int((widths[1:] * m[1:]).sum())
    if total > max_parts:
        raise ValueError(f"profile has {total} parts, above the cap of {max_parts}")
    lam = partition_from_row_counts(p, m[1:].tolist())
    if lam.size != profile.size:
        raise VerificationError(f"materialized size {lam.size} != profile size {profile.size} at p={p}")
    return lam


def validate_walk(profile: LambdaProfile, vertex_cap: int = 100_000) -> WalkValidation:
    """Replay the walk encoded by profile.m, segment by segment.

    Checks that the walk never revisits 0, sits at p-1 after the opening
    climb and after every excursion, and ends at 1 after the descent.  The
    replay is algebraic (O(p) with one inverse table), so it stays cheap at
    large p; the visited vertex list is recorded only when the walk is short
    enough.
    """
    p = profile.p
    m = profile.m
    y = profile.y
    inv = inverse_range(p - 1, p)
    total = int(m[1:].sum())
    vertices: Optional[list[int]] = [0] if total + 1 <= vertex_cap else None
    state = {"v": 0}

    def advance(label: int, k: int) -> Optional[str]:
        v = state["v"]
        if k < 0:
            return f"negative segment length {k} at label {label}"
        steps_to_zero = (p - v) * inv[label] % p or p
        if k >= steps_to_zero:
            return f"walk hits 0 inside a label-{label} segment from {v}"
        if vertices is not None:
            vertices.extend((v + j * label) % p for j in range(1, k + 1))
        state["v"] = (v + k * label) % p
        return None

    def done(violation: Optional[str]) -> WalkValidation:
        final = state["v"] if violation is None else None
        return WalkValidation(violation is None, violation, vertices, final)

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


def check_symmetry(profile: LambdaProfile) -> list[str]:
    """Mirror identities: (x_i, y_i) = (y_{p-1-i}, x_{p-1-i}), m_i = m_{p-i}."""
    p = profile.p
    out = []
    mism = np.flatnonzero(profile.x[1 : p - 1] != profile.y[p - 2 : 0 : -1])
    if mism.size:
        out.append(f"pair mirror symmetry fails at i={int(mism[0]) + 1}")
    mism = np.flatnonzero(profile.m[2 : p - 1] != profile.m[p - 2 : 1 : -1])
    if mism.size:
        out.append(f"row count symmetry fails at i={int(mism[0]) + 2}")
    return out


def check_sum_identity(profile: LambdaProfile) -> list[str]:
    """Exact bead total: sum b_i = p^2 (p-1)/2 - p c / 2 - 1, checked doubled."""
    p, c = profile.p, profile.c
    out = []
    # b_i <= sum(m) < p^2 < 2^62, so each 31-bit limb is below 2^31 and each
    # limb sum stays below p * 2^31 < 2^62 for p < _FAST_P_LIMIT; the total
    # itself is about p^3 / 2, so a plain int64 b.sum() wraps above p ~ 2.6e6
    b = profile.b[1:]
    total = (int((b >> 31).sum()) << 31) + int((b & (2**31 - 1)).sum())
    if 2 * total != p * p * (p - 1) - p * c - 2:
        out.append("bead total identity fails")
    if int(profile.c_prefix[p - 1]) != c + 1:
        out.append("gap total does not equal c + 1")
    if not bool((profile.c_prefix[1 : p - 1] + profile.c_prefix[p - 2 : 0 : -1] == c).all()):
        out.append("gap prefix symmetry fails")
    return out


def check_st_lemmas(classification: ResidueClassification, profile: LambdaProfile) -> tuple[list[str], list[str]]:
    """Per-residue pair bounds, decided in exact integers.

    Fraction-form: p/mx < x+y < p/mx + mx - 1 with mx = max(r, s), compared
    as mx (x+y) against p and p + mx^2 - mx.  Sum-form: x + y <= r + s is
    the hard bound; x + y = r + s exactly is reported as a note when missed
    (the construction never relies on the equality).
    """
    p = classification.p
    t = profile.x + profile.y
    viol: list[str] = []
    notes: list[str] = []
    s_idx = np.flatnonzero(classification.kind == S_CLASS)
    if s_idx.size:
        mx = np.maximum(classification.wr[s_idx], classification.ws[s_idx])
        prod = mx * t[s_idx]
        bad = np.flatnonzero(prod <= p)
        if bad.size:
            viol.append(f"fraction-form lower bound fails at i={int(s_idx[bad[0]])}")
        bad = np.flatnonzero(prod >= p + mx * mx - mx)
        if bad.size:
            viol.append(f"fraction-form upper bound fails at i={int(s_idx[bad[0]])}")
    t_idx = np.flatnonzero(classification.kind == T_CLASS)
    if t_idx.size:
        rs = classification.wr[t_idx] + classification.ws[t_idx]
        bad = np.flatnonzero(t[t_idx] > rs)
        if bad.size:
            viol.append(f"sum-form bound fails at i={int(t_idx[bad[0]])}")
        missed = np.flatnonzero(t[t_idx] != rs)
        if missed.size:
            notes.append(f"sum-form equality missed at i={int(t_idx[missed[0]])}")
    return viol, notes
