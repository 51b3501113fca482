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

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .abacus import BeadMultiplicities, size_from_bead_multiplicities
from .errors import ClassificationError, VerificationError
from .modarith import _FAST_P_LIMIT, inverse_range, label_blocks, mod_inverse, require_odd_prime
from .partitions import Partition

# codes stored in ResidueClassification.kind
S_CLASS = 1
T_CLASS = 2

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


def step_bounds(i: int, p: int) -> StepBounds:
    """Caps for the (i, i+1) excursion: x_max = inv(i), y_max = inv(-(i+1)).

    x_max counts the steps from p-1 to 0 along label i, y_max the steps from
    0 to p-1 along label i+1.
    """
    require_odd_prime(p)
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
    mn: np.ndarray
    mx: np.ndarray
    inv_mn_mod_mx: np.ndarray


@lru_cache(maxsize=1)  # sweeps visit isqrt(p) in ascending order
def _coprime_pair_tables(k: int) -> _PairTables:
    """Coprime pairs mn < mx <= k with inv(mn) mod mx, from the Stern-Brocot tree.

    Each fraction mn/mx in (0, 1) is the mediant of one pair of Farey
    neighbours a1/b1 < a2/b2, and a2 b1 - a1 b2 = 1 gives mn b1 - a1 mx = 1:
    inv(mn) mod mx is the left neighbour's denominator b1 < mx.  The walk goes
    level by level from (0/1, 1/1), with no gcd and no product, and drops an
    interval once its mediant's denominator (less than its descendants') exceeds k.
    """
    a1, b1, a2, b2 = (np.array([v], dtype=np.int64) for v in (0, 1, 1, 1))
    levels = []
    while a1.size:
        keep = b1 + b2 <= k
        a1, b1, a2, b2 = a1[keep], b1[keep], a2[keep], b2[keep]
        a, b = a1 + a2, b1 + b2
        levels.append((a, b, b1))
        # the next level: (a1/b1, a/b) and (a/b, a2/b2) for every kept interval
        a1, b1 = np.concatenate((a1, a)), np.concatenate((b1, b))
        a2, b2 = np.concatenate((a, a2)), np.concatenate((b, b2))
    return _PairTables(*(np.concatenate(column) for column in zip(*levels)))


@dataclass(frozen=True, eq=False)
class ResidueClassification:
    """Witness classification of residues 1..p-2, as arrays indexed by i.

    kind[i] is S_CLASS or T_CLASS (uint8), (wr[i], ws[i]) is the witness
    (r, s) (uint16: r, s <= isqrt(p), see _FAST_P_LIMIT) and (x[i], y[i])
    the minimal pair (int64); index 0 and p-1 hold zeros.
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

    The duplicate and coverage checks read uint8 class marks: after the
    sum-form marks, the marked count equals the sum-form witness count
    exactly when no residue has two of them; the fraction-form marks then
    overwrite, and their count equals the fraction-form witness count
    exactly when no residue has two of those; a residue is covered when its
    mark is nonzero.  A bincount runs only to name the residue of a failure.
    """
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
    del inv_diff, inv_sum

    for name, idx in (("fraction-form", i_s), ("sum-form", i_t)):
        if idx.size and (int(idx.min()) < 1 or int(idx.max()) > p - 2):
            raise ClassificationError(f"{name} witness fell outside 1..p-2 at p={p}")
    kind = np.zeros(p, dtype=np.uint8)
    kind[i_t] = T_CLASS
    sum_dup = np.count_nonzero(kind) != i_t.size
    kind[i_s] = S_CLASS
    fraction_dup = np.count_nonzero(kind == S_CLASS) != i_s.size
    for dup, name, idx in ((fraction_dup, "fraction-form", i_s), (sum_dup, "sum-form", i_t)):
        if dup:
            raise ClassificationError(f"duplicate {name} witness at i={int(np.bincount(idx).argmax())}, p={p}")
    if not kind[1 : p - 1].all():
        raise ClassificationError(f"no witness at i={int(np.argmin(kind[1 : p - 1])) + 1}, p={p}")

    wr = np.zeros(p, dtype=np.uint16)
    ws = np.zeros(p, dtype=np.uint16)
    x = np.zeros(p, dtype=np.int64)
    y = np.zeros(p, dtype=np.int64)
    wr[i_t] = x[i_t] = r  # a sum-form pair is its witness
    ws[i_t] = y[i_t] = s
    del i_t

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
    del rem
    wr[i_s] = r[:-1]
    ws[i_s] = s[:-1]
    del r, s
    x[i_s] = np.concatenate((w, other))
    y[i_s] = np.concatenate((other, w))
    del i_s, w, other

    for lo, hi in label_blocks(1, p - 1):
        i = np.arange(lo, hi, dtype=np.int64)
        bad = np.flatnonzero((i * x[lo:hi] + (i + 1) * y[lo:hi]) % p)
        if bad.size:
            raise ClassificationError(f"pair fails its congruence at i={lo + int(bad[0])}, p={p}")
    return ResidueClassification(p, kind, wr, ws, x, y)


def _check(condition: bool, what: str, p: int) -> None:
    if not condition:
        raise VerificationError(f"profile invariant violated at p={p}: {what}")


def lambda_profile(p: int, classification: Optional[ResidueClassification] = None) -> LambdaProfile:
    """Row counts, runner counts and exact size of the maximal profile.

    m[1] = p-1 and m[p-1] = p-2 are the climb and the descent; in between,
    m[i] = p - y[i-1] - x[i] counts the label-i rows of the two adjacent
    excursions.  The profile is returned only if check_symmetry and
    check_sum_identity find nothing and the pairs and row counts are sane.
    """
    require_odd_prime(p)
    cls_ = classification if classification is not None else classify_residues(p)
    if cls_.p != p:
        raise ValueError(f"classification is for p={cls_.p}, not p={p}")
    x, y = cls_.x, cls_.y

    m = np.zeros(p, dtype=np.int64)
    m[1] = p - 1
    m[p - 1] = p - 2
    if p >= 5:  # in place, with no p-length temporary
        np.subtract(p, y[1 : p - 2], out=m[2 : p - 1])
        np.subtract(m[2 : p - 1], x[2 : p - 1], out=m[2 : p - 1])
    d = np.zeros(p, dtype=np.int64)
    np.subtract(p, m[1:], out=d[1:])
    c_prefix = np.zeros(p, dtype=np.int64)
    np.cumsum(d[1:], out=c_prefix[1:])
    c = int(np.sum(x[1 : p - 1]) + np.sum(y[1 : p - 1]))
    b = np.zeros(p, dtype=np.int64)
    np.cumsum(m[1:], out=b[1:])

    _check(int(x[1 : p - 1].min()) >= 1 and int(y[1 : p - 1].min()) >= 1, "pair positivity", p)
    _check(int(m[1:].min()) >= 0, "nonnegative row counts", p)

    size = size_from_bead_multiplicities(BeadMultiplicities(p, b[1:]))
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
    p, rows = profile.p, profile.m[1:]
    if not 0 <= max_parts < 2**32 or int(rows.min()) < 0:
        raise ValueError(f"need nonnegative row counts and 0 <= max_parts < 2^32, got max_parts={max_parts}")
    # a row of i gaps holds p - i >= 1 parts, so there are at least max(m) and
    # sum(m) parts.  Below 2^32 each, p < 2^31 rows sum exactly in int64, and
    # once sum(m) <= max_parts the part count is below p * 2^32 < 2^63
    if int(rows.max()) > max_parts or int(rows.sum()) > max_parts:
        raise ValueError(f"profile has more parts than the cap of {max_parts}")
    total = int(((p - np.arange(1, p, dtype=np.int64)) * rows).sum())
    if total > max_parts:
        raise ValueError(f"profile has {total} parts, above the cap of {max_parts}")
    lam = partition_from_row_counts(p, rows.tolist())
    if lam.size != profile.size:
        raise VerificationError(f"materialized size {lam.size} != profile size {profile.size} at p={p}")
    return lam


def _first_failing_label(p: int, m: np.ndarray, y: np.ndarray, inv: np.ndarray) -> tuple[int, int]:
    """First label i in 1..p-1 whose replay checks fail and its start vertex, or (p, 1).

    Label i takes tail = inv(-i) - y[i-1] edges to p-1 and then
    rest = m[i] - tail edges on; the opening climb is label 1's tail of p-1
    edges from vertex 0 (y[0] = 0).  If every earlier label passed, label
    i > 1 starts at (p-1 + rest_{i-1} (i-1)) mod p, so a block of labels is
    checked at once, and after label p-1 the walk sits at (p-1)^2 = 1 mod p.
    A label can pass only with |y[i-1]| < p and 0 <= m[i] < 2p, so clipping
    y to [-p, p] and m to [-1, 2p] changes no verdict and keeps every
    product below p^2 < 2^62.
    """
    start = 0
    for lo, hi in label_blocks(1, p):
        i = np.arange(lo, hi, dtype=np.int64)
        inv_i = inv[lo:hi]
        tail = (p - inv_i) - np.clip(y[lo - 1 : hi - 1], -p, p)
        mi = np.clip(m[lo:hi], -1, 2 * p)
        rest = mi - tail
        end = (p - 1 + rest % p * i) % p
        v = np.empty_like(end)
        v[0] = start
        v[1:] = end[:-1]
        steps_to_zero = ((p - v) * inv_i - 1) % p + 1
        bad = (tail < 0) | (mi < tail) | (tail >= steps_to_zero)
        bad |= (v + tail % p * i) % p != p - 1
        bad |= rest >= inv_i
        if hi == p:
            bad[-1] |= rest[-1] != p - 2
        hit = np.flatnonzero(bad)
        if hit.size:
            return lo + int(hit[0]), int(v[hit[0]])
        start = int(end[-1])
    return p, start


def validate_walk(profile: LambdaProfile, vertex_cap: int = 100_000) -> WalkValidation:
    """Replay the walk encoded by profile.m, label by label.

    Checks that the walk never revisits 0, sits at p-1 after the opening
    climb and after every excursion, and ends at 1 after the descent.  Every
    label is checked in int64 blocks of _BLOCK labels by _first_failing_label
    (with its overflow bound), and only the first failing label is evaluated
    again in Python ints, to name its violation.  The replay is O(p) with one
    inverse table and O(_BLOCK) temporaries.  The visited vertices, up to
    where the replay stops, are recorded only when the whole walk has fewer
    than vertex_cap of them.
    """
    p, m, y = profile.p, profile.m, profile.y
    inv = inverse_range(p - 1, p)
    i, v = _first_failing_label(p, m, y, inv)
    violation: Optional[str] = None
    walked = 0  # edges of label i the replay takes before it stops
    if i < p:
        mi = int(m[i])
        tail = p - int(inv[i]) - int(y[i - 1])
        if tail < 0:
            violation = f"stored pair exceeds its cap before label {i}"
        elif mi < tail and i == 1:
            violation = f"opening climb needs {p - 1} label-1 edges, profile has {mi}"
        elif mi < tail:
            violation = f"label-{i} block is shorter than the return to p-1"
        elif tail >= ((p - v) * int(inv[i]) - 1) % p + 1:
            violation = f"walk hits 0 inside a label-{i} segment from {v}"
        else:
            walked = tail
            if (v + tail * i) % p != p - 1:
                violation = f"excursion over labels ({i - 1},{i}) does not return to p-1"
            elif i == p - 1 and mi - tail != p - 2:
                violation = f"final descent needs {p - 2} label-{p - 1} edges, got {mi - tail}"
            else:
                violation = f"walk hits 0 inside a label-{i} segment from {p - 1}"
    vertices: Optional[list[int]] = None
    if int(m[1:].sum()) + 1 <= vertex_cap:
        # fewer than vertex_cap steps below p < 2^31: the sum is exact for vertex_cap < 2^32
        steps = np.repeat(np.arange(1, i + 1, dtype=np.int64), np.append(m[1:i], walked))
        vertices = [0] + (np.cumsum(steps) % p).tolist()
    return WalkValidation(violation is None, violation, vertices, v if violation is None else None)


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
    p, b, c_prefix, c = profile.p, profile.b, profile.c_prefix, profile.c
    out = []
    # the total is about p^3 / 2, so a plain int64 b.sum() wraps above
    # p ~ 2.6e6; b = (b >> 31) 2^31 + (b & (2^31 - 1)) for every int64 b, and
    # a block sum of either limb stays below _BLOCK * 2^32 < 2^63
    total = 0
    for lo, hi in label_blocks(1, p):
        total += (int((b[lo:hi] >> 31).sum()) << 31) + int((b[lo:hi] & (2**31 - 1)).sum())
    if 2 * total != p * p * (p - 1) - p * c - 2:
        out.append("bead total identity fails")
    if int(c_prefix[p - 1]) != c + 1:
        out.append("gap total does not equal c + 1")
    for lo, hi in label_blocks(1, p - 1):
        if not bool((c_prefix[lo:hi] + c_prefix[p - 1 - lo : p - 1 - hi : -1] == c).all()):
            out.append("gap prefix symmetry fails")
            break
    return out


def check_st_lemmas(classification: ResidueClassification, profile: LambdaProfile) -> tuple[list[str], list[str]]:
    """Per-residue pair bounds, decided in exact integers.

    Fraction-form: p/mx < x+y < p/mx + mx - 1 with mx = max(r, s), compared
    as mx (x+y) against p and p + mx^2 - mx.  Sum-form: x + y <= r + s is
    the hard bound; x + y = r + s exactly is reported as a note when missed
    (the construction never relies on the equality).  The uint16 witnesses
    are widened to int64 first: r + s and mx^2 do not fit 16 bits.
    """
    p = classification.p
    t = profile.x + profile.y
    viol: list[str] = []
    notes: list[str] = []
    s_idx = np.flatnonzero(classification.kind == S_CLASS)
    if s_idx.size:
        mx = np.maximum(classification.wr[s_idx], classification.ws[s_idx]).astype(np.int64)
        prod = mx * t[s_idx]
        bad = np.flatnonzero(prod <= p)
        if bad.size:
            viol.append(f"fraction-form lower bound fails at i={int(s_idx[bad[0]])}")
        bad = np.flatnonzero(prod >= p + mx * mx - mx)
        if bad.size:
            viol.append(f"fraction-form upper bound fails at i={int(s_idx[bad[0]])}")
    t_idx = np.flatnonzero(classification.kind == T_CLASS)
    if t_idx.size:
        rs = classification.wr[t_idx].astype(np.int64) + classification.ws[t_idx]
        bad = np.flatnonzero(t[t_idx] > rs)
        if bad.size:
            viol.append(f"sum-form bound fails at i={int(t_idx[bad[0]])}")
        missed = np.flatnonzero(t[t_idx] != rs)
        if missed.size:
            notes.append(f"sum-form equality missed at i={int(t_idx[missed[0]])}")
    return viol, notes
