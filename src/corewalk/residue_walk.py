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
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .errors import ClassificationError, VerificationError
from .modarith import _FAST_P_LIMIT, inverse_range, label_blocks, mod_p, require_odd_prime, totient_sieve
from .partitions import Partition

# codes stored in ResidueClassification.kind
S_CLASS = 1
T_CLASS = 2

MAX_PARTS = 20_000_000  # profile_to_partition's cap on the explicit part list


@dataclass(frozen=True, eq=False)
class LambdaProfile:
    """Profile of the maximal p-core p'-partition: its row counts and pairs.

    Arrays are padded so index i holds the value for label i (index 0 is
    unused): m[i] rows with i gaps and the pair (x[i], y[i]), meaningful for
    1 <= i <= p-2; lambda_profile keeps the classification's x and y, which
    share memory (y is x reversed).  b[i] = m[1] + ... + m[i] beads on runner
    i, d[i] = p - m[i] and c_prefix[i] = d[1] + ... + d[i] = i p - b[i] are not
    stored: each read derives them from m as int64 arrays with index 0 holding 0.
    """

    p: int
    m: np.ndarray
    x: np.ndarray
    y: np.ndarray
    c: int
    size: int

    @property
    def b(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.m[1:], dtype=np.int64)))

    @property
    def d(self) -> np.ndarray:
        return np.concatenate(([0], np.subtract(self.p, self.m[1:], dtype=np.int64)))

    @property
    def c_prefix(self) -> np.ndarray:
        return np.arange(self.p, dtype=np.int64) * self.p - self.b


@dataclass(frozen=True)
class WalkValidation:
    ok: bool
    violation: Optional[str]


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
    The walk and the tables are int32 (every entry is at most k < 2^16), and
    the phi(2) + ... + phi(k) pairs are written into the tables level by level.
    """
    tables = _PairTables(*(np.empty(sum(totient_sieve(k)[2:]), dtype=np.int32) for _ in range(3)))
    a1, b1, a2, b2 = (np.array([v], dtype=np.int32) for v in (0, 1, 1, 1))
    at = 0
    while a1.size:
        keep = b1 + b2 <= k
        a1, b1, a2, b2 = a1[keep], b1[keep], a2[keep], b2[keep]
        a, b = a1 + a2, b1 + b2
        for column, level in zip(tables, (a, b, b1)):
            column[at : at + a.size] = level
        at += a.size
        # the next level: (a1/b1, a/b) and (a/b, a2/b2) for every kept interval
        a1, b1 = np.concatenate((a1, a)), np.concatenate((b1, b))
        a2, b2 = np.concatenate((a, a2)), np.concatenate((b, b2))
    return tables


@dataclass(frozen=True, eq=False)
class ResidueClassification:
    """Witness classification of residues 1..p-2, as arrays indexed by i.

    kind[i] is S_CLASS or T_CLASS (uint8), (wr[i], ws[i]) is the witness
    (r, s) (uint16: r, s <= isqrt(p), see _FAST_P_LIMIT) and (x[i], y[i])
    the minimal pair (int32: 1 <= x, y < p < 2^31); index 0 and p-1 hold zeros.
    ws and y are the views wr[::-1] and x[::-1]: a write to one writes the mirror.
    """

    p: int
    kind: np.ndarray
    wr: np.ndarray
    ws: np.ndarray
    x: np.ndarray
    y: np.ndarray


def _swap_where(a: np.ndarray, b: np.ndarray, swap: np.ndarray) -> None:
    """Exchange a[j] and b[j] in place where swap[j] holds, by xor: no branch per entry."""
    d = a ^ b
    d *= swap
    a ^= d
    b ^= d


def _landings(p: int, mn: np.ndarray, mx: np.ndarray, inv_small: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (mn, mx) orientation's residues -mx/(mx-mn) and -mx/(mn+mx), as int64.

    One block of pairs at a time, so the gathers and their indices stay
    O(_BLOCK); p - mx is taken in int64 (modarith's bound comment).  The block
    views die with this frame, so none keeps its whole array alive.
    """
    i_s, i_t = np.empty(mn.size, dtype=np.int64), np.empty(mn.size, dtype=np.int64)
    for lo, hi in label_blocks(0, mn.size):
        s_b, t_b, mn_b, mx_b = i_s[lo:hi], i_t[lo:hi], mn[lo:hi], mx[lo:hi]
        np.subtract(p, mx_b, out=s_b, dtype=np.int64)
        mod_p(np.multiply(s_b, inv_small[mn_b + mx_b], out=t_b), p)
        s_b *= inv_small[mx_b - mn_b]
        mod_p(s_b, p)
    return i_s, i_t


def classify_residues(p: int) -> ResidueClassification:
    """Classify every residue 1..p-2 by its witness pair (r, s).

    Enumerates all coprime pairs below sqrt(p) once, lands each candidate on
    its residue, and checks the three facts the construction depends on:
    candidates stay inside 1..p-2, no residue receives two witnesses of the
    same kind, and every residue receives at least one.  Fraction-form
    witnesses take priority when both kinds exist.

    Each pair mn < mx costs two products: the (mn, mx) orientation lands on
    i = s/(r-s) = -mx/(mx-mn) (fraction form) and on i = -s/(r+s) =
    -mx/(mn+mx) (sum form), and the (mx, mn) orientation on p-1-i in each
    form, because the two orientations' residues sum to -1 mod p.  Witness
    (1, 1) lands on (p-1)/2, its own mirror.  So residues i and p-1-i carry
    the same class, swapped witnesses and swapped pairs, and only the lower
    half 1..(p-1)/2 is computed: each landing is folded in place onto
    min(i, p-1-i) = (p-1)/2 - |i - (p-1)/2|, with the orientation swapped
    where it folded, and written once per form.  ws and y are wr and x
    reversed, so every write at i writes p-1-i too, and only kind is copied
    onto the upper half.  A sum-form pair, being its
    witness, is copied from wr, ws by the congruence pass, one block of
    labels at a time.  The upper half's congruences follow from the lower
    half's: with x_{p-1-i} = y_i and y_{p-1-i} = x_i,
    (p-1-i) y_i + (p-i) x_i = -(i x_i + (i+1) y_i) mod p.

    The duplicate and coverage checks read uint8 class marks on the lower
    half: after the sum-form marks, the marked count equals the sum-form
    witness count plus one for (1, 1) exactly when no residue has two of
    them; the fraction-form marks then overwrite, and their count equals the
    fraction-form witness count exactly when no residue has two of those and
    none landed on (p-1)/2, where a landing is its own mirror; a residue is
    covered when its mark is nonzero.  A bincount runs only to name the
    residue of a failure.
    """
    require_odd_prime(p)
    if p >= _FAST_P_LIMIT:
        raise ValueError(f"p must stay below {_FAST_P_LIMIT} for the table pipeline")
    k = math.isqrt(p)
    mn, mx, inv_mn_mod_mx = _coprime_pair_tables(k)
    inv_small = inverse_range(2 * k, p)
    kind = np.zeros(p, dtype=np.uint8)
    wr = np.zeros(p, dtype=np.uint16)
    x = np.zeros(p, dtype=np.int32)
    ws, y = wr[::-1], x[::-1]  # a write at i lands on the mirror residue p-1-i

    i_s, i_t = _landings(p, mn, mx, inv_small)
    for name, idx in (("fraction-form", i_s), ("sum-form", i_t)):
        if idx.size and (int(idx.min()) < 1 or int(idx.max()) > p - 2):
            raise ClassificationError(f"{name} witness fell outside 1..p-2 at p={p}")
    half = (p - 1) // 2
    on_half = bool(np.any(i_s == half))  # its own mirror: the folded count misses it

    def land(idx: np.ndarray, form: int) -> np.ndarray:
        """Fold idx onto the lower half and mark it, (mx, mn) where it folded."""
        folded = idx > half
        idx -= half  # three passes, no temporary: a where= subtract takes longer
        np.abs(idx, out=idx)
        np.subtract(half, idx, out=idx)
        r, s = mn.astype(np.uint16), mx.astype(np.uint16)
        _swap_where(r, s, folded)
        kind[idx], wr[idx], ws[idx] = form, r, s
        return folded

    kind[half], wr[half], ws[half] = T_CLASS, 1, 1  # (1, 1)
    land(i_t, T_CLASS)
    sum_dup = np.count_nonzero(kind[: half + 1]) != i_t.size + 1
    folded = land(i_s, S_CLASS)
    fraction_dup = on_half or np.count_nonzero(kind[: half + 1] == S_CLASS) != i_s.size
    # the folded landings and their mirrors are the unfolded ones, as a multiset
    for dup, name, idx, extra in ((fraction_dup, "fraction-form", i_s, []), (sum_dup, "sum-form", i_t, [half])):
        if dup:
            landed = np.concatenate((idx, p - 1 - idx, extra)).astype(np.int64)
            raise ClassificationError(f"duplicate {name} witness at i={int(np.bincount(landed).argmax())}, p={p}")
    # the marks are mirrored, so the first residue without one is in the lower half
    if not kind[1 : half + 1].all():
        raise ClassificationError(f"no witness at i={int(np.argmin(kind[1 : half + 1])) + 1}, p={p}")
    del i_t, idx  # the loops above leave idx naming i_t

    # fraction-form pairs solve s*x + r*y = p; the split point a = mn*w is
    # the unique multiple of mn in (0, r*s) congruent to p modulo mx, so
    # (x, y) = (w, other) for (r, s) = (mx, mn) and (other, w) for (mn, mx)
    w = (p % mx) * inv_mn_mod_mx % mx
    if w.size and int(w.min()) < 1:
        raise ClassificationError(f"degenerate split point at p={p}")
    other = p - mn * w  # divided by mx in place
    other, miss = np.divmod(other, mx, out=(other, None))
    if np.any(miss):
        raise ClassificationError(f"split point misses divisibility at p={p}")
    del miss
    _swap_where(other, w, folded)
    # int32 like the tables; 1 <= w < mx, so mn w < mn mx < p and 0 < other < p
    x[i_s] = other
    y[i_s] = w
    del i_s, folded, w, other

    for lo, hi in label_blocks(1, half + 1):
        xb, yb, sum_form = x[lo:hi], y[lo:hi], kind[lo:hi] == T_CLASS
        np.copyto(xb, wr[lo:hi], where=sum_form)
        np.copyto(yb, ws[lo:hi], where=sum_form)  # copied, not added: at (p-1)/2 yb is xb
        # i, x, y < p, so the int64 products and their sum stay below 2 p^2 < 2^63
        i = np.arange(lo, hi, dtype=np.int64)
        bad = np.flatnonzero(mod_p(i * xb + (i + 1) * yb, p))
        if bad.size:
            raise ClassificationError(f"pair fails its congruence at i={lo + int(bad[0])}, p={p}")
    kind[half + 1 : p - 1] = kind[half - 1 : 0 : -1]  # the upper half's class mirrors the lower's
    return ResidueClassification(p, kind, wr, ws, x, y)


def _check(condition: bool, what: str, p: int) -> None:
    if not condition:
        raise VerificationError(f"profile invariant violated at p={p}: {what}")


def lambda_profile(p: int, classification: Optional[ResidueClassification] = None) -> LambdaProfile:
    """Row counts and exact size of the maximal profile.

    m[1] = p-1 and m[p-1] = p-2 are the climb and the descent; in between,
    m[i] = p - y[i-1] - x[i] counts the label-i rows of the two adjacent
    excursions.  The size comes from b = cumsum(m), built one block of
    runners at a time, so no p-length b is held.  The profile is returned
    only if check_symmetry and check_sum_identity find nothing and the pairs
    and row counts are sane.
    """
    require_odd_prime(p)
    cls_ = classification if classification is not None else classify_residues(p)
    if cls_.p != p:
        raise ValueError(f"classification is for p={cls_.p}, not p={p}")
    x, y = cls_.x, cls_.y

    m = np.zeros(p, dtype=np.int64)
    m[1] = p - 1
    m[p - 1] = p - 2
    # in place, with no p-length temporary; at p = 3 the slices are empty.  The
    # pairs may be int32: the subtractions run in int64, where p - y - x cannot
    # wrap for any entries of 32 bits
    np.subtract(p, y[1 : p - 2], out=m[2 : p - 1], dtype=np.int64)
    np.subtract(m[2 : p - 1], x[2 : p - 1], out=m[2 : p - 1], dtype=np.int64)
    _check(int(x[1 : p - 1].min()) >= 1 and int(y[1 : p - 1].min()) >= 1, "pair positivity", p)
    _check(int(m[1:].min()) >= 0, "nonnegative row counts", p)
    # 1 <= x, y and m[i] = p - y[i-1] - x[i] >= 0 put x[2..p-2] and y[1..p-3] below
    # p, so their int64 sums stay below p^2 < 2^62; the two ends join as ints
    c = int(np.sum(x[2 : p - 1], dtype=np.int64) + np.sum(y[1 : p - 2], dtype=np.int64))
    c += int(x[1]) + int(y[p - 2])

    size = size_from_bead_multiplicities(p, _runner_blocks(m))
    profile = LambdaProfile(p, m, x, y, c, size)
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


def _row_sums(m: np.ndarray, start: int, stop: int, p: int) -> tuple[int, int]:
    """Exact sums of m[i] and of (p - i) m[i] over start <= i < stop, for any int64 m.

    Per block, m = (m >> 31) 2^31 + (m & (2^31 - 1)) with both limbs in
    [-2^32, 2^32), and i = lo + t with t < _BLOCK = 2^14, so every limb sum
    and t-weighted limb sum of a block stays below _BLOCK^2 2^32 = 2^60 < 2^63.
    """
    total = weighted = 0
    for lo, hi in label_blocks(start, stop):
        t = np.arange(hi - lo, dtype=np.int64)
        for shift, limb in ((31, m[lo:hi] >> 31), (0, m[lo:hi] & (2**31 - 1))):
            limb_sum = int(limb.sum())
            total += limb_sum << shift
            weighted += ((p - lo) * limb_sum - int((t * limb).sum())) << shift
    return total, weighted


def size_from_bead_multiplicities(p: int, b) -> int:
    """Size of the p-core with b_i beads on runner i, 1 <= i <= p-1 (runner 0 empty).

    b holds the p-1 counts as one sequence, or as an iterator over consecutive
    arrays of at most 2^14 of them (lambda_profile passes cumsum(m) block by
    block, so that no p-length b is held).  The counts must be integers with
    0 <= b_i < 2^63, else ValueError; a profile meets this with room to
    spare: b_i <= sum(m) < p^2 < 2^62 for p < _FAST_P_LIMIT.

    Evaluates -(1/2)(sum b)^2 + (p/2) sum b^2 + sum (i - (p-1)/2) b_i exactly
    by working in doubled units and halving at the end.  sum b, sum b^2 and
    sum i b_i are accumulated in Python ints from int64 limb sums over blocks
    of at most _BLOCK = 2^14 runners: with b_i = sum_j 2^(24j) L_j and
    i = lo + t inside a block (as many limbs as its largest count needs),
    L_j L_k < 2^48 and t L_j < 2^38, so each block sum stays below 2^62.
    """
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    if not isinstance(b, Iterator):
        if len(b) != p - 1:
            raise ValueError(f"expected {p - 1} runner counts, got {len(b)}")
        counts = np.asarray(b)
        b = (counts[lo - 1 : hi - 1] for lo, hi in label_blocks(1, p))
    s1 = s2 = sl = 0
    lo = 1  # the runner of each block's first count
    for block in b:
        if block.size > 1 << 14:  # the limb sums' bound
            raise ValueError("a block of runner counts may hold at most 2^14 of them")
        kind = block.dtype.kind
        if kind not in "iu" or int(block.min()) < 0 or (kind == "u" and int(block.max()) >= 1 << 63):
            raise ValueError("runner counts must be integers with 0 <= b_i < 2^63")
        block = block.astype(np.int64, copy=False)
        limbs = [(block >> shift) & 0xFFFFFF for shift in range(0, int(block.max()).bit_length(), 24)]
        t = np.arange(block.size, dtype=np.int64)
        for j, lj in enumerate(limbs):
            limb_sum = int(lj.sum())
            s1 += limb_sum << (24 * j)
            sl += (lo * limb_sum + int((t * lj).sum())) << (24 * j)
            s2 += int((lj * lj).sum()) << (48 * j)
            for k in range(j + 1, len(limbs)):
                s2 += int((lj * limbs[k]).sum()) << (24 * (j + k) + 1)
        lo += block.size
    if lo != p:
        raise ValueError(f"expected {p - 1} runner counts, got {lo - 1}")
    doubled = -s1 * s1 + p * s2 + 2 * sl - (p - 1) * s1
    half, rem = divmod(doubled, 2)
    if rem:
        raise ValueError("multiplicity vector gives a non-integer size")
    if half < 0:
        raise ValueError("multiplicity vector gives a negative size")
    return half


def _runner_blocks(m: np.ndarray) -> Iterator[np.ndarray]:
    """b = cumsum(m[1:]) block by block, each block carried on from the last."""
    carry = 0
    for lo, hi in label_blocks(1, m.size):
        block = np.cumsum(m[lo:hi])
        block += carry
        carry = int(block[-1])
        yield block


def profile_to_partition(profile: LambdaProfile) -> Partition:
    """Materialize the explicit partition.

    Refuses, with ValueError, a negative row count and a profile of more than
    MAX_PARTS parts; the part count is summed exactly, so no int64 wrap can
    slip a huge profile under the cap.
    """
    p, rows = profile.p, profile.m[1:]
    if int(rows.min()) < 0:
        raise ValueError("need nonnegative row counts")
    total = _row_sums(profile.m, 1, p, p)[1]  # a row of i gaps holds p - i parts
    if total > MAX_PARTS:
        raise ValueError(f"profile has {total} parts, above the cap of {MAX_PARTS}")
    lam = partition_from_row_counts(p, rows.tolist())
    if lam.size != profile.size:
        raise VerificationError(f"materialized size {lam.size} != profile size {profile.size} at p={p}")
    return lam


def _first_failing_label(p: int, m: np.ndarray, y: np.ndarray, inv: np.ndarray) -> tuple[int, int]:
    """First label i in 1..p-1 whose replay checks fail and its start vertex, or (p, 1).

    inv holds the inverses of 1..(p-1)/2; a block's labels above (p-1)/2
    take inv(i) = p - inv(p-i), rebuilt here a block at a time.  Label i
    takes tail = inv(-i) - y[i-1] edges to p-1 and then rest = m[i] - tail
    edges on; the opening climb is label 1's tail of p-1 edges from vertex 0
    (y[0] = 0).  If every earlier label passed, label
    i > 1 starts at (p-1 + rest_{i-1} (i-1)) mod p, so a block of labels is
    checked at once, and after label p-1 the walk sits at (p-1)^2 = 1 mod p.
    A label can pass only with |y[i-1]| < p and 0 <= m[i] < 2p, so clipping
    y to [-p, p] and m to [-1, 2p] changes no verdict.  A passing label also
    has 0 <= tail < steps_to_zero <= p and 0 <= rest < inv(i), so tail needs
    no reduction and rest is clipped to [-1, p] before its product: a label's
    end vertex counts only once the label passed.

    Two remainder passes remain (modarith.mod_p): the end vertices, and
    steps_to_zero = ((p - v) inv(i) - 1) mod p + 1, congruent to
    (p - v) inv(i).  The return to p-1 needs none: v + tail i = -1 mod p
    means tail = steps_to_zero - inv(i) mod p, and where
    0 <= tail < steps_to_zero, with steps_to_zero - inv(i) in
    (-p, steps_to_zero), that congruence is the equality
    tail == steps_to_zero - inv(i).  A label with tail < 0 is flagged on its
    own and one with tail >= steps_to_zero fails the equality, so the same
    labels are flagged as by a third remainder pass.  With tail in
    [1-p, 2p-1], 0 <= v < p and 1 <= i, inv(i) < p, no term wraps: the end
    vertex's p - 1 + clip(rest) i lies in [0, p^2) and (p - v) inv(i) - 1 in
    [0, p (p-1)), with p^2 < 2^62.
    """
    start, mirror = 0, (p + 1) // 2  # the first label whose inverse is rebuilt
    for lo, hi in label_blocks(1, p):
        i = np.arange(lo, hi, dtype=np.int64)
        inv_i = np.empty(hi - lo, dtype=np.int64)
        mid = min(max(lo, mirror), hi)
        inv_i[: mid - lo] = inv[lo:mid]
        np.subtract(p, inv[p - mid : p - hi : -1], out=inv_i[mid - lo :])
        # y may be int32: widened to int64 before the clip, tail lies in [1-p, 2p-1]
        tail = (p - inv_i) - np.clip(y[lo - 1 : hi - 1].astype(np.int64, copy=False), -p, p)
        mi = np.clip(m[lo:hi], -1, 2 * p)
        rest = mi - tail
        end = mod_p(p - 1 + np.clip(rest, -1, p) * i, p)
        v = np.empty_like(end)
        v[0] = start
        v[1:] = end[:-1]
        steps_to_zero = mod_p((p - v) * inv_i - 1, p) + 1
        bad = (tail < 0) | (mi < tail) | (tail != steps_to_zero - inv_i)
        bad |= rest >= inv_i
        if hi == p:
            bad[-1] |= rest[-1] != p - 2
        hit = np.flatnonzero(bad)
        if hit.size:
            return lo + int(hit[0]), int(v[hit[0]])
        start = int(end[-1])
    return p, start


def validate_walk(profile: LambdaProfile) -> WalkValidation:
    """Replay the walk encoded by profile.m, label by label.

    Checks that the walk never revisits 0, sits at p-1 after the opening
    climb and after every excursion, and ends at 1 after the descent.  Every
    label is checked in int64 blocks of _BLOCK labels by _first_failing_label
    (with its overflow bound), and only the first failing label is evaluated
    again in Python ints, to name its violation.  The replay is O(p) with one
    inverse table of 1..(p-1)/2, since inv(p-i) = p - inv(i), and O(_BLOCK)
    temporaries.
    """
    p, m, y = profile.p, profile.m, profile.y
    inv = inverse_range((p - 1) // 2, p)
    i, v = _first_failing_label(p, m, y, inv)
    if i == p:
        return WalkValidation(True, None)
    mi = int(m[i])
    inv_i = int(inv[i]) if 2 * i < p else p - int(inv[p - i])
    tail = p - inv_i - int(y[i - 1])
    if tail < 0:
        violation = f"stored pair exceeds its cap before label {i}"
    elif mi < tail and i == 1:
        violation = f"opening climb needs {p - 1} label-1 edges, profile has {mi}"
    elif mi < tail:
        violation = f"label-{i} block is shorter than the return to p-1"
    elif tail >= ((p - v) * inv_i - 1) % p + 1:
        violation = f"walk hits 0 inside a label-{i} segment from {v}"
    elif (v + tail * i) % p != p - 1:
        violation = f"excursion over labels ({i - 1},{i}) does not return to p-1"
    elif i == p - 1 and mi - tail != p - 2:
        violation = f"final descent needs {p - 2} label-{p - 1} edges, got {mi - tail}"
    else:
        violation = f"walk hits 0 inside a label-{i} segment from {p - 1}"
    return WalkValidation(False, violation)


def check_symmetry(profile: LambdaProfile) -> list[str]:
    """Mirror identities: (x_i, y_i) = (y_{p-1-i}, x_{p-1-i}), m_i = m_{p-i}."""
    p, m = profile.p, profile.m
    out = []
    # a[j] against b[j] at label i = j + shift, a block of labels at a time:
    # x_i and y_{p-1-i}, m_i and m_{p-i}, with no p-length mask
    for what, a, b, shift in (("pair mirror", profile.x, profile.y[::-1], 0), ("row count", m[1:], m[::-1], 1)):
        for lo, hi in label_blocks(1, p - 1 - shift):
            mism = np.flatnonzero(a[lo:hi] != b[lo:hi])
            if mism.size:
                out.append(f"{what} symmetry fails at i={lo + shift + int(mism[0])}")
                break
    return out


def check_sum_identity(profile: LambdaProfile) -> list[str]:
    """The runner-count identities, read off the row counts in exact integers.

    Bead total: sum b_i = sum (p - i) m_i = p^2 (p-1)/2 - p c / 2 - 1, checked
    doubled.  Gap total: c_prefix[p-1] = p (p-1) - sum m_i = c + 1.  Gap-prefix
    symmetry, c_prefix[i] + c_prefix[p-1-i] = c for 1 <= i <= p-2, holds exactly
    when m_i = m_{p-i} for 2 <= i <= p-2 and m_1 - m_{p-1} = p (p-1) - sum m_i - c.
    The interior half is check_symmetry's row-count symmetry, so only the end
    condition is read here.
    """
    p, m, c = profile.p, profile.m, profile.c
    out = []
    total, beads = _row_sums(m, 1, p, p)
    if 2 * beads != p * p * (p - 1) - p * c - 2:
        out.append("bead total identity fails")
    if p * (p - 1) - total != c + 1:
        out.append("gap total does not equal c + 1")
    if int(m[1]) - int(m[p - 1]) != p * (p - 1) - total - c:
        out.append("gap prefix symmetry fails")
    return out


def check_st_lemmas(classification: ResidueClassification) -> tuple[list[str], list[str]]:
    """Per-residue pair bounds on the classification's pairs, decided in exact integers.

    Fraction-form: p/mx < x+y < p/mx + mx - 1 with mx = max(r, s), compared
    as mx (x+y) against p and p + mx^2 - mx.  Sum-form: x + y <= r + s is
    the hard bound; x + y = r + s exactly is reported as a note when missed
    (the construction never relies on the equality).  The uint16 witnesses
    and the int32 pairs are widened to int64 a block at a time: r + s and
    mx^2 do not fit 16 bits, and x + y reaches 2^32 - 2 at p = 2^31 - 1.
    Each message names its first failing residue, found over blocks of
    labels.  The pairs checked are the profile's too: lambda_profile keeps
    the classification's x and y arrays.
    """
    p, cls_ = classification.p, classification
    first: dict[int, str] = {}  # message number -> the message at its first failing residue
    for lo, hi in label_blocks(1, p - 1):
        fraction, sum_form = cls_.kind[lo:hi] == S_CLASS, cls_.kind[lo:hi] == T_CLASS
        wr, ws = cls_.wr[lo:hi].astype(np.int64), cls_.ws[lo:hi].astype(np.int64)
        mx, rs = np.maximum(wr, ws), wr + ws
        # int32 pairs give |x + y| < 2^32 in int64; only int64 pairs can wrap
        x, y = (a[lo:hi].astype(np.int64, copy=False) for a in (cls_.x, cls_.y))
        t = x + y
        wrapped = (t < x) != (y < 0)  # the int64 sum overflowed: t moved against y's sign
        if wrapped.any():
            t[wrapped] = np.where(y[wrapped] < 0, -1, 2 * p)
        # with r, s <= isqrt(p) every threshold lies in [0, 2p], so clipping the
        # exact sum to [-1, 2p] changes no verdict; then mx t < 2^16 2^32 = 2^48
        np.clip(t, -1, 2 * p, out=t)
        prod = mx * t
        checks = (
            ("fraction-form lower bound fails", fraction & (prod <= p)),
            ("fraction-form upper bound fails", fraction & (prod >= p + mx * mx - mx)),
            ("sum-form bound fails", sum_form & (t > rs)),
            ("sum-form equality missed", sum_form & (t != rs)),
        )
        for j, (text, bad) in enumerate(checks):
            hit = np.flatnonzero(bad)
            if hit.size and j not in first:
                first[j] = f"{text} at i={lo + int(hit[0])}"
    return [first[j] for j in sorted(first) if j < 3], [first[3]] if 3 in first else []
