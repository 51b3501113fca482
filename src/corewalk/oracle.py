"""Brute-force cross-checks for the closed-form construction.

Five independent routes: exhaustive enumeration of all valid walks (tiny
p), a longest-walk dynamic program with exact tie counting (moderate p),
a direct search for each label's minimal pair, exhaustive search over all
p-core p'-partitions up to a size cap, and abacus displays read bead by
bead (runner counts to explicit partitions).
None of them shares code with the closed-form pipeline beyond modarith, so
a bug on either side shows up as a loud disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

from .errors import UniquenessError, VerificationError
from .modarith import inverse_range, is_prime, require_odd_prime
from .partitions import Partition, is_p_core, is_p_regular
# no route reads lambda_profile; it is imported here because
# corebench/tracing.py wraps it under this name
from .residue_walk import lambda_profile

MAX_ENUM_PRIME = 9
MAX_DP_PRIME = 500
SEARCH_BUDGET = 2_000_000  # most partitions exhaustive_partition_search may visit


class WalkCandidate(NamedTuple):
    m: tuple[int, ...]
    length: int
    size: int


class LongestWalkResult(NamedTuple):
    length: int
    m: tuple[int, ...]


@dataclass(frozen=True)
class AbacusDisplay:
    """Beads on p runners: position q sits on runner q mod p in row q // p + 1.

    Position 0 is always a gap, so N parts are the beads part_i + N - i (the
    first-column hook lengths), and each bead's part counts the gaps before it.
    """

    p: int
    beads: frozenset[int]

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"need at least 2 runners, got {self.p}")
        if not isinstance(self.beads, frozenset):
            object.__setattr__(self, "beads", frozenset(self.beads))
        for q in self.beads:
            if not isinstance(q, int) or q < 0:
                raise ValueError(f"bead positions must be nonnegative integers, got {q!r}")
        if 0 in self.beads:
            raise ValueError("position 0 must be a gap")


def enumerate_valid_walks(p: int, visitor: Callable[[WalkCandidate], None]) -> int:
    """Visit every walk from 0 with nondecreasing labels avoiding 0.

    Labels run over 1..p-1 in order; for each label the walk may take any
    number of steps short of the count that would land it back on 0.  The
    size of the encoded partition accumulates as (p - label) * position
    weight per step.  Returns the number of walks visited; that count grows
    brutally fast, hence the cap: p above MAX_ENUM_PRIME is refused with
    ValueError.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p > MAX_ENUM_PRIME:
        raise ValueError(f"walk enumeration is capped at p <= {MAX_ENUM_PRIME}, got {p}")
    inv = inverse_range(p - 1, p).tolist()
    m = [0] * p

    def rec(label: int, v: int, w: int, size: int) -> int:
        if label == p:
            mt = tuple(m[1:])
            visitor(WalkCandidate(mt, sum(mt), size))
            return 1
        steps_to_zero = (p - v) * inv[label] % p or p
        total = 0
        vk, wk, sk = v, w, size
        for k in range(steps_to_zero):
            if k:
                wk += label
                vk += label
                if vk >= p:
                    vk -= p
                sk += (p - label) * wk
            m[label] = k
            total += rec(label + 1, vk, wk, sk)
        m[label] = 0
        return total

    return rec(1, 0, 0, 0)


def max_size_walk(p: int) -> WalkCandidate:
    """The unique size-maximal walk, by exhaustive enumeration.

    Also insists that the length-maximal walk is unique and is the same
    candidate, since the construction leans on that coincidence.  Every
    candidate is held: p <= MAX_ENUM_PRIME = 9 gives at most 5488 walks.
    """
    cands: list[WalkCandidate] = []
    enumerate_valid_walks(p, cands.append)
    winners = []
    sizes, lengths = [c.size for c in cands], [c.length for c in cands]
    for name, values in (("size", sizes), ("length", lengths)):
        best = max(values)
        ties = values.count(best)
        if ties != 1:
            raise UniquenessError(f"{ties} {name}-maximal walks at p={p}")
        winners.append(cands[values.index(best)])
    if winners[0].m != winners[1].m:
        raise UniquenessError(f"size and length maximizers differ at p={p}")
    return winners[0]


def longest_walk_dp(p: int) -> LongestWalkResult:
    """Longest valid walk via dynamic programming over (label, vertex).

    Vertices reachable with label i sit at positions q = v * inv(i) mod p
    along the label-i cycle; extending by k steps of label i moves q to
    q + k, so the transition is a prefix maximum over positions.  Exact tie
    counts ride along, and a tie at the optimum raises UniquenessError.
    Returns the length and the row counts m_1..m_{p-1} read off the
    backpointers; comparing them with the closed form is the caller's job.
    """
    require_odd_prime(p)
    if p > MAX_DP_PRIME:
        raise ValueError(f"dynamic program is capped at p <= {MAX_DP_PRIME}, got {p}")
    inv = inverse_range(p - 1, p).tolist()
    neg = -(1 << 60)
    best = [neg] * p
    best[0] = 0
    cnt = [0] * p
    cnt[0] = 1
    backs: list[list[int]] = []
    for i in range(1, p):
        nbest = [neg] * p
        ncnt = [0] * p
        nback = [-1] * p
        run_val = neg
        run_cnt = 0
        run_src = -1
        v = 0
        for q in range(p):
            bv = best[v]
            if bv > neg:
                cand = bv - q
                if cand > run_val:
                    run_val = cand
                    run_cnt = cnt[v]
                    run_src = v
                elif cand == run_val:
                    run_cnt += cnt[v]
            if run_val > neg:
                nbest[v] = run_val + q
                ncnt[v] = run_cnt
                nback[v] = run_src
            v += i
            if v >= p:
                v -= p
        best, cnt = nbest, ncnt
        backs.append(nback)

    length = max(best)
    count = sum(c for bv, c in zip(best, cnt) if bv == length)
    if count != 1:
        raise UniquenessError(f"{count} longest walks at p={p}")
    end = best.index(length)

    mvec = [0] * p
    v = end
    for i in range(p - 1, 0, -1):
        u = backs[i - 1][v]
        if u < 0:
            raise VerificationError(f"broken backpointer at label {i}, p={p}")
        mvec[i] = (v - u) * inv[i] % p
        v = u
    if v != 0:
        raise VerificationError(f"reconstructed walk does not start at 0, p={p}")
    if sum(mvec) != length:
        raise VerificationError(f"reconstructed walk length mismatch at p={p}")
    return LongestWalkResult(length, tuple(mvec[1:]))


def minimal_pair_direct(i: int, p: int) -> tuple[int, int]:
    """Minimal admissible pair (x, y) for the (i, i+1) excursion, by increasing sum.

    The caps are x <= inv(i), the steps from p-1 to 0 along label i, and
    y <= inv(-(i+1)), the steps from 0 to p-1 along label i+1.  For each
    candidate sum t there is exactly one pair x = (i+1) t, y = -i t mod p
    with x + y = t mod p, so scanning t upward and accepting the first pair
    with x + y = t under both caps returns the minimum.  The scan provably
    terminates by t = x_max + y_max, where the candidate is (x_max, y_max).
    The caps bound only the scan: at all 592,963 labels of the primes
    p <= 3000, the first t with x + y = t already meets both caps, so the
    capped and uncapped minimal-sum pairs coincide there.
    """
    require_odd_prime(p)
    if not 1 <= i <= p - 2:
        raise ValueError(f"label must lie in 1..{p - 2}, got {i}")
    x_max, y_max = pow(i, -1, p), pow(-(i + 1), -1, p)
    x_step = (i + 1) % p
    y_step = (-i) % p
    x = x_step
    y = y_step
    for t in range(2, x_max + y_max + 1):
        x += x_step
        if x >= p:
            x -= p
        y += y_step
        if y >= p:
            y -= p
        if x + y == t and x <= x_max and y <= y_max:
            return x, y
    raise VerificationError(f"no admissible pair found for i={i}, p={p}")


def iter_partitions(n: int, max_part: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n as weakly decreasing tuples."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    top = n if max_part is None or max_part > n else max_part
    for first in range(top, 0, -1):
        for rest in iter_partitions(n - first, first):
            yield (first,) + rest


def partition_counts(n: int) -> list[int]:
    """p(0), ..., p(n) by the pentagonal number recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    counts = [0] * (n + 1)
    counts[0] = 1
    for k in range(1, n + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            if g1 > k:
                break
            sign = -1 if j % 2 == 0 else 1
            total += sign * counts[k - g1]
            g2 = j * (3 * j + 1) // 2
            if g2 <= k:
                total += sign * counts[k - g2]
            j += 1
        counts[k] = total
    return counts


def exhaustive_partition_search(p: int, size_cap: int) -> Partition:
    """The unique largest p-core p'-partition among all partitions of size <= size_cap.

    Visits every partition up to the cap, so the exact partition counts
    must stay within SEARCH_BUDGET visits before starting, else ValueError.
    Ties at the maximal size raise UniquenessError.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if size_cap < 0:
        raise ValueError("size_cap must be nonnegative")
    visits = sum(partition_counts(size_cap))
    if visits > SEARCH_BUDGET:
        raise ValueError(f"search would visit {visits} partitions, above the budget of {SEARCH_BUDGET}")

    best = [Partition(())]
    for n in range(1, size_cap + 1):
        candidates = map(Partition, iter_partitions(n))  # each built once, for both tests
        hits = [lam for lam in candidates if is_p_regular(lam, p) and is_p_core(lam, p)]
        if hits:
            best = hits
    if len(best) > 1:
        raise UniquenessError(f"{len(best)} maximal candidates of size {best[0].size} at p={p}")
    return best[0]


def partition_to_abacus(lam: Partition, p: int) -> AbacusDisplay:
    """Canonical display with one bead per part."""
    n = len(lam.parts)
    return AbacusDisplay(p, frozenset(part + n - i for i, part in enumerate(lam.parts, start=1)))


def abacus_to_partition(display: AbacusDisplay) -> Partition:
    """Partition read off a display: bead at q yields part q - #{beads below q}.

    Since position 0 is a gap, every bead has at least one gap before it and
    all emitted parts are positive.
    """
    ordered = sorted(display.beads, reverse=True)
    k = len(ordered)
    return Partition(tuple(q - (k - 1 - idx) for idx, q in enumerate(ordered)))


def is_top_aligned(display: AbacusDisplay) -> bool:
    """True when on every runner the beads fill rows 1..count with no gaps.

    That holds exactly when every bead below row 1 has a bead right above it.
    """
    return all(q < display.p or q - display.p in display.beads for q in display.beads)


def bead_multiplicities(display: AbacusDisplay) -> list[int]:
    """Bead counts b_1..b_{p-1} per runner; requires a top-aligned display."""
    if not is_top_aligned(display):
        raise ValueError("display is not top-aligned")
    p = display.p
    counts = [0] * p
    for q in display.beads:
        counts[q % p] += 1
    if counts[0]:
        raise ValueError("beads on runner 0 correspond to parts divisible by p")
    return counts[1:]
