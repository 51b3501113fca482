"""Abacus displays of partitions on p runners.

Position q sits on runner q mod p in row q // p + 1; position 0 is always a
gap.  With that normalization a partition with N parts is represented by the
bead set {part_i + N - i : 1 <= i <= N} (its first-column hook lengths), and
every bead contributes a part equal to the number of gaps preceding it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import count

from .partitions import Partition


@dataclass(frozen=True)
class AbacusDisplay:
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


@dataclass(frozen=True)
class BeadMultiplicities:
    """Bead counts per runner 1..p-1 of a top-aligned display (runner 0 empty)."""

    p: int
    b: tuple[int, ...]

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"need p >= 2, got {self.p}")
        if not isinstance(self.b, tuple):
            object.__setattr__(self, "b", tuple(self.b))
        if len(self.b) != self.p - 1:
            raise ValueError(f"expected {self.p - 1} runner counts, got {len(self.b)}")
        if self.b and min(self.b) < 0:
            raise ValueError("runner counts must be nonnegative")


def partition_to_abacus(lam: Partition, p: int) -> AbacusDisplay:
    """Canonical display with one bead per part."""
    n = len(lam.parts)
    beads = frozenset(part + n - i for i, part in enumerate(lam.parts, start=1))
    return AbacusDisplay(p, beads)


def abacus_to_partition(display: AbacusDisplay) -> Partition:
    """Partition read off a display: bead at q yields part q - #{beads below q}.

    Since position 0 is a gap, every bead has at least one gap before it and
    all emitted parts are positive.
    """
    ordered = sorted(display.beads, reverse=True)
    k = len(ordered)
    parts = tuple(q - (k - 1 - idx) for idx, q in enumerate(ordered))
    return Partition(parts)


def is_top_aligned(display: AbacusDisplay) -> bool:
    """True when on every runner the beads fill rows 1..count with no gaps."""
    max_row: dict[int, int] = {}
    counts: dict[int, int] = {}
    p = display.p
    for q in display.beads:
        runner = q % p
        row = q // p + 1
        counts[runner] = counts.get(runner, 0) + 1
        if row > max_row.get(runner, 0):
            max_row[runner] = row
    return all(max_row[runner] == counts[runner] for runner in counts)


def bead_multiplicities(display: AbacusDisplay) -> BeadMultiplicities:
    """Count beads per runner 1..p-1; requires a top-aligned display."""
    if not is_top_aligned(display):
        raise ValueError("display is not top-aligned")
    p = display.p
    counts = [0] * p
    for q in display.beads:
        counts[q % p] += 1
    if counts[0]:
        raise ValueError("beads on runner 0 correspond to parts divisible by p")
    return BeadMultiplicities(p, tuple(counts[1:]))


def size_from_bead_multiplicities(bm: BeadMultiplicities) -> int:
    """Size of the p-core determined by runner counts b_1..b_{p-1}.

    Evaluates -(1/2)(sum b)^2 + (p/2) sum b^2 + sum (i - (p-1)/2) b_i exactly
    by working in doubled units and halving at the end.
    """
    p, b = bm.p, bm.b
    s1 = sum(b)
    s2 = sum(map(operator.mul, b, b))
    sl = sum(map(operator.mul, count(1), b))
    doubled = -s1 * s1 + p * s2 + 2 * sl - (p - 1) * s1
    half, rem = divmod(doubled, 2)
    if rem:
        raise ValueError("multiplicity vector gives a non-integer size")
    if half < 0:
        raise ValueError("multiplicity vector gives a negative size")
    return half
