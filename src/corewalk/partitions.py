"""Integer partitions, hooks, and the p-core / p-regular predicates."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import pairwise
from typing import Iterator


@dataclass(frozen=True)
class Partition:
    """A partition as a weakly decreasing tuple of positive parts."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = self.parts
        if not isinstance(parts, tuple):
            parts = tuple(parts)
            object.__setattr__(self, "parts", parts)
        if parts:
            if not all(isinstance(part, int) for part in parts):
                raise TypeError("parts must be integers")
            if min(parts) < 1:
                raise ValueError("parts must be positive")
            if any(a < b for a, b in pairwise(parts)):
                raise ValueError("parts must be weakly decreasing")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    parts = lam.parts
    if not parts:
        return Partition(())
    asc = parts[::-1]
    n = len(parts)
    cols = tuple(n - bisect_left(asc, j) for j in range(1, parts[0] + 1))
    return Partition(cols)


def hook_lengths(lam: Partition) -> Iterator[int]:
    """Hook lengths of every cell, in row-major order.

    The hook of cell (i, j) counts the cell itself, the cells to its right
    and the cells below it: parts[i] - j + conj[j] - i + 1 with 1-based i, j.
    """
    conj = conjugate(lam).parts
    for i, row in enumerate(lam.parts, start=1):
        for j in range(1, row + 1):
            yield row - j + conj[j - 1] - i + 1


def is_p_core(lam: Partition, p: int) -> bool:
    """True when no hook length is divisible by p; stops at the first that is."""
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    return all(hook % p for hook in hook_lengths(lam))


def is_p_regular(lam: Partition, p: int) -> bool:
    """True when no part is divisible by p (a p'-partition)."""
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    return not any(part % p == 0 for part in lam.parts)


def format_partition(lam: Partition) -> str:
    """Comma-separated decreasing parts; the empty partition is ''."""
    return ",".join(str(part) for part in lam.parts)
