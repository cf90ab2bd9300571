"""Integer partitions in descending canonical form.

Partitions double as cycle types of permutations and as labels for
irreducible representations of the symmetric group, so they are used by
nearly every other module.  The type is a thin tuple subclass: hashable,
comparable, and cheap enough to serve as a memoisation key.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Iterator


class Partition(tuple):
    """A partition of a positive integer, parts sorted descending."""

    def __new__(cls, parts: Iterable[int]):
        parts = tuple(sorted(parts, reverse=True))
        for p in parts:
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"parts must be positive integers, got {p!r}")
        return tuple.__new__(cls, parts)

    @property
    def n(self) -> int:
        return sum(self)

    def conjugate(self) -> "Partition":
        if not self:
            return self
        return Partition(sum(1 for p in self if p > j) for j in range(self[0]))

    def doubled(self) -> "Partition":
        """The partition with every part doubled."""
        return Partition(2 * p for p in self)

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self) + "]"

    def __repr__(self) -> str:
        return f"Partition({list(self)})"

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        """Parse the bracketed comma form, e.g. "[3,2,1]"."""
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError(f"not a partition literal: {text!r}")
        inner = text[1:-1].strip()
        if not inner:
            raise ValueError("empty partition literal")
        return cls(int(tok) for tok in inner.split(","))


def iter_partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield partitions of n as bare tuples in reverse-lexicographic order.

    Parts are at most ``max_part`` (default n).  n == 0 yields ``()``;
    negative n, or max_part < 1 with n > 0, yields nothing.  Streaming
    form used by large scans (cycle types of Sym(2k) up to 2k = 60).

    This is algorithm ZS1 (Zoghbi & Stojmenovic, "Fast algorithms for
    generating integer partitions", 1998): one list edited in place, where
    each step lowers the last part above 1 and redistributes the units
    behind it as greedily as possible.  The order is fixed, not incidental:
    ``partitions_of`` and the order of report rows depend on it.
    """
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    if max_part < 1:
        return
    whole, rest = divmod(n, max_part)
    # a[:m] is the partition, a[h] its last part above 1 (h = -1: none);
    # every entry from m on is 1, so a trailing unit needs no write
    a = [max_part] * whole + [1] * (n - whole)
    m = whole
    if rest:
        a[m] = rest
        m += 1
    h = m - 1
    while h >= 0 and a[h] == 1:
        h -= 1
    yield tuple(a[:m])
    while h >= 0:
        if a[h] == 2:
            a[h] = 1
            h -= 1
            m += 1
        else:
            r = a[h] - 1
            t = m - h
            a[h] = r
            while t >= r:
                h += 1
                a[h] = r
                t -= r
            if t == 0:
                m = h + 1
            else:
                m = h + 2
                if t > 1:
                    h += 1
                    a[h] = t
        yield tuple(a[:m])


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, reverse-lexicographic: [n] first, [1^n] last."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return [Partition(t) for t in iter_partitions(n)]


@cache
def partition_count(n: int) -> int:
    """p(n), by the part-bounded recurrence (independent of iter_partitions)."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")

    @cache
    def count(m: int, largest: int) -> int:
        if m == 0:
            return 1
        return sum(count(m - part, part) for part in range(min(m, largest), 0, -1))

    return count(n, n)
