"""Strips, blocks, and the partition of a cover around a central block.

A strip is a run of consecutive cliques in an ordered cover; a block is
a strip whose cardinality equals the cover width w (taken as 1 when
w = 0 so the machinery stays total).  Partitioning a cover around a
block B tiles the prefix before B into a short leading strip of length
k mod w followed by full blocks, and the suffix after B into full
blocks followed by a short trailing strip.  Strip distance is plain
index distance within that partition.

Removing a block's cliques separates the cliques before it from the
cliques after it: no edge can jump over w consecutive cliques.

The enclosing block for a clique S of vertices is the minimal window of
cliques meeting S, grown (rightward first) to block length.  Because the
members of S pairwise sit at clique distance <= w, the minimal window
has at most w + 1 cliques, so the located block can exceed the nominal
block length by one; downstream consumers accept that and the composed
result is always re-checked by an independent verifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import is_clique
from .layout import OrderedCliqueCover, cover_width


@dataclass(frozen=True)
class Strip:
    """A run of ``length`` consecutive cliques starting at index ``start``."""

    start: int
    length: int

    @property
    def end(self) -> int:
        """One past the last clique index."""
        return self.start + self.length

    def indices(self) -> range:
        return range(self.start, self.end)

    def __str__(self) -> str:
        if self.length == 0:
            return "[]"
        return f"[{self.start}..{self.end - 1}]"


@dataclass(frozen=True)
class StripPartition:
    """Contiguous strips jointly covering a cover's clique indices.

    ``parts[block_index]`` is the designated central block; interior
    parts other than it have exactly block length, and the first and
    last parts never exceed it.
    """

    parts: tuple[Strip, ...]
    block_index: int

    @property
    def block(self) -> Strip:
        return self.parts[self.block_index]

    def __str__(self) -> str:
        return "".join(
            f"{part}*" if i == self.block_index else str(part)
            for i, part in enumerate(self.parts)
        )


def block_size(c: OrderedCliqueCover) -> int:
    """Nominal block cardinality: the cover width, but at least 1."""
    return max(cover_width(c), 1)


def partition_around_block(c: OrderedCliqueCover, b: Strip) -> StripPartition:
    """Partition the cover's clique list around the block ``b``.

    With w the block size and k = b.start = p*w + r (0 <= r < w), the
    prefix becomes a leading strip of the first r cliques (omitted when
    empty) followed by p full blocks; the suffix after ``b`` is tiled by
    full blocks with a final strip of length < w (omitted when empty).
    ``b`` itself may exceed w (an oversized enclosing block) but never
    be shorter.
    """
    t1 = c.size
    w = block_size(c)
    if b.start < 0 or b.end > t1:
        raise ValueError(f"block {b} out of range for cover of {t1} cliques")
    if b.length < w:
        raise ValueError(f"block length {b.length} below block size {w}")
    k = b.start
    r = k % w
    parts: list[Strip] = []
    if r:
        parts.append(Strip(0, r))
    for start in range(r, k, w):
        parts.append(Strip(start, w))
    block_index = len(parts)
    parts.append(b)
    full_end = b.end + ((t1 - b.end) // w) * w
    for start in range(b.end, full_end, w):
        parts.append(Strip(start, w))
    if full_end < t1:
        parts.append(Strip(full_end, t1 - full_end))
    return StripPartition(tuple(parts), block_index)


def locate_enclosing_block(c: OrderedCliqueCover, s: Iterable[int]) -> Strip:
    """Smallest window of cliques containing the clique ``s``, at block size.

    The window covering every cover clique that meets ``s`` is expanded
    to length max(block size, window span), growing rightward first and
    leftward once the right boundary is hit.  The result can exceed the
    nominal block size by one when ``s`` straddles w + 1 cliques.
    """
    vs = set(s)
    if not vs:
        raise ValueError("enclosing block requires a nonempty vertex set")
    if not is_clique(c.graph, vs):
        raise ValueError("vertex set does not induce a clique")
    hit = sorted(c.clique_index(v) for v in vs)
    lo, hi = hit[0], hit[-1]
    target = max(block_size(c), hi - lo + 1)
    t1 = c.size
    while hi - lo + 1 < target:
        if hi < t1 - 1:
            hi += 1
        elif lo > 0:
            lo -= 1
        else:
            break
    return Strip(lo, hi - lo + 1)
