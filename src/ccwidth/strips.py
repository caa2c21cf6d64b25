"""Strips, blocks, and the strips counted outward from a central block.

A strip is a run of consecutive cliques in an ordered cover, held as the
``range`` of its clique indices; a block is a strip whose cardinality
equals the cover width w (taken as 1 when w = 0 so the machinery stays
total).  Around a block B the cover is tiled by strips counted outward
from B on each side: every strip holds w cliques except the outermost
one on a side, which takes the at most w cliques left over.  Strip
distance from B is the position in that nearest-first list.

Removing a block's cliques separates the cliques before it from the
cliques after it: no edge can jump over w consecutive cliques.

The enclosing block for a clique S of vertices is the minimal window of
cliques meeting S, grown (rightward first) to block length.  Because the
members of S pairwise sit at clique distance <= w, the minimal window
has at most w + 1 cliques, so the located block can exceed the nominal
block length by one; slicing the range to ``[:w]`` keeps its left w
cliques, which is how composition anchors its interleave.
"""

from __future__ import annotations

from typing import Iterable

from .graph import is_clique
from .layout import OrderedCliqueCover, cover_width


def block_size(c: OrderedCliqueCover) -> int:
    """Nominal block cardinality: the cover width, but at least 1."""
    return max(cover_width(c), 1)


def strips_around(c: OrderedCliqueCover, b: range) -> tuple[list[range], list[range]]:
    """Clique index ranges of the strips left and right of ``b``, nearest first.

    Each strip holds the block size w of cliques; the outermost strip on
    a side holds what is left, at most w.  Together with ``b`` the
    strips tile the cover's clique indices.
    """
    w = block_size(c)
    left = [range(max(end - w, 0), end) for end in range(b.start, 0, -w)]
    right = [range(i, min(i + w, c.size)) for i in range(b.stop, c.size, w)]
    return left, right


def locate_enclosing_block(c: OrderedCliqueCover, s: Iterable[int]) -> range:
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
    hit = [c.clique_index(v) for v in vs]
    lo, hi = min(hit), max(hit)
    length = min(max(block_size(c), hi - lo + 1), c.size)
    start = min(lo, c.size - length)
    return range(start, start + length)
