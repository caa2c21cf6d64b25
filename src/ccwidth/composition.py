"""Width-certified clique covers for the clique sum of two graphs.

Given covers C1 of G1 and C2 of G2 glued along a shared clique S, with
C2 renumbered into the composed graph first so that every piece below
is in composed numbering, the construction anchors a block of
w = max(width, 1) cliques on each side's S-window and gives every
clique a key (strip, offset): strip 0 is the block, strips 1, 2, ... of
w cliques follow it and -1, -2, ... precede it, and the offset is the
clique's position in its strip.  Sorting the cliques of both covers by
that key, side 2 first on ties, interleaves the strips at equal
distances from the blocks (unmatched outer strips pass through) into
one ordered sequence.  A new clique holding exactly S is then inserted,
S's vertices are deleted everywhere else, and emptied cliques are
dropped.  The result is an ordered clique cover of G1 (+) G2 whose
width stays within ceil(3/2 * (w(C1) + w(C2))).

Two details matter for that bound to survive all geometries.  First,
anchor blocks are never allowed to exceed the nominal block size: the
shared set pairwise sits at clique distance <= w on each side, which
confines it to a window of at most w + 1 cliques, one more than a block
can hold.  Using that oversized window as the block stretches the
interleave and loses the bound (two glued paths already exhibit it), so
when S straddles w + 1 cliques the block keeps the left w of them and
the last one sits just outside.  Second, the insertion point for the
new S-clique minimizes the realized width over all positions,
preferring the middle of the interleaved block segment on ties; in the
regular geometry that is exactly the middle position.  All positions
are scored in one pass over the edges: an insertion only lengthens the
edges that cross it and the edges of the new clique.

When even the best insertion misses the bound, this route and the
width-0 one below share one fallback (``_side_kept_order``): keep S in
side 1's own cliques, then in side 2's, order each set by the least
bandwidth of its quotient up to the bound, and take the narrower order,
side 1 on ties.  The solvers' one k loop finds that order; it owns the
start, the failed-state budget (a decision that runs out counts as
failed) and the recursion guard.  If neither set fits, compose raises.

Degenerate widths take documented detours:

* empty shared set: plain concatenation (disjoint union), bound
  max(w1, w2);
* exactly one cover of width 0: that side is a disjoint union of
  cliques, and S lies inside a single clique B of it.  Interleaving
  width-0 material into the other cover inflates its spans past the 3/2
  bound, so instead B is kept whole (no extraction) and inserted at the
  center of the other cover's S-window, while the width-0 side's other
  cliques, which have no external edges at all, keep their relative
  order around it;
* both widths 0: the nominal bound is 0 but extracting S can create
  spans of 1, so the certificate carries bound 1, one above
  ceil(3/2 * (w1 + w2)).

Every certificate is re-checkable: the verifier revalidates the cover
and its achieved width from scratch and ties the bound to the recorded
input widths, which the certificate file carries but cannot prove.
The edge-span check right after a compose of the same cover objects
reuses that compose's interleave.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .graph import (
    Graph,
    LineReader,
    _clique_sum,
    _members,
    check_shared_clique,
    format_edge_list,
    read_edge_list,
)
from .layout import (
    CoverCheck,
    OrderedCliqueCover,
    _clique_index,
    cover_graph,
    cover_width,
    format_cover,
    index_width,
    read_cover,
    validate_cover,
)
from .solvers import _least_width_cover


def ceil_three_halves(x: int) -> int:
    """ceil(3x/2) for nonnegative integers."""
    return (3 * x + 1) // 2


# Sequence entries are (source, clique_index) with source 1 or 2.
TaggedClique = tuple[int, int]


@dataclass(frozen=True)
class InterleaveLayout:
    """The pre-fix-up interleaved clique sequence and its block segment."""

    seq: tuple[TaggedClique, ...]
    block_start: int
    block_length: int


def _interleave(
    c1: OrderedCliqueCover, c2: OrderedCliqueCover, shared: dict[int, int]
) -> InterleaveLayout:
    """The interleave skeleton: anchor blocks, strips, interleaves.

    Each side's anchor block holds w = max(width, 1) cliques from the
    first clique meeting the shared set, moved left only as far as the
    cover's end requires; when the shared clique spans w + 1 cliques the
    last one sits just right of the block.  Sorting both covers' cliques
    by (strip, offset, side 2 first) interleaves the strips at equal
    distances from their blocks; a strip without a partner passes
    through.  Every clique appears once, each source's in their order.
    The caller checks that ``shared`` is a nonempty clique on both sides.
    """
    entries = []
    block_start = block_length = 0
    for source, c, vs in ((1, c1, shared.keys()), (2, c2, shared.values())):
        w = max(cover_width(c), 1)
        anchor = min(min(c._index_of[v] for v in vs), c.size - w)
        for i in range(c.size):
            strip = (i - anchor) // w
            # -source: side 2 sorts before side 1 at equal (strip, offset)
            entries.append((strip, i - max(anchor + strip * w, 0), -source, source, i))
        block_start += anchor  # cliques 0..anchor-1 precede the block
        block_length += w
    entries.sort()
    return InterleaveLayout(
        tuple((source, i) for *_, source, i in entries), block_start, block_length
    )


# The last interleave compose built, as (c1, c2, copy of shared, layout),
# stored once the shared clique has been validated.  A span check of the
# same cover objects with an equal shared map reuses the layout and the
# validation.  Covers never change, so the entry cannot go stale, and it
# is replaced as one tuple, so a reader never sees a torn entry.
_last_interleave: tuple = (None, None, None, None)


@dataclass(frozen=True)
class WidthCertificate:
    """A composed cover plus the width bound it promises.

    Plain data; nothing here is trusted.  ``verify_certificate`` re-checks
    the cover and its width and ties ``bound`` to ``w1`` and ``w2``, so
    corrupted certificates are detected, not rejected at construction.
    """

    graph: Graph
    cliques: tuple[frozenset[int], ...]
    w1: int
    w2: int
    bound: int
    achieved: int


def sequence_width(g: Graph, cliques: Sequence[frozenset[int]]) -> int:
    """Width of a clique sequence by position.

    Empty entries occupy an index but carry no edges; compose and the
    verifier pass sequences without any.  Every vertex of g must lie in
    an entry.
    """
    # an uncovered endpoint fails the subtraction instead of reading 0
    return index_width(g, _clique_index(g.n, cliques))


def _best_insertion(
    g: Graph,
    raw: Sequence[frozenset[int]],
    item: frozenset[int],
    anchor: int,
) -> tuple[int, list[frozenset[int]]]:
    """Insert ``item`` where the compacted sequence width is smallest.

    Scores every raw position in one pass over the edges.  Inserting
    ``item`` at kept index p (empty entries of ``raw`` dropped) shifts
    the kept cliques from p on by one, so a kept edge grows by one
    exactly when it crosses gap p: the kept edges give M + 1 at the gaps
    an edge of the widest kept span M crosses, and M elsewhere.  An edge
    from ``item`` to the kept clique j spans p - j or j + 1 - p, so only
    the lowest and highest such j matter.  Ties prefer the position
    nearest ``anchor`` (then the leftmost), so the regular geometry
    reproduces the natural middle placement and the result is
    deterministic.  Returns (width, compacted sequence).
    """
    kept = [*filter(None, raw)]
    index_of = _clique_index(g.n, kept)  # the item's vertices are never looked up
    bits = g._bits
    inside = touching = 0
    for v in item:
        inside |= 1 << v
        touching |= bits[v]
    next_to = [index_of[v] for v in _members(touching & ~inside)]
    lo, hi = (min(next_to), max(next_to)) if next_to else (len(kept), -1)
    widest = 0
    lefts: list[int] = []  # left ends of the kept edges of span ``widest``
    for u in _members((1 << g.n) - 1 & ~inside):
        above = bits[u] & ~inside & -(2 << u)  # each kept edge once
        if not above:
            continue  # vertices without kept edges need no index
        iu = index_of[u]
        for v in _members(above):
            iv = index_of[v]
            span = abs(iu - iv)
            if span > widest:
                widest = span
                lefts = [min(iu, iv)]
            elif span == widest:
                lefts.append(min(iu, iv))
    crossings = [0] * (len(kept) + 1)  # difference array over the gaps
    for i in lefts:
        crossings[i + 1] += 1
        crossings[i + widest + 1] -= 1
    widths: list[int] = []
    depth = 0
    for p in range(len(kept) + 1):
        depth += crossings[p]
        width = widest + 1 if depth else widest
        if lo < p:
            width = max(width, p - lo)
        if hi >= p:
            width = max(width, hi + 1 - p)
        widths.append(width)
    kept_before = [*accumulate(map(bool, raw), initial=0)]
    width, _, q = min(
        (widths[p], abs(q - anchor), q) for q, p in enumerate(kept_before)
    )
    p = kept_before[q]
    return width, kept[:p] + [item] + kept[p:]


def _side_kept_order(
    g: Graph,
    sides: tuple[Sequence[frozenset[int]], Sequence[frozenset[int]]],
    shared: frozenset[int],
    bound: int,
    width: int,
) -> list[frozenset[int]]:
    """The fallback when the construction's ``width`` misses ``bound``.

    Keeps the shared vertices in side 1's own cliques (deleting them from
    side 2's), then the reverse; each is a clique partition of ``g``.
    Ordering a set is a bandwidth search on its quotient graph, with k
    up to ``bound`` and at most 100,000 failed states per decision.
    Returns the order of the least k, side 1 on ties, or raises
    ``ValueError`` if neither fits or a quotient is too deep to search.
    """
    best = None
    for keep in (0, 1):
        cliques = [
            cl if i == keep else cl - shared
            for i, side in enumerate(sides)
            for cl in side
        ]
        cliques = [cl for cl in cliques if cl]
        quotient = cover_graph(OrderedCliqueCover(g, cliques))
        k, order = _least_width_cover(
            quotient._bits, True, stop=bound + 1, max_failed=100_000
        )
        if order is not None:
            best = [cliques[m.bit_length() - 1] for m in order]
            bound = k - 1  # side 2 has to be strictly narrower
    if best is None:
        raise ValueError(
            f"composition missed its bound: achieved {width} > bound {bound}"
        )
    return best


def _one_sided_zero_parts(
    zero: Sequence[frozenset[int]],
    wide: Sequence[frozenset[int]],
    shared: frozenset[int],
) -> tuple[list[frozenset[int]], frozenset[int], int]:
    """Composition pieces when exactly the ``zero`` side has width 0.

    Both sides' cliques and the shared set are in composed numbering.
    The shared set sits inside a single clique B of the width-0 side
    (any straddle would be a cross edge there).  B is kept whole, to be
    inserted near the middle of the other side's S-window; shared
    vertices are deleted from the other side only.  Remaining width-0
    cliques have no edges leaving them and keep their relative order
    around the insertion.  Returns (sequence without B, B itself, the
    natural insertion index for B).
    """
    hit_zero = [i for i, cl in enumerate(zero) if cl & shared]
    assert len(hit_zero) == 1, "width-0 cover cannot split a clique"
    bz = hit_zero[0]
    hits = [i for i, cl in enumerate(wide) if cl & shared]
    mid = (hits[0] + hits[-1]) // 2
    raw = [*zero[:bz], *(cl - shared for cl in wide), *zero[bz + 1 :]]
    return raw, zero[bz], bz + mid + 1


def compose_covers(
    g1: Graph,
    c1: OrderedCliqueCover,
    g2: Graph,
    c2: OrderedCliqueCover,
    shared: dict[int, int],
) -> WidthCertificate:
    """Build a width-certified ordered clique cover of the clique sum.

    ``shared`` maps g1 vertices onto the g2 vertices they are glued to
    and must induce a clique on both sides.  The returned certificate
    promises achieved <= bound with bound = ceil(3/2 * (w1 + w2)),
    except in the documented degenerate regimes (empty shared set:
    bound max(w1, w2); both widths zero: bound 1).
    Raises ``ValueError`` rather than return a cover above that bound.

    ``achieved`` comes from the construction: the best insertion's
    width, the fallback order's width, or max(w1, w2) for the disjoint
    union; :func:`verify_certificate` stays the independent check.
    """
    global _last_interleave
    if c1.graph != g1:
        raise ValueError("c1 does not cover g1")
    if c2.graph != g2:
        raise ValueError("c2 does not cover g2")
    composed, g2_map = _clique_sum(g1, g2, shared)  # validates the shared clique
    sides = (
        c1.cliques,
        tuple(frozenset(map(g2_map.__getitem__, cl)) for cl in c2.cliques),
    )
    S = frozenset(shared)
    w1 = cover_width(c1)
    w2 = cover_width(c2)
    if not shared:
        final = sides[0] + sides[1]
        bound = width = max(w1, w2)
    else:
        bound = ceil_three_halves(w1 + w2)
        if (w1 == 0) != (w2 == 0):
            zero, wide = sides if w1 == 0 else sides[::-1]
            raw, item, anchor = _one_sided_zero_parts(zero, wide, S)
        else:
            layout = _interleave(c1, c2, shared)
            _last_interleave = (c1, c2, dict(shared), layout)
            # The S-clique goes in by _best_insertion; when that misses the
            # bound, the fallback below drops this skeleton.
            raw = [sides[src - 1][idx] - S for src, idx in layout.seq]
            item = S
            anchor = layout.block_start + layout.block_length // 2
            if w1 + w2 == 0:
                bound += 1
        width, final = _best_insertion(composed, raw, item, anchor)
        if width > bound:
            final = _side_kept_order(composed, sides, S, bound, width)
            width = sequence_width(composed, final)
    return WidthCertificate(composed, tuple(final), w1, w2, bound, width)


def verify_certificate(cert: WidthCertificate) -> CoverCheck:
    """Re-check a certificate against what it carries.

    Validates the cover against the composed graph, recomputes its width
    to confirm ``achieved``, and checks that ``bound`` is at most
    max(ceil(3/2 * (w1 + w2)), 1) and that ``achieved`` stays within
    it.  ``w1`` and ``w2`` are taken as recorded: the certificate carries
    no input graph or cover to recompute them from.
    """
    check = validate_cover(cert.graph, cert.cliques)
    if not check:
        return check
    width = sequence_width(cert.graph, cert.cliques)
    if width != cert.achieved:
        return CoverCheck(
            False,
            f"achieved width mismatch: cover has width {width}, "
            f"certificate records {cert.achieved}",
        )
    limit = max(ceil_three_halves(cert.w1 + cert.w2), 1)
    if cert.bound > limit:
        return CoverCheck(
            False,
            f"bound {cert.bound} exceeds {limit}, the most that "
            f"w1 {cert.w1} and w2 {cert.w2} allow",
        )
    if cert.achieved > cert.bound:
        return CoverCheck(
            False,
            f"bound violated: achieved {cert.achieved} > bound {cert.bound}",
        )
    return CoverCheck(True)


@dataclass(frozen=True)
class SpanCheck:
    """Outcome of the pre-fix-up edge span check.

    ``max_span`` is the widest position gap between the home cliques of
    an edge's endpoints in the interleaved sequence; ``limit`` is the
    checked guarantee.  ``vacuous`` marks the skipped cases: w1 + w2 = 0,
    and an empty shared set, which has no interleave.
    """

    ok: bool
    max_span: int
    limit: int
    vacuous: bool = False
    counterexample: tuple[int, int, int, int] | None = None  # (source, u, v, span)


def edge_span_claim_check(
    g1: Graph,
    c1: OrderedCliqueCover,
    g2: Graph,
    c2: OrderedCliqueCover,
    shared: dict[int, int],
) -> SpanCheck:
    """Check the span guarantee of the interleaved (pre-fix-up) sequence.

    Every edge of E(G1) or E(G2), located through its own cover's
    cliques, must span at most b1 + b2 + min(b1, b2) positions where
    b1, b2 are the block sizes (max(w, 1)).  An edge's endpoints lie in
    the same or adjacent strips of their own cover, hence within two
    adjacent interleave segments; between them sit exactly d - 1
    cliques of their own source (order is preserved) and at most the
    other source's share of those two segments, 2 * b_other.  With full
    strips the alternation tightens this to b1 + b2, but a short
    boundary strip paired against a full one realizes the extra
    min(b1, b2).  Stricter variants fail on simple inputs: w1 + w2 - 1
    is already beaten by two paths glued at their midpoints, where the
    alternation forces a gap of 2 between consecutive same-source
    cliques.
    """
    if c1.graph != g1 or c2.graph != g2:
        raise ValueError("covers do not match their graphs")
    last_c1, last_c2, last_shared, layout = _last_interleave
    if not (c1 is last_c1 and c2 is last_c2 and shared == last_shared):
        check_shared_clique(g1, g2, shared)
        layout = None
    w1 = cover_width(c1)
    w2 = cover_width(c2)
    if w1 + w2 == 0 or not shared:
        return SpanCheck(ok=True, max_span=0, limit=0, vacuous=True)
    if layout is None:
        layout = _interleave(c1, c2, shared)
    beta1, beta2 = max(w1, 1), max(w2, 1)
    limit = beta1 + beta2 + min(beta1, beta2)
    at = ([0] * c1.size, [0] * c2.size)  # each clique's interleave position
    for p, (source, i) in enumerate(layout.seq):
        at[source - 1][i] = p
    sides = [
        (source, g, [at[source - 1][i] for i in c._index_of])
        for source, g, c in ((1, g1, c1), (2, g2, c2))
    ]
    max_span = max(index_width(g, position) for _, g, position in sides)
    if max_span <= limit:
        return SpanCheck(ok=True, max_span=max_span, limit=limit)
    worst = next(
        (source, u, v, max_span)
        for source, g, position in sides
        for u, v in g.edges()
        if abs(position[u] - position[v]) == max_span
    )
    return SpanCheck(
        ok=False, max_span=max_span, limit=limit, counterexample=worst
    )


def format_certificate(cert: WidthCertificate) -> str:
    """Certificate file: composed edge list, cover block, then the widths."""
    return (
        format_edge_list(cert.graph)
        + format_cover(cert.cliques)
        + f"w1 {cert.w1}\n"
        + f"w2 {cert.w2}\n"
        + f"bound {cert.bound}\n"
        + f"achieved {cert.achieved}\n"
    )


def read_certificate(r: LineReader) -> WidthCertificate:
    """Certificate block: edge list, cover, then the four width lines."""
    graph = read_edge_list(r)
    cliques = tuple(map(frozenset, read_cover(r)))
    widths = (r.expect(key) for key in ("w1", "w2", "bound", "achieved"))
    return WidthCertificate(graph, cliques, *widths)


def parse_certificate(text: str) -> WidthCertificate:
    """Parse a certificate file without validating it (the verifier does)."""
    return read_certificate(LineReader(text, "certificate"))
