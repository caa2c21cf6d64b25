"""Shared test fixtures and one independent oracle per layer.

Each oracle computes what a library layer computes by a route that does
not call that layer: raw permutations, plain subset enumeration, pair
by pair checks or the definition itself.  By layer, the oracle and the
test that uses it:

* graph core (``graph.py``): ``set_adjacency`` builds neighbor sets
  from an edge list and ``sorted_edges`` tests every pair's mask bit
  (``test_graph.py::TestBitmaskCore::test_bits_build_matches_edge_list_build``);
  ``edge_list_clique_sum`` glues two edge lists, numbering g2's
  unshared vertices by the README rule
  (``TestBitmaskCore::test_clique_sum_matches_edge_list_oracle``);
  ``brute_clique_number`` and ``brute_star_number`` enumerate subsets
  (``TestCliqueNumber``, ``TestStarNumber``).  ``neighbor_sets`` builds
  neighbor sets from ``Graph.edges``, never from the masks, for the
  oracles below.
* layout (``layout.py``): ``set_validate_cover`` checks a cover pair by
  pair with the same reason strings
  (``test_layout.py::TestCoverValidation::test_same_first_problem_as_set_oracle``);
  ``quotient_edges`` lists a cover's quotient edges
  (``TestCoverGraph::test_matches_quotient_oracle``); ``sorted_edges``
  anchors ``index_width`` (``test_index_width_matches_edge_list_oracle``).
* bandwidth (``solvers.bandwidth_exact``): ``brute_bandwidth`` minimizes
  over raw permutations (``TestBandwidthExact::test_matches_brute_force``);
  ``dfs_bandwidth`` and ``feasible_ordering``, a position-by-position
  DFS, give the lex-smallest witness (``test_bandwidth_matches_dfs``,
  ``test_bandwidth_matches_dfs_above_ten_vertices``,
  ``TestDecisionsAtEveryK``).
* clique cover width (``solvers.ccw_exact``): ``brute_ccw`` crosses a
  restricted-growth partition enumeration (``_all_clique_partitions``)
  with part permutations (``TestCcwExact::test_matches_brute_force``);
  ``enumerate_ccw`` solves the quotient bandwidth of every clique
  partition for the lex-smallest witness
  (``test_ccw_matches_partition_enumeration``); ``unpruned_ccw`` and
  ``unpruned_cover_within`` are the ordered-cover search without its
  fit prune, the only witness check above n = 8
  (``test_ccw_matches_unpruned_search``,
  ``test_ccw_decisions_match_unpruned_search_at_every_k``); their
  candidate cliques are ``lex_cliques``, every clique found by
  ``combinations`` and sorted, not the library's clique generator.
  ``validate_cover`` anchors the witnesses built from search bitmasks
  (``test_layout.py::TestCoverValidation::test_masks_fail_as_validate_cover_does``).
  The experiment's ``ccw_exact`` column is replayed through
  ``ccw_exact`` and checked against its bounds
  (``test_determinism.py::test_ccw_column_is_bracketed_and_exact``).
  ``iter_clique_partitions`` lists every clique partition in canonical
  order, for ``enumerate_ccw`` and the tests that walk all covers
  (``TestIterCliquePartitions`` checks it against the partition
  enumeration).
* composition (``composition.py``): ``zip_interleaved_sequence``
  builds the interleave from strip lists (``strips_around``), the
  enclosing-block search (``locate_enclosing_block``) and a
  zip-and-alternate pass (``interleave``)
  (``test_composition.py::TestStripKeyInterleave::test_matches_zip_oracle``);
  ``scan_insertion`` scores every insertion position by its widest edge
  (``TestComposeCoversCorpus::test_best_insertion_matches_position_scan``);
  ``quotient_edges`` with ``dfs_bandwidth`` checks the side-kept
  fallback (``TestSideKeptFallback::test_achieved_is_the_narrower_side_kept_bandwidth``).

Fixtures and corpora: ``sorted_cover`` is a cover's canonical form, its
cliques as sorted tuples.  The ``scrambled_layout`` fixture swaps in an
interleave that breaks the span guarantee, for the failing side of the
edge-span check.  ``band_sum_instance`` glues two seeded banded sides
with long covers, a regime the small random instances rarely reach,
``fallback_instance`` draws the ``fb-*`` corpora, and ``wide_side_sum``
is a width-0 side whose whole-clique insertion misses the bound.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import random
import warnings
from itertools import zip_longest
from typing import Iterable, Iterator, Sequence, TypeVar

import pytest
from hypothesis import strategies as st

import ccwidth.composition
from ccwidth import (
    CliqueSumInstance,
    CoverCheck,
    Graph,
    OrderedCliqueCover,
    cover_width,
    is_clique,
    random_clique_sum_instance,
)
from ccwidth.generators import _count_cliques, _nth_clique

T = TypeVar("T")

# Hypothesis imports libcst to report a failing example, and that import
# warns of a deprecation.  Under ``-W error`` on the command line, which
# outranks the pyproject filters, the warning would abort the whole run
# instead, so libcst is imported here once with that one message ignored.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning
    )
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass


def brute_bandwidth(g: Graph) -> int:
    best = None
    edges = g.edges()
    for perm in itertools.permutations(range(g.n)):
        pos = {v: i for i, v in enumerate(perm)}
        width = max((abs(pos[u] - pos[v]) for u, v in edges), default=0)
        if best is None or width < best:
            best = width
    assert best is not None
    return best


def _all_clique_partitions(g: Graph):
    """Independent partition enumeration: restricted growth strings."""
    n = g.n
    if n == 0:
        yield []
        return

    def grow(assignment: list[int], classes: int):
        v = len(assignment)
        if v == n:
            parts: list[list[int]] = [[] for _ in range(classes)]
            for vert, cls in enumerate(assignment):
                parts[cls].append(vert)
            yield parts
            return
        for cls in range(classes + 1):
            yield from grow(assignment + [cls], max(classes, cls + 1))

    adj = neighbor_sets(g)
    for parts in grow([], 0):
        if all(
            v in adj[u]
            for part in parts
            for u, v in itertools.combinations(part, 2)
        ):
            yield parts


def iter_clique_partitions(g: Graph) -> Iterator[list[list[int]]]:
    """All partitions of V(g) into cliques, canonically ordered.

    Classes appear in order of their smallest vertex and each class lists
    its vertices increasingly.  Every partition is emitted exactly once.
    Yielded lists are fresh copies safe to keep.
    """
    n = g.n
    if n == 0:
        yield []
        return
    classes: list[list[int]] = []
    class_bits: list[int] = []

    def assign(v: int) -> Iterator[list[list[int]]]:
        if v == n:
            yield [list(cl) for cl in classes]
            return
        vbits = g._bits[v]
        for i in range(len(classes)):
            if class_bits[i] & ~vbits:
                continue  # v is not adjacent to some member
            classes[i].append(v)
            class_bits[i] |= 1 << v
            yield from assign(v + 1)
            class_bits[i] &= ~(1 << v)
            classes[i].pop()
        classes.append([v])
        class_bits.append(1 << v)
        yield from assign(v + 1)
        classes.pop()
        class_bits.pop()

    yield from assign(0)


def brute_ccw(g: Graph) -> int:
    best = None
    edges = g.edges()
    for parts in _all_clique_partitions(g):
        for perm in itertools.permutations(parts):
            idx = {}
            for i, part in enumerate(perm):
                for v in part:
                    idx[v] = i
            width = max((abs(idx[u] - idx[v]) for u, v in edges), default=0)
            if best is None or width < best:
                best = width
    assert best is not None
    return best


def feasible_ordering(g: Graph, k: int) -> list[int] | None:
    """First (lex-smallest) ordering of width <= k found by pruned DFS."""
    n = g.n
    order: list[int] = []
    pos_of = [-1] * n
    unplaced_nbrs = [g.degree(v) for v in range(n)]
    adj = neighbor_sets(g)

    def place(p: int) -> bool:
        if p == n:
            return True
        # A vertex whose window closed must have no unplaced neighbors.
        if p - k - 1 >= 0 and unplaced_nbrs[order[p - k - 1]] > 0:
            return False
        for u in order:
            un = unplaced_nbrs[u]
            if un and un > pos_of[u] + k - p + 1:
                return False
        for v in range(n):
            if pos_of[v] != -1:
                continue
            ok = True
            for u in adj[v]:
                q = pos_of[u]
                if q != -1 and p - q > k:
                    ok = False
                    break
            if not ok:
                continue
            pos_of[v] = p
            order.append(v)
            for u in adj[v]:
                unplaced_nbrs[u] -= 1
            if place(p + 1):
                return True
            for u in adj[v]:
                unplaced_nbrs[u] += 1
            order.pop()
            pos_of[v] = -1
        return False

    if place(0):
        return order
    return None


def dfs_bandwidth(g: Graph, cap: int | None = None) -> tuple[int, list[int]] | None:
    """Bandwidth and the lex-smallest optimal ordering, if the width is <= cap.

    Tries k = ceil(maxdeg / 2), ... with :func:`feasible_ordering`.
    """
    if g.n == 0:
        return (0, [])
    lo = max(-(-g.degree(v) // 2) for v in range(g.n))
    hi = g.n - 1 if cap is None else min(cap, g.n - 1)
    for k in range(lo, hi + 1):
        order = feasible_ordering(g, k)
        if order is not None:
            return k, order
    return None


def quotient_edges(g: Graph, classes: list[list[int]]) -> list[tuple[int, int]]:
    bits = [sum(1 << v for v in cl) for cl in classes]
    nbr = []
    for cl in classes:
        acc = 0
        for v in cl:
            acc |= g._bits[v]
        nbr.append(acc)
    edges = []
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            if nbr[i] & bits[j]:
                edges.append((i, j))
    return edges


def enumerate_ccw(g: Graph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """ccw and the lex-smallest optimal cover, by partition enumeration.

    Solves the quotient bandwidth of every clique partition exactly and
    keeps the smallest width, breaking ties by the lex-smallest cover
    (classes as sorted tuples, in the optimal quotient ordering).
    """
    best_value: int | None = None
    best_cover: tuple[tuple[int, ...], ...] | None = None
    for classes in iter_clique_partitions(g):
        t1 = len(classes)
        quotient = Graph(t1, quotient_edges(g, classes))
        found = dfs_bandwidth(quotient, best_value)
        if found is None:
            continue
        value, qorder = found
        candidate = tuple(tuple(classes[i]) for i in qorder)
        if (
            best_value is None
            or value < best_value
            or (value == best_value and candidate < best_cover)
        ):
            best_value = value
            best_cover = candidate
    assert best_value is not None and best_cover is not None
    return best_value, best_cover


@functools.cache
def lex_cliques(nbrs: tuple[int, ...]) -> list[tuple[int, int]]:
    """Every clique of the graph as (mask, neighbor mask), in lex order.

    ``nbrs`` are the neighborhood masks.  Takes ``combinations`` of the
    vertices size by size, until a size has no clique, and sorts the
    cliques as vertex tuples: (0), (0, 1), (0, 1, 2), (0, 2), (1), ...
    Cached, since a test decides every k on one graph.
    """
    n = len(nbrs)
    found = []
    for size in range(1, n + 1):
        sized = [
            clique
            for clique in itertools.combinations(range(n), size)
            if all(nbrs[u] >> v & 1 for u, v in itertools.combinations(clique, 2))
        ]
        if not sized:
            break
        found += sized
    out = []
    for clique in sorted(found):
        mask = clique_nbrs = 0
        for v in clique:
            mask |= 1 << v
            clique_nbrs |= nbrs[v]
        out.append((mask, clique_nbrs))
    return out


def unpruned_cover_within(nbrs: list[int], k: int) -> list[int] | None:
    """First ordered clique cover of width <= k, with no fit prune.

    Each step tries, in lex order, the cliques of :func:`lex_cliques`
    that lie in the unplaced set and hold what the leaving clique needs.
    """
    n = len(nbrs)
    cliques = lex_cliques(tuple(nbrs))
    cover: list[int] = []
    failed: set[int] = set()

    def extend(unplaced: int, window: tuple[int, ...]) -> bool:
        if not unplaced:
            return True
        key = unplaced
        for nb in window:
            key = key << n | nb & unplaced
        if key in failed:
            return False
        leaving = 1 if k and len(window) == k else 0
        need = window[0] & unplaced if leaving else 0
        for clique, clique_nbrs in cliques:
            if clique & ~unplaced or need & ~clique:
                continue
            rest = unplaced & ~clique
            if k:
                after = window[leaving:] + (clique_nbrs,)
            elif clique_nbrs & rest:
                continue
            else:
                after = ()
            cover.append(clique)
            if extend(rest, after):
                return True
            cover.pop()
        failed.add(key)
        return False

    if extend((1 << n) - 1, ()):
        return cover
    return None


def unpruned_ccw(g: Graph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """ccw and the lex-smallest optimal cover, deciding k = 0, 1, ... unpruned."""
    nbrs = g._bits
    k = 0
    while (cover := unpruned_cover_within(nbrs, k)) is None:
        k += 1
    return k, tuple(tuple(v for v in range(g.n) if m >> v & 1) for m in cover)


def scan_insertion(
    g: Graph,
    raw: Sequence[frozenset[int]],
    item: frozenset[int],
    anchor: int,
) -> tuple[int, list[frozenset[int]]]:
    """Insert ``item`` where the compacted sequence width is smallest.

    Ties prefer the position nearest ``anchor`` (then the leftmost), so
    the regular geometry reproduces the natural middle placement and
    the result is deterministic.  Returns (width, compacted sequence).
    Each candidate's width is its widest edge of ``g.edges()``.
    """
    edges = g.edges()
    best_key: tuple[int, int, int] | None = None
    best_final: list[frozenset[int]] | None = None
    for q in range(len(raw) + 1):
        final = [cl for cl in raw[:q] if cl]
        final.append(item)
        final.extend(cl for cl in raw[q:] if cl)
        idx = {v: i for i, cl in enumerate(final) for v in cl}
        width = max((abs(idx[u] - idx[v]) for u, v in edges), default=0)
        key = (width, abs(q - anchor), q)
        if best_key is None or key < best_key:
            best_key = key
            best_final = final
    assert best_key is not None and best_final is not None
    return best_key[0], best_final


def set_adjacency(
    n: int, edges: Iterable[tuple[int, int]]
) -> tuple[tuple[frozenset[int], ...], tuple[int, ...]]:
    """(neighbor sets, neighborhood masks) built set by set from an edge list."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    sets = tuple(frozenset(s) for s in adj)
    return sets, tuple(sum(1 << w for w in s) for s in sets)


def neighbor_sets(g: Graph) -> tuple[frozenset[int], ...]:
    """Each vertex's neighbor set, built from ``g.edges()``."""
    return set_adjacency(g.n, g.edges())[0]


def sorted_edges(g: Graph) -> list[tuple[int, int]]:
    """Edges (u, v), u < v, by testing the mask bit of every pair in order."""
    return [
        (u, v)
        for u, v in itertools.combinations(range(g.n), 2)
        if g._bits[u] >> v & 1
    ]


def sorted_cover(c: OrderedCliqueCover) -> tuple[tuple[int, ...], ...]:
    """Canonical form of a cover: each clique as a sorted tuple, in order."""
    return tuple(tuple(sorted(cl)) for cl in c.cliques)


def edge_list_clique_sum(g1: Graph, g2: Graph, shared: dict[int, int]) -> Graph:
    """The clique sum rebuilt from both edge lists, g2's renumbered.

    As the README states, g1's vertices keep their numbers, each shared
    g2 vertex takes its g1 partner's, and the unshared g2 vertices follow
    g1's in g2 order.
    """
    mapping = {v2: v1 for v1, v2 in shared.items()}
    n = g1.n
    for v in range(g2.n):
        if v not in mapping:
            mapping[v] = n
            n += 1
    edges = sorted_edges(g1)
    edges.extend((mapping[u], mapping[v]) for u, v in sorted_edges(g2))
    return Graph(n, edges)


def set_validate_cover(g: Graph, cliques: Sequence[Iterable[int]]) -> CoverCheck:
    """``validate_cover`` on vertex sets, pair by pair, same reasons."""
    adj = neighbor_sets(g)
    seen: set[int] = set()
    materialized: list[list[int]] = []
    for pos, cl in enumerate(cliques):
        vs = sorted(set(cl))
        if not vs:
            return CoverCheck(False, f"empty clique at position {pos}")
        for v in vs:
            if not 0 <= v < g.n:
                return CoverCheck(False, f"vertex {v} out of range for n={g.n}")
            if v in seen:
                return CoverCheck(False, f"duplicate vertex {v}")
            seen.add(v)
        materialized.append(vs)
    for v in range(g.n):
        if v not in seen:
            return CoverCheck(False, f"vertex {v} uncovered")
    for pos, vs in enumerate(materialized):
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                if v not in adj[u]:
                    return CoverCheck(
                        False,
                        f"class at position {pos} is not a clique: "
                        f"{u} and {v} are not adjacent",
                    )
    return CoverCheck(True)


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
    hit = [c._index_of[v] for v in vs]
    lo, hi = min(hit), max(hit)
    length = min(max(block_size(c), hi - lo + 1), c.size)
    start = min(lo, c.size - length)
    return range(start, start + length)


def _anchor_block(c: OrderedCliqueCover, vs: frozenset[int]) -> range:
    """Block-sized window anchored on the cliques meeting ``vs``.

    When the enclosing window spans w + 1 cliques, one more than a block
    can hold, keeps its left w cliques; the last clique then sits
    immediately outside the anchor.  Both ends of such a window meet
    ``vs``, so either w-clique sub-window covers the same number of the
    cliques meeting it, and the left one is the tie-break.
    """
    return locate_enclosing_block(c, vs)[: block_size(c)]


def interleave(s1: Sequence[T], s2: Sequence[T]) -> list[T]:
    """Alternate two sequences starting with the second, then append the rest.

    Output is s2[0], s1[0], s2[1], s1[1], ... until one side runs out,
    followed by the remainder of the other side.  Either side may be
    empty, in which case the other is returned unchanged.
    """
    out: list[T] = []
    for i in range(max(len(s1), len(s2))):
        if i < len(s2):
            out.append(s2[i])
        if i < len(s1):
            out.append(s1[i])
    return out


def zip_interleaved_sequence(
    c1: OrderedCliqueCover,
    c2: OrderedCliqueCover,
    shared: dict[int, int],
) -> tuple[tuple[tuple[int, int], ...], int, int]:
    """(seq, block_start, block_length) of the strip interleave.

    Strips are counted outward from each side's anchor block, and the
    two strips at the same distance from their blocks are interleaved; a
    strip without a partner on the other side passes through unchanged.
    """
    if not shared:
        raise ValueError("interleaved sequence requires a nonempty shared set")
    b1 = _anchor_block(c1, frozenset(shared.keys()))
    b2 = _anchor_block(c2, frozenset(shared.values()))
    left1, right1 = strips_around(c1, b1)
    left2, right2 = strips_around(c2, b2)

    def paired(a: Sequence[int], b: Sequence[int]) -> list[tuple[int, int]]:
        return interleave([(1, i) for i in a], [(2, i) for i in b])

    left = [paired(a, b) for a, b in zip_longest(left1, left2, fillvalue=())]
    seq = [entry for segment in reversed(left) for entry in segment]
    block_start = len(seq)
    seq += paired(b1, b2)
    block_length = len(seq) - block_start
    for a, b in zip_longest(right1, right2, fillvalue=()):
        seq += paired(a, b)
    return tuple(seq), block_start, block_length


# The path sum t = 3 (two 7-vertex paths, singleton covers) scrambled so
# that three edges span 11 positions against a guarantee of 3: edge
# (0, 1) and then (4, 5) of side 1, and edge (0, 1) of side 2.
SCRAMBLED_SEQ = (
    (1, 0), (1, 4), (2, 0), (1, 3), (2, 2), (2, 3), (2, 4),
    (2, 5), (2, 6), (1, 6), (1, 2), (1, 1), (1, 5), (2, 1),
)


@pytest.fixture
def scrambled_layout(monkeypatch):
    """Make the interleave return ``SCRAMBLED_SEQ`` as its sequence.

    Patches ``composition._interleave``, the one interleave that compose
    and the span check build their layout with, and empties the layout
    a compose left for the span check, so none built before the patch
    is reused under it and none built under it outlives the test.
    """
    real = ccwidth.composition._interleave
    monkeypatch.setattr(ccwidth.composition, "_last_interleave", (None,) * 4)

    def scrambled(c1, c2, shared):
        return dataclasses.replace(real(c1, c2, shared), seq=SCRAMBLED_SEQ)

    monkeypatch.setattr(ccwidth.composition, "_interleave", scrambled)


def band_side(rng: random.Random, t: int, w: int) -> tuple[Graph, OrderedCliqueCover]:
    """A banded graph and its band cover: ``t`` cliques in a row, relabelled.

    Each clique holds 1-3 vertices, all adjacent.  Two vertices in
    cliques at distance 1..w are adjacent with one probability p drawn
    from U(0.2, 0.9), so the cover has width at most w.  The vertices
    are then relabelled by a random permutation.
    """
    home = [i for i in range(t) for _ in range(rng.randint(1, 3))]
    n = len(home)
    label = list(range(n))
    rng.shuffle(label)
    p = rng.uniform(0.2, 0.9)
    edges = [
        (label[u], label[v])
        for u, v in itertools.combinations(range(n), 2)
        if home[u] == home[v] or (home[v] - home[u] <= w and rng.random() < p)
    ]
    g = Graph(n, edges)
    cliques = [[label[v] for v in range(n) if home[v] == i] for i in range(t)]
    return g, OrderedCliqueCover(g, cliques)


def band_sum_instance(
    rng: random.Random, t_lo: int, t_hi: int, w: int, shared_max: int = 4
) -> CliqueSumInstance:
    """Two :func:`band_side` sides with t_lo..t_hi cliques each, glued.

    The shared clique is drawn as ``random_clique_sum_instance`` draws
    it: a size in 1..shared_max, smaller when a side has no clique that
    large, a uniform clique of that size on each side, and a random
    bijection between them.
    """
    g1, c1 = band_side(rng, rng.randint(t_lo, t_hi), w)
    g2, c2 = band_side(rng, rng.randint(t_lo, t_hi), w)
    for k in range(rng.randint(1, min(shared_max, g1.n, g2.n)), 0, -1):
        q1 = _count_cliques(g1._bits, (1 << g1.n) - 1, k)
        q2 = _count_cliques(g2._bits, (1 << g2.n) - 1, k)
        if q1 and q2:
            break
    side1 = list(_nth_clique(g1._bits, k, rng.choice(range(q1))))
    side2 = list(_nth_clique(g2._bits, k, rng.choice(range(q2))))
    rng.shuffle(side2)
    return CliqueSumInstance(g1, c1, g2, c2, dict(zip(side1, side2)))


# Generator settings of the fallback corpora ``fb-{s}-{i}``.
FALLBACK_PARAMS = {
    0: {},
    1: dict(p_lo=0.4, p_hi=0.9),
    2: dict(p_lo=0.1, p_hi=0.5),
}


def fallback_instance(s: int, i: int) -> CliqueSumInstance:
    """Instance ``fb-{s}-{i}``: sides up to 9 vertices, shared up to 5."""
    rng = random.Random(f"fb-{s}-{i}")
    return random_clique_sum_instance(rng, n_hi=9, shared_max=5, **FALLBACK_PARAMS[s])


def wide_side_sum() -> CliqueSumInstance:
    """An edge glued onto an edge of a width-2 side, which it vanishes into.

    Side 2's cover splits the shared pair {1, 5} over two cliques, so
    keeping side 1's edge whole and inserting it reaches width 4 against
    a bound of 3; the composed graph is side 2 relabelled, of width 2.
    """
    g1 = Graph(2, [(0, 1)])
    g2 = Graph(9, [(0, 5), (1, 2), (1, 3), (1, 5), (1, 7), (4, 5), (5, 6), (5, 8)])
    c1 = OrderedCliqueCover(g1, [[0, 1]])
    c2 = OrderedCliqueCover(g2, [[7], [2], [1, 3], [8], [4, 5], [0], [6]])
    return CliqueSumInstance(g1, c1, g2, c2, {0: 5, 1: 1})


def brute_clique_number(g: Graph) -> int:
    adj = neighbor_sets(g)
    best = 0
    for size in range(1, g.n + 1):
        for sub in itertools.combinations(range(g.n), size):
            if all(v in adj[u] for u, v in itertools.combinations(sub, 2)):
                best = size
    return best


def brute_star_number(g: Graph) -> int:
    adj = neighbor_sets(g)
    best = 0
    for center in range(g.n):
        nbrs = sorted(adj[center])
        for size in range(1, len(nbrs) + 1):
            for sub in itertools.combinations(nbrs, size):
                if not any(
                    v in adj[u] for u, v in itertools.combinations(sub, 2)
                ):
                    best = max(best, size)
    return best


def random_graph_corpus(
    seed: str, count: int, n_lo: int, n_hi: int, p_lo: float = 0.15, p_hi: float = 0.85
):
    """Seeded list of random graphs for cross-checking corpora."""
    out = []
    for i in range(count):
        rng = random.Random(f"{seed}-{i}")
        n = rng.randint(n_lo, n_hi)
        p = rng.uniform(p_lo, p_hi)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        out.append(Graph(n, edges))
    return out


def all_labeled_graphs(n: int):
    """Every labeled graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        yield Graph(n, edges)


@st.composite
def graphs(draw, min_n=1, max_n=6):
    """Hypothesis strategy: a graph with each vertex pair drawn as edge or not."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])
