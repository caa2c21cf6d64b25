import random

import pytest

from ccwidth import (
    Graph,
    OrderedCliqueCover,
    block_size,
    complete_graph,
    cover_width,
    locate_enclosing_block,
    path_graph,
)
from ccwidth.strips import strips_around
from conftest import iter_clique_partitions, random_graph_corpus


def _chain_cover(num_cliques: int, width: int):
    """Cover of `num_cliques` single-vertex cliques whose width is `width`.

    Built from a path of cliques with one long edge forcing the width.
    """
    n = num_cliques
    edges = [(i, i + 1) for i in range(n - 1)]
    if width > 1:
        edges.append((0, width))
    g = Graph(n, edges)
    c = OrderedCliqueCover(g, [{i} for i in range(n)])
    assert cover_width(c) == width
    return c


class TestPartitionAroundBlock:
    """The strips around a block, listed outward from it on each side."""

    def test_seven_cliques_block_at_two(self):
        c = _chain_cover(7, 2)
        left, right = strips_around(c, range(2, 4))
        assert left == [range(0, 2)]
        assert right == [range(4, 6), range(6, 7)]

    def test_five_cliques_block_at_one(self):
        c = _chain_cover(5, 2)
        left, right = strips_around(c, range(1, 3))
        assert left == [range(0, 1)]
        assert right == [range(3, 5)]

    def test_block_is_entire_cover(self):
        c = _chain_cover(3, 2)
        assert strips_around(c, range(0, 3)) == ([], [])

    def test_width_zero_cover_uses_block_size_one(self):
        c = OrderedCliqueCover(complete_graph(4), [{0, 1, 2, 3}])
        assert block_size(c) == 1
        assert strips_around(c, range(0, 1)) == ([], [])

    def _assert_tiling(self, c, b, left, right):
        w = block_size(c)
        # contiguous going outward from the block on both sides
        edge = b.start
        for strip in left:
            assert strip.stop == edge
            edge = strip.start
        edge = b.stop
        for strip in right:
            assert strip.start == edge
            edge = strip.stop
        # inner strips hold exactly w cliques, the outermost at most w
        for side in (left, right):
            for i, strip in enumerate(side):
                if i == len(side) - 1:
                    assert 1 <= len(strip) <= w
                else:
                    assert len(strip) == w
        # together with the block they cover 0..size-1 exactly
        indices = [i for strip in left + [b] + right for i in strip]
        assert sorted(indices) == list(range(c.size))

    def test_invariants_on_random_covers(self):
        rng = random.Random("strips")
        for g in random_graph_corpus("strip-inv", 60, 1, 7):
            parts_choices = list(iter_clique_partitions(g))
            parts = parts_choices[rng.randrange(len(parts_choices))]
            c = OrderedCliqueCover(g, parts)
            w = block_size(c)
            for start in range(c.size - w + 1):
                b = range(start, start + w)
                left, right = strips_around(c, b)
                self._assert_tiling(c, b, left, right)


class TestLocateEnclosingBlock:
    def test_single_clique_window(self):
        c = OrderedCliqueCover(path_graph(5), [{0, 1}, {2, 3}, {4}])
        assert locate_enclosing_block(c, {2}) == range(1, 2)

    def test_span_equals_block_size(self):
        # width-2 cover where the set straddles two neighboring cliques
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3)])
        c = OrderedCliqueCover(g, [{0}, {1}, {2}, {3}, {4}, {5}])
        assert cover_width(c) == 2
        assert locate_enclosing_block(c, {2, 3}) == range(2, 4)

    def test_span_exceeding_block_size(self):
        # shared set straddling w+1 cliques: the window may exceed the
        # nominal block size by one
        c = OrderedCliqueCover(path_graph(3), [{0, 1}, {2}])
        assert cover_width(c) == 1
        assert locate_enclosing_block(c, {1, 2}) == range(0, 2)

    def test_expansion_prefers_rightward(self):
        c = _chain_cover(5, 2)
        assert locate_enclosing_block(c, {1}) == range(1, 3)

    def test_expansion_falls_back_leftward_at_boundary(self):
        c = _chain_cover(5, 2)
        assert locate_enclosing_block(c, {4}) == range(3, 5)

    def test_rejects_empty_set(self):
        c = _chain_cover(5, 2)
        with pytest.raises(ValueError, match="nonempty"):
            locate_enclosing_block(c, set())

    def test_rejects_non_clique(self):
        c = OrderedCliqueCover(path_graph(3), [{0, 1}, {2}])
        with pytest.raises(ValueError, match="clique"):
            locate_enclosing_block(c, {0, 2})

    def test_window_contains_every_hit_clique(self):
        rng = random.Random("locate")
        for g in random_graph_corpus("locate-inv", 60, 2, 7):
            parts = list(iter_clique_partitions(g))
            c = OrderedCliqueCover(g, parts[rng.randrange(len(parts))])
            # pick a random edge (always a 2-clique) or single vertex
            if g.edge_count and rng.random() < 0.7:
                edges = g.edges()
                s = set(edges[rng.randrange(len(edges))])
            else:
                s = {rng.randrange(g.n)}
            block = locate_enclosing_block(c, s)
            hits = [c.clique_index(v) for v in s]
            for i in hits:
                assert i in block
            # block size or hit span, whichever is larger, capped at the
            # cover; it starts at the first hit unless that runs past the end
            lo, hi = min(hits), max(hits)
            length = min(max(block_size(c), hi - lo + 1), c.size)
            start = lo if lo + length <= c.size else c.size - length
            assert block == range(start, start + length)


class TestBlockSeparation:
    """Removing a block's cliques separates the left and right remainders."""

    def test_exhaustive_on_random_covers(self):
        for g in random_graph_corpus("separation", 40, 1, 6):
            for parts in iter_clique_partitions(g):
                c = OrderedCliqueCover(g, parts)
                w = cover_width(c)
                for start in range(c.size - w + 1):
                    left = {
                        v for cl in c.cliques[:start] for v in cl
                    }
                    right = {
                        v for cl in c.cliques[start + w :] for v in cl
                    }
                    assert not any(
                        g.has_edge(u, v) for u in left for v in right
                    )
