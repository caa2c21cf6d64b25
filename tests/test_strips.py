"""Strip keys, and the strip lists they replaced, kept as an oracle.

``conftest.strip_keys`` gives each clique of a cover its (strip, offset)
around an anchor block, and ``interleaved_sequence`` computes the same
keys inline and sorts the cliques of both covers by them.  The strip
lists, the enclosing-block search and the zip-and-alternate pass that
built the same sequence before live on in ``conftest`` as the oracle of
the differential test here, and keep their own unit tests.
"""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccwidth import (
    Graph,
    OrderedCliqueCover,
    complete_graph,
    cover_width,
    interleaved_sequence,
    is_clique,
    path_graph,
)
from conftest import (
    block_size,
    graphs,
    iter_clique_partitions,
    locate_enclosing_block,
    random_graph_corpus,
    strip_keys,
    strips_around,
    zip_interleaved_sequence,
)


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
    """The strip keys around a block: strip 0 is the block, then outward."""

    def test_seven_cliques_block_at_two(self):
        assert strip_keys(7, 2, 2) == [
            (-1, 0), (-1, 1), (0, 0), (0, 1), (1, 0), (1, 1), (2, 0)
        ]

    def test_five_cliques_block_at_one(self):
        assert strip_keys(5, 2, 1) == [(-1, 0), (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_short_outer_left_strip_counts_from_zero(self):
        assert strip_keys(5, 2, 3) == [(-2, 0), (-1, 0), (-1, 1), (0, 0), (0, 1)]

    def test_block_is_entire_cover(self):
        assert strip_keys(3, 3, 0) == [(0, 0), (0, 1), (0, 2)]

    def test_width_zero_cover_uses_block_size_one(self):
        c = OrderedCliqueCover(complete_graph(4), [{0, 1, 2, 3}])
        layout = interleaved_sequence(c, c, {0: 0})
        assert (layout.seq, layout.block_start, layout.block_length) == (
            ((2, 0), (1, 0)), 0, 2
        )
        c = OrderedCliqueCover(Graph(3), [{0}, {1}, {2}])
        layout = interleaved_sequence(c, c, {1: 1})
        assert layout.seq == ((2, 0), (1, 0), (2, 1), (1, 1), (2, 2), (1, 2))
        assert (layout.block_start, layout.block_length) == (2, 2)

    def _assert_tiling(self, c, w, start, keys):
        strips = [s for s, _ in keys]
        # strip 0 is the block: the w cliques from the anchor
        assert [i for i, s in enumerate(strips) if s == 0] == list(
            range(start, start + w)
        )
        # keys increase with the clique index, so every strip is a run of
        # consecutive cliques and the strips come in order, none skipped
        assert keys == sorted(set(keys))
        assert sorted(set(strips)) == list(range(strips[0], strips[-1] + 1))
        for s in set(strips):
            offsets = [o for t, o in keys if t == s]
            assert offsets == list(range(len(offsets)))
            # inner strips hold exactly w cliques, the outermost at most w
            if s in (strips[0], strips[-1]):
                assert len(offsets) <= w
            else:
                assert len(offsets) == w
        # the same tiling as the strip lists, nearest first on each side
        left, right = strips_around(c, range(start, start + w))
        for k, strip in enumerate(left, 1):
            assert [i for i, s in enumerate(strips) if s == -k] == list(strip)
        for k, strip in enumerate(right, 1):
            assert [i for i, s in enumerate(strips) if s == k] == list(strip)
        assert len(left) == -strips[0] and len(right) == strips[-1]

    def test_invariants_on_random_covers(self):
        rng = random.Random("strips")
        for g in random_graph_corpus("strip-inv", 60, 1, 7):
            parts_choices = list(iter_clique_partitions(g))
            parts = parts_choices[rng.randrange(len(parts_choices))]
            c = OrderedCliqueCover(g, parts)
            w = block_size(c)
            for start in range(c.size - w + 1):
                self._assert_tiling(c, w, start, strip_keys(c.size, w, start))


@st.composite
def interleave_cases(draw):
    """Two covers drawn from all clique partitions, and a shared clique map."""

    def cover():
        g = draw(graphs(max_n=7))
        parts = draw(st.sampled_from(list(iter_clique_partitions(g))))
        return OrderedCliqueCover(g, draw(st.permutations(parts)))

    def cliques(g, k):
        return [q for q in combinations(range(g.n), k) if is_clique(g, q)]

    c1, c2 = cover(), cover()
    sizes = [
        k
        for k in range(1, min(c1.graph.n, c2.graph.n) + 1)
        if cliques(c1.graph, k) and cliques(c2.graph, k)
    ]
    k = draw(st.sampled_from(sizes))
    side1 = draw(st.sampled_from(cliques(c1.graph, k)))
    side2 = draw(st.permutations(draw(st.sampled_from(cliques(c2.graph, k)))))
    return c1, c2, dict(zip(side1, side2))


_K3 = OrderedCliqueCover(complete_graph(3), [{0, 1, 2}])
_P3 = OrderedCliqueCover(path_graph(3), [{0, 1}, {2}])


class TestStripKeyInterleave:
    @settings(max_examples=300, deadline=None)
    @given(case=interleave_cases())
    @example(case=(_K3, _P3, {0: 1}))  # a width-0 cover
    @example(case=(_P3, _P3, {1: 1, 2: 2}))  # S straddles w + 1 cliques
    def test_matches_zip_oracle(self, case):
        """The strip-key sort builds the zip-and-alternate layout, both ways round."""
        c1, c2, shared = case
        for a, b, s in ((c1, c2, shared), (c2, c1, {v: u for u, v in shared.items()})):
            layout = interleaved_sequence(a, b, s)
            assert (
                layout.seq, layout.block_start, layout.block_length
            ) == zip_interleaved_sequence(a, b, s)


class TestLocateEnclosingBlock:
    """The oracle's enclosing-block search."""

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
