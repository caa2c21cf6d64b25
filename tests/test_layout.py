import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccwidth import (
    Graph,
    LinearOrdering,
    OrderedCliqueCover,
    complete_graph,
    cover_graph,
    cover_width,
    format_cover,
    format_ordering,
    ordering_width,
    parse_cover,
    parse_ordering,
    path_graph,
    validate_cover,
)
from ccwidth.layout import index_width
from conftest import iter_clique_partitions, random_graph_corpus


class TestLinearOrdering:
    def test_inverse(self):
        o = LinearOrdering([2, 0, 1])
        assert o.position == (1, 2, 0)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            LinearOrdering([0, 0, 1])
        with pytest.raises(ValueError):
            LinearOrdering([0, 2])


class TestOrderingWidth:
    def test_path_identity(self):
        assert ordering_width(path_graph(4), LinearOrdering(range(4))) == 1

    def test_triangle_any_order(self):
        assert ordering_width(complete_graph(3), [1, 2, 0]) == 2

    def test_edgeless(self):
        assert ordering_width(Graph(3, []), [2, 0, 1]) == 0

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            ordering_width(path_graph(3), [0, 1])


class TestCoverValidation:
    def test_valid(self):
        assert validate_cover(path_graph(3), [{0, 1}, {2}]).ok

    def test_non_clique_class(self):
        check = validate_cover(path_graph(3), [{0, 2}, {1}])
        assert not check
        assert "not a clique" in check.reason

    def test_uncovered_vertex(self):
        check = validate_cover(path_graph(3), [{0, 1}])
        assert not check
        assert "uncovered" in check.reason

    def test_duplicate_vertex(self):
        check = validate_cover(path_graph(3), [{0, 1}, {1, 2}])
        assert not check
        assert "duplicate" in check.reason

    def test_empty_class(self):
        check = validate_cover(path_graph(3), [{0, 1}, set(), {2}])
        assert not check
        assert "empty" in check.reason

    def test_out_of_range(self):
        check = validate_cover(path_graph(3), [{0, 1}, {2, 9}])
        assert not check
        assert "out of range" in check.reason

    def test_constructor_rejects_invalid(self):
        with pytest.raises(ValueError, match="not a clique"):
            OrderedCliqueCover(path_graph(3), [{0, 2}, {1}])


class TestCoverWidth:
    def test_single_clique_is_zero(self):
        c = OrderedCliqueCover(complete_graph(4), [{0, 1, 2, 3}])
        assert cover_width(c) == 0

    def test_path3_split(self):
        c = OrderedCliqueCover(path_graph(3), [{0, 1}, {2}])
        assert cover_width(c) == 1

    def test_path5_three_cliques(self):
        c = OrderedCliqueCover(path_graph(5), [{0, 1}, {2, 3}, {4}])
        assert cover_width(c) == 1

    def test_reversal_invariance_random(self):
        rng = random.Random("reverse")
        for g in random_graph_corpus("reversal", 40, 1, 6):
            parts = _random_partition(rng, g)
            c = OrderedCliqueCover(g, parts)
            assert cover_width(c) == cover_width(OrderedCliqueCover(g, c.cliques[::-1]))

    def test_cached_width_matches_a_fresh_computation(self):
        rng = random.Random("cached")
        for g in random_graph_corpus("cached-width", 40, 1, 7):
            c = OrderedCliqueCover(g, _random_partition(rng, g))
            reversed_c = OrderedCliqueCover(g, c.cliques[::-1])
            for cover in (c, reversed_c, OrderedCliqueCover(g, c.cliques)):
                index = {v: i for i, cl in enumerate(cover.cliques) for v in cl}
                fresh = index_width(g, index)
                assert cover_width(cover) == fresh
                assert cover_width(cover) == fresh  # read back from the cache


def _random_partition(rng, g):
    parts = list(iter_clique_partitions(g))
    choice = parts[rng.randrange(len(parts))]
    rng.shuffle(choice)
    return choice


class TestCoverGraph:
    def test_single_class(self):
        c = OrderedCliqueCover(complete_graph(3), [{0, 1, 2}])
        q = cover_graph(c)
        assert q.n == 1 and q.edge_count == 0

    def test_path3(self):
        c = OrderedCliqueCover(path_graph(3), [{0, 1}, {2}])
        q = cover_graph(c)
        assert q.n == 2 and q.edges() == [(0, 1)]

    def test_path5_contracts_to_path3(self):
        c = OrderedCliqueCover(path_graph(5), [{0, 1}, {2, 3}, {4}])
        q = cover_graph(c)
        assert q.n == 3 and q.edges() == [(0, 1), (1, 2)]

    def test_quotient_identity_width_equals_cover_width(self):
        # the cover width is the bandwidth of the quotient under the
        # identity ordering, for arbitrary covers
        rng = random.Random("quotient")
        for g in random_graph_corpus("quotient-eq", 50, 1, 7):
            parts = _random_partition(rng, g)
            c = OrderedCliqueCover(g, parts)
            q = cover_graph(c)
            assert ordering_width(q, LinearOrdering(range(q.n))) == cover_width(c)


class TestBlockSeparation:
    """Removing w consecutive cliques separates the left and right remainders."""

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


class TestCoverFormat:
    def test_round_trip(self):
        g = path_graph(5)
        c = OrderedCliqueCover(g, [{0, 1}, {2, 3}, {4}])
        text = format_cover(c.cliques)
        assert text == "cover 3\n0 1\n2 3\n4\n"
        assert parse_cover(text, g) == c
        assert format_cover(parse_cover(text, g).cliques) == text

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_cover("", path_graph(2))
        with pytest.raises(ValueError):
            parse_cover("cover 2\n0 1\n", path_graph(3))


class TestOrderingFormat:
    def test_round_trip(self):
        o = LinearOrdering([2, 0, 1])
        text = format_ordering(o)
        assert text == "ordering 3\n2 0 1\n"
        assert parse_ordering(text) == o

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_ordering("ordering 3\n0 1\n")
        with pytest.raises(ValueError):
            parse_ordering("order 3\n0 1 2\n")


@settings(max_examples=100)
@given(st.integers(1, 7), st.data())
def test_cover_width_reversal_property(n, data):
    import itertools

    pairs = list(itertools.combinations(range(n), 2))
    edges = (
        data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    )
    g = Graph(n, edges)
    parts = list(iter_clique_partitions(g))
    choice = parts[data.draw(st.integers(0, len(parts) - 1))]
    c = OrderedCliqueCover(g, choice)
    assert cover_width(c) == cover_width(OrderedCliqueCover(g, c.cliques[::-1]))
