import random

import pytest
from hypothesis import example, given, settings
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
from conftest import (
    graphs,
    iter_clique_partitions,
    quotient_edges,
    random_graph_corpus,
    set_validate_cover,
    sorted_cover,
    sorted_edges,
)


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


@st.composite
def mutated_covers(draw):
    """A graph and a vertex partition (cliques or not) after up to four edits.

    The edits insert an empty class, an out-of-range vertex, a vertex
    already placed, drop a vertex, or merge two classes, so every reason
    ``validate_cover`` can give comes up.
    """
    g = draw(graphs(max_n=7))
    labels = draw(st.lists(st.integers(0, g.n), min_size=g.n, max_size=g.n))
    cliques = [[v for v in range(g.n) if labels[v] == k] for k in range(g.n + 1)]
    cliques = draw(st.permutations([cl for cl in cliques if cl]))
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(["empty", "outside", "again", "drop", "merge"]))
        if edit == "empty" or not cliques:
            cliques.insert(draw(st.integers(0, len(cliques))), [])
            continue
        i = draw(st.integers(0, len(cliques) - 1))
        if edit == "outside":
            cliques[i].append(draw(st.sampled_from([-2, -1, g.n, g.n + 3])))
        elif edit == "again" and g.n:
            cliques[i].append(draw(st.integers(0, g.n - 1)))
        elif edit == "drop" and cliques[i]:
            del cliques[i][draw(st.integers(0, len(cliques[i]) - 1))]
        elif edit == "merge" and len(cliques) > 1:
            cliques[i - 1] += cliques.pop(i)
    return g, cliques


@st.composite
def mutated_masks(draw):
    """A graph and a vertex partition as bitmasks after up to four edits.

    The edits add a vertex placed elsewhere, insert an empty mask, set a
    bit at n or above, clear a bit, or merge two masks, so a mask list
    can overlap, be empty, go out of range, miss a vertex or hold a
    class that is not a clique.
    """
    g = draw(graphs(max_n=7))
    labels = draw(st.lists(st.integers(0, g.n), min_size=g.n, max_size=g.n))
    masks = [sum(1 << v for v in range(g.n) if labels[v] == k) for k in range(g.n + 1)]
    masks = draw(st.permutations([mask for mask in masks if mask]))
    edits = st.sampled_from(["overlap", "empty", "outside", "missing", "merge"])
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(edits)
        if edit == "empty" or not masks:
            masks.insert(draw(st.integers(0, len(masks))), 0)
            continue
        i = draw(st.integers(0, len(masks) - 1))
        if edit == "overlap" and g.n:
            masks[i] |= 1 << draw(st.integers(0, g.n - 1))
        elif edit == "outside":
            masks[i] |= 1 << draw(st.integers(g.n, g.n + 3))
        elif edit == "missing" and masks[i]:
            masks[i] &= ~(1 << draw(st.integers(0, masks[i].bit_length() - 1)))
        elif edit == "merge" and len(masks) > 1:
            masks[i - 1] |= masks.pop(i)
    return g, masks


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

    @settings(max_examples=400, deadline=None)
    @given(case=mutated_covers())
    @example(case=(path_graph(3), [[0, 1], [2]]))
    @example(case=(path_graph(3), [[0, 1], [], [2]]))
    @example(case=(path_graph(3), [[0, 1], [2, 5]]))
    @example(case=(path_graph(3), [[0], [-1, 0, 5]]))  # -1 sorts before the duplicate
    @example(case=(path_graph(3), [[0], [5, 0], [1]]))  # the duplicate before 5
    @example(case=(path_graph(3), [[0, 1, 1]]))
    @example(case=(path_graph(4), [[1, 0], [3, 2, 1, 1]]))
    @example(case=(path_graph(4), [[0, 1], [2], [0, 2, 3]]))
    def test_same_first_problem_as_set_oracle(self, case):
        g, cliques = case
        assert validate_cover(g, cliques) == set_validate_cover(g, cliques)

    @settings(max_examples=400, deadline=None)
    @given(case=mutated_masks())
    @example(case=(path_graph(3), [0b011, 0b100]))
    @example(case=(path_graph(3), [0b011, 0, 0b100]))
    @example(case=(path_graph(3), [0b011, 0b110]))  # overlap
    @example(case=(path_graph(3), [0b001, 0b1010, 0b100]))  # out of range after 1
    @example(case=(path_graph(3), [0b0011, 0b1011]))  # the duplicate before 3
    @example(case=(path_graph(3), [0b011]))  # uncovered
    @example(case=(path_graph(3), [0b101, 0b010]))  # not a clique
    def test_masks_fail_as_validate_cover_does(self, case):
        """A cover built from masks raises exactly when ``validate_cover`` fails."""
        g, masks = case
        cliques = [[v for v in range(m.bit_length()) if m >> v & 1] for m in masks]
        check = validate_cover(g, cliques)
        if check:
            cover = OrderedCliqueCover._from_masks(g, masks)
            assert cover == OrderedCliqueCover(g, cliques)
            assert cover_width(cover) == cover_width(OrderedCliqueCover(g, cliques))
        else:
            with pytest.raises(ValueError) as info:
                OrderedCliqueCover._from_masks(g, masks)
            assert str(info.value) == f"invalid clique cover: {check.reason}"


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


    def test_matches_quotient_oracle(self):
        rng = random.Random("quotient-oracle")
        for g in random_graph_corpus("quotient-oracle", 60, 1, 8):
            parts = _random_partition(rng, g)
            q = cover_graph(OrderedCliqueCover(g, parts))
            assert q == Graph(len(parts), quotient_edges(g, parts))
            assert q.edges() == quotient_edges(g, parts)


@st.composite
def ordered_partitions(draw, max_n=14):
    """An ordered partition of 0..n-1: a shuffled order cut into runs."""
    order = draw(st.permutations(range(draw(st.integers(0, max_n)))))
    cuts = draw(st.sets(st.integers(1, max(len(order) - 1, 1))))
    bounds = [0, *sorted(c for c in cuts if c < len(order)), len(order)]
    return [order[a:b] for a, b in zip(bounds, bounds[1:]) if a < b]


class TestCoverFormat:
    def test_round_trip(self):
        g = path_graph(5)
        c = OrderedCliqueCover(g, [{0, 1}, {2, 3}, {4}])
        text = format_cover(c.cliques)
        assert text == "cover 3\n0 1\n2 3\n4\n"
        assert parse_cover(text, g) == c
        assert format_cover(parse_cover(text, g).cliques) == text

    @settings(max_examples=150, deadline=None)
    @given(ordered_partitions())
    def test_matches_sorted_cover_oracle(self, classes):
        # any ordered partition of a complete graph is a clique cover
        c = OrderedCliqueCover(complete_graph(sum(map(len, classes))), classes)
        rows = sorted_cover(c)
        expected = f"cover {len(rows)}\n" + "".join(
            " ".join(str(v) for v in row) + "\n" for row in rows
        )
        assert format_cover(c.cliques) == expected

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


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=9), st.data())
def test_index_width_matches_edge_list_oracle(g, data):
    index = data.draw(st.lists(st.integers(-20, 20), min_size=g.n, max_size=g.n))
    edges = sorted_edges(g)
    width = max((abs(index[u] - index[v]) for u, v in edges), default=0)
    assert index_width(g, index) == width
    # only vertices with an edge are looked up
    touched = {v for e in edges for v in e}
    assert index_width(g, {v: index[v] for v in touched}) == width
