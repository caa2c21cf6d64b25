import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccwidth import (
    Graph,
    clique_number,
    clique_sum,
    clique_sum_map,
    complete_graph,
    format_edge_list,
    is_clique,
    parse_edge_list,
    path_graph,
    star_graph,
    star_number,
)
from conftest import (
    brute_clique_number,
    brute_star_number,
    edge_list_clique_sum,
    graphs,
    neighbor_sets,
    random_graph_corpus,
    set_adjacency,
    sorted_edges,
)


class TestBuildGraph:
    def test_path(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.edges() == [(0, 1), (1, 2)]
        assert g.degree(1) == 2

    def test_single_vertex(self):
        g = Graph(1, [])
        assert g.n == 1
        assert g.degree(0) == 0

    def test_duplicate_edges_collapse(self):
        g = Graph(4, [(0, 1), (0, 1), (1, 0)])
        assert g.edges() == [(0, 1)]
        assert g.edge_count == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph(2, [(-1, 0)])

    def test_adjacency_symmetric(self):
        g = Graph(5, [(0, 3), (2, 4), (1, 3)])
        adj = neighbor_sets(g)
        for u in range(5):
            for v in adj[u]:
                assert u in adj[v]
                assert u != v


class TestIsClique:
    def test_subset_of_complete(self):
        assert is_clique(complete_graph(4), {0, 1, 2})

    def test_nonadjacent_pair(self):
        assert not is_clique(path_graph(3), {0, 2})

    def test_empty_and_singleton(self):
        g = path_graph(3)
        assert is_clique(g, set())
        assert is_clique(g, {1})

    def test_invalid_vertex_rejected(self):
        with pytest.raises(ValueError):
            is_clique(path_graph(3), {0, 5})

    def test_least_invalid_vertex_is_named(self):
        with pytest.raises(ValueError, match="^vertex -1 out of range for n=3$"):
            is_clique(path_graph(3), [7, 0, -1])
        with pytest.raises(ValueError, match="^vertex 4 out of range for n=3$"):
            is_clique(path_graph(3), [7, 0, 4])

    @settings(max_examples=200)
    @given(graphs(), st.data())
    def test_matches_pairwise_check(self, g, data):
        members = data.draw(
            st.lists(st.integers(0, g.n - 1), unique=True, max_size=g.n)
        )
        adj = neighbor_sets(g)
        expected = all(
            v in adj[u] for u, v in itertools.combinations(sorted(members), 2)
        )
        assert is_clique(g, members) == expected


@st.composite
def edge_lists(draw, max_n=10):
    """(n, edges): edges with repeats and both orientations, as a reader may list."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
    return n, edges


def _brute_cliques(g, k):
    adj = neighbor_sets(g)
    return [
        q
        for q in itertools.combinations(range(g.n), k)
        if all(v in adj[u] for u, v in itertools.combinations(q, 2))
    ]


class TestBitmaskCore:
    """The bitmask graph layer against the set-based one it replaced."""

    @staticmethod
    def _assert_same(g, h):
        assert g.n == h.n
        assert neighbor_sets(g) == neighbor_sets(h)
        assert g._bits == h._bits
        assert g.edges() == h.edges()
        assert g == h and hash(g) == hash(h)

    @settings(max_examples=300, deadline=None)
    @given(edge_lists())
    def test_bits_build_matches_edge_list_build(self, case):
        n, edges = case
        g = Graph(n, edges)
        sets, bits = set_adjacency(n, edges)
        assert (neighbor_sets(g), g._bits) == (sets, bits)
        assert g.edges() == sorted_edges(g) == sorted({tuple(sorted(e)) for e in edges})
        assert g.edge_count == len(g.edges()) == sum(map(len, sets)) // 2
        assert [g.degree(v) for v in range(n)] == [len(s) for s in sets]
        self._assert_same(g, Graph._from_bits(bits))

    @settings(max_examples=300, deadline=None)
    @given(graphs(max_n=8), graphs(max_n=8), st.data())
    def test_clique_sum_matches_edge_list_oracle(self, g1, g2, data):
        sizes = [
            k
            for k in range(min(g1.n, g2.n) + 1)
            if _brute_cliques(g1, k) and _brute_cliques(g2, k)
        ]
        k = data.draw(st.sampled_from(sizes))
        side1 = data.draw(st.sampled_from(_brute_cliques(g1, k)))
        side2 = data.draw(st.sampled_from(_brute_cliques(g2, k)))
        shared = dict(zip(side1, data.draw(st.permutations(side2))))
        oracle = edge_list_clique_sum(g1, g2, shared)
        self._assert_same(clique_sum(g1, g2, shared), oracle)


class TestCliqueSum:
    def test_two_paths_at_middles_is_four_leaf_star(self):
        p3 = path_graph(3)
        s = clique_sum(p3, p3, {1: 1})
        assert s.n == 5
        # center is vertex 1; leaves 0, 2 from the first path, 3, 4 appended
        assert sorted(s.edges()) == [(0, 1), (1, 2), (1, 3), (1, 4)]
        assert star_number(s) == 4

    def test_identity_self_sum(self):
        # identifying on all of V requires V to be a clique on both sides
        g = complete_graph(4)
        assert clique_sum(g, g, {v: v for v in range(4)}) == g
        ring = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(ValueError):
            clique_sum(ring, ring, {v: v for v in range(4)})

    def test_triangles_on_shared_edge(self):
        k3 = complete_graph(3)
        s = clique_sum(k3, k3, {0: 0, 1: 1})
        assert s.n == 4
        assert s.edge_count == 5  # K4 minus one edge

    def test_empty_shared_is_disjoint_union(self):
        s = clique_sum(path_graph(2), path_graph(2), {})
        assert s.n == 4
        assert s.edges() == [(0, 1), (2, 3)]

    def test_rejects_non_clique_shared(self):
        p3 = path_graph(3)
        with pytest.raises(ValueError, match="first graph"):
            clique_sum(p3, p3, {0: 0, 2: 2})
        k3 = complete_graph(3)
        with pytest.raises(ValueError, match="second graph"):
            clique_sum(k3, p3, {0: 0, 1: 2})

    def test_rejects_non_injective(self):
        k3 = complete_graph(3)
        with pytest.raises(ValueError, match="injective"):
            clique_sum(k3, k3, {0: 0, 1: 0})

    def test_vertex_numbering(self):
        # g1 vertices keep indices; unshared g2 vertices appended in order
        g1 = complete_graph(3)
        g2 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        mapping = clique_sum_map(g1, g2, {2: 1})
        assert mapping == {0: 3, 1: 2, 2: 4, 3: 5}

    def test_edge_count_identity(self):
        rng = random.Random("edge-count")
        for _ in range(120):
            n1, n2 = rng.randint(1, 6), rng.randint(1, 6)
            g1 = _random_graph(rng, n1)
            g2 = _random_graph(rng, n2)
            shared = _random_shared_clique(rng, g1, g2)
            if shared is None:
                continue
            s = clique_sum(g1, g2, shared)
            adj1 = neighbor_sets(g1)
            shared_edges = sum(
                1
                for u, v in itertools.combinations(sorted(shared), 2)
                if v in adj1[u]
            )
            assert s.edge_count == g1.edge_count + g2.edge_count - shared_edges


def _random_graph(rng, n):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
    ]
    return Graph(n, edges)


def _random_shared_clique(rng, g1, g2):
    k = rng.randint(1, 3)
    for size in range(k, 0, -1):
        c1s = [
            c
            for c in itertools.combinations(range(g1.n), size)
            if is_clique(g1, c)
        ]
        c2s = [
            c
            for c in itertools.combinations(range(g2.n), size)
            if is_clique(g2, c)
        ]
        if c1s and c2s:
            side1 = list(rng.choice(c1s))
            side2 = list(rng.choice(c2s))
            rng.shuffle(side2)
            return dict(zip(side1, side2))
    return None


class TestCliqueNumber:
    def test_complete(self):
        assert clique_number(complete_graph(5)) == 5

    def test_path(self):
        assert clique_number(path_graph(4)) == 2

    def test_empty_graph(self):
        assert clique_number(Graph(0, [])) == 0

    def test_four_leaf_star_from_path_sum(self):
        s = clique_sum(path_graph(3), path_graph(3), {1: 1})
        assert clique_number(s) == brute_clique_number(s) == 2

    def test_exhaustive_small(self):
        from conftest import all_labeled_graphs

        for n in range(5):
            for g in all_labeled_graphs(n):
                assert clique_number(g) == brute_clique_number(g)

    def test_random_sample(self):
        for g in random_graph_corpus("omega", 60, 5, 6):
            assert clique_number(g) == brute_clique_number(g)


class TestStarNumber:
    def test_star(self):
        assert star_number(star_graph(3)) == 3

    def test_path_sum_composed_graph(self):
        s = clique_sum(path_graph(3), path_graph(3), {1: 1})
        assert star_number(s) == 4

    def test_complete(self):
        for n in range(2, 6):
            assert star_number(complete_graph(n)) == 1

    def test_edgeless(self):
        assert star_number(Graph(3, [])) == 0

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            star_number(Graph(0, []))

    def test_exhaustive_small(self):
        from conftest import all_labeled_graphs

        for n in range(1, 5):
            for g in all_labeled_graphs(n):
                assert star_number(g) == brute_star_number(g)

    def test_random_sample(self):
        for g in random_graph_corpus("star", 60, 5, 6):
            assert star_number(g) == brute_star_number(g)

    @settings(max_examples=200, deadline=None)
    @given(graphs(max_n=9))
    def test_both_parameters_match_brute_force(self, g):
        assert clique_number(g) == brute_clique_number(g)
        assert star_number(g) == brute_star_number(g)

    def test_at_most_max_degree_with_triangle_free_equality(self):
        for g in random_graph_corpus("star-deg", 80, 2, 7):
            max_deg = max(g.degree(v) for v in range(g.n))
            s = star_number(g)
            assert s <= max_deg
            adj = neighbor_sets(g)
            triangle_free = all(
                not (v in adj[u] and w in adj[v] and w in adj[u])
                for u, v, w in itertools.combinations(range(g.n), 3)
            )
            if triangle_free:
                assert s == max_deg


class TestEdgeListFormat:
    def test_round_trip(self):
        g = Graph(5, [(0, 4), (1, 2), (0, 1)])
        text = format_edge_list(g)
        assert text.splitlines()[0] == "5 3"
        assert parse_edge_list(text) == g

    def test_sorted_edges(self):
        g = Graph(4, [(3, 2), (1, 0), (2, 0)])
        assert format_edge_list(g) == "4 3\n0 1\n0 2\n2 3\n"

    @settings(max_examples=150, deadline=None)
    @given(graphs(min_n=0, max_n=14))
    def test_matches_sorted_edge_oracle(self, g):
        edges = sorted_edges(g)
        expected = f"{g.n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        assert format_edge_list(g) == expected

    def test_format_errors(self):
        with pytest.raises(ValueError):
            parse_edge_list("")
        with pytest.raises(ValueError):
            parse_edge_list("3\n")
        with pytest.raises(ValueError):
            parse_edge_list("3 2\n0 1\n")
