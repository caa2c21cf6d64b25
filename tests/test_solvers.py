import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccwidth import (
    Graph,
    LinearOrdering,
    bandwidth_exact,
    ccw_exact,
    check_inequality_chain,
    clique_number,
    clique_sum,
    complete_graph,
    cover_graph,
    cover_width,
    format_bandwidth_result,
    format_ccw_result,
    ordering_width,
    path_graph,
    star_graph,
    star_number,
    validate_cover,
)
import ccwidth.solvers
from ccwidth.solvers import (
    SearchBudgetExceeded,
    _cliques_in_lex_order,
    _least_width_cover,
    _ordered_cover_within,
    _spread_exceeds,
)
from conftest import (
    all_labeled_graphs,
    brute_bandwidth,
    brute_ccw,
    dfs_bandwidth,
    enumerate_ccw,
    feasible_ordering,
    graphs,
    iter_clique_partitions,
    lex_cliques,
    random_graph_corpus,
    sorted_cover,
    unpruned_ccw,
    unpruned_cover_within,
)


class TestBandwidthExact:
    def test_paths_are_width_one_with_identity_witness(self):
        for n in range(2, 8):
            r = bandwidth_exact(path_graph(n))
            assert r.value == 1
            assert r.witness == LinearOrdering(range(n))

    def test_complete(self):
        for n in range(1, 7):
            assert bandwidth_exact(complete_graph(n)).value == n - 1

    def test_three_leaf_star(self):
        g = star_graph(3)
        assert brute_bandwidth(g) == 2  # oracle over all 24 orderings
        assert bandwidth_exact(g).value == 2

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            bandwidth_exact(Graph(0, []))

    def test_limit(self):
        g = Graph(13, [(i, i + 1) for i in range(12)])
        with pytest.raises(ValueError, match="limit"):
            bandwidth_exact(g)
        assert bandwidth_exact(g, limit=13).value == 1

    def test_matches_brute_force(self):
        for g in random_graph_corpus("bw-oracle", 150, 1, 6):
            r = bandwidth_exact(g)
            assert r.value == brute_bandwidth(g)
            assert ordering_width(g, r.witness) == r.value

    def test_witness_is_lex_smallest_optimum(self):
        for g in random_graph_corpus("bw-lex", 40, 1, 5):
            r = bandwidth_exact(g)
            optimal = [
                perm
                for perm in itertools.permutations(range(g.n))
                if ordering_width(g, perm) == r.value
            ]
            assert r.witness.order == min(optimal)

    def test_deterministic(self):
        for g in random_graph_corpus("bw-det", 30, 1, 6):
            assert bandwidth_exact(g) == bandwidth_exact(g)


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=10))
def test_bandwidth_matches_dfs(g):
    r = bandwidth_exact(g)
    assert (r.value, list(r.witness.order)) == dfs_bandwidth(g)


@pytest.mark.parametrize("n", [11, 12, 13])
def test_bandwidth_matches_dfs_above_ten_vertices(n):
    # The hypothesis test above stops at n = 10; the DFS oracle answers
    # these 20 graphs per n in about two seconds for all three n.
    for g in random_graph_corpus(f"bw-dfs-{n}", 20, n, n, p_hi=0.65):
        r = bandwidth_exact(g, limit=13)
        assert (r.value, list(r.witness.order)) == dfs_bandwidth(g), g.edges()


def _decide_every_k(g):
    """Check the bounded search against the DFS oracle at each k in 0..n-1."""
    nbrs = g._bits
    for k in range(g.n):
        cover = _ordered_cover_within(nbrs, k, singles=True)
        order = None if cover is None else [m.bit_length() - 1 for m in cover]
        assert order == feasible_ordering(g, k), (g.edges(), k)


class TestDecisionsAtEveryK:
    """Both sides of each decision, also for k above the bandwidth."""

    def test_exhaustive_up_to_five(self):
        for n in range(1, 6):
            for g in all_labeled_graphs(n):
                _decide_every_k(g)

    def test_random_three_hundred(self):
        for g in random_graph_corpus("bw-decide", 300, 6, 10):
            _decide_every_k(g)


def test_failed_state_cap(monkeypatch):
    # K5 has bandwidth 4: at k = 1 each one-vertex start leaves 4 unplaced
    # neighbors with one place before its window closes, so the fit check
    # cuts it and the root is the first failed state memoized.
    g = complete_graph(5)
    nbrs = g._bits
    assert _ordered_cover_within(nbrs, 1, singles=True) is None
    with pytest.raises(SearchBudgetExceeded):
        _ordered_cover_within(nbrs, 1, singles=True, max_failed=0)
    assert _ordered_cover_within(
        nbrs, 4, singles=True, max_failed=0
    ) == [1, 2, 4, 8, 16]
    # The k loop starts at ceil(4 / 2) = 2; k = 2 and 3 run out of budget,
    # which counts as failed, and k = 4 fits.
    decided = []

    def decide(nbrs, k, *args):
        decided.append(k)
        return _ordered_cover_within(nbrs, k, *args)

    monkeypatch.setattr(ccwidth.solvers, "_ordered_cover_within", decide)
    assert _least_width_cover(nbrs, True, max_failed=0) == (4, [1, 2, 4, 8, 16])
    assert decided == [2, 3, 4]
    decided.clear()
    assert _least_width_cover(nbrs, True, 3) == (4, [1, 2, 4, 8, 16])
    assert decided == [3, 4]
    assert _least_width_cover(nbrs, True, stop=4, max_failed=0) == (4, None)
    decided.clear()
    assert _least_width_cover(nbrs, True, stop=1) == (1, None)
    assert decided == []


class TestIterCliquePartitions:
    def test_path3(self):
        parts = list(iter_clique_partitions(path_graph(3)))
        assert parts == [[[0, 1], [2]], [[0], [1, 2]], [[0], [1], [2]]]

    def test_counts_match_independent_enumeration(self):
        from conftest import _all_clique_partitions

        for g in random_graph_corpus("parts", 40, 1, 6):
            ours = {
                tuple(tuple(p) for p in parts)
                for parts in iter_clique_partitions(g)
            }
            theirs = {
                tuple(tuple(sorted(p)) for p in sorted(parts, key=min))
                for parts in _all_clique_partitions(g)
            }
            assert ours == theirs


class TestCcwExact:
    def test_complete_is_zero_with_single_clique(self):
        for n in (1, 2, 3, 4, 5, 6, 9):
            r = ccw_exact(complete_graph(n))
            assert r.value == 0
            assert r.witness.cliques == (frozenset(range(n)),)

    def test_odd_paths_are_one(self):
        for t in (1, 2, 3):
            assert ccw_exact(path_graph(2 * t + 1)).value == 1

    def test_path_sums_are_two(self):
        for t in (1, 2):
            g = path_graph(2 * t + 1)
            s = clique_sum(g, g, {t: t})
            assert ccw_exact(s).value == 2

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            ccw_exact(Graph(0, []))

    def test_limit(self):
        g = Graph(10, [])
        with pytest.raises(ValueError, match="limit"):
            ccw_exact(g)
        assert ccw_exact(g, limit=10).value == 0

    def test_matches_brute_force(self):
        for g in random_graph_corpus("ccw-oracle", 120, 1, 5):
            r = ccw_exact(g)
            assert r.value == brute_ccw(g)
            assert cover_width(r.witness) == r.value

    def test_witness_validates_and_reproduces_value(self):
        for g in random_graph_corpus("ccw-wit", 60, 1, 6):
            r = ccw_exact(g)
            assert validate_cover(g, r.witness.cliques).ok
            assert cover_width(r.witness) == r.value
            quotient = cover_graph(r.witness)
            assert (
                ordering_width(quotient, LinearOrdering(range(quotient.n)))
                == r.value
            )

    def test_deterministic(self):
        for g in random_graph_corpus("ccw-det", 30, 1, 6):
            assert ccw_exact(g) == ccw_exact(g)

    def test_exhaustive_witnesses_up_to_five(self):
        for n in range(1, 6):
            for g in all_labeled_graphs(n):
                r = ccw_exact(g)
                assert (r.value, sorted_cover(r.witness)) == enumerate_ccw(g)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=8))
def test_ccw_matches_partition_enumeration(g):
    r = ccw_exact(g)
    assert (r.value, sorted_cover(r.witness)) == enumerate_ccw(g)
    if g.n <= 6:  # brute force tries every ordered partition: 545,835 at n = 8
        assert r.value == brute_ccw(g)


@settings(max_examples=150, deadline=None)
@given(graphs(min_n=6, max_n=12))
def test_ccw_matches_unpruned_search(g):
    r = ccw_exact(g, limit=12)
    assert (r.value, sorted_cover(r.witness)) == unpruned_ccw(g)


def test_ccw_decisions_match_unpruned_search_at_every_k():
    """Both sides of each unbounded decision, also for k above the ccw."""
    for g in random_graph_corpus("ccw-decide", 200, 6, 11):
        nbrs = g._bits
        for k in range(g.n):
            assert _ordered_cover_within(
                nbrs, k, singles=False
            ) == unpruned_cover_within(nbrs, k), (g.edges(), k)


def _submasks(mask):
    """Every mask inside ``mask``, ``mask`` itself first and 0 last."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask
    yield 0


def _check_cliques_in_lex_order(g, cand, need):
    nbrs = g._bits
    expected = [
        (mask, clique_nbrs)
        for mask, clique_nbrs in lex_cliques(nbrs)
        if not mask & ~cand and not need & ~mask
    ]
    found = list(_cliques_in_lex_order(nbrs, cand, need))
    assert found == expected, (g.edges(), cand, need)


def test_cliques_in_lex_order_exhaustive_up_to_four():
    for n in range(5):
        for g in all_labeled_graphs(n):
            for cand in range(1 << n):
                for need in _submasks(cand):
                    _check_cliques_in_lex_order(g, cand, need)


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=8), st.data())
def test_cliques_in_lex_order_matches_oracle(g, data):
    cand = data.draw(st.integers(0, (1 << g.n) - 1))
    need = cand & data.draw(st.integers(0, (1 << g.n) - 1))
    _check_cliques_in_lex_order(g, cand, need)


def _check_spread(g, due):
    """One slot: "not a clique".  More: only above the independence number."""
    nbrs = g._bits
    members = [v for v in range(g.n) if due >> v & 1]
    clique = all(nbrs[u] >> v & 1 for u, v in itertools.combinations(members, 2))
    assert _spread_exceeds(nbrs, due, 1) == (not clique), (g.edges(), due)
    alpha = max(
        sub.bit_count()
        for sub in _submasks(due)
        if not any(sub >> v & 1 and nbrs[v] & sub for v in members)
    )
    for slots in (2, 3):
        if _spread_exceeds(nbrs, due, slots):
            assert alpha > slots, (g.edges(), due, slots)


def test_spread_exceeds_exhaustive_up_to_four():
    for n in range(1, 5):
        for g in all_labeled_graphs(n):
            for due in range(1 << n):
                _check_spread(g, due)


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=8), st.data())
def test_spread_exceeds_bounds_the_independence_number(g, data):
    _check_spread(g, data.draw(st.integers(0, (1 << g.n) - 1)))


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=9), st.data())
def test_widths_survive_relabelling(g, data):
    # A new labelling makes the search try its candidates in another order.
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    results = []
    for x in (g, h):
        bw, ccw = bandwidth_exact(x), ccw_exact(x)
        assert ordering_width(x, bw.witness) == bw.value
        assert cover_width(ccw.witness) == ccw.value
        results.append((bw.value, ccw.value))
    assert results[0] == results[1], (g.edges(), perm)


@pytest.mark.parametrize(
    "n, edges, cover",
    [
        (
            8,
            [(0, 3), (0, 5), (3, 5), (1, 6), (4, 7)],
            ((0, 3, 5), (1, 6), (2,), (4, 7)),
        ),
        (4, [(1, 3)], ((0,), (1, 3), (2,))),
        (3, [], ((0,), (1,), (2,))),
        (1, [], ((0,),)),
    ],
)
def test_cluster_witness_lists_components_by_least_vertex(n, edges, cover):
    r = ccw_exact(Graph(n, edges))
    assert (r.value, sorted_cover(r.witness)) == (0, cover)


def test_cluster_witnesses_of_seeded_partitions():
    for i in range(50):
        rng = random.Random(f"cluster-{i}")
        n = rng.randint(1, 9)
        label = [rng.randrange(n) for _ in range(n)]
        pairs = itertools.combinations(range(n), 2)
        g = Graph(n, [(u, v) for u, v in pairs if label[u] == label[v]])
        parts = sorted(tuple(v for v in range(n) if label[v] == c) for c in set(label))
        r = ccw_exact(g)
        assert (r.value, sorted_cover(r.witness)) == (0, tuple(parts))


class TestInequalityCorpus:
    """ccw <= bw, ccw >= floor(s/2), and bw <= omega*ccw when ccw >= 1.

    floor(s/2) is at least the paper's ceil(s/2) - 1: the s independent
    neighbors of a star's center lie in the 2 ccw + 1 cliques around the
    center's own clique, at most one in each.
    """

    def _check(self, g):
        ccw = ccw_exact(g).value
        bw = bandwidth_exact(g).value
        assert ccw <= bw
        if g.edge_count:
            s = star_number(g)
            assert ccw >= s // 2 >= -(-s // 2) - 1
        if ccw >= 1:
            assert bw <= clique_number(g) * ccw

    def test_exhaustive_up_to_four(self):
        for n in range(1, 5):
            for g in all_labeled_graphs(n):
                self._check(g)

    @pytest.mark.parametrize("n", [5, 6])
    def test_random_five_hundred(self, n):
        for g in random_graph_corpus(f"chain-{n}", 500, n, n):
            self._check(g)


class TestCheckInequalityChain:
    def test_four_leaf_star(self):
        report = check_inequality_chain(star_graph(4))
        assert report.ccw == 2  # exact oracle value
        assert report.star == 4
        assert report.bw == 2
        assert report.omega == 2
        assert report.all_pass
        assert report.bw_le_omega_ccw is True

    def test_complete_graph_product_not_applicable(self):
        report = check_inequality_chain(complete_graph(4))
        assert report.ccw == 0
        assert report.bw == 3
        assert report.omega == 4
        assert report.bw_le_omega_ccw is None
        assert report.all_pass

    def test_path_sum_graph(self):
        g = clique_sum(path_graph(3), path_graph(3), {1: 1})
        report = check_inequality_chain(g)
        assert report.ccw == 2
        assert report.star == 4
        assert report.star_lower_bound == 1
        assert report.all_pass

    def test_lines_format(self):
        lines = check_inequality_chain(path_graph(3)).lines()
        assert len(lines) == 4
        assert lines[0].startswith("n=3")


class TestResultFormats:
    def test_bandwidth_result(self):
        text = format_bandwidth_result(bandwidth_exact(path_graph(3)))
        assert text == "value 1\nordering 3\n0 1 2\n"

    def test_ccw_result(self):
        text = format_ccw_result(ccw_exact(complete_graph(3)))
        assert text == "value 0\ncover 1\n0 1 2\n"
