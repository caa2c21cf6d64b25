import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccwidth import (
    Graph,
    OrderedCliqueCover,
    SpanCheck,
    ccw_exact,
    ceil_three_halves,
    clique_sum,
    clique_sum_map,
    complete_graph,
    compose_covers,
    cover_width,
    edge_span_claim_check,
    format_certificate,
    interleaved_sequence,
    parse_certificate,
    path_graph,
    path_sum_instance,
    random_clique_sum_instance,
    sequence_width,
    star_graph,
    validate_cover,
    verify_certificate,
)
import ccwidth.composition
from ccwidth.composition import _best_insertion, _side_kept_order, _skeleton
from conftest import (
    band_sum_instance,
    brute_ccw,
    dfs_bandwidth,
    fallback_instance,
    graphs,
    interleave,
    quotient_edges,
    scan_insertion,
    set_best_insertion,
    wide_side_sum,
)


def _instances(seed_prefix, count, **kwargs):
    options = dict(n_lo=3, n_hi=8, min_total_width=0)
    options.update(kwargs)
    for i in range(count):
        rng = random.Random(f"{seed_prefix}-{i}")
        yield random_clique_sum_instance(rng, **options)


class TestInterleave:
    """The oracle's zip-and-alternate pass."""

    def test_alternation(self):
        assert interleave(["a", "b"], ["x", "y", "z"]) == ["x", "a", "y", "b", "z"]

    def test_empty_second(self):
        assert interleave(["a"], []) == ["a"]

    def test_empty_first(self):
        assert interleave([], ["x", "y"]) == ["x", "y"]

    def test_length(self):
        assert len(interleave([1, 2, 3], [4])) == 4


class TestInterleavedSequence:
    def test_source_orders_preserved(self):
        for inst in _instances("order", 150):
            layout = interleaved_sequence(inst.c1, inst.c2, inst.shared)
            for source, cover in ((1, inst.c1), (2, inst.c2)):
                subseq = [idx for src, idx in layout.seq if src == source]
                assert subseq == list(range(cover.size))

    def test_every_clique_from_a_source(self):
        for inst in _instances("membership", 50):
            layout = interleaved_sequence(inst.c1, inst.c2, inst.shared)
            assert len(layout.seq) == inst.c1.size + inst.c2.size
            assert all(src in (1, 2) for src, _ in layout.seq)

    def test_rejects_empty_shared(self):
        p3 = path_graph(3)
        c = OrderedCliqueCover(p3, [{0, 1}, {2}])
        with pytest.raises(ValueError):
            interleaved_sequence(c, c, {})

    def test_rejects_non_clique_shared(self):
        p3 = path_graph(3)
        c = OrderedCliqueCover(p3, [{0, 1}, {2}])
        with pytest.raises(ValueError, match="clique"):
            interleaved_sequence(c, c, {0: 0, 2: 2})


class TestComposeCoversExamples:
    def test_two_paths_at_middles(self):
        # two paths on three vertices, split covers, glued at the middles
        p3 = path_graph(3)
        c = OrderedCliqueCover(p3, [{0, 1}, {2}])
        cert = compose_covers(p3, c, p3, c, {1: 1})
        assert (cert.w1, cert.w2) == (1, 1)
        assert cert.bound == 3
        assert cert.achieved <= 3
        assert verify_certificate(cert).ok
        assert ccw_exact(cert.graph).value == 2

    def test_missed_bound_raises(self, monkeypatch):
        # a bound of 0 leaves the composed star no cover to fall back on
        monkeypatch.setattr("ccwidth.composition.ceil_three_halves", lambda x: 0)
        p3 = path_graph(3)
        c = OrderedCliqueCover(p3, [{0, 1}, {2}])
        with pytest.raises(ValueError, match="missed its bound: achieved 2 > bound 0"):
            compose_covers(p3, c, p3, c, {1: 1})

    def test_triangles_at_one_vertex_bound_adjusted(self):
        k3 = complete_graph(3)
        c = OrderedCliqueCover(k3, [{0, 1, 2}])
        cert = compose_covers(k3, c, k3, c, {0: 0})
        assert (cert.w1, cert.w2) == (0, 0)
        assert cert.bound == 1
        assert cert.bound_adjusted
        assert cert.achieved == 1
        assert verify_certificate(cert).ok
        assert ccw_exact(cert.graph).value == 1  # bowtie

    def test_paper_bound_taken_literally_fails_with_a_width_zero_side(self):
        # 3/2 * (ccw(G1) + ccw(G2)) read literally is beaten by the two
        # smallest sums with a width-0 side: K_{1,3} + K_2 glued at the
        # centre (K_{1,4}) and two triangles sharing a vertex (bowtie).
        # The certificate's ceiling and both-zero adjustment cover both.
        star, k2, k3 = star_graph(3), complete_graph(2), complete_graph(3)
        cases = [(star, k2, 2, (1, 0), 2, False), (k3, k3, 1, (0, 0), 1, True)]
        for g1, g2, ccw, widths, bound, adjusted in cases:
            c1, c2 = ccw_exact(g1).witness, ccw_exact(g2).witness
            composed = clique_sum(g1, g2, {0: 0})
            assert brute_ccw(composed) == ccw
            assert 2 * ccw > 3 * sum(widths)
            cert = compose_covers(g1, c1, g2, c2, {0: 0})
            assert (cert.w1, cert.w2) == widths
            assert (cert.bound, cert.bound_adjusted) == (bound, adjusted)
            assert cert.achieved <= cert.bound
            assert verify_certificate(cert).ok

    def test_empty_shared_concatenates(self):
        p3 = path_graph(3)
        c1 = OrderedCliqueCover(p3, [{0, 1}, {2}])
        k3 = complete_graph(3)
        c2 = OrderedCliqueCover(k3, [{0, 1, 2}])
        cert = compose_covers(p3, c1, k3, c2, {})
        assert cert.bound == 1
        assert cert.achieved == 1  # max(w1, w2)
        assert cert.cliques == (
            frozenset({0, 1}),
            frozenset({2}),
            frozenset({3, 4, 5}),
        )
        assert verify_certificate(cert).ok

    def test_one_sided_zero_keeps_block_whole(self):
        k3 = complete_graph(3)
        cz = OrderedCliqueCover(k3, [{0, 1, 2}])
        p3 = path_graph(3)
        cw = OrderedCliqueCover(p3, [{0, 1}, {2}])
        cert = compose_covers(k3, cz, p3, cw, {0: 1})
        assert (cert.w1, cert.w2) == (0, 1)
        assert cert.bound == 2
        assert cert.achieved <= 2
        assert verify_certificate(cert).ok
        # the width-0 side's clique survives whole
        assert frozenset({0, 1, 2}) in cert.cliques

    def test_shared_vertices_appear_once_in_the_shared_clique(self):
        spread = 0
        for inst in _instances("s-clique", 80, min_total_width=1):
            cert = compose_covers(inst.g1, inst.c1, inst.g2, inst.c2, inst.shared)
            shared_composed = frozenset(inst.shared.keys())
            # cover validity already forces single occurrence; additionally,
            # outside the fallback regimes the whole shared set lives in one
            # clique, the extracted one
            owners = [cl for cl in cert.cliques if cl & shared_composed]
            if (cover_width(inst.c1) == 0) != (cover_width(inst.c2) == 0):
                continue  # kept-whole regime places them in the old clique
            if len(owners) == 1 and shared_composed <= owners[0]:
                continue
            spread += 1  # a side-kept set keeps them in side cliques
        assert spread <= 1


class TestComposeCoversCorpus:
    def test_bound_verify_and_oracle(self):
        for inst in _instances("corpus", 250, min_total_width=1):
            cert = compose_covers(inst.g1, inst.c1, inst.g2, inst.c2, inst.shared)
            assert cert.bound == ceil_three_halves(cert.w1 + cert.w2)
            assert cert.achieved <= cert.bound
            assert verify_certificate(cert).ok
            assert validate_cover(cert.graph, cert.cliques).ok
            if cert.graph.n <= 9:
                assert ccw_exact(cert.graph).value <= cert.achieved

    def test_width_zero_total_instances(self):
        # both covers width 0: adjusted bound 1
        seen = 0
        for inst in _instances("zeros", 400):
            if cover_width(inst.c1) + cover_width(inst.c2) != 0 or not inst.shared:
                continue
            seen += 1
            cert = compose_covers(inst.g1, inst.c1, inst.g2, inst.c2, inst.shared)
            assert cert.bound == 1
            assert cert.bound_adjusted
            assert cert.achieved <= 1
            assert verify_certificate(cert).ok
        assert seen >= 5

    def test_deterministic(self):
        for inst in _instances("det", 40, min_total_width=1):
            a = compose_covers(inst.g1, inst.c1, inst.g2, inst.c2, inst.shared)
            b = compose_covers(inst.g1, inst.c1, inst.g2, inst.c2, inst.shared)
            assert a == b

    def test_compaction_never_increases_width(self):
        for inst in _instances("compact", 120, min_total_width=1):
            if (cover_width(inst.c1) == 0) != (cover_width(inst.c2) == 0):
                continue
            g2_map = clique_sum_map(inst.g1, inst.g2, inst.shared)
            composed = clique_sum(inst.g1, inst.g2, inst.shared)
            # Nominal fix-up before compaction: the shared-set clique at
            # the middle of the block segment, emptied cliques kept.
            layout = interleaved_sequence(inst.c1, inst.c2, inst.shared)
            sides = (
                inst.c1.cliques,
                [frozenset(g2_map[v] for v in cl) for cl in inst.c2.cliques],
            )
            shared = frozenset(inst.shared)
            with_empties = _skeleton(layout, sides, shared)
            with_empties.insert(layout.block_start + layout.block_length // 2, shared)
            compacted = [cl for cl in with_empties if cl]
            assert sequence_width(composed, compacted) <= sequence_width(
                composed, with_empties
            )

    @settings(max_examples=300, deadline=None)
    @given(graphs(max_n=8), st.data())
    def test_best_insertion_matches_position_scan(self, g, data):
        """One-pass insertion scoring picks the scan's width and sequence.

        Each vertex goes to a raw entry or to the inserted item (slot
        -1), so some entries stay empty; some entries are also merged
        into the item and emptied, for larger items and more empty
        entries.  Every anchor is tried, since the anchor decides among
        equal widths.
        """
        length = data.draw(st.integers(0, g.n + 2))
        slots = data.draw(
            st.lists(st.integers(-1, length - 1), min_size=g.n, max_size=g.n)
        )
        raw = [
            frozenset(v for v, s in enumerate(slots) if s == i) for i in range(length)
        ]
        item = frozenset(v for v, s in enumerate(slots) if s == -1)
        if length:
            for i in data.draw(st.sets(st.integers(0, length - 1))):
                item |= raw[i]
                raw[i] = frozenset()
        for anchor in range(length + 1):
            assert _best_insertion(g, raw, item, anchor) == scan_insertion(
                g, raw, item, anchor
            )

    @settings(max_examples=300, deadline=None)
    @given(graphs(max_n=9), st.data())
    def test_best_insertion_matches_neighbor_set_scoring(self, g, data):
        # bucket 0 is the inserted item, buckets 1.. the raw entries, some empty
        length = data.draw(st.integers(0, g.n + 2))
        home = data.draw(
            st.lists(st.integers(0, length), min_size=g.n, max_size=g.n)
        )
        item, *raw = (
            frozenset(v for v in range(g.n) if home[v] == i)
            for i in range(length + 1)
        )
        anchor = data.draw(st.integers(0, length))
        assert _best_insertion(g, raw, item, anchor) == set_best_insertion(
            g, raw, item, anchor
        )

    def test_rejects_mismatched_cover(self):
        p3 = path_graph(3)
        p5 = path_graph(5)
        c5 = OrderedCliqueCover(p5, [{0, 1}, {2, 3}, {4}])
        c3 = OrderedCliqueCover(p3, [{0, 1}, {2}])
        with pytest.raises(ValueError, match="c1"):
            compose_covers(p3, c5, p3, c3, {1: 1})


def _compose(inst):
    return compose_covers(inst.g1, inst.c1, inst.g2, inst.c2, inst.shared)


class TestSideKeptFallback:
    """The one fallback, taken when the best insertion misses the bound."""

    def test_fitting_first_placement_runs_no_search(self, monkeypatch):
        placed = []

        def insertion(*args):
            placed.append(_best_insertion(*args))
            return placed[-1]

        def search(*args, **kwargs):
            raise AssertionError("searched although the insertion fit")

        monkeypatch.setattr(ccwidth.composition, "_best_insertion", insertion)
        monkeypatch.setattr(ccwidth.composition, "_ordered_cover_within", search)
        for inst in _instances("fits", 60):
            placed.clear()
            cert = _compose(inst)
            if not inst.shared:
                continue
            width, final = placed.pop()
            assert width == cert.achieved <= cert.bound
            assert cert.cliques == tuple(final)

    def test_narrower_set_wins_and_side_1_wins_ties(self):
        # the star of vertex 1 over 0, 4 and the triangle 1-2-3: keeping 1
        # in side 2's triangle is narrower (1) than in side 1's clique (2)
        g = Graph(5, [(0, 1), (1, 4), (1, 2), (1, 3), (2, 3)])
        sides = ([{0}, {1}, {4}], [{1, 2, 3}])
        sides = tuple([frozenset(cl) for cl in side] for side in sides)
        shared = frozenset({1})
        assert _side_kept_order(g, sides, shared, 2, 9) == [{0}, {1, 2, 3}, {4}]
        # on the path 0-1-2 both sets have width 1 and side 1's is taken
        g = path_graph(3)
        for sides, kept in [
            (([{0, 1}], [{1, 2}]), [{0, 1}, {2}]),
            (([{1, 2}], [{0, 1}]), [{1, 2}, {0}]),
        ]:
            sides = tuple([frozenset(cl) for cl in side] for side in sides)
            assert _side_kept_order(g, sides, shared, 1, 9) == kept

    def test_raises_when_neither_set_fits(self):
        g = path_graph(3)
        sides = ([frozenset({0, 1})], [frozenset({1, 2})])
        with pytest.raises(ValueError, match="missed its bound: achieved 9 > bound 0"):
            _side_kept_order(g, sides, frozenset({1}), 0, 9)

    def test_width_zero_side_swallowed_by_the_wide_side(self):
        # the width-0 route keeps side 1's edge whole, which reaches 4 > 3;
        # keeping the pair in side 2's own cliques gives back side 2's cover
        inst = wide_side_sum()
        cert = _compose(inst)
        assert (cert.w1, cert.w2, cert.bound, cert.achieved) == (0, 2, 3, 2)
        assert (cert.graph.n, len(cert.graph.edges())) == (9, 8)  # side 2
        assert verify_certificate(cert).ok

    def test_achieved_is_the_narrower_side_kept_bandwidth(self, monkeypatch):
        """Differential check of every first-placement miss in a seeded corpus.

        The corpus holds the fb-* misses and seeded width-1 band sums.  The
        achieved width must be the smaller of the two side-kept quotients'
        bandwidths, found by the ``feasible_ordering`` oracle.
        """
        fallback = ccwidth.composition._side_kept_order
        misses = []

        def spy(*args):
            misses.append(args)
            return fallback(*args)

        monkeypatch.setattr(ccwidth.composition, "_side_kept_order", spy)
        fb_misses = [(0, 777), (1, 725), (1, 809), (2, 679), (2, 952), (2, 1009)]
        corpus = [fallback_instance(*key) for key in fb_misses + [(2, 1549)]]
        corpus += [
            band_sum_instance(random.Random(f"band-miss-{i}"), 3, 9, 1)
            for i in range(200)
        ]
        checked = 0
        for inst in corpus:
            misses.clear()
            cert = _compose(inst)
            if not misses:
                continue
            checked += 1
            g2_map = clique_sum_map(inst.g1, inst.g2, inst.shared)
            sides = (
                [sorted(cl) for cl in inst.c1.cliques],
                [sorted(g2_map[v] for v in cl) for cl in inst.c2.cliques],
            )
            shared = set(inst.shared)
            widths = []
            for keep in (0, 1):
                classes = [
                    cl if i == keep else [v for v in cl if v not in shared]
                    for i, side in enumerate(sides)
                    for cl in side
                ]
                classes = [cl for cl in classes if cl]
                quotient = Graph(len(classes), quotient_edges(cert.graph, classes))
                widths.append(dfs_bandwidth(quotient)[0])
            assert cert.achieved == min(widths) <= cert.bound
        assert checked >= 20


class TestLongCovers:
    def test_band_sums_meet_their_bound(self):
        # 8-25 cliques a side: the regime where the insertion misses most
        for w in (1, 2):
            for i in range(50):
                inst = band_sum_instance(random.Random(f"long-{w}-{i}"), 8, 25, w)
                cert = _compose(inst)
                assert cert.achieved <= cert.bound
                assert verify_certificate(cert).ok


class TestVerifyCertificate:
    def _cert(self):
        p3 = path_graph(3)
        c = OrderedCliqueCover(p3, [{0, 1}, {2}])
        return compose_covers(p3, c, p3, c, {1: 1})

    def test_valid(self):
        assert verify_certificate(self._cert()).ok

    def test_detects_missing_vertex(self):
        cert = self._cert()
        broken = dataclasses.replace(
            cert, cliques=tuple(cl - {0} for cl in cert.cliques if cl - {0})
        )
        check = verify_certificate(broken)
        assert not check.ok
        assert "uncovered" in check.reason

    def test_detects_lowered_bound(self):
        cert = self._cert()
        forged = dataclasses.replace(cert, bound=cert.achieved - 1)
        check = verify_certificate(forged)
        assert not check.ok
        assert "bound violated" in check.reason

    def test_detects_bound_above_the_widths(self):
        cert = self._cert()  # w1 = w2 = 1, so the bound may be at most 3
        check = verify_certificate(dataclasses.replace(cert, bound=4))
        assert not check.ok
        assert check.reason == "bound 4 exceeds 3, the most that w1 1 and w2 1 allow"
        assert verify_certificate(dataclasses.replace(cert, bound=3)).ok

    def test_detects_wrong_achieved(self):
        cert = self._cert()
        forged = dataclasses.replace(cert, achieved=cert.achieved + 1)
        check = verify_certificate(forged)
        assert not check.ok
        assert "mismatch" in check.reason


class TestEdgeSpanClaimCheck:
    def test_two_paths_at_middles(self):
        p3 = path_graph(3)
        c = OrderedCliqueCover(p3, [{0, 1}, {2}])
        check = edge_span_claim_check(p3, c, p3, c, {1: 1})
        assert check.ok
        assert not check.vacuous
        # the strict alternation forces a span of exactly w1 + w2 here,
        # one above the tighter w1 + w2 - 1 variant
        assert check.max_span == 2

    def test_vacuous_when_both_widths_zero(self):
        k3 = complete_graph(3)
        c = OrderedCliqueCover(k3, [{0, 1, 2}])
        check = edge_span_claim_check(k3, c, k3, c, {0: 0})
        assert check.ok
        assert check.vacuous

    def test_vacuous_when_shared_set_empty(self):
        # a disjoint union has no interleave to check
        p3 = path_graph(3)
        c = OrderedCliqueCover(p3, [{0, 1}, {2}])
        check = edge_span_claim_check(p3, c, p3, c, {})
        assert check.ok
        assert check.vacuous

    @pytest.mark.parametrize(
        "g, cover, shared, message",
        [
            # two isolated vertices have width 0, where the check is vacuous
            (Graph(2), [{0}, {1}], {0: 0, 1: 1}, "not induce a clique in the first"),
            (Graph(2), [{0}, {1}], {0: 5}, "vertex 5 out of range for n=2"),
            (path_graph(3), [{0, 1}, {2}], {0: 1, 1: 1}, "map must be injective"),
        ],
        ids=["not-a-clique", "out-of-range", "not-injective"],
    )
    def test_rejects_what_compose_rejects(self, g, cover, shared, message):
        c = OrderedCliqueCover(g, cover)
        for check in (compose_covers, edge_span_claim_check):
            with pytest.raises(ValueError, match=message):
                check(g, c, g, c, shared)

    def test_failing_layout_reports_first_widest_edge(self, scrambled_layout):
        # three edges tie at span 11: the first edge of side 1 is reported
        inst = path_sum_instance(3)
        check = edge_span_claim_check(inst.g1, inst.c1, inst.g2, inst.c2, inst.shared)
        assert check == SpanCheck(
            ok=False, max_span=11, limit=3, counterexample=(1, 0, 1, 11)
        )

    def test_one_sided_zero_runs(self):
        k3 = complete_graph(3)
        cz = OrderedCliqueCover(k3, [{0, 1, 2}])
        p3 = path_graph(3)
        cw = OrderedCliqueCover(p3, [{0, 1}, {2}])
        check = edge_span_claim_check(k3, cz, p3, cw, {0: 1})
        assert check.ok
        assert not check.vacuous

    def test_random_corpus(self):
        for inst in _instances("claim", 250, min_total_width=1):
            check = edge_span_claim_check(
                inst.g1, inst.c1, inst.g2, inst.c2, inst.shared
            )
            assert check.ok, check


class TestCertificateFormat:
    def test_round_trip(self):
        p3 = path_graph(3)
        c = OrderedCliqueCover(p3, [{0, 1}, {2}])
        cert = compose_covers(p3, c, p3, c, {1: 1})
        text = format_certificate(cert)
        assert parse_certificate(text) == cert
        assert format_certificate(parse_certificate(text)) == text

    def test_layout_of_file(self):
        k3 = complete_graph(3)
        c = OrderedCliqueCover(k3, [{0, 1, 2}])
        cert = compose_covers(k3, c, k3, c, {0: 0})
        lines = format_certificate(cert).splitlines()
        n, m = (int(t) for t in lines[0].split())
        assert n == 5
        assert lines[m + 1].startswith("cover ")
        assert lines[-4].startswith("w1 ")
        assert lines[-1].startswith("achieved ")

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_certificate("")
        with pytest.raises(ValueError):
            parse_certificate("2 1\n0 1\ncover 1\n0 1\nw1 0\nw2 0\n")
