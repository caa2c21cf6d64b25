import itertools
import random

import pytest

from ccwidth import (
    ExperimentConfig,
    CSV_HEADER,
    ccw_exact,
    complete_graph,
    cover_width,
    format_edge_list,
    is_clique,
    path_graph,
    path_sum_instance,
    random_clique_sum_instance,
    random_graph,
    run_experiment,
    star_graph,
    validate_cover,
)
from ccwidth.cli import main
from ccwidth.generators import _count_cliques, _nth_clique
from conftest import random_graph_corpus


def gen(capsys, *args):
    """Run ``ccwidth gen`` with ``args``; return (exit code, stdout, stderr)."""
    code = main(["gen", *args])
    out, err = capsys.readouterr()
    return code, out, err


class TestBasicGenerators:
    def test_path_kind_uses_half_length(self, capsys):
        expected = format_edge_list(path_graph(5))
        assert gen(capsys, "--kind", "path", "--t", "2") == (0, expected, "")

    def test_star(self, capsys):
        g = star_graph(3)
        assert g.degree(0) == 3
        assert gen(capsys, "--kind", "star", "--leaves", "3")[1] == format_edge_list(g)

    def test_complete(self, capsys):
        expected = format_edge_list(complete_graph(4))
        assert gen(capsys, "--kind", "complete", "--n", "4")[1] == expected

    def test_random_is_seed_reproducible(self, capsys):
        args = ["--kind", "random", "--n", "6", "--p", "0.5", "--seed"]
        a = gen(capsys, *args, "7")
        assert a == gen(capsys, *args, "7")
        g = random_graph(6, 0.5, random.Random("ccwidth-random-7"))
        assert a == (0, format_edge_list(g), "")
        assert a != gen(capsys, *args, "8")  # overwhelmingly likely

    def test_bad_params_rejected(self, capsys):
        error = "error: path half-length t must be >= 1\n"
        assert gen(capsys, "--kind", "path", "--t", "0") == (1, "", error)
        with pytest.raises(ValueError):
            random_graph(4, 1.5, random.Random(0))
        with pytest.raises(SystemExit):
            gen(capsys, "--kind", "nonsense")


class TestPathSumInstance:
    def test_small(self):
        inst = path_sum_instance(1)
        assert inst.g1.n == 3
        assert inst.shared == {1: 1}
        assert cover_width(inst.c1) == cover_width(inst.c2) == 1

    def test_covers_are_exact_witnesses(self):
        for t in (1, 2, 3):
            inst = path_sum_instance(t)
            n = 2 * t + 1
            assert inst.g1 == path_graph(n)
            assert cover_width(inst.c1) == ccw_exact(inst.g1, limit=n).value == 1

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            path_sum_instance(0)


class TestRandomCliqueSumInstance:
    def test_validity(self):
        for i in range(60):
            rng = random.Random(f"gen-valid-{i}")
            inst = random_clique_sum_instance(rng, n_lo=3, n_hi=8)
            assert validate_cover(inst.g1, inst.c1.cliques).ok
            assert validate_cover(inst.g2, inst.c2.cliques).ok
            assert 1 <= len(inst.shared) <= 3
            assert is_clique(inst.g1, inst.shared.keys())
            assert is_clique(inst.g2, inst.shared.values())
            assert cover_width(inst.c1) == ccw_exact(inst.g1).value
            assert cover_width(inst.c2) == ccw_exact(inst.g2).value

    def test_min_total_width(self):
        for i in range(30):
            rng = random.Random(f"gen-width-{i}")
            inst = random_clique_sum_instance(rng, min_total_width=1)
            assert cover_width(inst.c1) + cover_width(inst.c2) >= 1

    def test_shared_clique_candidates_in_lex_order(self):
        # The rng picks an index into this list, so its order is pinned.
        for g in random_graph_corpus("gen-cliques", 200, 0, 9):
            full = (1 << g.n) - 1
            for k in range(5):
                expected = [
                    c for c in itertools.combinations(range(g.n), k) if is_clique(g, c)
                ]
                assert _count_cliques(g._bits, full, k) == len(expected)
                picked = [_nth_clique(g._bits, k, i) for i in range(len(expected))]
                assert picked == expected

    def test_deterministic(self):
        a = random_clique_sum_instance(random.Random("gen-det"))
        b = random_clique_sum_instance(random.Random("gen-det"))
        assert (a.g1, a.c1, a.g2, a.c2, a.shared) == (b.g1, b.c1, b.g2, b.c2, b.shared)


class TestExperimentConfig:
    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            ExperimentConfig(count=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ExperimentConfig(kind="bogus")

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_lo=5, n_hi=3)


class TestRunExperiment:
    def test_header_is_stable(self):
        text = run_experiment(ExperimentConfig(count=1, seed=1))
        assert text.splitlines()[0] == ",".join(CSV_HEADER)
        assert CSV_HEADER == [
            "n1",
            "n2",
            "shared_size",
            "w1",
            "w2",
            "achieved",
            "bound",
            "ccw_exact",
            "claim_check",
            "status",
        ]

    def test_fixed_seed_is_byte_identical(self):
        cfg = ExperimentConfig(count=12, seed=42)
        assert run_experiment(cfg) == run_experiment(cfg)

    def test_row_contents(self):
        text = run_experiment(ExperimentConfig(count=10, seed=3))
        rows = [ln.split(",") for ln in text.splitlines()[1:]]
        assert len(rows) == 10
        for row in rows:
            assert row[-1] == "ok"
            achieved, bound = int(row[5]), int(row[6])
            assert achieved <= bound
            assert row[8] in ("pass", "vacuous")
            if row[7]:
                assert int(row[7]) <= achieved

    def test_path_sum_sweep(self):
        text = run_experiment(ExperimentConfig(kind="path-sum", count=5, seed=0))
        rows = [ln.split(",") for ln in text.splitlines()[1:]]
        assert len(rows) == 5
        for i, row in enumerate(rows):
            t = i + 1
            assert int(row[0]) == int(row[1]) == 2 * t + 1
            assert int(row[5]) <= 3  # achieved within the bound 3
            assert row[8] == "pass"
            if 4 * t + 1 <= 9:
                assert row[7] == "2"  # exact ccw of the composed graph
            else:
                assert row[7] == ""

    def test_solver_limit_marks_rows_skipped(self):
        # sides of 4 vertices with the ccw solver capped below that
        cfg = ExperimentConfig(count=3, seed=1, n_lo=4, n_hi=4, ccw_limit=3)
        rows = [ln.split(",") for ln in run_experiment(cfg).splitlines()[1:]]
        assert [row[-1] for row in rows] == ["skipped"] * 3
        assert all(row[0] == "" for row in rows)
