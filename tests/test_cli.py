import io

import pytest

from ccwidth import (
    ExperimentConfig,
    OrderedCliqueCover,
    compose_covers,
    edge_span_claim_check,
    format_certificate,
    format_cover,
    format_edge_list,
    path_graph,
    path_sum_instance,
    run_experiment,
)
from ccwidth.cli import main
from ccwidth.graph import MAX_VERTICES
from conftest import wide_side_sum


def run_cli(args, stdin_text=None, capsys=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestGraphCommands:
    def test_gen_path(self, capsys, monkeypatch):
        code, out, _ = run_cli(["gen", "--kind", "path", "--t", "2"], capsys=capsys)
        assert code == 0
        assert out == format_edge_list(path_graph(5))

    def test_bw_from_stdin(self, capsys, monkeypatch):
        text = format_edge_list(path_graph(4))
        code, out, _ = run_cli(
            ["bw", "-"], stdin_text=text, capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == 0
        assert out == "value 1\nordering 4\n0 1 2 3\n"

    def test_ccw_from_file(self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "g.txt"
        f.write_text(format_edge_list(path_graph(3)))
        code, out, _ = run_cli(["ccw", str(f)], capsys=capsys)
        assert code == 0
        assert out.startswith("value 1\ncover ")

    def test_star(self, capsys, monkeypatch):
        text = format_edge_list(path_graph(3))
        code, out, _ = run_cli(
            ["star", "-"], stdin_text=text, capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == 0
        assert out == "value 2\n"

    def test_check_chain_exit_zero(self, capsys, monkeypatch):
        text = format_edge_list(path_graph(5))
        code, out, _ = run_cli(
            ["check-chain", "-"],
            stdin_text=text,
            capsys=capsys,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert "ccw <= bw: pass" in out

    def test_limit_violation_reports_error(self, capsys, monkeypatch):
        text = format_edge_list(path_graph(13))
        code, _, err = run_cli(
            ["bw", "-"], stdin_text=text, capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == 1
        assert "limit" in err


class TestUnusablePaths:
    """A path that cannot be read or written ends in one error line."""

    def check(self, args, path, capsys):
        code, out, err = run_cli(args, capsys=capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    def test_missing_input(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        self.check(["bw", str(missing)], missing, capsys)

    def test_directory_as_input(self, tmp_path, capsys):
        self.check(["ccw", str(tmp_path)], tmp_path, capsys)

    def test_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "g.txt"
        self.check(["gen", "--kind", "path", "--t", "3", "--out", str(out)], out, capsys)


class TestGenSizeCap:
    """``gen`` refuses a graph above MAX_VERTICES before building anything."""

    @pytest.mark.parametrize(
        "kind, flag, value",
        [
            ("path", "--t", MAX_VERTICES // 2),  # 2t + 1 vertices
            ("path-sum", "--t", MAX_VERTICES // 2),
            ("complete", "--n", MAX_VERTICES + 1),
            ("random", "--n", MAX_VERTICES + 1),
            ("star", "--leaves", MAX_VERTICES),  # leaves + 1 vertices
        ],
    )
    def test_one_above_the_cap(self, kind, flag, value, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a generator ran above the cap")

        for name in (
            "path_graph",
            "path_sum_instance",
            "complete_graph",
            "random_graph",
            "star_graph",
        ):
            monkeypatch.setattr(f"ccwidth.cli.{name}", unreachable)
        args = ["gen", "--kind", kind, flag, str(value)]
        assert run_cli(args, capsys=capsys) == (
            1,
            "",
            f"error: --kind {kind} asks for {MAX_VERTICES + 1} vertices; "
            f"at most {MAX_VERTICES} vertices allowed\n",
        )


class TestSearchDepth:
    """Searches deeper than Python's recursion limit end in one error line."""

    ERROR = (
        "error: graph has 1201 vertices, beyond the exact search's recursion depth\n"
    )

    def test_gen_path_sum(self, capsys):
        args = ["gen", "--kind", "path-sum", "--t", "600"]
        assert run_cli(args, capsys=capsys) == (1, "", self.ERROR)

    def test_ccw_and_bw(self, capsys, monkeypatch):
        text = format_edge_list(path_graph(1201))
        for solver in ("ccw", "bw"):
            args = [solver, "-", f"--limit-{solver}", "5000"]
            result = run_cli(
                args, stdin_text=text, capsys=capsys, monkeypatch=monkeypatch
            )
            assert result == (1, "", self.ERROR)

    def test_experiment_marks_row_skipped(self, capsys):
        code, out, _ = run_cli(
            ["experiment", "--kind", "path-sum", "--t-start", "600", "--count", "1"],
            capsys=capsys,
        )
        assert code == 0
        assert out.splitlines()[1] == ",,,,,,,,,skipped"


class TestComposeAndVerify:
    def test_compose_with_explicit_covers(self, tmp_path, capsys, monkeypatch):
        g = path_graph(3)
        cover = OrderedCliqueCover(g, [{0, 1}, {2}])
        gfile = tmp_path / "g.txt"
        gfile.write_text(format_edge_list(g))
        cfile = tmp_path / "c.txt"
        cfile.write_text(format_cover(cover.cliques))
        out_file = tmp_path / "cert.txt"
        code, _, _ = run_cli(
            [
                "compose",
                "--graph1", str(gfile), "--cover1", str(cfile),
                "--graph2", str(gfile), "--cover2", str(cfile),
                "--shared", "1=1",
                "--check-claim",
                "--out", str(out_file),
            ],
            capsys=capsys,
        )
        assert code == 0
        expected = compose_covers(g, cover, g, cover, {1: 1})
        assert out_file.read_text() == format_certificate(expected)

    def test_compose_defaults_to_exact_witness_covers(self, tmp_path, capsys, monkeypatch):
        g = path_graph(3)
        gfile = tmp_path / "g.txt"
        gfile.write_text(format_edge_list(g))
        code, out, _ = run_cli(
            [
                "compose",
                "--graph1", str(gfile),
                "--graph2", str(gfile),
                "--shared", "1=1",
            ],
            capsys=capsys,
        )
        assert code == 0
        assert "bound 3" in out

    def test_instance_bundle_round_trip(self, tmp_path, capsys, monkeypatch):
        bundle = tmp_path / "inst.txt"
        code, _, _ = run_cli(
            [
                "gen", "--kind", "random-clique-sum", "--seed", "11",
                "--out", str(bundle),
            ],
            capsys=capsys,
        )
        assert code == 0
        cert_file = tmp_path / "cert.txt"
        code, _, _ = run_cli(
            ["compose", "--instance", str(bundle), "--out", str(cert_file)],
            capsys=capsys,
        )
        assert code == 0
        code, out, _ = run_cli(["verify", str(cert_file)], capsys=capsys)
        assert code == 0
        assert out.startswith("ok:")

    def test_verify_rejects_forged_bound(self, tmp_path, capsys, monkeypatch):
        g = path_graph(3)
        cover = OrderedCliqueCover(g, [{0, 1}, {2}])
        cert = compose_covers(g, cover, g, cover, {1: 1})
        text = format_certificate(cert)
        forged = text.replace(
            f"bound {cert.bound}", f"bound {cert.achieved - 1}"
        )
        f = tmp_path / "forged.txt"
        f.write_text(forged)
        code, _, err = run_cli(["verify", str(f)], capsys=capsys)
        assert code == 1
        assert "bound violated" in err

    def test_verify_ties_bound_to_widths(self, tmp_path, capsys, monkeypatch):
        code, out, _ = run_cli(["gen", "--kind", "path-sum", "--t", "2"], capsys=capsys)
        assert code == 0
        bundle = tmp_path / "inst.txt"
        bundle.write_text(out)
        cert_file = tmp_path / "cert.txt"
        code, _, _ = run_cli(
            ["compose", "--instance", str(bundle), "--out", str(cert_file)],
            capsys=capsys,
        )
        assert code == 0
        text = cert_file.read_text()
        assert "w1 1\n" in text and "bound 3\n" in text
        # a raised bound with a w1 inflated to match it, but not far enough
        forged = tmp_path / "forged.txt"
        forged.write_text(
            text.replace("w1 1\n", "w1 50\n").replace("bound 3\n", "bound 99\n")
        )
        code, out, err = run_cli(["verify", str(forged)], capsys=capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("invalid certificate: bound 99 exceeds 77")
        assert len(err.splitlines()) == 1

    def test_compose_rejects_truncated_instance(self, tmp_path, capsys, monkeypatch):
        code, out, _ = run_cli(["gen", "--kind", "path-sum", "--t", "2"], capsys=capsys)
        assert code == 0
        bundle = tmp_path / "inst.txt"
        bundle.write_text("".join(out.splitlines(keepends=True)[:5]))
        code, out, err = run_cli(["compose", "--instance", str(bundle)], capsys=capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: instance bundle ends early")
        assert len(err.splitlines()) == 1

    def test_compose_reports_missed_bound(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("ccwidth.composition.ceil_three_halves", lambda x: 0)
        g = path_graph(3)
        cover = OrderedCliqueCover(g, [{0, 1}, {2}])
        gfile = tmp_path / "g.txt"
        gfile.write_text(format_edge_list(g))
        cfile = tmp_path / "c.txt"
        cfile.write_text(format_cover(cover.cliques))
        out_file = tmp_path / "cert.txt"
        code, out, err = run_cli(
            [
                "compose",
                "--graph1", str(gfile), "--cover1", str(cfile),
                "--graph2", str(gfile), "--cover2", str(cfile),
                "--shared", "1=1",
                "--out", str(out_file),
            ],
            capsys=capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: composition missed its bound")
        assert len(err.splitlines()) == 1
        assert not out_file.exists()

    def test_compose_width_zero_side_swallowed(self, tmp_path, capsys):
        # the whole-clique insertion misses (4 > 3); the side-kept fallback
        # writes side 2's own cover back
        inst = wide_side_sum()
        args = ["compose", "--shared", "0=5,1=1"]
        for side, g, c in (("1", inst.g1, inst.c1), ("2", inst.g2, inst.c2)):
            (tmp_path / f"g{side}.txt").write_text(format_edge_list(g))
            (tmp_path / f"c{side}.txt").write_text(format_cover(c.cliques))
            args += [f"--graph{side}", str(tmp_path / f"g{side}.txt")]
            args += [f"--cover{side}", str(tmp_path / f"c{side}.txt")]
        cert_file = tmp_path / "cert.txt"
        code, _, err = run_cli([*args, "--out", str(cert_file)], capsys=capsys)
        assert (code, err) == (0, "")
        assert cert_file.read_text().splitlines()[-2:] == ["bound 3", "achieved 2"]
        code, out, _ = run_cli(["verify", str(cert_file)], capsys=capsys)
        assert (code, out) == (0, "ok: achieved 2 <= bound 3\n")

    def test_compose_rejects_repeated_shared_vertex(
        self, tmp_path, capsys, monkeypatch
    ):
        gfile = tmp_path / "g.txt"
        gfile.write_text(format_edge_list(path_graph(3)))
        code, out, err = run_cli(
            [
                "compose",
                "--graph1", str(gfile),
                "--graph2", str(gfile),
                "--shared", "0=0,0=1",
            ],
            capsys=capsys,
        )
        assert code == 1
        assert out == ""
        assert err == "error: shared map lists side-1 vertex 0 twice\n"

    def test_compose_rejects_repeated_shared_vertex_in_bundle(
        self, tmp_path, capsys, monkeypatch
    ):
        code, out, _ = run_cli(["gen", "--kind", "path-sum", "--t", "2"], capsys=capsys)
        assert code == 0
        assert out.endswith("shared 1\n2 2\n")
        bundle = tmp_path / "inst.txt"
        bundle.write_text(out.replace("shared 1\n2 2\n", "shared 2\n2 2\n2 1\n"))
        code, out, err = run_cli(["compose", "--instance", str(bundle)], capsys=capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: instance bundle line ")
        assert "side-1 vertex 2 is already shared, got '2 1'" in err
        assert len(err.splitlines()) == 1

    def test_repeated_cover_vertex_is_one_error_line(self, tmp_path, capsys):
        # a cover row listing a vertex twice would not round-trip byte-exactly
        code, out, _ = run_cli(["gen", "--kind", "path-sum", "--t", "1"], capsys=capsys)
        assert code == 0
        bundle = tmp_path / "inst.txt"
        bundle.write_text(out.replace("cover 3\n0\n", "cover 3\n0 0\n", 1))
        code, out, err = run_cli(["compose", "--instance", str(bundle)], capsys=capsys)
        assert (code, out) == (1, "")
        assert err == (
            "error: instance bundle line 5: vertex 0 listed twice, got '0 0'\n"
        )
        inst = path_sum_instance(1)
        cert = compose_covers(inst.g1, inst.c1, inst.g2, inst.c2, inst.shared)
        text = format_certificate(cert)
        assert "cover 5\n3\n" in text
        cert_file = tmp_path / "cert.txt"
        cert_file.write_text(text.replace("cover 5\n3\n", "cover 5\n3 3\n"))
        code, out, err = run_cli(["verify", str(cert_file)], capsys=capsys)
        assert (code, out) == (1, "")
        assert err == "error: certificate line 7: vertex 3 listed twice, got '3 3'\n"

    def test_compose_check_claim_with_empty_shared_set(
        self, tmp_path, capsys, monkeypatch
    ):
        g = path_graph(3)
        gfile = tmp_path / "g.txt"
        gfile.write_text(format_edge_list(g))
        code, out, err = run_cli(
            [
                "compose",
                "--graph1", str(gfile),
                "--graph2", str(gfile),
                "--shared", ",",
                "--check-claim",
            ],
            capsys=capsys,
        )
        assert code == 0
        assert err == ""
        assert "bound 1\nachieved 1\n" in out

    def test_compose_check_claim_failure(
        self, tmp_path, capsys, monkeypatch, scrambled_layout
    ):
        inst = path_sum_instance(3)
        args = (inst.g1, inst.c1, inst.g2, inst.c2, inst.shared)
        bundle = tmp_path / "inst.txt"
        cert_file = tmp_path / "cert.txt"
        gen = ["gen", "--kind", "path-sum", "--t", "3", "--out", str(bundle)]
        assert run_cli(gen, capsys=capsys) == (0, "", "")
        code, out, err = run_cli(
            [
                "compose",
                "--instance", str(bundle),
                "--check-claim",
                "--out", str(cert_file),
            ],
            capsys=capsys,
        )
        assert code == 1
        assert out == ""
        assert cert_file.read_text() == format_certificate(compose_covers(*args))
        assert err == f"edge span check failed: {edge_span_claim_check(*args)}\n"
        assert err.startswith("edge span check failed: SpanCheck(ok=False")

    def test_compose_requires_inputs(self, capsys, monkeypatch):
        code, _, err = run_cli(["compose"], capsys=capsys)
        assert code == 2
        assert "needs" in err


class TestExperimentCommand:
    def test_experiment_stdout_and_determinism(self, tmp_path, capsys, monkeypatch):
        args = ["experiment", "--count", "3", "--seed", "9"]
        code1, out1, _ = run_cli(args, capsys=capsys)
        code2, out2, _ = run_cli(args, capsys=capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.splitlines()[0].startswith("n1,n2,")

    def test_writes_file(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "report.csv"
        code, stdout, _ = run_cli(
            ["experiment", "--count", "2", "--seed", "5", "--out", str(out)],
            capsys=capsys,
        )
        assert code == 0
        assert stdout == ""
        assert out.read_text() == run_experiment(ExperimentConfig(count=2, seed=5))

    def test_experiment_count_validation(self, capsys, monkeypatch):
        code, _, err = run_cli(
            ["experiment", "--count", "0"], capsys=capsys
        )
        assert code == 1
        assert "count" in err
