"""The five text readers either parse their input or raise ``ValueError``.

Valid files of every format are truncated or token-mutated, and each
reader must return an object or raise ``ValueError``; any other
exception would reach the command line as a traceback.  Mutated
integers are small or at least the edge-list vertex cap, which the
reader must refuse before ``Graph(n)`` allocates n adjacency sets.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccwidth import (
    Graph,
    OrderedCliqueCover,
    bandwidth_exact,
    compose_covers,
    format_certificate,
    format_cover,
    format_edge_list,
    format_ordering,
    parse_certificate,
    parse_cover,
    parse_edge_list,
    parse_ordering,
    path_sum_instance,
    random_clique_sum_instance,
)
from ccwidth.cli import _format_instance, _parse_instance, main
from ccwidth.generators import CliqueSumInstance
from ccwidth.graph import MAX_VERTICES


def _instances():
    k1 = Graph(1)
    tiny = OrderedCliqueCover(k1, [{0}])
    yield CliqueSumInstance(g1=k1, c1=tiny, g2=k1, c2=tiny, shared={0: 0})
    yield path_sum_instance(1)
    yield random_clique_sum_instance(random.Random("readers"), n_hi=6)


def _samples():
    """(reader name, valid text, reader) triples over a few instances."""
    for inst in _instances():
        g1 = inst.g1
        cert = compose_covers(inst.g1, inst.c1, inst.g2, inst.c2, inst.shared)
        ordering = bandwidth_exact(g1).witness
        yield "edge list", format_edge_list(g1), parse_edge_list
        yield "cover", format_cover(inst.c1.cliques), lambda t, g=g1: parse_cover(t, g)
        yield "ordering", format_ordering(ordering), parse_ordering
        yield "certificate", format_certificate(cert), parse_certificate
        yield "instance bundle", _format_instance(inst), _parse_instance


SAMPLES = list(_samples())
READERS = sorted({name for name, _, _ in SAMPLES})
TOKENS = st.one_of(
    st.integers(-3, 64).map(str),
    st.integers(MAX_VERTICES, 10**12).map(str),
    st.sampled_from(["cover", "shared", "ordering", "w1", "bound", "x", "1.5", ""]),
)


@st.composite
def _mutated(draw, reader):
    """A valid file of ``reader``'s format after one to three edits."""
    text = draw(st.sampled_from([t for name, t, _ in SAMPLES if name == reader]))
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            text = text[: draw(st.integers(0, len(text)))]
            continue
        lines = text.split("\n")
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split(" ")
        j = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(["drop", "replace", "insert"]))
        if edit == "drop":
            del tokens[j]
        elif edit == "replace":
            tokens[j] = draw(TOKENS)
        else:
            tokens.insert(j, draw(TOKENS))
        lines[i] = " ".join(tokens)
        text = "\n".join(lines)
    return text


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_input_parses_or_raises_value_error(reader, data):
    read = next(r for name, _, r in SAMPLES if name == reader)
    text = data.draw(_mutated(reader))
    try:
        read(text)
    except ValueError:
        pass


class TestNegativeCounts:
    """A negative count is one ``error:`` line and exit status 1."""

    def _run(self, args, capsys):
        code = main(args)
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        return err

    def test_edge_count(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("3 -1\n")
        err = self._run(["ccw", str(graph)], capsys)
        assert err == "error: edge list line 1: counts must be >= 0, got '3 -1'\n"

    def test_cover_count(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text(format_edge_list(Graph(1)))
        cover = tmp_path / "c.txt"
        cover.write_text("cover -1\n")
        args = ["compose", "--graph1", str(graph), "--graph2", str(graph)]
        args += ["--cover1", str(cover), "--shared", "0=0"]
        err = self._run(args, capsys)
        assert err == "error: cover line 1: counts must be >= 0, got 'cover -1'\n"

    def test_shared_count(self, tmp_path, capsys):
        bundle = tmp_path / "inst.txt"
        bundle.write_text(
            _format_instance(path_sum_instance(1)).replace("shared 1", "shared -1")
        )
        err = self._run(["compose", "--instance", str(bundle)], capsys)
        assert err.startswith("error: instance bundle line ")
        assert err.endswith(": counts must be >= 0, got 'shared -1'\n")


def test_vertex_cap(tmp_path, capsys):
    """A header over the vertex cap is one error line, before any allocation."""
    assert len(parse_edge_list(f"{MAX_VERTICES} 0\n").adjacency) == MAX_VERTICES
    graph = tmp_path / "g.txt"
    graph.write_text("99999999 0\n")
    code = main(["ccw", str(graph)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == (
        f"error: edge list line 1: at most {MAX_VERTICES} vertices allowed, "
        "got '99999999 0'\n"
    )


def test_error_names_the_physical_line():
    message = r"^edge list line 4: expected 2 integers, got '1'$"
    with pytest.raises(ValueError, match=message):
        parse_edge_list("3 2\n\n0 1\n1\n")


def test_ends_early_names_the_input():
    with pytest.raises(ValueError, match="^cover ends early"):
        parse_cover("cover 2\n0\n", Graph(2))


def test_trailing_lines_are_ignored():
    g = parse_edge_list("2 1\n0 1\nnot part of the edge list\n")
    assert g.edges() == [(0, 1)]


def test_verify_rejects_bare_cover_header(tmp_path, capsys):
    """A certificate whose cover line lost its count is one error line."""
    inst = path_sum_instance(2)
    cert = compose_covers(inst.g1, inst.c1, inst.g2, inst.c2, inst.shared)
    lines = format_certificate(cert).splitlines(keepends=True)
    cover_at = next(i for i, ln in enumerate(lines) if ln.startswith("cover "))
    f = tmp_path / "cert.txt"
    f.write_text("".join(lines[:cover_at]) + "cover\n")
    code = main(["verify", str(f)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == (
        f"error: certificate line {cover_at + 1}: expected 'cover N', got 'cover'\n"
    )
