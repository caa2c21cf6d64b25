"""The five text readers either parse their input or raise ``ValueError``.

Valid files of every format are truncated or token-mutated, and each
reader must return an object or raise ``ValueError``; any other
exception would reach the command line as a traceback.  Mutated
integers are small or at least the edge-list vertex cap, which the
reader must refuse before ``Graph(n)`` allocates n neighborhood masks.
Blocks of rows are read as one slice, so the tests below also pin that
an error still names its physical line and that a huge row count
allocates nothing in proportion to it.
"""

import functools
import random
import tracemalloc

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
from conftest import neighbor_sets


def _instances():
    k1 = Graph(1)
    tiny = OrderedCliqueCover(k1, [{0}])
    yield CliqueSumInstance(g1=k1, c1=tiny, g2=k1, c2=tiny, shared={0: 0})
    yield path_sum_instance(1)
    yield random_clique_sum_instance(random.Random("readers"), n_hi=6)


@functools.cache
def _samples():
    """(reader name, valid text, reader) triples over a few instances.

    Built on first use, not at import, so a library fault fails the
    tests that use them one by one instead of the module's collection.
    """
    samples = []
    for inst in _instances():
        g1 = inst.g1
        cert = compose_covers(inst.g1, inst.c1, inst.g2, inst.c2, inst.shared)
        ordering = bandwidth_exact(g1).witness
        samples += [
            ("edge list", format_edge_list(g1), parse_edge_list),
            ("cover", format_cover(inst.c1.cliques), lambda t, g=g1: parse_cover(t, g)),
            ("ordering", format_ordering(ordering), parse_ordering),
            ("certificate", format_certificate(cert), parse_certificate),
            ("instance bundle", _format_instance(inst), _parse_instance),
        ]
    return samples


READERS = ("certificate", "cover", "edge list", "instance bundle", "ordering")
TOKENS = st.one_of(
    st.integers(-3, 64).map(str),
    st.integers(MAX_VERTICES, 10**12).map(str),
    st.sampled_from(["cover", "shared", "ordering", "w1", "bound", "x", "1.5", ""]),
)


@st.composite
def _mutated(draw, reader):
    """A valid file of ``reader``'s format after one to three edits."""
    text = draw(st.sampled_from([t for name, t, _ in _samples() if name == reader]))
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
    read = next(r for name, _, r in _samples() if name == reader)
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
    assert len(neighbor_sets(parse_edge_list(f"{MAX_VERTICES} 0\n"))) == MAX_VERTICES
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


class TestSliceReads:
    """Edge blocks and cover rows are parsed as one slice of lines."""

    def test_bad_edge_row_after_blank_lines(self):
        message = r"^edge list line 6: expected integers, got '1 x'$"
        with pytest.raises(ValueError, match=message):
            parse_edge_list("3 3\n0 1\n\n  \n\n1 x\n0 2\n")

    def test_bad_cover_row_after_blank_lines(self):
        message = r"^cover line 5: expected integers, got '2 y'$"
        with pytest.raises(ValueError, match=message):
            parse_cover("cover 2\n\n0 1\n\n2 y\n", Graph(3))

    def test_bad_certificate_cover_row_after_blank_lines(self):
        text = "2 1\n0 1\n\ncover 1\n\n\n0 z\nw1 0\n"
        message = r"^certificate line 7: expected integers, got '0 z'$"
        with pytest.raises(ValueError, match=message):
            parse_certificate(text)

    @pytest.mark.parametrize(
        "read, text, message",
        [
            (
                parse_edge_list,
                "3 1000000000000\n0 1\n\n1 2\n\n",
                "edge list ends early: expected a line of integers after line 5",
            ),
            (
                lambda t: parse_cover(t, Graph(2)),
                "cover 1000000000000\n0\n1\n",
                "cover ends early: expected a line of integers after line 3",
            ),
        ],
        ids=["edge-list", "cover"],
    )
    def test_huge_count_ends_early_without_allocating(self, read, text, message):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                read(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(info.value) == message
        assert peak < 100_000  # bytes: nothing sized by the 10**12 count


class TestRepeatedCoverVertex:
    """A cover row listing a vertex twice could not round-trip: an error."""

    def test_cover(self):
        message = r"^cover line 2: vertex 0 listed twice, got '0 1 0'$"
        with pytest.raises(ValueError, match=message):
            parse_cover("cover 1\n0 1 0\n", Graph(2))

    def test_first_repeat_is_named(self):
        message = r"^cover line 4: vertex 2 listed twice, got '3 2 2 3'$"
        with pytest.raises(ValueError, match=message):
            parse_cover("cover 2\n0 1\n\n3 2 2 3\n", Graph(4))

    def test_certificate(self):
        inst = path_sum_instance(1)
        cert = compose_covers(inst.g1, inst.c1, inst.g2, inst.c2, inst.shared)
        lines = format_certificate(cert).splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith("cover ")) + 1
        assert lines[at] == "3"
        lines[at] = "3 3"
        message = rf"^certificate line {at + 1}: vertex 3 listed twice, got '3 3'$"
        with pytest.raises(ValueError, match=message):
            parse_certificate("\n".join(lines) + "\n")

    def test_long_row_is_one_error_line(self, tmp_path, capsys):
        """The first repeat of a 200,000-entry row is found in one pass."""
        row = " ".join(map(str, [*range(200_000), 123_456]))
        cert = tmp_path / "cert.txt"
        cert.write_text(f"1 0\ncover 1\n{row}\nw1 0\nw2 0\nbound 0\nachieved 0\n")
        assert main(["verify", str(cert)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        # the quote stops after 200 characters and names the line's length
        assert err == (
            "error: certificate line 3: vertex 123456 listed twice, got "
            f"{row[:200]!r}... ({len(row)} characters)\n"
        )

    @pytest.mark.parametrize("length", [200, 201])
    def test_quote_is_cut_above_200_characters(self, length):
        row = "1 1 " + "2" * (length - 4)  # vertex 1 twice, then one long entry
        got = repr(row) if length == 200 else f"{row[:200]!r}... (201 characters)"
        with pytest.raises(ValueError) as info:
            parse_cover(f"cover 1\n{row}\n", Graph(3))
        assert str(info.value) == f"cover line 2: vertex 1 listed twice, got {got}"

    def test_instance_bundle(self):
        text = _format_instance(path_sum_instance(1)).replace(
            "cover 3\n0\n", "cover 3\n0 0\n", 1
        )
        message = r"^instance bundle line 5: vertex 0 listed twice, got '0 0'$"
        with pytest.raises(ValueError, match=message):
            _parse_instance(text)
