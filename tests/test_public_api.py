"""The documented entry points and commands run as the README shows them."""

import ast
import io
import re
import shlex
from pathlib import Path

import ccwidth
from ccwidth.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_entry_points_and_all_resolve():
    text = README.read_text()
    block = re.search(r"## Library entry points\n\n```python\n(.*?)```", text, re.S)
    assert block is not None, "README lost its library entry points block"
    exec(block.group(1), {})
    assert len(ccwidth.__all__) == len(set(ccwidth.__all__))
    for name in ccwidth.__all__:
        assert hasattr(ccwidth, name), name


def test_readme_command_line_block_runs(tmp_path, capsys, monkeypatch):
    """Each line of the "Command line" block exits 0, pipes included."""
    text = README.read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S)
    assert block is not None, "README lost its command line block"
    monkeypatch.chdir(tmp_path)
    lines = block.group(1).splitlines()
    assert len(lines) >= 5
    for line in lines:
        stdout = ""
        for stage in line.split("|"):
            prog, *argv = shlex.split(stage)
            assert prog == "ccwidth", line
            monkeypatch.setattr("sys.stdin", io.StringIO(stdout))
            code = main(argv)
            stdout, err = capsys.readouterr()
            assert code == 0, (line, err)


def test_benchmark_names_are_exported():
    """Every name the benchmark reads off ``lib`` (or ``self.lib``) is exported."""
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Attribute) or node.attr.startswith("__"):
                continue
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id == "lib" or (
                isinstance(owner, ast.Attribute) and owner.attr == "lib"
            ):
                names.add(node.attr)
    assert len(names) >= 20, sorted(names)
    assert sorted(names - set(ccwidth.__all__)) == []


def test_every_export_has_a_caller():
    """Every export is used by the library or the benchmark, or documented.

    Only code counts: names and attributes in the AST of the modules
    (``__init__.py`` aside) and of ``perfbench/``, not their docstrings.
    """
    paths = sorted((ROOT / "src" / "ccwidth").glob("*.py"))
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in paths:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    readme = README.read_text()
    unused = [
        name
        for name in ccwidth.__all__
        if name not in used and not re.search(rf"\b{name}\b", readme)
    ]
    assert unused == []


def test_only_the_solvers_name_the_decision_search():
    """The k loop is the one caller of a decision and of its budget error.

    Every name, attribute and imported name in the AST of the other
    library modules counts, so a second loop over k cannot come back.
    """
    search = {"_ordered_cover_within", "SearchBudgetExceeded"}
    for path in sorted((ROOT / "src" / "ccwidth").glob("*.py")):
        if path.name == "solvers.py":
            continue
        names = {
            getattr(node, field)
            for node in ast.walk(ast.parse(path.read_text()))
            for field in ("id", "attr", "name")
            if isinstance(getattr(node, field, None), str)
        }
        assert sorted(names & search) == [], path.name
