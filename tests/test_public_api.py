"""The documented entry points and the package's export list agree."""

import re
from pathlib import Path

import ccwidth

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_entry_points_and_all_resolve():
    text = README.read_text()
    block = re.search(r"## Library entry points\n\n```python\n(.*?)```", text, re.S)
    assert block is not None, "README lost its library entry points block"
    exec(block.group(1), {})
    assert len(ccwidth.__all__) == len(set(ccwidth.__all__))
    for name in ccwidth.__all__:
        assert hasattr(ccwidth, name), name
