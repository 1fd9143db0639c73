"""The README's library example runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first python block under the README's "## Library" heading."""
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert block, "no python block under ## Library"
    return block.group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    # the example writes curve.csv into the working directory
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {"__name__": "readme"})
    assert (tmp_path / "curve.csv").read_text().startswith("E,T2,R2,")
