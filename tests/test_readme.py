"""The README's library tour must run against the current package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_library_tour_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Quick library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
