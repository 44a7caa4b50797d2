"""The README's library tour and full config must work with the current package."""

import json
import re
from pathlib import Path

from beamwalk.config import config_echo, parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_library_tour_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Quick library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_full_form_config_parses():
    section = README.read_text(encoding="utf-8").split("Full form", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    config = parse_config(json.loads(block), source="README.md")
    assert parse_config(config_echo(config)) == config
