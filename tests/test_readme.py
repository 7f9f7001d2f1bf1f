"""The README's examples run against the package as it is: its Python
blocks, so that an API change cannot leave them calling names that no longer
exist, and its JSON configs, so that they cannot drift from the config
schema."""

import re
from pathlib import Path

from flowlab.cli import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(),
                      re.S | re.M)


def test_readme_python_blocks_run():
    blocks = _blocks("python")
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_readme_json_configs_parse(tmp_path):
    blocks = _blocks("json")
    assert blocks, "README.md has no json block"
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme_{i}.json"
        path.write_text(block)
        parse_config(path)
