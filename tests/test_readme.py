"""The README's library quickstart and example config run against the current API."""
import contextlib
import io
import json
import re
from pathlib import Path

from qvipen import ExperimentConfig
from qvipen.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue().startswith("6 True\n")


def test_readme_example_config_runs(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    mapping = json.loads(blocks[0])
    assert ExperimentConfig(**mapping) == ExperimentConfig.from_mapping(mapping)
    path = tmp_path / "config.json"
    path.write_text(blocks[0])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["table", "--config", str(path)]) == 0
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("case,c,rho,")
    assert len(lines) == 1 + 9
