"""Every ``python`` code block in README.md runs, in a fresh interpreter with
warnings as errors, and every ``dto`` line of its CLI block runs, so the
documented API and commands cannot drift from the code."""

import dataclasses
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dtopt
from dtopt.cli import main
from dtopt.report import ExperimentConfig, parse_config

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
QUICK_RUN = ROOT / "demos" / "quick_run.cfg"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
COMMANDS = re.findall(r"^dto .*$", README.read_text(), re.M)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code, tmp_path):
    src = str(Path(dtopt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_has_cli_commands():
    assert {shlex.split(line)[1] for line in COMMANDS} == {"run", "surface", "floorscan"}


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_cli_command_runs(line, tmp_path, monkeypatch, capsys):
    # relative paths in the commands resolve against a copy of the repo's demos/
    shutil.copytree(ROOT / "demos", tmp_path / "demos")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DTO_OUTPUT_DIR", raising=False)
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err


def test_quick_run_config_names_every_key():
    text = QUICK_RUN.read_text()
    keys = [line.partition("=")[0].strip() for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))
    parse_config(text)


def test_performance_table_has_a_row_per_workload_and_a_column_per_metric():
    # The table of current numbers names what BENCHMARK.json names, so it
    # cannot drift from the benchmark.
    section = README.read_text().split("\n## Performance\n")[1].split("\n## ")[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")]
    header, body = rows[0], rows[2:]
    assert sorted(header[1:]) == sorted(f"`{m['name']}` ({m['unit']})"
                                        for m in BENCHMARK["end_to_end"])
    assert sorted(row[0] for row in body) == sorted(f"`{w['name']}`"
                                                   for w in BENCHMARK["workloads"])
    for row in body:
        assert len(row) == len(header)
        for cell in row[1:]:
            float(cell.replace(",", ""))
