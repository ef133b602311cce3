"""Every ``python`` code block in README.md runs, in a fresh interpreter with
warnings as errors, and every ``dto`` line of its CLI block runs, so the
documented API and commands cannot drift from the code."""

import dataclasses
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
