"""The package's export lists name only what exists, it imports nothing
past numpy and the standard library, and the README's library code and
command lines run."""

import ast
import importlib
import os
import pkgutil
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import gamelcp
from gamelcp.cli import main

ROOT = Path(__file__).resolve().parents[1]

MODULES = ["gamelcp"] + [
    f"gamelcp.{info.name}" for info in pkgutil.iter_modules(gamelcp.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


def test_the_package_imports_only_numpy_and_the_standard_library():
    # README and pyproject.toml name numpy as the one dependency; a package
    # installed beside it would let a stray import pass every other test
    stray = []
    for path in sorted((ROOT / "src" / "gamelcp").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "numpy" and top not in sys.stdlib_module_names:
                    stray.append(f"{path.name}:{node.lineno} {name}")
    assert stray == []


def test_readme_quick_tour_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick tour\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_command_lines_run(tmp_path, monkeypatch):
    # each line of the sh block, in order, in one directory: later lines
    # read the files that earlier ones wrote
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("gamelcp ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
