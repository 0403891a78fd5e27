"""The package imports nothing outside the Python standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dca_lab

SOURCES = sorted(Path(dca_lab.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_absolute_import_is_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    assert names - sys.stdlib_module_names == set()


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"agents.py", "cli.py", "engine.py"}


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    """Every CLI run pays for its imports at start-up; these two cost most and the package needs neither.

    ``-S`` keeps ``site`` and the ``.pth`` files it runs out of the count.
    """
    code = "import sys, dca_lab.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    env = dict(os.environ, PYTHONPATH=str(SOURCES[0].parent.parent))
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
