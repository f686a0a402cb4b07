"""The examples the package ships: the docstring examples of every
``gibbsrot`` module (they pin the handedness and the composition order)
and every script under ``demos/``, run as a user runs it."""

import doctest
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gibbsrot

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["gibbsrot"] + sorted(
    m.name for m in pkgutil.iter_modules(gibbsrot.__path__, "gibbsrot.")
)
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_docstring_examples_are_found():
    attempted = sum(
        doctest.testmod(importlib.import_module(name), report=False).attempted
        for name in MODULES
    )
    assert attempted >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    package_root = str(Path(gibbsrot.__file__).resolve().parents[1])
    pythonpath = filter(None, [package_root, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
