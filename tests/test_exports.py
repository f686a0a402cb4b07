"""The package's public names: each library module's ``__all__`` declares
its own, and ``gibbsrot`` re-exports exactly those, plus ``__version__``."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import gibbsrot

LIBRARY = ["core", "algebra", "alignment", "bridges", "cayley", "errors"]


def top_level_constants(module):
    """Upper-case public names that ``module``'s own source assigns."""
    tree = ast.parse(Path(module.__file__).read_text())
    return {
        target.id
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
        if target.id.isupper() and not target.id.startswith("_")
    }


def test_package_exports_exactly_the_modules_public_names():
    exported = gibbsrot.__all__
    assert len(exported) == len(set(exported))
    modules = [importlib.import_module(f"gibbsrot.{name}") for name in LIBRARY]
    assert set(exported) == {"__version__"}.union(*(m.__all__ for m in modules))
    for module in modules:
        for name in module.__all__:
            assert getattr(gibbsrot, name) is getattr(module, name), name
        defined = {
            name for name, obj in vars(module).items()
            if (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__ and not name.startswith("_")
        }
        missing = (defined | top_level_constants(module)) - set(module.__all__)
        assert not missing, (module.__name__, missing)

    # importing the package leaves the command-line tool unloaded
    package_root = str(Path(gibbsrot.__file__).resolve().parents[1])
    pythonpath = filter(None, [package_root, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    probe = "import sys, gibbsrot; print('gibbsrot.cli' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
