"""``tools/output_diff.py``, the byte-for-byte comparison of two checkouts,
run as a script: against this checkout itself, and against a copy of
``src`` with one op changed."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def output_diff(parent: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_diff.py"), "--parent", str(parent)],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_output_diff_finds_no_record_differing_from_this_checkout():
    proc = output_diff(ROOT)
    assert proc.returncode == 0, f"{proc.stdout}\n{proc.stderr}"
    assert re.fullmatch(r"0 of [1-9][0-9]* records differ\n", proc.stdout), proc.stdout


def test_output_diff_names_the_op_whose_bytes_changed(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    core = tmp_path / "src" / "gibbsrot" / "core.py"
    # rebound at the end of core, so the package exports the changed op
    core.write_text(core.read_text() + "\n_invert = invert\n\n\ndef invert(r):\n"
                    "    return _invert(r) * 0.5\n")
    proc = output_diff(tmp_path)
    assert proc.returncode == 1, f"{proc.stdout}\n{proc.stderr}"
    assert re.search(r"^[1-9][0-9]* of [0-9]+ records differ$", proc.stdout, re.M), proc.stdout
    assert re.findall(r"^  (\w+): [0-9]+ records", proc.stdout, re.M) == ["invert"]
