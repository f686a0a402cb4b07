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


def changed_copy(tmp_path, module: str, name: str, body: str) -> Path:
    """A copy of ``src`` whose public op ``name`` in ``module`` is rebound at
    the module's end, so the package exports the changed op; ``body`` calls
    the original as ``_old``."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "gibbsrot" / f"{module}.py"
    path.write_text(path.read_text() + f"\n_old = {name}\n\n\ndef {name}(*args, **kw):\n{body}")
    return tmp_path


def test_output_diff_finds_no_record_differing_from_this_checkout():
    proc = output_diff(ROOT)
    assert proc.returncode == 0, f"{proc.stdout}\n{proc.stderr}"
    assert re.fullmatch(r"0 of [1-9][0-9]* records differ\n", proc.stdout), proc.stdout


def test_output_diff_names_the_op_whose_bytes_changed(tmp_path):
    proc = output_diff(changed_copy(tmp_path, "core", "invert", "    return _old(*args, **kw) * 0.5\n"))
    assert proc.returncode == 1, f"{proc.stdout}\n{proc.stderr}"
    assert re.search(r"^[1-9][0-9]* of [0-9]+ records differ$", proc.stdout, re.M), proc.stdout
    assert re.findall(r"^  (\w+): [0-9]+ records", proc.stdout, re.M) == ["invert"]


def differing(proc) -> tuple[int, dict[str, int], list[str]]:
    """The differing-record total, the per-op counts and the keys printed."""
    assert "Traceback" not in proc.stdout + proc.stderr, proc.stderr
    total = int(re.search(r"^([0-9]+) of [0-9]+ records differ$", proc.stdout, re.M)[1])
    per_op = {op: int(n) for op, n in re.findall(r"^  (\w+): ([0-9]+) records", proc.stdout, re.M)}
    return total, per_op, re.findall(r"^(\S+):(?:$| only in )", proc.stdout, re.M)


def test_output_diff_reports_a_gibbs_output_holding_nan(tmp_path):
    # the parent's op returns NaN where this checkout's returns a value: the
    # matrix comparison has no matrix for that row and reports its move as inf
    parent = changed_copy(tmp_path, "core", "invert", "    return _old(*args, **kw) * np.nan\n")
    proc = output_diff(parent)
    assert proc.returncode == 1, f"{proc.stdout}\n{proc.stderr}"
    total, per_op, keys = differing(proc)
    assert list(per_op) == ["invert"] and per_op["invert"] == total == len(keys) > 0
    assert re.search(r"^  invert: .* largest matrix-entry difference inf$", proc.stdout, re.M)


def test_output_diff_counts_a_call_flipping_between_error_and_result_once(tmp_path):
    # frame_transport returns a named tuple; each call is one record, its
    # error or both fields, so a flip is one differing record
    parent = changed_copy(tmp_path, "alignment", "frame_transport", (
        "    if 'tol' in kw:\n"
        "        raise InvalidInputError('tol given')\n"
        "    return _old(*args, **kw)\n"))
    proc = output_diff(parent)
    assert proc.returncode == 1, f"{proc.stdout}\n{proc.stderr}"
    total, per_op, keys = differing(proc)
    assert per_op == {"frame_transport": 3} and total == 3 and len(keys) == 3
    assert proc.stdout.count("parent InvalidInputError: tol given") == 3
