"""Smoke test of the benchmark itself; takes about half a minute.

    python3 perfbench/smoke.py

Runs every workload at tiny size, untraced and traced, and checks that
each prints exactly the metrics BENCHMARK.json names, with their units,
both as text lines and in the closing JSON object; that the traced spans
nest (each child lies within its parent); and that the benchmark refuses
to run, printing no result, when the gibbsrot sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from spans import nesting_violations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(workload: str, trace: int) -> list[str]:
    proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.2",
               "--trace", str(trace), "--tiny")
    if proc.returncode:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        errors.append(f"correct {result['correct']}, attempted {result['attempted']}")
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        errors.append(f"metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    printed = {ln.split()[0]: ln.split()[-1] for ln in lines[:-1] if not ln.startswith("#")}
    if printed != want:
        errors.append(f"printed {sorted(set(printed) ^ set(want))} differ from BENCHMARK.json")
    if trace:
        spans = json.loads((ROOT / ".perfbench_out" / f"trace-{workload}-seed7.json").read_text())["spans"]
        nested = sum(parent >= 0 for _, _, _, parent, _, _ in spans)
        if not nested or nesting_violations(spans):
            errors.append(f"{nesting_violations(spans)} of {nested} child spans outside their parent")
    return errors


def check_bare() -> list[str]:
    """A directory holding only BENCHMARK.json and the benchmark."""
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "--workload", "batch-finite", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or "{" in proc.stdout:
        return [f"exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    failures = 0
    cases = [(w["name"], t) for w in SPEC["workloads"] for t in (0, 1)]
    for workload, trace in cases:
        errors = check_run(workload, trace)
        failures += bool(errors)
        print(f"{'FAIL' if errors else 'ok  '} {workload} trace {trace}", *errors, sep="\n    ")
    errors = check_bare()
    failures += bool(errors)
    print(f"{'FAIL' if errors else 'ok  '} refuses to run without the sources", *errors, sep="\n    ")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
