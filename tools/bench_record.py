"""Record benchmark runs of a checkout into one ``BENCH_<label>.json``.

Usage:

    python3 tools/bench_record.py --label L [--root DIR] [--trace 0|1] [--workload W ...]

Runs the benchmark command of the checkout's ``BENCHMARK.json`` (its own
``perfbench/run.py``, unchanged) with ``--trace`` (default 0: the
end-to-end metrics; 1: the per-layer metrics of a traced run) for
``run_seconds``, once per workload and seed, seeds 1..3, the workloads
taken in turn within each seed so that a slow spell of a shared host
spreads over all of them; each run is a fresh process of this interpreter.
``--workload`` (repeatable) runs only the named workloads, default all.
``--root`` names the checkout (default: the one holding this script), so
a copy of another commit is recorded by the same tool.  ``BENCH_<label>.json``, written to
the current directory, holds per workload the parsed last JSON line of
every run and, per metric, the values, the best of the runs (by the
``better`` direction in ``BENCHMARK.json``), their median and their
spread ``(max - min) / median``; and the commit, the Python and numpy
versions, the CPU count and the CPUs this process may use (the CPU count
where the OS has no ``os.sched_getaffinity``, as on macOS).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SEEDS = (1, 2, 3)


def run_once(root: Path, spec: dict, workload: str, seed: int, trace: int) -> dict:
    """The parsed last JSON line of one run of the benchmark command."""
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: its values over ``runs``, the best, the median and the
    spread ``(max - min) / median``."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        pick = min if better.get(name) == "lower" else max
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "values": values,
            "best": pick(values),
            "median": median,
            "spread": (max(values) - min(values)) / median if median else None,
        }
    return out


def commit_of(root: Path) -> str:
    """``git rev-parse HEAD`` of ``root``, with ``+dirty`` when tracked
    files differ from it."""
    git = ["git", "-C", str(root)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode != 0:
        return "unknown"
    dirty = subprocess.run(git + ["diff", "--quiet", "HEAD"]).returncode != 0
    return head.stdout.strip() + ("+dirty" if dirty else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", type=Path, default=HERE.parent)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", dest="workloads")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        if unknown := set(args.workloads) - set(workloads):
            parser.error(f"no such workload in BENCHMARK.json: {', '.join(sorted(unknown))}")
        workloads = [w for w in workloads if w in args.workloads]

    runs = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            print(f"# {w} seed {seed}", file=sys.stderr, flush=True)
            runs[w].append(run_once(root, spec, w, seed, args.trace))

    record = {
        "label": args.label,
        "commit": commit_of(root),
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                        else os.cpu_count()),
        "machine": platform.machine(),
        "command": {"argv": spec["command"], "seconds": spec["run_seconds"], "trace": args.trace,
                    "seeds": list(SEEDS)},
        "workloads": {
            w: {"summary": summarize(runs[w], better), "runs": runs[w]} for w in workloads
        },
    }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
