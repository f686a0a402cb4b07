"""``tools/bench_record.py`` on a stub benchmark: the runs it makes and
the summary it writes, in a directory that is not a git checkout."""

import json
import os
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# prints one result line per run; the values depend on workload and seed
STUB = '''
import argparse, json
ap = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(flag)
a = ap.parse_args()
k = {"fast": 1.0, "slow": 10.0}[a.workload] * int(a.seed)
print("# a log line first")
print(json.dumps({"workload": a.workload, "trace": a.trace, "metrics": {
    "throughput": {"value": 100.0 * k, "unit": "rot/s"},
    "latency": {"value": 7.0 / k, "unit": "us"},
}}))
'''


def test_bench_record_summarizes_each_metric(tmp_path, monkeypatch):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(STUB)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"],
        "run_seconds": 1,
        "workloads": [{"name": "fast"}, {"name": "slow"}],
        "end_to_end": [{"name": "throughput", "better": "higher"}],
        "per_layer": [{"name": "latency", "better": "lower"}],
    }))
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import bench_record
    finally:
        sys.path.remove(str(ROOT / "tools"))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # as on macOS
    assert bench_record.main(["--label", "t", "--root", str(tmp_path)]) == 0

    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["commit"] == "unknown"
    assert record["cpus_usable"] == os.cpu_count()
    assert record["command"]["trace"] == 0
    for name, scale in (("fast", 1.0), ("slow", 10.0)):
        workload = record["workloads"][name]
        assert [run["workload"] for run in workload["runs"]] == [name] * 3
        assert [run["trace"] for run in workload["runs"]] == ["0"] * 3
        summary = workload["summary"]
        throughput = [100.0 * scale * seed for seed in (1, 2, 3)]
        latency = [7.0 / (scale * seed) for seed in (1, 2, 3)]
        for metric, values, best, unit in (("throughput", throughput, max(throughput), "rot/s"),
                                           ("latency", latency, min(latency), "us")):
            got = summary[metric]
            median = statistics.median(values)
            assert got["unit"] == unit
            assert got["values"] == values
            assert got["best"] == best
            assert got["median"] == median
            assert got["spread"] == (max(values) - min(values)) / median

    # a traced record of one workload: the flag reaches every run and the record
    assert bench_record.main(["--label", "tr", "--root", str(tmp_path), "--trace", "1",
                              "--workload", "slow"]) == 0
    record = json.loads((tmp_path / "BENCH_tr.json").read_text())
    assert record["command"]["trace"] == 1
    assert list(record["workloads"]) == ["slow"]
    assert [run["trace"] for run in record["workloads"]["slow"]["runs"]] == ["1"] * 3
    with pytest.raises(SystemExit):  # a name BENCHMARK.json does not list
        bench_record.main(["--label", "x", "--root", str(tmp_path), "--workload", "none"])
    assert not (tmp_path / "BENCH_x.json").exists()
