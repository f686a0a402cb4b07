"""The gibbsrot benchmark: one workload, closed loop, one client, one thread.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in BENCHMARK.json and defined in workloads.py.  The
seed generates every input.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds for ``--seconds``,
prints the per-layer metrics and writes the spans to ``.perfbench_out/``
at the repository root.  ``--tiny`` shrinks every input for the smoke
test.

Each run repeats rounds of calls, one call per distinct input.  Throughput
and latencies use each input's best-of-k latency over the k rounds: on a
shared 2-CPU virtual machine the speed of the same call swings by up to 2x
over seconds as other tenants load the host, and the minimum filters that
out where a median of all calls does not.

Each distinct input's outputs are checked once against references,
outside the timed region; every later call on that input must reproduce
them exactly.  The last line of standard output is one JSON object:
``correct``, ``attempted`` and ``failed``, and ``metrics``.  ``attempted``
counts the rows of the distinct inputs and ``failed`` the rows among them
failing a reference check, or every row of an input a later call gave
another output for, so a given seed and code give the same counts however
many rounds a run fits in.  Rows failing only through one of two known defects
(near-half-turn extraction, ROADMAP item 1; align_pair's ill-conditioned
gamma, see workloads.py) count as failed and lower ``pass_rate`` but leave
``correct`` true; any other failure makes it false.
"""

from __future__ import annotations

import os

# One thread for every BLAS/OpenMP pool, in this process and its children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_out"

SETUP_LAUNCHES = 7

END_TO_END = {
    "setup_s": "s",
    "throughput_rot_per_s": "rot/s",
    "latency_p50_us": "us",
    "latency_tail_us": "us",
    "pass_rate": "ratio",
    "peak_rss_mb": "MiB",
}

NS_PER_ROW = (
    "core.matrix_to_gibbs", "core.matrix_to_gibbs_unchecked", "core.is_rotation_matrix",
    "core.gibbs_to_matrix", "core.rotate_vector", "algebra.compose", "alignment.align_pair",
    "bridges.quaternion_multiply", "bridges.quaternion_to_matrix",
    "bridges.matrix_to_quaternion", "numpy.matmul",
)
PIPELINE_SPANS = ("core.matrix_to_gibbs", "algebra.compose", "core.rotate_vector",
                  "alignment.align_pair", "core.gibbs_to_matrix")
BUSY_S = ("cli.main", "alignment.frame_transport", "alignment.align_pair",
          "algebra.compose", "core.rotate_vector")
# ratio name -> (numerator span, base span), both in ns per row
RATIOS = {
    "algebra.compose.vs_quaternion": ("algebra.compose", "bridges.quaternion_multiply"),
    "core.gibbs_to_matrix.vs_quaternion": ("core.gibbs_to_matrix", "bridges.quaternion_to_matrix"),
}

PER_LAYER = {
    **{f"{s}.ns_per_row": "ns/row" for s in NS_PER_ROW},
    **{f"{s}.us_per_call": "us" for s in PIPELINE_SPANS},
    **{f"{s}.busy_s": "s" for s in BUSY_S},
    "cli.self_s": "s",
    "alignment.frame_transport.self_s": "s",
    "algebra.compose.calls": "count",
    "core.rotate_vector.calls": "count",
    **{name: "ratio" for name in RATIOS},
    **{f"{s}.failed_rows": "count" for s in (*PIPELINE_SPANS, "cli.main")},
    "core.pi_encoded_rows": "count",
    "core.matrix_to_gibbs.halfturn_rows": "count",
    "trace_overhead_ratio": "ratio",
}


@dataclass
class Stats:
    """Timed calls over whole rounds; call i ran item i % n_items."""

    n_items: int
    latencies_ns: list = field(default_factory=list)
    rows: int = 0
    busy_s: float = 0.0

    def best_ns(self) -> np.ndarray:
        """Each input's best-of-k latency, k being the number of rounds."""
        return np.asarray(self.latencies_ns).reshape(-1, self.n_items).min(axis=0)

    def throughput(self) -> float:
        """Rows per second with every input at its best-of-k latency."""
        rounds = len(self.latencies_ns) // self.n_items
        return float(self.rows / rounds / (self.best_ns().sum() / 1e9))

    def add(self, other: "Stats") -> None:
        self.latencies_ns += other.latencies_ns
        self.rows += other.rows
        self.busy_s += other.busy_s


class Verifier:
    """Checks each distinct input's outputs once against the references;
    later calls on the same input must reproduce those outputs exactly.
    An input whose later call does not fails all its rows, outside the
    known defects."""

    def __init__(self, wl):
        self.wl = wl
        self.checked = {}
        self.diverged = set()  # inputs a later call gave another output for

    def verify(self, k: int, out) -> None:
        item = self.wl.items[k]
        final = self.wl.final(out)
        if k not in self.checked:
            self.checked[k] = (final, self.wl.check(item, out))
        elif out is None or not _same(final, self.checked[k][0]):
            self.diverged.add(k)

    def _count(self, field: str) -> int:
        return sum(self.wl.rows(self.wl.items[k]) if k in self.diverged else getattr(res, field)
                   for k, (_, res) in self.checked.items())

    @property
    def attempted(self) -> int:
        return sum(self.wl.rows(self.wl.items[k]) for k in self.checked)

    @property
    def failed(self) -> int:
        return self._count("failed")

    @property
    def unexpected(self) -> int:
        return self._count("unexpected")


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return a == b
    return np.array_equal(a, b, equal_nan=True)


def measure(wl, ops, verifier, seconds: float, min_rounds: int, tracer=None,
            between_rounds=None) -> Stats:
    """Closed loop over rounds of the workload's items until ``seconds`` of
    timed calls and at least ``min_rounds`` rounds are done.  Checks,
    layer-split calls and ``between_rounds(busy_s)`` are not timed."""
    run = wl.run if tracer is None else tracer.wrap("pass", wl.run, 0)
    n = len(wl.items)
    stats = Stats(n)
    clock = time.perf_counter_ns
    i = 0
    while True:
        item = wl.items[i % n]
        if tracer is not None:
            tracer.pass_id += 1
        t0 = clock()
        try:
            out = run(item, ops)
        except Exception:  # a raising call fails every row of its pass
            out = None
            if not verifier.unexpected:
                traceback.print_exc()
        dt = clock() - t0
        stats.latencies_ns.append(dt)
        stats.busy_s += dt / 1e9
        stats.rows += wl.rows(item)
        verifier.verify(i % n, out)
        if tracer is not None:
            wl.layer_split(item, ops)
        i += 1
        if i % n:
            continue
        if between_rounds is not None:
            between_rounds(stats.busy_s)
        if stats.busy_s >= seconds and i // n >= min_rounds:
            return stats


class ColdStarts:
    """Fresh interpreters running coldstart.py, timed from launch to exit.

    The launches are spread evenly over the timed phase, between rounds, so
    that they meet the same machine conditions as the timed calls.
    """

    def __init__(self, workload: str, launches: int, seconds: float, profile: str):
        self.cmd = [sys.executable, str(HERE / "coldstart.py"), str(SRC), workload, profile]
        self.marks = [seconds * j / launches for j in range(launches)]
        self.times: list[float] = []

    def __call__(self, busy_s: float) -> None:
        while self.marks and busy_s >= self.marks[0]:
            self.marks.pop(0)
            t0 = time.perf_counter()
            proc = subprocess.run(self.cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            self.times.append(time.perf_counter() - t0)
            if proc.returncode:
                raise RuntimeError(f"cold start failed ({proc.returncode}): {proc.stderr.strip()}")


def end_to_end(args, wl, sweep_profile: str) -> tuple[dict, Stats, Verifier, list[str]]:
    cold = ColdStarts(args.workload, 3 if args.tiny else SETUP_LAUNCHES, args.seconds, sweep_profile)
    verifier = Verifier(wl)
    measure(wl, wl.ops, verifier, 0, 1)  # warm-up round, also the reference checks
    stats = measure(wl, wl.ops, verifier, args.seconds, wl.min_rounds, between_rounds=cold)
    best_us = stats.best_ns() / 1e3
    n = len(best_us)
    tail_pct = 100.0 * (1.0 - 10.0 / n) if n > 10 else 100.0
    error_rate = verifier.failed / verifier.attempted
    values = {
        "setup_s": statistics.median(cold.times),
        "throughput_rot_per_s": stats.throughput(),
        "latency_p50_us": float(np.median(best_us)),
        "latency_tail_us": float(np.percentile(best_us, tail_pct)),
        "pass_rate": 1.0 - error_rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"setup_s is the median of {len(cold.times)} cold starts spread over the run",
        f"latencies are each input's best of {len(stats.latencies_ns) // n} rounds; "
        f"latency_tail_us is p{tail_pct:.4g} over {n} inputs",
        f"error_rate {error_rate!r}: {verifier.failed} of {verifier.attempted} rows of "
        f"the distinct inputs failed, {verifier.unexpected} outside the known defects; "
        "pass_rate = 1 - error_rate",
    ]
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}, stats, verifier, notes


def per_layer(args, wl) -> tuple[dict, Stats, Verifier, list[str]]:
    from spans import Tracer

    verifier = Verifier(wl)
    measure(wl, wl.ops, verifier, 0, 1)  # warm-up round, also the reference checks
    tracer = Tracer()
    traced_ops = wl.traced_ops(tracer)
    plain, traced = Stats(len(wl.items)), Stats(len(wl.items))
    # Untraced and traced rounds alternate, so both meet the same machine
    # conditions and their throughput ratio is the tracing overhead.
    while plain.busy_s + traced.busy_s < args.seconds:
        plain.add(measure(wl, wl.ops, verifier, 0, 1))
        with tracer.patched(wl.patch_targets):
            traced.add(measure(wl, traced_ops, verifier, 0, 1, tracer))
    summary = tracer.summary()
    passes = summary["pass"]["calls"]
    zero = {"calls": 0, "rows": 0, "busy_ns": 0, "self_ns": 0}
    span = lambda name: summary.get(name, zero)  # noqa: E731

    def ns_per_row(name):
        s = span(name)
        return s["busy_ns"] / s["rows"] if s["rows"] else 0.0

    values = {f"{s}.ns_per_row": ns_per_row(s) for s in NS_PER_ROW}
    for s in PIPELINE_SPANS:
        calls = span(s)["calls"]
        values[f"{s}.us_per_call"] = span(s)["busy_ns"] / calls / 1e3 if calls else 0.0
    for s in BUSY_S:
        values[f"{s}.busy_s"] = span(s)["busy_ns"] / 1e9 / passes
    values["cli.self_s"] = span("cli.main")["self_ns"] / 1e9 / passes
    values["alignment.frame_transport.self_s"] = span("alignment.frame_transport")["self_ns"] / 1e9 / passes
    values["algebra.compose.calls"] = span("algebra.compose")["calls"] / passes
    values["core.rotate_vector.calls"] = span("core.rotate_vector")["calls"] / passes
    notes = []
    for name, (num, base) in RATIOS.items():
        b = ns_per_row(base)
        values[name] = ns_per_row(num) / b if b else 0.0
        notes.append(f"{name} = {values[name]!r}: {num} {ns_per_row(num)!r} ns/row "
                     f"over base {base} {b!r} ns/row")
    checked = [res for _, res in verifier.checked.values()]
    for s in (*PIPELINE_SPANS, "cli.main"):
        values[f"{s}.failed_rows"] = sum(r.per_op.get(s, 0) for r in checked) / len(checked)
    values["core.pi_encoded_rows"] = sum(r.pi_rows for r in checked) / len(checked)
    values["core.matrix_to_gibbs.halfturn_rows"] = sum(r.halfturn_rows for r in checked) / len(checked)
    values["trace_overhead_ratio"] = traced.throughput() / plain.throughput()
    notes.append(f"trace_overhead_ratio = {values['trace_overhead_ratio']!r}: traced "
                 f"{traced.throughput()!r} rot/s over untraced {plain.throughput()!r} rot/s "
                 "(best-of-k per input)")
    notes.append("busy_s, self_s, calls, failed_rows and regime counts are per pass; "
                 f"{passes} traced passes")

    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(path, workload=args.workload, seed=args.seed)
    notes.append(f"spans written to {path.relative_to(ROOT)}")

    plain.add(traced)
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}, plain, verifier, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "gibbsrot" / "__init__.py").is_file():
        print(f"error: gibbsrot sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed, tiny=args.tiny)
    if args.trace:
        metrics, stats, verifier, notes = per_layer(args, wl)
    else:
        metrics, stats, verifier, notes = end_to_end(args, wl, workloads.SWEEP_PROFILE)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: {wl.sizes}; "
          f"{len(stats.latencies_ns)} timed calls, {stats.busy_s!r} s timed")
    print(f"# python {platform.python_version()} numpy {np.__version__} "
          f"nproc {len(os.sched_getaffinity(0))} {platform.machine()}")
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": verifier.unexpected == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
