"""Seeded inputs, the timed calls and their reference checks.

Every input is generated here from the workload seed with plain numpy;
gibbsrot sees nothing but the finished arrays.  Reference matrices come
from this file's own formulas, so no check trusts the function it checks.
The bounds are the ones the package's self-test and acceptance tests use.
"""

from __future__ import annotations

import contextlib
import io
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

import gibbsrot
import gibbsrot.alignment
import gibbsrot.cli

# Reference bounds, each taken from an existing check of the package.
ROUND_TRIP_REL = 1e-9  # selftest "matrix round trip", acceptance criterion 1
HALF_TURN_MATRIX = 1e-6  # acceptance criteria 2 and 3 (matrix entries)
COMPOSE_MATRIX = 1e-10  # acceptance criterion 5 (compose vs matrix product)
ROTATE_REL = 1e-12  # test_rotate_vector_matches_matrix_action
ALIGN_RESIDUAL = 1e-9  # acceptance criterion 6 (pair mapped)
MATRIX_AGREE = 1e-10  # selftest "quaternion matrices agree"

# Row classes of a pipeline batch.  NOISY rows are the near-half-turn
# matrices that hit the known extraction defect (open ROADMAP item 1), in
# matrix_to_gibbs and again in compose, whose matrix route extracts the
# near-half-turn product the same way.
FINITE, NOISY, LANDING, EXACT = 0, 1, 2, 3

# align_pair's gamma = -(c1.d)/(s1.d) loses about eps/|cos(s1, d)| of
# accuracy; s1.d is small when the rotation axis lies almost in the plane
# of p1 and p2, and only below 1e-12 is it treated as singular.  Rows whose
# |cos(s1, d)| is below this limit and whose only failure is align_pair
# are this second known defect.
ALIGN_ILL_CONDITIONED = 1e-6

PIPELINE_OPS = {
    "matrix_to_gibbs": "core",
    "compose": "algebra",
    "rotate_vector": "core",
    "align_pair": "alignment",
    "gibbs_to_matrix": "core",
}

# (span name, callable, scalars per row of the first argument) of the calls
# that split the pipeline into layers and baselines; traced runs only.
LAYER_SPLIT = (
    ("core.matrix_to_gibbs_unchecked", lambda u: gibbsrot.matrix_to_gibbs(u, check=False), 9),
    ("core.is_rotation_matrix", gibbsrot.is_rotation_matrix, 9),
    ("bridges.matrix_to_quaternion", gibbsrot.matrix_to_quaternion, 9),
    ("bridges.quaternion_multiply", gibbsrot.quaternion_multiply, 4),
    ("bridges.quaternion_to_matrix", gibbsrot.quaternion_to_matrix, 4),
    ("numpy.matmul", np.matmul, 9),
)


# ---------------------------------------------------------------------------
# reference formulas


def matrix_about(axis: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Rotation matrices by explicit trigonometry, in the package's
    convention: the matrix of the Gibbs vector ``tan(theta/2) * axis``."""
    x, y, z = axis[:, 0], axis[:, 1], axis[:, 2]
    c, s = np.cos(theta), np.sin(theta)
    k = 1.0 - c
    out = np.empty((len(theta), 3, 3))
    out[:, 0] = np.stack([c + k * x * x, k * x * y + s * z, k * x * z - s * y], -1)
    out[:, 1] = np.stack([k * x * y - s * z, c + k * y * y, k * y * z + s * x], -1)
    out[:, 2] = np.stack([k * x * z + s * y, k * y * z - s * x, c + k * z * z], -1)
    return out


def _homogeneous(r: np.ndarray):
    """Unit quaternion (w, v) of Gibbs vectors, pi-encoded rows included."""
    m = np.maximum(np.abs(r).max(axis=-1), 1.0)
    with np.errstate(under="ignore"):
        w = 1.0 / m
        v = r / m[:, None]
        n = np.sqrt(w * w + (v * v).sum(axis=-1))
    return w / n, v / n[:, None]


def ref_matrix(r: np.ndarray) -> np.ndarray:
    """Matrices of stacked Gibbs vectors via their unit quaternions."""
    w, v = _homogeneous(r)
    x, y, z = v.T
    k = 2.0 * w * w - 1.0
    with np.errstate(under="ignore"):
        return np.stack(
            [
                k + 2 * x * x, 2 * (x * y + w * z), 2 * (x * z - w * y),
                2 * (x * y - w * z), k + 2 * y * y, 2 * (y * z + w * x),
                2 * (x * z + w * y), 2 * (y * z - w * x), k + 2 * z * z,
            ],
            axis=-1,
        ).reshape(-1, 3, 3)


def ref_quaternion(r: np.ndarray) -> np.ndarray:
    w, v = _homogeneous(r)
    return np.concatenate([w[:, None], v], axis=-1)


def _units(rng, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _bad(err: np.ndarray, bound) -> np.ndarray:
    """Rows whose error exceeds the bound; NaN counts as exceeding."""
    return ~(err <= bound)


def _max_abs(x: np.ndarray) -> np.ndarray:
    return np.abs(x).reshape(len(x), -1).max(axis=-1)


# ---------------------------------------------------------------------------
# the five-op pipeline (batch-finite, batch-halfturn, single-calls)


@dataclass
class Inputs:
    """One pass's inputs; arrays carry a leading row axis, except in
    single-call items, which hold one row without it."""

    U: np.ndarray  # matrices for matrix_to_gibbs
    s: np.ndarray  # second compose operand
    P1: np.ndarray  # point sets for rotate_vector / align_pair
    P2: np.ndarray
    r0: np.ndarray  # Gibbs vector U was built from (NaN where none is exact)
    klass: np.ndarray
    qU: np.ndarray  # quaternions of U and s, for the baselines
    qs: np.ndarray
    S: np.ndarray  # matrices of s, for the matmul baseline

    def row(self, k: int) -> "Inputs":
        return Inputs(**{f: getattr(self, f)[k] for f in self.__dataclass_fields__})


def pipeline_inputs(rng, n: int, halfturn_share: float) -> Inputs:
    """``n`` rows with |r| log-uniform over 1e-3..1e3.

    A ``halfturn_share`` of the rows is split into three classes so that
    every op sees half turns at its input:

    * NOISY: matrices at theta = pi - d, d log-uniform over 1e-12..1e-3,
      with Gaussian noise of 1e-11 per entry (orthogonality residual far
      inside TOL_ORTHO_INPUT, so the validator accepts every one);
    * LANDING: a finite rotation and a second operand chosen so that the
      composite is exactly a half turn, so rotate_vector, align_pair and
      gibbs_to_matrix see half turns as well;
    * EXACT: exact half-turn matrices composed with a pi-encoded operand.
    """
    third = int(n * halfturn_share) // 3
    klass = np.zeros(n, dtype=np.int8)
    klass[:third], klass[third:2 * third], klass[2 * third:3 * third] = NOISY, LANDING, EXACT
    klass = rng.permutation(klass)
    noisy, landing, exact = (klass == NOISY), (klass == LANDING), (klass == EXACT)

    axis = _units(rng, n)
    mag = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    theta = 2.0 * np.arctan(mag)
    theta[noisy] = np.pi - 10.0 ** rng.uniform(-12.0, -3.0, size=noisy.sum())
    U = matrix_about(axis, theta)
    U[noisy] += 1e-11 * rng.normal(size=(noisy.sum(), 3, 3))
    U[exact] = 2.0 * axis[exact, :, None] * axis[exact, None, :] - np.eye(3)
    r0 = axis * mag[:, None]
    r0[noisy | exact] = np.nan
    qU = np.concatenate([np.cos(theta / 2)[:, None], np.sin(theta / 2)[:, None] * axis], -1)
    qU[exact] = np.concatenate([np.zeros((exact.sum(), 1)), axis[exact]], -1)

    s = _units(rng, n) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))
    P1 = rng.normal(size=(n, 3))
    P2 = rng.normal(size=(n, 3))
    # compose(r, s) is a half turn about h when s = (h + r x h) / (r . h).
    # |r.h| and |P1.h| are kept away from 0: the first keeps s finite, the
    # second keeps pair 1 of align_pair from being antipodal, which
    # align_pair rejects by design.
    idx = np.flatnonzero(landing)
    h = _units(rng, len(idx))
    while len(idx):
        redo = (np.abs((axis[idx] * h).sum(-1)) < 0.2) | (
            np.abs((P1[idx] * h).sum(-1)) < 0.1 * np.linalg.norm(P1[idx], axis=-1)
        )
        s[idx] = (h + np.cross(r0[idx], h)) / (r0[idx] * h).sum(-1, keepdims=True)
        idx, h = idx[redo], _units(rng, int(redo.sum()))
    e = _units(rng, int(exact.sum()))
    s[exact] = e / np.abs(e).max(axis=-1, keepdims=True) * gibbsrot.PI_ENCODING_MAGNITUDE

    gram = np.einsum("nji,njk->nik", U, U) - np.eye(3)
    if _max_abs(gram).max() > gibbsrot.TOL_ORTHO_INPUT / 2:
        raise RuntimeError("generated matrices drifted too far from orthogonal")
    return Inputs(U, s, P1, P2, r0, klass, qU, ref_quaternion(s), ref_matrix(s))


def run_pipeline(inp: Inputs, ops):
    r1 = ops.matrix_to_gibbs(inp.U)
    c = ops.compose(r1, inp.s)
    q1 = ops.rotate_vector(c, inp.P1)
    q2 = ops.rotate_vector(c, inp.P2)
    a = ops.align_pair(inp.P1, q1, inp.P2, q2)
    return r1, c, q1, q2, a, ops.gibbs_to_matrix(a)


@dataclass
class Checked:
    """Reference-check outcome of one pass's outputs."""

    failed: int  # rows failing any check
    unexpected: int  # failed rows outside the known defects
    per_op: dict = field(default_factory=dict)  # failed rows per op span name
    pi_rows: int = 0  # pi-encoded rows at the Gibbs-vector inputs of the calls
    halfturn_rows: int = 0  # matrices with 1 + trace <= TOL_PI_TRACE


def _pipeline_failures(inp: Inputs, out):
    """Per-op boolean arrays of failing rows, and the rows whose failures
    are all due to the two known defects."""
    U, s, P1, P2, r0 = inp.U, inp.s, inp.P1, inp.P2, inp.r0
    r1, c, q1, q2, a, m = out
    f = {}

    exact_r0 = ~np.isnan(r0[:, 0])
    with np.errstate(invalid="ignore", over="ignore"):
        rel = _max_abs(r1 - r0) / _max_abs(r0)
        R1 = ref_matrix(r1)
        trip = _max_abs(R1 - U)
        f["matrix_to_gibbs"] = np.where(exact_r0, _bad(rel, ROUND_TRIP_REL), _bad(trip, HALF_TURN_MATRIX))

        C = ref_matrix(c)
        f["compose"] = _bad(_max_abs(C - R1 @ ref_matrix(s)), COMPOSE_MATRIX)
        f["rotate_vector"] = np.zeros(len(U), dtype=bool)
        for p, q in ((P1, q1), (P2, q2)):
            want = (C @ p[:, :, None])[:, :, 0]
            f["rotate_vector"] |= _bad(_max_abs(q - want), ROTATE_REL * _max_abs(p))

        A = ref_matrix(a)
        f["align_pair"] = np.zeros(len(U), dtype=bool)
        for p, q in ((P1, q1), (P2, q2)):
            res = np.linalg.norm((A @ p[:, :, None])[:, :, 0] - q, axis=-1) / np.linalg.norm(p, axis=-1)
            f["align_pair"] |= _bad(res, ALIGN_RESIDUAL)
        s1, d = P1 + q1, P2 - q2
        cos = np.abs((s1 * d).sum(-1)) / (np.linalg.norm(s1, axis=-1) * np.linalg.norm(d, axis=-1))

        gram = _max_abs(np.einsum("nji,njk->nik", m, m) - np.eye(3))
        det = np.abs(np.linalg.det(m) - 1.0)
        f["gibbs_to_matrix"] = (
            _bad(gram, gibbsrot.TOL_ORTHO_OUTPUT)
            | _bad(det, gibbsrot.TOL_ORTHO_OUTPUT)
            | _bad(_max_abs(m - A), MATRIX_AGREE)
        )
    others = np.logical_or.reduce([v for k, v in f.items() if k != "align_pair"])
    known = (inp.klass == NOISY) | (~others & (cos < ALIGN_ILL_CONDITIONED))
    return f, known


def check_pipeline(inp: Inputs, out, chunk: int = 8192) -> Checked:
    if np.ndim(inp.U) == 2:  # a single-call item: give every array a row axis
        inp = Inputs(**{f: np.asarray(getattr(inp, f))[None] for f in inp.__dataclass_fields__})
        out = None if out is None else tuple(np.asarray(x)[None] for x in out)
    n = len(inp.klass)
    if out is None:
        return Checked(n, n)
    res = Checked(0, 0, {f"{layer}.{op}": 0 for op, layer in PIPELINE_OPS.items()})
    for lo in range(0, n, chunk):
        sl = slice(lo, lo + chunk)
        part = Inputs(**{f: getattr(inp, f)[sl] for f in inp.__dataclass_fields__})
        f, known = _pipeline_failures(part, tuple(x[sl] for x in out))
        any_fail = np.logical_or.reduce(list(f.values()))
        res.failed += int(any_fail.sum())
        res.unexpected += int((any_fail & ~known).sum())
        for op, bad in f.items():
            res.per_op[f"{PIPELINE_OPS[op]}.{op}"] += int(bad.sum())
    r1, c, _, _, a, _ = out
    res.pi_rows = int(sum(np.sum(gibbsrot.is_pi_encoded(x)) for x in (r1, inp.s, c, c, a)))
    res.halfturn_rows = int(np.sum(1.0 + np.trace(inp.U, axis1=-2, axis2=-1) <= gibbsrot.TOL_PI_TRACE))
    return res


class PipelineWorkload:
    """matrix_to_gibbs -> compose -> rotate_vector x2 -> align_pair ->
    gibbs_to_matrix, on batches (one item per batch) or on single rows
    (one item per row, one rotation per call)."""

    patch_targets: tuple = ()

    def __init__(self, items, rows_per_item: int, min_rounds: int, sizes: str):
        self.items = items
        self.rows_per_item = rows_per_item
        self.min_rounds = min_rounds
        self.sizes = sizes
        self.ops = SimpleNamespace(**{op: getattr(gibbsrot, op) for op in PIPELINE_OPS})

    def traced_ops(self, tracer):
        ops = {
            op: tracer.wrap(f"{layer}.{op}", getattr(gibbsrot, op), 9 if op == "matrix_to_gibbs" else 3)
            for op, layer in PIPELINE_OPS.items()
        }
        for name, fn, width in LAYER_SPLIT:
            ops[name] = tracer.wrap(name, fn, width)
        return SimpleNamespace(**ops)

    def rows(self, item) -> int:
        return self.rows_per_item

    run = staticmethod(run_pipeline)

    @staticmethod
    def final(out):
        return None if out is None else out[5]

    check = staticmethod(check_pipeline)

    @staticmethod
    def layer_split(item, ops) -> None:
        split = vars(ops)
        split["core.matrix_to_gibbs_unchecked"](item.U)
        split["core.is_rotation_matrix"](item.U)
        split["bridges.matrix_to_quaternion"](item.U)
        split["bridges.quaternion_multiply"](item.qs, item.qU)
        split["bridges.quaternion_to_matrix"](item.qU)
        split["numpy.matmul"](item.U, item.S)


# ---------------------------------------------------------------------------
# sweep-obj


SWEEP_PROFILE = "circle:0.05:8"
SWEEP_SEGMENTS = int(SWEEP_PROFILE.rsplit(":", 1)[1])


def helix(rng, n: int, straight_runs: bool) -> np.ndarray:
    """A helix sampled ``n`` times.  With ``straight_runs``, three runs of
    samples leave along the tangent and the helix then resumes at the same
    phase, so the curvature normal is continuous across each run."""
    radius = rng.uniform(0.5, 2.0)
    pitch = rng.uniform(0.05, 0.5)
    dphi = 2.0 * np.pi / rng.uniform(32.0, 96.0)
    straight = np.zeros(n, dtype=bool)
    if straight_runs:
        for _ in range(3):
            start = int(rng.integers(1, n - 1))
            straight[start:start + int(rng.integers(4, max(5, n // 8)))] = True
    phi = rng.uniform(0.0, 2.0 * np.pi) + dphi * np.cumsum(~straight)
    tangent = np.stack([-radius * np.sin(phi), radius * np.cos(phi), np.full(n, pitch)], -1) * dphi
    offset = np.cumsum(straight[:, None] * tangent, axis=0)
    return offset + np.stack([radius * np.cos(phi), radius * np.sin(phi), pitch * phi], -1)


@dataclass
class Curve:
    n: int
    text: str  # the polyline as sweep reads it on stdin


def run_sweep(item: Curve, ops):
    stdout = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(item.text)
    try:
        with contextlib.redirect_stdout(stdout):
            code = ops.cli_main(["sweep", "--obj", "--profile", SWEEP_PROFILE])
    finally:
        sys.stdin = saved
    return code, stdout.getvalue()


def check_sweep(item: Curve, out) -> Checked:
    """Exit code 0, one ring of vertices per sample, one quad per segment
    between consecutive rings, and every coordinate finite."""
    ok = out is not None and out[0] == 0
    if ok:
        lines = out[1].splitlines()
        verts = [ln[2:] for ln in lines if ln.startswith("v ")]
        faces = sum(ln.startswith("f ") for ln in lines)
        coords = np.array(" ".join(verts).split(), dtype=float)
        ok = (
            len(verts) == item.n * SWEEP_SEGMENTS
            and faces == (item.n - 1) * SWEEP_SEGMENTS
            and coords.size == 3 * len(verts)
            and bool(np.isfinite(coords).all())
        )
    bad = 0 if ok else item.n
    return Checked(bad, bad, {"cli.main": bad})


class SweepWorkload:
    """``gibbsrot sweep --obj`` run in-process over a seeded set of curves."""

    patch_targets = (
        (gibbsrot.cli, "frame_transport", "alignment.frame_transport", 6),
        (gibbsrot.cli, "rotate_vector", "core.rotate_vector", 3),
        (gibbsrot.alignment, "compose", "algebra.compose", 3),
        (gibbsrot.alignment, "align_pair", "alignment.align_pair", 3),
    )

    def __init__(self, items, min_rounds: int, sizes: str):
        self.items = items
        self.min_rounds = min_rounds
        self.sizes = sizes
        self.ops = SimpleNamespace(cli_main=gibbsrot.cli.main)

    def traced_ops(self, tracer):
        return SimpleNamespace(cli_main=tracer.wrap("cli.main", gibbsrot.cli.main, 0))

    @staticmethod
    def rows(item) -> int:
        return item.n

    run = staticmethod(run_sweep)

    @staticmethod
    def final(out):
        return out

    check = staticmethod(check_sweep)

    @staticmethod
    def layer_split(item, ops) -> None:
        pass


# ---------------------------------------------------------------------------
# workload table

WORKLOADS = ("batch-finite", "batch-halfturn", "single-calls", "sweep-obj")

BATCH_ROWS, BATCH_ITEMS, HALFTURN_SHARE = 16384, 2, 1.0 / 64
SINGLE_ITEMS = 256
SWEEP_CURVES = 5


def build(name: str, seed: int, tiny: bool = False):
    """The workload ``name`` with inputs drawn from ``seed``.

    A round calls every item once; a run never stops before ``min_rounds``
    rounds, so every input's best-of-k latency has k >= ``min_rounds``.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name in ("batch-finite", "batch-halfturn"):
        n = 1024 if tiny else BATCH_ROWS
        share = HALFTURN_SHARE if name == "batch-halfturn" else 0.0
        items = [pipeline_inputs(rng, n, share) for _ in range(BATCH_ITEMS)]
        sizes = f"{BATCH_ITEMS} batches of {n} rows, half-turn share {share:g}"
        return PipelineWorkload(items, n, 1 if tiny else 20, sizes)
    if name == "single-calls":
        pool = pipeline_inputs(rng, 16 if tiny else SINGLE_ITEMS, 0.0)
        items = [pool.row(k) for k in range(len(pool.klass))]
        return PipelineWorkload(items, 1, 1 if tiny else 30, f"{len(items)} single rotations")
    if name == "sweep-obj":
        # A fixed log-spaced grid of lengths, run shortest first: the seed
        # sets each curve's shape, so the per-curve latencies measure the
        # code rather than the lengths or the order a seed happened to draw.
        lo, hi, count = (16, 64, 3) if tiny else (32, 256, SWEEP_CURVES)
        lengths = np.round(lo * (hi / lo) ** (np.arange(count) / (count - 1))).astype(int)
        items = []
        for i, n in enumerate(lengths.tolist()):
            pts = helix(rng, n, straight_runs=bool(i % 2))
            items.append(Curve(n, "".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in pts.tolist())))
        sizes = f"{count} curves of {', '.join(map(str, lengths))} samples, profile {SWEEP_PROFILE}"
        return SweepWorkload(items, 1 if tiny else 8, sizes)
    raise ValueError(f"unknown workload {name!r}")
