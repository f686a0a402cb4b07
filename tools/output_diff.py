"""Compare the outputs of two checkouts on one fixed corpus, byte for byte.

Usage:

    python3 tools/output_diff.py --parent DIR

Builds one seeded corpus with this checkout's ``tests/helpers.py`` (the
``mixed_rows`` Gibbs rows, vectors and alignment pairs at extreme
scales, half turns, noisy matrices, the matrices on which Shepperd's
pivot pick meets ties, huge and non-finite entries, quaternions, angles,
a long composition chain, the empty sequence, a bare 3-vector and two
inputs that are no sequence of 3-vectors, the overflow cases of the
alignment line, vectors near the float maximum, frames at several
tolerances, unit frames at several scales, polylines at every scale and
Gibbs vectors of moderate and extreme magnitude), then runs it through
every public op of ``core``, ``algebra``, ``bridges`` and ``alignment``,
the four ``cayley`` functions and ``gibbsrot sweep --json`` at three
tolerances, in two fresh processes: one importing ``gibbsrot`` from this
checkout's ``src``, one from ``DIR/src``.  Each input is run as one row
and inside a batch; warnings are errors.  A record is one call's output
bytes (a named tuple's fields together; a batch's split into rows; for
``sweep`` the exit code, stdout and stderr), or the error's type and
message.  Every record that differs is printed, then per op the count,
the largest move of a float output relative to its row's max-abs and,
for Gibbs outputs, the largest matrix-entry difference (inf where a row
holds NaN on one side).  Exits 1 if any record differs.  Needs only the
standard library and numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# outputs that are Gibbs vectors, compared also as rotation matrices
GIBBS_OPS = {
    "matrix_to_gibbs", "invert", "pi_encode", "compose", "compose_scan", "compose_sequence",
    "quaternion_to_gibbs", "axis_angle_to_gibbs", "align_line", "align_pair",
    "align_pair_unchecked", "member", "frame_transport",
}

# the scales k of the ``frame_transport/{k}`` records: one set of unit frames times k
FRAME_SCALES = (1.0, 1e300, 1e-300, 2.0**600)


def make_corpus(rng) -> dict[str, np.ndarray]:
    """The fixed inputs, as named arrays: built once, read by both sides."""
    from gibbsrot import gibbs_to_matrix, pi_encode, rotate_vector
    from helpers import mixed_rows, pivot_pick_matrices, random_gibbs, random_units

    r = mixed_rows(rng)
    n = len(r)
    scales = np.array([1.0, 1e300, 1e-300, 2.0**600, 2.0**-600, 1e150, 1e-150, 2.0**1000, 1e-310])
    k = scales[np.arange(n) % len(scales)][:, None]
    finite = np.isfinite(r).all(axis=1) & (np.abs(r).max(axis=1) < 1e300)
    u = gibbs_to_matrix(np.where(finite[:, None], r, 0.0))
    u[::3] += 3e-10 * rng.uniform(-1.0, 1.0, size=(len(u[::3]), 3, 3))  # within TOL_ORTHO_INPUT
    q = rng.normal(size=(n, 4))
    q[::7, 0] = 0.0  # half turns
    q /= np.sqrt((q * q).sum(axis=1, keepdims=True))
    angle = rng.uniform(-2 * np.pi, 2 * np.pi, size=n)
    angle[::11] = np.pi
    angle[1::11] = 0.0
    euler = rng.uniform(-np.pi, np.pi, size=(n, 3))
    euler[::9, 1] = np.pi / 2
    # alignment pairs: each pair at its own scale, rotations half turns included
    m = 240
    true = random_gibbs(rng, m, 1e-3, 1e3)
    true[::8] = pi_encode(true[::8])
    k1 = scales[rng.integers(0, len(scales), m)][:, None]
    k2 = scales[rng.integers(0, len(scales), m)][:, None]
    p1, p2 = rng.normal(size=(2, m, 3))
    q1 = rotate_vector(true, p1) * k1
    q2 = rotate_vector(true, p2) * k2
    gamma = rng.choice([0.0, 1.0, -3.5, 1e10, -1e100, 1e300, 1e308, -1e308, 1e-300], m)
    # the line members that overflowed: tiny pairs with a large gamma, and
    # members near the float ceiling
    edge_p = np.array([[1e-300, 0, 0], [3.0, 0, 0], [1.0, 2.0, 0], [2.0**-600, 1, 0]])
    edge_q = np.array([[0, 1e-300, 0], [0, 3.0, 0], [2.0, -1.0, 0], [1, 2.0**-600, 0]])
    chain = random_gibbs(rng, 4096, 1e-3, 1e3)
    chain[::97] = pi_encode(chain[::97])
    chain[5::501] *= 1e300
    unit_frames = np.stack([random_units(rng, 64), random_units(rng, 64)], axis=1)
    frames = unit_frames * scales[np.arange(64) % len(scales)][:, None, None]
    # eight unit frames, all scaled by one k per set
    frames_k = unit_frames[:8] * np.array(FRAME_SCALES)[:, None, None, None]
    # vectors whose max-abs is at or near the float maximum, for rotate_vector
    s_far = rng.normal(size=(n, 3))
    s_far /= np.abs(s_far).max(axis=1, keepdims=True)
    s_far *= rng.choice([4.4e307, 4.5e307, 1e308, np.finfo(float).max], n)[:, None]
    # polylines for ``gibbsrot sweep``, each times every corpus scale
    t = np.linspace(0.0, 4.0 * np.pi, 40)
    curves = {
        "helix": np.stack([np.cos(t), np.sin(t), 0.2 * t], axis=1),
        "straight": np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 1, 0], [4, 2, 0], [4, 3, 1]]),
        "near_reversal": np.array([[0.0, 0, 0], [1, 0, 0], [0.5, 1e-6, 0], [0, 2e-6, 0]]),
        **{f"bend_{b!r}": np.array([[0.0, 0, 0], [1, 0, 0], [-1, b, 0]])
           for b in (1e-150, 1e-200, 1e-300)},
    }
    polylines = {f"polyline:{name}:{float(k)!r}": pts * k for name, pts in curves.items() for k in scales}
    # Gibbs vectors for the cayley ops, of moderate and extreme |r|, and their matrices
    cayley_r = np.concatenate([
        random_gibbs(rng, 8, 1e-3, 1e3),
        random_units(rng, 8) * np.array([1e5, 1e6, 1e7, 1e17, 1e60, 1e200, 1e300, 5e-324])[:, None],
        [[1e17] * 3, [0.0, 3.5635669507180646e208, 3.039057355300787e175], [0.0, 0.0, 0.0]],
        pi_encode([[0.0, 0.0, 1.0]]),
    ])
    return dict(
        r=r, r2=r[rng.permutation(n)], s=rng.normal(size=(n, 3)) * k,
        axis=random_units(rng, n), angle=angle, u=u, q=q, euler=euler, p1=p1 * k1, q1=q1, p2=p2 * k2, q2=q2, gamma=gamma,
        edge_p=edge_p, edge_q=edge_q,
        edge_gamma=np.array([1e10, 1e308, -1e308, 1e300, 2.0**1000, 1e200]),
        chain=chain, frames=frames, frames_k=frames_k, s_far=s_far,
        cayley_r=cayley_r, cayley_u=gibbs_to_matrix(cayley_r), **polylines,
        **{f"pick_{kind}": m for kind, m in pivot_pick_matrices().items()},
    )


def leaves(out) -> list:
    """The arrays and strings of one output, in a fixed order."""
    if isinstance(out, tuple):
        return [x for item in out for x in leaves(item)]
    if dataclasses.is_dataclass(out):
        return leaves(dataclasses.astuple(out))
    if isinstance(out, str):
        return [out]
    a = np.asarray(out)
    return [[a.dtype.str, list(a.shape), a.tobytes().hex()]]


def split_rows(out, n: int):
    """One output per row of a batch output of ``n`` rows, or None."""
    if isinstance(out, np.ndarray):
        return list(out) if out.ndim and len(out) == n else None
    if isinstance(out, tuple) and not dataclasses.is_dataclass(out):
        parts = [split_rows(x, n) for x in out]
        return None if None in parts else [tuple(p) for p in zip(*parts)]
    return None


def sweep(points: np.ndarray, tol: str) -> tuple:
    """``gibbsrot sweep --json --tol tol`` in-process on ``points`` as
    stdin: its exit code, stdout and stderr."""
    from gibbsrot import cli

    text = "".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in points.tolist())
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["sweep", "--json", "--tol", tol])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def calls(c: dict[str, np.ndarray]):
    """``(op, key, call, n)``: one call of a public op on the corpus; ``n``
    rows when it is a batch whose output splits into rows."""
    import gibbsrot as g

    def rows(op, fn, *names, tag=""):
        args = [c[x] for x in names]
        n = len(args[0])
        key = f"{op}{tag}/{names[0]}"
        for i in range(n):
            yield op, f"{key}/one/{i}", (lambda i=i: fn(*(a[i] for a in args))), None
        yield op, f"{key}/batch", (lambda: fn(*args)), n

    yield from rows("gibbs_to_matrix", g.gibbs_to_matrix, "r")
    yield from rows("matrix_to_gibbs", g.matrix_to_gibbs, "u")
    yield from rows("rotate_vector", g.rotate_vector, "r", "s")
    yield from rows("rotate_vector", lambda s, r: g.rotate_vector(r, s), "s_far", "r")
    yield from rows("invert", g.invert, "r")
    yield from rows("is_rotation_matrix", g.is_rotation_matrix, "u")
    yield from rows("is_pi_encoded", g.is_pi_encoded, "r")
    yield from rows("pi_encode", g.pi_encode, "s")
    yield from rows("compose", g.compose, "r", "r2")
    yield from rows("gibbs_to_quaternion", g.gibbs_to_quaternion, "r")
    yield from rows("quaternion_to_gibbs", g.quaternion_to_gibbs, "q")
    yield from rows("quaternion_multiply", g.quaternion_multiply, "q", "q")
    yield from rows("canonicalize_quaternion", g.canonicalize_quaternion, "q")
    yield from rows("quaternion_to_matrix", g.quaternion_to_matrix, "q")
    yield from rows("matrix_to_quaternion", g.matrix_to_quaternion, "u")
    yield from rows("gibbs_to_axis_angle", g.gibbs_to_axis_angle, "r")
    yield from rows("axis_angle_to_gibbs", g.axis_angle_to_gibbs, "axis", "angle")
    yield from rows("euler_to_matrix", g.euler_to_matrix, "euler")
    yield from rows("matrix_to_euler", g.matrix_to_euler, "u")
    # the pivot pick where it decides: each kind alone, so that a batch of
    # finite ties is not one error
    for kind in ("pick_ties", "pick_huge", "pick_nonfinite"):
        yield from rows("matrix_to_gibbs", g.matrix_to_gibbs, kind)
        yield from rows("matrix_to_gibbs", lambda u: g.matrix_to_gibbs(u, check=False), kind,
                        tag="[check=False]")
        yield from rows("matrix_to_quaternion", g.matrix_to_quaternion, kind)
        yield from rows("matrix_to_quaternion", lambda u: g.matrix_to_quaternion(u, check=False),
                        kind, tag="[check=False]")
        yield from rows("is_rotation_matrix", g.is_rotation_matrix, kind)
    yield from rows("align_line", g.align_line, "p1", "q1", "gamma")
    yield from rows("align_line", g.align_line, "edge_p", "edge_q", "edge_gamma")
    yield from rows("align_pair", g.align_pair, "p1", "q1", "p2", "q2")
    yield from rows("align_pair_unchecked", g.align_pair_unchecked, "p1", "q1", "p2", "q2")
    for name, p, q in (("pairs", "p1", "q1"), ("edge", "edge_p", "edge_q")):
        for i in range(len(c[p])):
            yield "align_family", f"align_family/{name}/{i}", (
                lambda p=c[p][i], q=c[q][i]: g.align_family(p, q)), None
    for i in range(len(c["edge_p"])):
        line = lambda i=i: g.align_family(c["edge_p"][i], c["edge_q"][i])  # noqa: E731
        for j, gamma in enumerate(c["edge_gamma"]):
            yield "member", f"member/{i}/one/{j}", (lambda line=line, x=gamma: line().member(x)), None
        yield "member", f"member/{i}/batch", (
            lambda line=line: line().member(c["edge_gamma"])), len(c["edge_gamma"])
    chain = c["chain"]
    for n in (1, 2, 3, 17, 256, len(chain)):
        yield "compose_scan", f"compose_scan/{n}", (lambda n=n: g.compose_scan(chain[:n])), n
        yield "compose_sequence", f"compose_sequence/{n}", (
            lambda n=n: g.compose_sequence(chain[:n])), None
    yield "compose_scan", "compose_scan/[]", (lambda: g.compose_scan([])), None
    yield "compose_sequence", "compose_sequence/[]", (lambda: g.compose_sequence([])), None
    # a bare 3-vector is a one-element sequence; a scalar and a 2-vector are errors
    for x in (chain[0].tolist(), 5.0, [1.0, 2.0]):
        yield "compose_sequence", f"compose_sequence/{x!r}", (lambda x=x: g.compose_sequence(x)), None
    frames = c["frames"]
    yield "frame_transport", "frame_transport/all", (lambda: g.frame_transport(frames)), None
    for k, frames_k in zip(FRAME_SCALES, c["frames_k"]):
        yield "frame_transport", f"frame_transport/{k!r}", (
            lambda f=frames_k: g.frame_transport(f)), None
    for tol in (0.0, 1e-15, 1e-3):
        yield "frame_transport", f"frame_transport/tol={tol!r}", (
            lambda tol=tol: g.frame_transport(frames, tol=tol)), None
    for key in sorted(x for x in c if x.startswith("polyline:")):
        for tol in ("0", "1e-09", "0.001"):
            yield "sweep", f"sweep/{key[9:]}/tol={tol}", (
                lambda p=c[key], tol=tol: sweep(p, tol)), None
    for i, (r, u) in enumerate(zip(c["cayley_r"], c["cayley_u"])):
        yield "skew_from_vector", f"skew_from_vector/{i}", (lambda r=r: g.skew_from_vector(r)), None
        yield "vector_from_skew", f"vector_from_skew/{i}", (
            lambda r=r: g.vector_from_skew(g.skew_from_vector(r))), None
        yield "cayley_inverse", f"cayley_inverse/{i}", (
            lambda r=r: g.cayley_inverse(g.skew_from_vector(r))), None
        yield "cayley_forward", f"cayley_forward/{i}", (lambda u=u: g.cayley_forward(u)), None


def outcome(call):
    """``["ok", call()]``, or ``["err", type, message]`` of its error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return ["ok", call()]
        except Exception as e:  # noqa: BLE001 - every error is an outcome to compare
            return ["err", type(e).__name__, str(e)]


def work(corpus_path: str) -> None:
    """Worker: every record of the corpus, as one JSON object on stdout."""
    with np.load(corpus_path) as f:
        corpus = {k: f[k] for k in f.files}
    records = {}
    for op, key, call, n in calls(corpus):
        got = outcome(call)
        if got[0] == "err":
            records[key] = [op, got]
        elif n and (parts := split_rows(got[1], n)) is not None:
            records[key] = [op, ["rows", [leaves(part) for part in parts]]]
        else:  # one record per call, a named tuple's fields included
            records[key] = [op, ["ok", leaves(got[1])]]
    json.dump(records, sys.stdout)


def run(root: Path, corpus_path: str) -> dict:
    boot = ("import sys; sys.path[:0] = [sys.argv[1] + '/src', sys.argv[2]]; "
            "import output_diff; output_diff.work(sys.argv[3])")
    done = subprocess.run(
        [sys.executable, "-c", boot, str(root), str(ROOT / "tools"), corpus_path],
        capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker for {root} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout)


def decode(leaf) -> np.ndarray | None:
    if isinstance(leaf, str):
        return None
    dtype, shape, data = leaf
    return np.frombuffer(bytes.fromhex(data), dtype=dtype).reshape(shape)


def show(result) -> str:
    if result[0] == "err":
        return f"{result[1]}: {result[2]}"
    if result[0] == "rows":
        return f"{len(result[1])} rows"
    return "; ".join(
        leaf if isinstance(leaf, str) else repr(decode(leaf).tolist()) for leaf in result[1]
    )


def moves(op: str, a, b) -> tuple[float, float]:
    """Largest move of ``a`` against ``b`` relative to each row's max-abs,
    and for Gibbs outputs the largest matrix-entry difference; a Gibbs row
    holding NaN has no matrix, and moves inf unless both sides agree."""
    from gibbsrot import gibbs_to_matrix

    rel = mat = 0.0
    if a[0] != "ok" or b[0] != "ok" or len(a[1]) != len(b[1]):
        return np.nan, np.nan
    for la, lb in zip(a[1], b[1]):
        x, y = decode(la), decode(lb)
        if x is None or y is None or x.shape != y.shape or x.dtype.kind != "f" or not x.size:
            continue
        with np.errstate(all="ignore"):
            scale = np.abs(y).max(axis=-1, keepdims=True) if x.ndim else np.abs(y)
            # equal entries (inf included) move 0; a move to or from inf or nan is inf
            d = np.where((x == y) | np.isnan(x) & np.isnan(y), 0.0, np.abs(x - y) / scale)
            rel = max(rel, float(np.nan_to_num(d, nan=np.inf, posinf=np.inf).max()))
            if op in GIBBS_OPS and x.shape[-1:] == (3,):
                nan = (np.isnan(x) | np.isnan(y)).any(axis=-1)
                if (d[nan] != 0.0).any():
                    mat = np.inf
                x, y = x[~nan], y[~nan]
                mat = max(mat, float(np.abs(gibbs_to_matrix(x) - gibbs_to_matrix(y)).max(initial=0)))
    return rel, mat


def pairs(parent: dict, change: dict):
    """``(key, op, parent outcome, change outcome)`` per record, a batch
    split into its rows where both sides returned the same number; a
    record missing on one side is None there."""
    for key in sorted(parent.keys() | change.keys()):
        b, a = parent.get(key), change.get(key)
        op = (a or b)[0]
        b, a = b and b[1], a and a[1]
        if a and b and a[0] == b[0] == "rows" and len(a[1]) == len(b[1]):
            for i, (x, y) in enumerate(zip(b[1], a[1])):
                yield f"{key}/{i}", op, ["ok", x], ["ok", y]
        else:
            yield key, op, b, a


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout to compare against")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "corpus.npz")
        np.savez(path, **make_corpus(np.random.default_rng(22)))
        parent, change = run(args.parent.resolve(), path), run(ROOT, path)
    per_op: dict[str, list] = {}
    total = 0
    for key, op, b, a in pairs(parent, change):
        total += 1
        if a == b:
            continue
        if a is None or b is None:
            print(f"{key}: only in {'parent' if a is None else 'change'}: {show(a or b)}")
            per_op.setdefault(op, []).append((np.nan, np.nan))
            continue
        print(f"{key}:\n  parent {show(b)}\n  change {show(a)}")
        per_op.setdefault(op, []).append(moves(op, a, b))
    print(f"{sum(map(len, per_op.values()))} of {total} records differ")
    for op, found in sorted(per_op.items()):
        rel, mat = (np.array(x) for x in zip(*found))
        both = ~np.isnan(rel)  # records with a float output on both sides
        summary = (f"{both.sum()} with outputs on both sides, largest relative move "
                  f"{rel[both].max():.3g}, largest matrix-entry difference "
                  f"{mat[both].max():.3g}") if both.any() else "none with outputs on both sides"
        print(f"  {op}: {len(found)} records, {summary}")
    return 1 if per_op else 0


if __name__ == "__main__":
    sys.exit(main())
