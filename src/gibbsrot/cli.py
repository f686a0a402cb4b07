"""Command-line interface: conversion, composition, alignment, curve
sweeps, benchmarking, and a self-test.

This module parses arguments, reads input, calls the library and
formats what it returns; the geometry, the frames of a polyline
included, lives in the library modules.  Each representation is one
entry of ``_REPRESENTATIONS``: the numbers its ``--value`` takes, their
parse into the Gibbs vector every conversion goes through, and the
``(kind, payload)`` printed for a Gibbs vector; the Gibbs-vector inputs
of ``compose``, ``align`` and ``align-pair`` are parsed by its ``gibbs``
entry.  Each result kind's JSON fields and text lines are built in one
place (``_records``).  Besides the subcommands it holds the ``bench``
table (:func:`bench_rows`: the corpus and every row's error built once,
then one timing loop over its (operation, representation, call, error)
rows), the ``selftest`` checks (:func:`selftest_checks`) and the OBJ
tube writer behind ``sweep --obj``.

Exit codes: 0 on success, 1 on computation errors (reported to stderr as
one machine-parseable line ``error: <CODE>: <detail>``) and when the
reader closes stdout early (nothing is reported), 2 on usage or parse
errors.  All numeric text output uses ``repr`` of the float, the
shortest string that parses back to the same value.  ``--json`` switches
every result to one JSON object per line with a ``kind`` tag.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from .algebra import compose, compose_sequence
# ``frame_transport`` stays a module attribute, unused here: the perfbench
# sweep trace wraps ``gibbsrot.cli.frame_transport``.
from .alignment import (
    TOL_LEN,
    _first,
    _polyline_transport,
    align_family,
    align_line,
    align_pair,
    frame_transport,
)
from .bridges import (
    axis_angle_to_gibbs,
    euler_to_matrix,
    gibbs_to_axis_angle,
    gibbs_to_quaternion,
    matrix_to_euler,
    matrix_to_quaternion,
    quaternion_multiply,
    quaternion_to_gibbs,
    quaternion_to_matrix,
)
from .cayley import cayley_forward, cayley_inverse, vector_from_skew
from .core import (
    _check_tol,
    gibbs_to_matrix,
    is_pi_encoded,
    is_rotation_matrix,
    matrix_to_gibbs,
    rotate_vector,
)
from .errors import GibbsError, InvalidInputError, InvalidPairError

__all__ = ["main", "bench_rows", "selftest_checks"]


class _Representation(NamedTuple):
    """A representation ``convert`` reads and prints."""

    count: int  # the numbers one --value takes
    to_gibbs: Callable  # those numbers -> their Gibbs vector (the conversion hub)
    output: Callable  # a Gibbs vector -> the (kind, payload) printed for it


_REPRESENTATIONS = {
    "gibbs": _Representation(3, lambda v: np.asarray(v, dtype=float), lambda r: ("gibbs", r)),
    "matrix": _Representation(
        9,
        lambda v: matrix_to_gibbs(np.asarray(v, dtype=float).reshape(3, 3)),
        lambda r: ("matrix", gibbs_to_matrix(r)),
    ),
    "quaternion": _Representation(
        4, quaternion_to_gibbs, lambda r: ("quaternion", gibbs_to_quaternion(r))
    ),
    "axis-angle": _Representation(
        4,
        lambda v: axis_angle_to_gibbs(v[:3], v[3]),
        lambda r: ("axis_angle", gibbs_to_axis_angle(r)),
    ),
    "euler": _Representation(
        3,
        lambda v: matrix_to_gibbs(euler_to_matrix(*v), check=False),
        lambda r: ("euler", matrix_to_euler(gibbs_to_matrix(r), check=False)),
    ),
}


class _UsageError(Exception):
    """Bad arguments that argparse itself cannot catch (wrong arity...)."""


# Flags whose argument is numeric and may begin with a minus sign.  argparse
# would read "--q -1,0,0" as a dangling flag, so these are rewritten to the
# "--q=-1,0,0" form before parsing.
_NUMERIC_FLAGS = {"--value", "--p", "--q", "--p1", "--q1", "--p2", "--q2", "--gamma", "--tol"}


def _join_numeric_flags(argv: list[str]) -> list[str]:
    out = []
    for tok in argv:
        if out and out[-1] in _NUMERIC_FLAGS:
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


# ---------------------------------------------------------------------------
# parsing and formatting helpers


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of numbers: {text!r}"
        ) from None


def _to_gibbs(rep: str, values: list[float]) -> np.ndarray:
    """The Gibbs vector of one --value payload of representation ``rep``,
    after its count is checked."""
    entry = _REPRESENTATIONS[rep]
    if len(values) != entry.count:
        raise _UsageError(
            f"a {rep} value takes {entry.count} comma-separated numbers, got {len(values)}"
        )
    return entry.to_gibbs(values)


def _fmt(x) -> str:
    return repr(float(x))


def _fmt_vec(v) -> str:
    return ",".join(_fmt(x) for x in v)


def _floats(v) -> list[float]:
    return [float(x) for x in np.asarray(v).reshape(-1)]


def _records(kind: str, payload):
    """Each output record of a result as (its JSON fields, its text
    lines); a text line is a (prefix, numbers) pair, printed as the prefix
    followed by the comma-separated numbers.  A ``gibbs`` payload holds
    one or more rows, one record each: its value, or the axis of a half
    turn (the half-turn mask is taken once for all rows)."""
    if kind == "gibbs":
        rows = np.reshape(payload, (-1, 3))
        for r, half in zip(rows.tolist(), is_pi_encoded(rows).tolist()):
            if half:
                axis = _floats(gibbs_to_axis_angle(r).axis)
                yield {"pi": True, "axis": axis}, [("pi-rotation axis=", axis)]
            else:
                yield {"value": r}, [("", r)]
    elif kind == "matrix":
        rows = np.asarray(payload).tolist()
        yield {"value": rows}, [("", row) for row in rows]
    elif kind == "quaternion":
        q = _floats(payload)
        yield {"value": q}, [("", q)]
    elif kind == "axis_angle":
        axis, angle = _floats(payload.axis), float(payload.angle)
        yield {"axis": axis, "angle": angle}, [("", axis + [angle])]
    elif kind == "euler":
        yaw, pitch, roll = map(float, payload)
        yield {"yaw": yaw, "pitch": pitch, "roll": roll}, [("", [yaw, pitch, roll])]
    elif kind == "line":
        base, direction = _floats(payload.base), _floats(payload.direction)
        fields = {"base": base, "direction": direction, "valid_domain": payload.valid_domain}
        yield fields, [
            ("base: ", base),
            ("direction: ", direction),
            (f"valid-gamma: {payload.valid_domain}", []),
        ]
    else:
        raise AssertionError(f"unknown kind {kind}")


def _print_result(kind: str, payload, as_json: bool) -> None:
    """Print a result: one ``kind``-tagged JSON object per record under
    ``--json``, else every record's text lines."""
    if as_json:
        lines = [json.dumps({"kind": kind, **fields}) for fields, _ in _records(kind, payload)]
    else:
        lines = [
            prefix + _fmt_vec(numbers)
            for _, text in _records(kind, payload)
            for prefix, numbers in text
        ]
    print("\n".join(lines))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_convert(args) -> int:
    if len(args.value) > 1:
        raise _UsageError(f"convert takes one --value, got {len(args.value)}")
    r = _to_gibbs(args.from_rep, args.value[0])
    _print_result(*_REPRESENTATIONS[args.to_rep].output(r), args.json)
    return 0


def _cmd_compose(args) -> int:
    result = compose_sequence(np.stack([_to_gibbs("gibbs", v) for v in args.value]))
    _print_result("gibbs", result, args.json)
    return 0


def _cmd_align(args) -> int:
    p, q = _to_gibbs("gibbs", args.p), _to_gibbs("gibbs", args.q)
    if args.gamma is None:
        line = align_family(p, q, tol=args.tol)
        _print_result("line", line, args.json)
    else:
        r = align_line(p, q, args.gamma, tol=args.tol)
        _print_result("gibbs", r, args.json)
    return 0


def _cmd_align_pair(args) -> int:
    vals = [_to_gibbs("gibbs", getattr(args, name)) for name in ("p1", "q1", "p2", "q2")]
    r = align_pair(*vals, tol=args.tol)
    _print_result("gibbs", r, args.json)
    return 0


# --- sweep ---------------------------------------------------------------


def _read_polyline(stream) -> np.ndarray:
    points, linenos = [], []
    for lineno, raw in enumerate(stream, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            vals = [float(tok) for tok in text.split(",")]
        except ValueError:
            raise _UsageError(f"line {lineno}: not a comma-separated point: {text!r}")
        if len(vals) != 3:
            raise _UsageError(f"line {lineno}: a point takes 3 numbers, got {len(vals)}")
        points.append(vals)
        linenos.append(lineno)
    if len(points) < 2:
        raise _UsageError("sweep needs at least 2 polyline points on stdin")
    a = np.asarray(points, dtype=float)
    bad = ~np.isfinite(a).all(axis=-1)
    if bad.any():
        raise _UsageError(f"line {linenos[_first(bad)]}: a point takes finite numbers")
    return a


def _emit_tube(points, basis, transport, profile: str) -> str:
    """The OBJ lines of a ``circle:R:K`` tube along ``points``: a ring around
    ``basis`` (normal, binormal) turned by each cumulative rotation."""
    try:
        kind, radius, segments = profile.split(":")
        radius, segments = float(radius), int(segments)
    except ValueError:
        kind = None
    if kind != "circle":
        raise _UsageError(f"--profile must look like circle:R:K, got {profile!r}")
    if not 0 < radius < math.inf or segments < 3:  # NaN fails too
        raise _UsageError("--profile needs a finite R > 0 and K >= 3")

    nb = rotate_vector(transport.cumulative[:, None], basis)
    angles = 2.0 * np.pi * np.arange(segments) / segments
    # One ring of `segments` vertices per sample, all rings in one broadcast.
    verts = points[:, None, :] + radius * (
        np.cos(angles)[:, None] * nb[:, None, 0] + np.sin(angles)[:, None] * nb[:, None, 1]
    )
    # Quad between ring i and ring i+1; OBJ vertex indices start at 1.
    a = segments * np.arange(points.shape[0] - 1)[:, None] + np.arange(1, segments + 1)
    b = np.roll(a, -1, axis=1)
    quads = np.stack([a, b, b + segments, a + segments], axis=-1)
    # each kind of line formatted in one pass (%r is repr, as everywhere); the
    # last newline is print's own write, which meets a pipe the reader closed
    return (
        "# swept tube: one ring per polyline sample"
        + "\nv %r %r %r" * (verts.size // 3) % tuple(verts.ravel().tolist())
        + "\nf %d %d %d %d" * (quads.size // 4) % tuple(quads.ravel().tolist())
    )


def _cmd_sweep(args) -> int:
    if args.obj and args.json:
        raise _UsageError("--obj and --json are mutually exclusive")
    if args.obj and not args.profile:
        raise _UsageError("--obj needs --profile circle:R:K")
    points = _read_polyline(sys.stdin)
    _check_tol(args.tol)  # a computation error; coincident points are a usage error
    try:
        basis, result = _polyline_transport(points, args.tol)
    except InvalidPairError:
        raise
    except InvalidInputError as e:
        raise _UsageError(str(e)) from None
    if args.obj:
        print(_emit_tube(points, basis, result, args.profile))
    else:
        _print_result("gibbs", result.steps, args.json)
    return 0


# --- bench ---------------------------------------------------------------


def _seeded_rng(seed: int) -> np.random.Generator:
    """The generator of ``bench`` and ``selftest``; numpy takes no seed below 0."""
    if seed < 0:
        raise _UsageError("--seed must be at least 0")
    return np.random.default_rng(seed)


def _bench_corpus(iters: int, seed: int):
    rng = _seeded_rng(seed)
    mags = 10.0 ** rng.uniform(-3.0, 3.0, size=iters)
    dirs = rng.normal(size=(iters, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    r = dirs * mags[:, None]
    s = np.roll(r, 1, axis=0) * 0.5
    return r, s


def _time_ns(fn, repeats: int = 3) -> int:
    fn()  # warm up caches and lazy numpy machinery before timing
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return min(times)


def bench_rows(iters: int, seed: int) -> list[dict]:
    """The benchmark table as dicts (the CSV emitted by ``bench``).

    The corpus and every row's error are built first, then one loop
    times each row's batched operation over ``iters`` items.  Each row
    reports a representation-appropriate round-trip (or cross-check)
    error: component error relative to the vector scale for Gibbs round
    trips, absolute component error for canonical quaternions,
    matrix-entry error for Euler round trips, matrix-entry cross-checks
    for the two compose alternatives, orthogonality drift for matrix
    compose, the largest difference between the matrix-free and the
    matrix action, relative to the vector's length, for both ``rotate``
    rows, the worst relative residual of mapping both pairs for
    ``align_pair``, and the orthogonality residual
    ``is_rotation_matrix`` reports for the ``validate`` row.
    """
    if iters < 1:
        raise _UsageError("--iters must be at least 1")
    r, s = _bench_corpus(iters, seed)
    u, us = gibbs_to_matrix(r), gibbs_to_matrix(s)
    q, qs = gibbs_to_quaternion(r), gibbs_to_quaternion(s)
    e = np.stack(matrix_to_euler(u, check=False), axis=-1)

    # round trips through the matrix, shared by to_matrix and from_matrix
    gibbs_err = np.max(np.abs(matrix_to_gibbs(u) - r).max(axis=-1) / np.abs(r).max(axis=-1))
    qb = matrix_to_quaternion(quaternion_to_matrix(q), check=False)
    quaternion_err = np.abs(qb - q).max()
    ue = euler_to_matrix(e)
    ueb = euler_to_matrix(np.stack(matrix_to_euler(ue, check=False), axis=-1))
    euler_err = np.abs(ueb - ue).max()

    uu = u @ us
    compose_err = np.abs(gibbs_to_matrix(compose(r, s)) - uu).max()
    qq = quaternion_multiply(qs, q)
    qq = qq / np.sqrt(np.sum(qq * qq, axis=-1, keepdims=True))
    quaternion_compose_err = np.abs(quaternion_to_matrix(qq) - uu).max()
    gram = np.einsum("nji,njk->nik", uu, uu)
    matrix_compose_err = np.abs(gram - np.eye(3)).max()

    diff = rotate_vector(r, s) - (u @ s[..., None])[..., 0]
    rotate_err = np.max(np.linalg.norm(diff, axis=-1) / np.linalg.norm(s, axis=-1))

    p1, p2 = s, np.roll(s, 1, axis=0)
    q1, q2 = rotate_vector(r, p1), rotate_vector(r, p2)
    a = align_pair(p1, q1, p2, q2)
    align_err = max(
        np.max(np.linalg.norm(rotate_vector(a, p) - q, axis=-1) / np.linalg.norm(p, axis=-1))
        for p, q in ((p1, q1), (p2, q2))
    )

    validate_err = is_rotation_matrix(u).max_orthogonality_residual
    table = [
        ("to_matrix", "gibbs", lambda: gibbs_to_matrix(r), gibbs_err),
        ("to_matrix", "quaternion", lambda: quaternion_to_matrix(q), quaternion_err),
        ("to_matrix", "euler", lambda: euler_to_matrix(e), euler_err),
        ("from_matrix", "gibbs", lambda: matrix_to_gibbs(u), gibbs_err),
        ("from_matrix", "quaternion", lambda: matrix_to_quaternion(u), quaternion_err),
        ("from_matrix", "euler", lambda: matrix_to_euler(u), euler_err),
        ("compose", "gibbs", lambda: compose(r, s), compose_err),
        ("compose", "quaternion", lambda: quaternion_multiply(qs, q), quaternion_compose_err),
        ("compose", "matrix", lambda: u @ us, matrix_compose_err),
        ("rotate", "gibbs", lambda: rotate_vector(r, s), rotate_err),
        ("rotate", "matrix", lambda: u @ s[..., None], rotate_err),
        ("align_pair", "gibbs", lambda: align_pair(p1, q1, p2, q2), align_err),
        ("validate", "matrix", lambda: is_rotation_matrix(u), validate_err),
    ]
    rows = []
    for operation, representation, call, err in table:
        total_ns = _time_ns(call)
        rows.append(
            {
                "operation": operation,
                "representation": representation,
                "iterations": iters,
                "total_ns": total_ns,
                "ns_per_op": total_ns / iters,
                "max_roundtrip_err": float(err),
            }
        )
    return rows


def _cmd_bench(args) -> int:
    rows = bench_rows(args.iters, args.seed)
    print("operation,representation,iterations,total_ns,ns_per_op,max_roundtrip_err")
    for row in rows:
        print(
            f"{row['operation']},{row['representation']},{row['iterations']},"
            f"{row['total_ns']},{_fmt(row['ns_per_op'])},{_fmt(row['max_roundtrip_err'])}"
        )
    return 0


# --- selftest ------------------------------------------------------------


def selftest_checks(seed: int) -> list[tuple[str, bool, str]]:
    """Cross-module consistency checks: (name, passed, detail) triples."""
    rng = _seeded_rng(seed)
    checks = []

    def check(name, worst, bound):
        checks.append((name, bool(worst <= bound), f"worst {worst:.3e} vs bound {bound:g}"))

    n = 10_000
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    r = dirs * 10.0 ** rng.uniform(-6, 3, size=(n, 1))
    u = gibbs_to_matrix(r)
    back = matrix_to_gibbs(u)
    check(
        "matrix round trip",
        np.max(np.abs(back - r).max(axis=-1) / np.abs(r).max(axis=-1)),
        1e-9,
    )
    ok = is_rotation_matrix(u)
    checks.append(
        (
            "generated matrices are rotations",
            bool(ok),
            f"orthogonality {ok.max_orthogonality_residual:.3e}, "
            f"determinant {ok.max_det_deviation:.3e}",
        )
    )

    s = np.roll(r, 3) * 0.7
    t = compose(r, s)
    check("compose matches matrix product", np.abs(gibbs_to_matrix(t) - u @ gibbs_to_matrix(s)).max(), 1e-10)

    q = gibbs_to_quaternion(r)
    qs = gibbs_to_quaternion(s)
    qq = quaternion_multiply(qs, q)
    qq = qq / np.sqrt(np.sum(qq * qq, axis=-1, keepdims=True))
    check(
        "compose matches quaternion product",
        np.abs(quaternion_to_matrix(qq) - gibbs_to_matrix(t)).max(),
        1e-10,
    )

    check("quaternion matrices agree", np.abs(quaternion_to_matrix(q) - u).max(), 1e-10)

    sub = r[:200]
    cay = np.stack([vector_from_skew(cayley_forward(m)) for m in gibbs_to_matrix(sub)])
    check(
        "cayley agrees with the rational path",
        np.max(np.abs(cay - sub).max(axis=-1) / np.maximum(np.abs(sub).max(axis=-1), 1.0)),
        1e-10,
    )
    back_u = np.stack([cayley_inverse(cayley_forward(m)) for m in gibbs_to_matrix(sub)])
    check("cayley round trip", np.abs(back_u - gibbs_to_matrix(sub)).max(), 1e-10)

    e = matrix_to_euler(u, check=False)
    ue = euler_to_matrix(np.stack(e, axis=-1))
    check("euler round trip", np.abs(ue - u).max(), 1e-10)

    axis, angle = gibbs_to_axis_angle(r)
    check(
        "axis-angle round trip",
        np.max(
            np.abs(axis_angle_to_gibbs(axis, angle) - r).max(axis=-1)
            / np.abs(r).max(axis=-1)
        ),
        1e-9,
    )

    p = rng.normal(size=(n, 3))
    g = rng.uniform(-10, 10, size=n)
    qv = rotate_vector(r, p)
    fam = align_line(p, qv, g)
    res = np.linalg.norm(rotate_vector(fam, p) - qv, axis=-1) / np.linalg.norm(p, axis=-1)
    check("alignment family maps p to q", res.max(), 1e-9)

    p2 = rng.normal(size=(n, 3))
    got = align_pair(p, qv, p2, rotate_vector(r, p2))
    check(
        "pair alignment recovers the rotation",
        np.abs(gibbs_to_matrix(got) - u).max(),
        1e-9,
    )

    # the half-turn ladder: angles approaching pi from below; the round
    # trip is judged on matrix entries, on both sides of the switch to
    # the half-turn encoding
    ks = np.arange(1, 13)
    theta = np.pi - 10.0 ** (-ks.astype(float))
    axes = rng.normal(size=(12, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    ul = gibbs_to_matrix(axis_angle_to_gibbs(axes, theta))
    check(
        "near-half-turn round trip",
        np.abs(gibbs_to_matrix(matrix_to_gibbs(ul)) - ul).max(),
        1e-6,
    )
    return checks


def _cmd_selftest(args) -> int:
    checks = selftest_checks(args.seed)
    failed = 0
    for name, passed, detail in checks:
        if passed:
            print(f"ok   {name} ({detail})")
        else:
            failed += 1
            print(f"FAIL {name} ({detail})")
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole parser, built once per process: parsing leaves it
    unchanged, and every call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="gibbsrot",
        description="Rotation toolkit built on the Gibbs vector: the "
        "rational (square-root-free) parameterization of 3D rotations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    conv = sub.add_parser("convert", help="convert one rotation between representations")
    conv.add_argument("--from", dest="from_rep", required=True, choices=_REPRESENTATIONS)
    conv.add_argument("--to", dest="to_rep", required=True, choices=_REPRESENTATIONS)
    conv.add_argument(
        "--value",
        type=_csv_floats,
        action="append",
        required=True,
        help="comma-separated numbers (gibbs/euler: 3, quaternion: 4 as w,x,y,z, "
        "axis-angle: 4 as ux,uy,uz,angle, matrix: 9 row-major)",
    )
    conv.add_argument("--json", action="store_true")
    conv.set_defaults(func=_cmd_convert)

    comp = sub.add_parser("compose", help="compose Gibbs rotations left to right")
    comp.add_argument(
        "--value",
        type=_csv_floats,
        action="append",
        required=True,
        help="a Gibbs vector x,y,z; repeat the flag to chain rotations "
        "(the first flag is applied last, matching matrix product order)",
    )
    comp.add_argument("--json", action="store_true")
    comp.set_defaults(func=_cmd_compose)

    al = sub.add_parser("align", help="rotations carrying vector p onto vector q")
    al.add_argument("--p", type=_csv_floats, required=True)
    al.add_argument("--q", type=_csv_floats, required=True)
    al.add_argument("--gamma", type=float, default=None, help="family parameter; omit for the whole line")
    al.add_argument("--tol", type=float, default=TOL_LEN, help="relative validity tolerance")
    al.add_argument("--json", action="store_true")
    al.set_defaults(func=_cmd_align)

    ap = sub.add_parser("align-pair", help="the rotation carrying pair (p1,p2) onto (q1,q2)")
    ap.add_argument("--p1", type=_csv_floats, required=True)
    ap.add_argument("--q1", type=_csv_floats, required=True)
    ap.add_argument("--p2", type=_csv_floats, required=True)
    ap.add_argument("--q2", type=_csv_floats, required=True)
    ap.add_argument("--tol", type=float, default=TOL_LEN)
    ap.add_argument("--json", action="store_true")
    ap.set_defaults(func=_cmd_align_pair)

    sw = sub.add_parser(
        "sweep",
        help="transport a frame along a polyline read from stdin (x,y,z per line)",
    )
    sw.add_argument("--obj", action="store_true", help="emit a swept tube mesh in OBJ format")
    sw.add_argument("--profile", default=None, help="tube cross-section, circle:R:K")
    sw.add_argument("--tol", type=float, default=TOL_LEN)
    sw.add_argument("--json", action="store_true")
    sw.set_defaults(func=_cmd_sweep)

    be = sub.add_parser("bench", help="time the representations against each other (CSV)")
    be.add_argument("--iters", type=int, default=100_000)
    be.add_argument("--seed", type=int, default=0)
    be.set_defaults(func=_cmd_bench)

    st = sub.add_parser("selftest", help="run the cross-module consistency checks")
    st.add_argument("--seed", type=int, default=0)
    st.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_numeric_flags(list(argv)))
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (``gibbsrot ... | head``): end
        # quietly, with the interpreter's final flush sent to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _UsageError as e:
        print(f"error: USAGE: {e}", file=sys.stderr)
        return 2
    except GibbsError as e:
        print(f"error: {e.code}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
