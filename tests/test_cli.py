"""Command-line interface: exit codes, output formats, error records,
the benchmark table, and the sweep subcommand."""

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gibbsrot
from gibbsrot.cli import bench_rows, main, selftest_checks

BENCH_HEADER = "operation,representation,iterations,total_ns,ns_per_op,max_roundtrip_err"


def run_cli(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    old_stdin, old_stdout, old_stderr = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
    try:
        code = main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = old_stdin, old_stdout, old_stderr
    return code, out.getvalue(), err.getvalue()


# --- exit codes -------------------------------------------------------------


def test_success_exit_code():
    code, out, err = run_cli(
        ["convert", "--from", "gibbs", "--to", "matrix", "--value", "0,0,1"]
    )
    assert code == 0 and err == ""


def test_computation_error_exit_code_and_record():
    code, out, err = run_cli(["align", "--p", "1,0,0", "--q", "0,2,0"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: LENGTH_MISMATCH: ")
    assert err.count("\n") == 1  # a single machine-parseable line


def test_parse_error_exit_code():
    code, _, _ = run_cli(
        ["convert", "--from", "gibbs", "--to", "matrix", "--value", "abc"]
    )
    assert code == 2
    code, _, err = run_cli(
        ["convert", "--from", "gibbs", "--to", "matrix", "--value", "1,2"]
    )
    assert code == 2 and "3 comma-separated numbers" in err
    code, _, _ = run_cli(["convert", "--from", "gibbs", "--to", "nowhere", "--value", "0,0,0"])
    assert code == 2


def test_antipodal_error_record():
    code, _, err = run_cli(["align", "--p", "1,0,0", "--q", "-1,0,0", "--gamma", "0"])
    assert code == 1
    assert err.startswith("error: ANTIPODAL: ")


def test_negative_numbers_parse_in_flag_values():
    code, out, _ = run_cli(["align", "--p", "1,0,0", "--q", "0,1,0", "--gamma", "-2.5"])
    assert code == 0
    code2, out2, _ = run_cli(["align", "--p=1,0,0", "--q=0,1,0", "--gamma=-2.5"])
    assert code2 == 0 and out2 == out


# --- convert ----------------------------------------------------------------


@pytest.mark.parametrize("rep,count", [
    ("gibbs", 3), ("matrix", 9), ("quaternion", 4), ("axis-angle", 4), ("euler", 3),
])
def test_convert_round_trips_every_representation(rep, count):
    code, out, _ = run_cli(
        ["convert", "--from", "gibbs", "--to", rep, "--value", "0.2,-0.1,0.4"]
    )
    assert code == 0
    csv = ",".join(out.split())
    assert len(csv.split(",")) == count
    code, back, _ = run_cli(["convert", "--from", rep, "--to", "gibbs", "--value", csv])
    assert code == 0
    vals = [float(t) for t in back.strip().split(",")]
    assert max(abs(a - b) for a, b in zip(vals, [0.2, -0.1, 0.4])) < 1e-12


def test_matrix_output_is_three_rows():
    code, out, _ = run_cli(
        ["convert", "--from", "gibbs", "--to", "matrix", "--value", "0,0,0"]
    )
    lines = out.strip().splitlines()
    assert lines == ["1.0,0.0,0.0", "0.0,1.0,0.0", "0.0,0.0,1.0"]


def test_full_precision_text():
    # repr round-trip: what it prints parses back to the same float
    code, out, _ = run_cli(
        ["convert", "--from", "gibbs", "--to", "quaternion", "--value", "0.1,0.2,0.3"]
    )
    vals = [float(t) for t in out.strip().split(",")]
    assert out.strip() == ",".join(repr(v) for v in vals)


def test_json_outputs_are_single_line_kind_tagged():
    cases = {
        "gibbs": {"kind": "gibbs"},
        "matrix": {"kind": "matrix"},
        "quaternion": {"kind": "quaternion"},
        "axis-angle": {"kind": "axis_angle"},
        "euler": {"kind": "euler"},
    }
    for rep, want in cases.items():
        code, out, _ = run_cli(
            ["convert", "--from", "gibbs", "--to", rep, "--json", "--value", "0.2,-0.1,0.4"]
        )
        assert code == 0 and out.count("\n") == 1
        obj = json.loads(out)
        assert obj["kind"] == want["kind"]


def test_half_turn_display_forms():
    pi_str = repr(float(np.pi))
    code, out, _ = run_cli(
        ["convert", "--from", "axis-angle", "--to", "gibbs", "--value", f"0,0,1,{pi_str}"]
    )
    assert code == 0
    assert out.strip() == "pi-rotation axis=0.0,0.0,1.0"
    code, out, _ = run_cli(
        ["convert", "--from", "axis-angle", "--to", "gibbs", "--json", "--value", f"0,0,1,{pi_str}"]
    )
    obj = json.loads(out)
    assert obj == {"kind": "gibbs", "pi": True, "axis": [0.0, 0.0, 1.0]}


def test_infinite_components_accepted_as_half_turn_input():
    code, out, _ = run_cli(
        ["convert", "--from", "gibbs", "--to", "matrix", "--value", "inf,0,0"]
    )
    assert code == 0
    rows = [[float(t) for t in line.split(",")] for line in out.strip().splitlines()]
    assert np.allclose(rows, np.diag([1.0, -1.0, -1.0]))


def test_convert_rejects_sloppy_quaternion():
    code, _, err = run_cli(
        ["convert", "--from", "quaternion", "--to", "gibbs", "--value", "0.707,0.707,0,0"]
    )
    assert code == 1 and err.startswith("error: INVALID_INPUT")


# --- compose / align --------------------------------------------------------


def test_compose_chain_and_half_turn_output():
    code, out, _ = run_cli(["compose", "--value", "1,0,0", "--value", "1,0,0"])
    assert code == 0
    assert out.strip() == "pi-rotation axis=1.0,0.0,0.0"
    code, out, _ = run_cli(["compose", "--value", "1,0,0", "--value", "0,1,0"])
    assert out.strip() == "1.0,1.0,-1.0"


def test_align_family_output():
    code, out, _ = run_cli(["align", "--p", "1,0,0", "--q", "0,1,0"])
    lines = out.strip().splitlines()
    assert lines[0] == "base: 0.0,0.0,-1.0"
    assert lines[1] == "direction: 1.0,1.0,0.0"
    assert lines[2].startswith("valid-gamma: ")
    code, out, _ = run_cli(["align", "--p", "1,0,0", "--q", "0,1,0", "--json"])
    obj = json.loads(out)
    assert obj["kind"] == "line"
    assert obj["base"] == [0.0, 0.0, -1.0]
    assert "valid_domain" in obj


def test_align_pair_subcommand():
    code, out, _ = run_cli(
        ["align-pair", "--p1", "0,0,2", "--q1", "0,0,2", "--p2", "1,0,0.5",
         "--q2", str(np.cos(2 * np.arctan(0.7))) + "," + str(np.sin(2 * np.arctan(0.7)) * -1.0) + ",0.5"]
    )
    # p1 fixed pins the axis to z; exact expected value checked loosely here
    assert code == 0
    vals = [float(t) for t in out.strip().split(",")]
    assert abs(vals[0]) < 1e-9 and abs(vals[1]) < 1e-9
    assert abs(abs(vals[2]) - 0.7) < 1e-9


def test_align_tol_flag():
    code, _, _ = run_cli(["align", "--p", "1,0,0", "--q", "0,1.000001,0", "--gamma", "0"])
    assert code == 1
    code, _, _ = run_cli(
        ["align", "--p", "1,0,0", "--q", "0,1.000001,0", "--gamma", "0", "--tol", "1e-4"]
    )
    assert code == 0


# --- sweep ------------------------------------------------------------------


def arc_polyline(n=10):
    t = np.linspace(0.0, np.pi / 2.0, n)
    return "\n".join(f"{float(np.cos(v))!r},{float(np.sin(v))!r},0.0" for v in t)


def test_sweep_steps_output():
    code, out, err = run_cli(["sweep"], stdin=arc_polyline(10))
    assert code == 0, err
    steps = np.array([[float(t) for t in line.split(",")] for line in out.strip().splitlines()])
    assert steps.shape == (9, 3)
    # planar arc: every step turns about z
    assert np.abs(steps[:, :2]).max() < 1e-12
    turn = np.degrees(2.0 * np.arctan(np.abs(steps[:, 2]))).sum()
    assert abs(turn - 80.0) < 1e-9  # one-sided end tangents trim a half step each


def test_sweep_json_lines():
    code, out, _ = run_cli(["sweep", "--json"], stdin=arc_polyline(6))
    objs = [json.loads(line) for line in out.strip().splitlines()]
    assert len(objs) == 5
    assert all(o["kind"] == "gibbs" for o in objs)


def test_sweep_comments_and_blanks_ignored():
    poly = "# header\n\n" + arc_polyline(4) + "\n   \n"
    code, out, _ = run_cli(["sweep"], stdin=poly)
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_sweep_obj_tube():
    code, out, err = run_cli(
        ["sweep", "--obj", "--profile", "circle:0.1:8"], stdin=arc_polyline(10)
    )
    assert code == 0, err
    lines = out.strip().splitlines()
    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(verts) == 10 * 8
    assert len(faces) == 9 * 8
    coords = np.array([[float(t) for t in v.split()[1:]] for v in verts])
    rings = coords.reshape(10, 8, 3)
    centers = rings.mean(axis=1)
    radii = np.linalg.norm(rings - centers[:, None, :], axis=-1)
    assert np.abs(radii - 0.1).max() < 1e-9  # rigid circular sections
    # face indices stay within the vertex count and are 1-based
    idx = np.array([[int(t) for t in f.split()[1:]] for f in faces])
    assert idx.min() == 1 and idx.max() == len(verts)


def test_sweep_usage_errors():
    assert run_cli(["sweep"], stdin="1,0,0\n")[0] == 2  # too short
    assert run_cli(["sweep"], stdin="1,0\n2,0\n")[0] == 2  # bad point
    assert run_cli(["sweep", "--obj"], stdin=arc_polyline(4))[0] == 2  # no profile
    assert run_cli(["sweep", "--obj", "--profile", "square:1:4"], stdin=arc_polyline(4))[0] == 2
    assert run_cli(["sweep", "--obj", "--profile", "circle:0:8"], stdin=arc_polyline(4))[0] == 2
    assert run_cli(
        ["sweep", "--obj", "--profile", "circle:0.1:8", "--json"], stdin=arc_polyline(4)
    )[0] == 2


def test_sweep_straight_segments_inherit_normal():
    # an L-shaped path: straight, corner, straight; no frame flips
    pts = [(-2 + 0.5 * i, 0.0, 0.0) for i in range(4)]
    t = np.linspace(0, np.pi / 2, 5)
    pts += [(float(np.sin(v)), 1.0 - float(np.cos(v)), 0.0) for v in t[1:]]
    pts += [(1.0, 1.0 + 0.5 * i, 0.0) for i in range(1, 4)]
    poly = "\n".join(f"{x!r},{y!r},{z!r}" for x, y, z in pts)
    code, out, _ = run_cli(["sweep"], stdin=poly)
    assert code == 0
    steps = np.array([[float(v) for v in line.split(",")] for line in out.strip().splitlines()])
    angles = np.degrees(2 * np.arctan(np.linalg.norm(steps, axis=-1)))
    assert angles.max() < 45.0  # bend spread over several steps, no flips
    assert abs(angles.sum() - 90.0) < 1.0  # total turn of the corner


def helix_with_straight_run(n=60):
    t = np.linspace(0.0, 4.0 * np.pi, n)
    pts = np.stack([np.cos(t), np.sin(t), 0.2 * t], axis=-1)
    # a straight run in the middle and a straight lead-in
    pts[n // 3 : n // 2] = pts[n // 3] + np.outer(np.arange(n // 2 - n // 3), [0.0, 0.1, 0.05])
    pts[n // 2 :] += pts[n // 2 - 1] - pts[n // 2] + [0.0, 0.1, 0.05]
    lead = pts[0] - np.outer(np.arange(5, 0, -1), [0.0, 0.1, 0.0])
    return np.concatenate([lead, pts])


def test_polyline_frames_match_per_sample_reference():
    from gibbsrot.cli import _perp_seed, _polyline_frames

    pts = helix_with_straight_run()
    frames = _polyline_frames(pts)
    that = frames[:, 0]
    curvature = np.zeros_like(pts)
    curvature[1:-1] = pts[2:] - 2.0 * pts[1:-1] + pts[:-2]
    tangents = np.concatenate([pts[1:2] - pts[:1], pts[2:] - pts[:-2], pts[-1:] - pts[-2:-1]])
    want = np.empty_like(pts)
    curved = []
    for i in range(len(pts)):
        cand = curvature[i] - (curvature[i] @ that[i]) * that[i]
        size = np.linalg.norm(cand)
        if size > 1e-9 * np.linalg.norm(tangents[i]):
            want[i] = cand / size
            curved.append(i)
    first = curved[0]

    def carry(prev, t):
        w = prev - (prev @ t) * t
        size = np.linalg.norm(w)
        return _perp_seed(t) if size <= 1e-12 else w / size

    for i in range(first - 1, -1, -1):
        want[i] = carry(want[i + 1], that[i])
    for i in range(first + 1, len(pts)):
        if i not in curved:
            want[i] = carry(want[i - 1], that[i])
    assert 0 < first and len(curved) < len(pts) - first - 1  # both kinds of run
    assert np.abs(frames[:, 1] - want).max() <= 1e-15


def test_emit_tube_matches_per_sample_rotation():
    from gibbsrot.alignment import frame_transport
    from gibbsrot.cli import _emit_tube, _polyline_frames

    pts = helix_with_straight_run()
    frames = _polyline_frames(pts)
    transport = frame_transport(frames)
    segments, radius = 7, 0.05
    lines = _emit_tube(pts, frames, transport, f"circle:{radius}:{segments}")
    assert lines[0].startswith("#")
    verts = np.array([[float(t) for t in l.split()[1:]] for l in lines if l.startswith("v ")])
    n0 = frames[0, 1]
    b0 = np.cross(frames[0, 0], n0)
    angles = 2.0 * np.pi * np.arange(segments) / segments
    want = []
    for i, p in enumerate(pts):
        ni = gibbsrot.rotate_vector(transport.cumulative[i], n0)
        bi = gibbsrot.rotate_vector(transport.cumulative[i], b0)
        want.extend(p + radius * (np.cos(a) * ni + np.sin(a) * bi) for a in angles)
    assert verts.shape == (len(pts) * segments, 3)
    assert np.abs(verts - np.array(want)).max() <= 1e-14
    faces = [l for l in lines if l.startswith("f ")]
    want_faces = []
    for i in range(len(pts) - 1):
        base = i * segments
        for j in range(segments):
            a, b = base + j + 1, base + (j + 1) % segments + 1
            want_faces.append(f"f {a} {b} {b + segments} {a + segments}")
    assert faces == want_faces


def test_sweep_obj_prints_one_line_per_record():
    from gibbsrot.alignment import frame_transport
    from gibbsrot.cli import _emit_tube, _polyline_frames

    pts = helix_with_straight_run(20)
    poly = "\n".join(f"{x!r},{y!r},{z!r}" for x, y, z in pts.tolist())
    code, out, err = run_cli(["sweep", "--obj", "--profile", "circle:0.1:5"], stdin=poly)
    assert code == 0, err
    frames = _polyline_frames(pts)
    lines = _emit_tube(pts, frames, frame_transport(frames), "circle:0.1:5")
    assert out == "".join(line + "\n" for line in lines)


# --- bench ------------------------------------------------------------------


def test_bench_csv_shape_and_error_bounds():
    code, out, _ = run_cli(["bench", "--iters", "1000", "--seed", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == BENCH_HEADER
    assert len(lines) - 1 >= 8
    table = {}
    for line in lines[1:]:
        op, rep, iters, total, per, err = line.split(",")
        assert int(iters) == 1000
        assert int(total) > 0
        table[(op, rep)] = float(err)
    for op in ("to_matrix", "from_matrix"):
        for rep in ("gibbs", "quaternion", "euler"):
            assert (op, rep) in table
    for rep in ("gibbs", "quaternion", "matrix"):
        assert ("compose", rep) in table
    assert table[("to_matrix", "gibbs")] <= 1e-9
    assert table[("from_matrix", "gibbs")] <= 1e-9


def test_bench_error_columns_deterministic_for_seed():
    rows1 = bench_rows(500, 9)
    rows2 = bench_rows(500, 9)
    for a, b in zip(rows1, rows2):
        assert a["operation"] == b["operation"]
        assert a["max_roundtrip_err"] == b["max_roundtrip_err"]
    rows3 = bench_rows(500, 10)
    assert any(
        a["max_roundtrip_err"] != c["max_roundtrip_err"] for a, c in zip(rows1, rows3)
    )


# --- selftest ---------------------------------------------------------------


def test_selftest_passes_and_reports():
    code, out, _ = run_cli(["selftest", "--seed", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert all(l.startswith("ok   ") for l in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_selftest_checks_are_deterministic():
    a = selftest_checks(12)
    b = selftest_checks(12)
    assert a == b
    assert all(ok for _, ok, _ in a)


# --- the installed console script --------------------------------------------


def console_script_command():
    """Command and environment that run the ``gibbsrot`` console script.

    An installed script on PATH is run as is. On an uninstalled checkout
    the ``[project.scripts]`` target is run in a fresh interpreter the way
    the generated wrapper runs it, importing the same package as this test.
    """
    script = shutil.which("gibbsrot")
    if script is not None:
        return [script], None
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["gibbsrot"]
    module, attr = target.split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    package_root = str(Path(gibbsrot.__file__).resolve().parents[1])
    pythonpath = filter(None, [package_root, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    return [sys.executable, "-c", wrapper], env


def test_console_script_end_to_end():
    command, env = console_script_command()
    proc = subprocess.run(
        command + ["convert", "--from", "gibbs", "--to", "quaternion",
                   "--value", "0,0,1", "--json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(proc.stdout)
    assert obj["kind"] == "quaternion"
    assert np.allclose(obj["value"], [np.sqrt(0.5), 0.0, 0.0, np.sqrt(0.5)])
