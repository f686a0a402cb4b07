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
from gibbsrot.alignment import _polyline_transport
from gibbsrot import cli
from gibbsrot.cli import _build_parser, bench_rows, main, selftest_checks

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


# The exact stdout of each output kind, text and --json: the formatter
# must keep every byte.
GOLDEN = [
    (["convert", "--from", "gibbs", "--to", "gibbs", "--value", "0.25,-0.5,1.5"],
     "0.25,-0.5,1.5\n",
     '{"kind": "gibbs", "value": [0.25, -0.5, 1.5]}\n'),
    (["convert", "--from", "gibbs", "--to", "gibbs", "--value", "-0.0,0,2"],
     "-0.0,0.0,2.0\n",
     '{"kind": "gibbs", "value": [-0.0, 0.0, 2.0]}\n'),
    (["convert", "--from", "gibbs", "--to", "matrix", "--value", "0.25,-0.5,1.5"],
     "-0.40350877192982454,0.7719298245614035,0.49122807017543857\n"
     "-0.9122807017543859,-0.2982456140350877,-0.2807017543859649\n"
     "-0.07017543859649122,-0.5614035087719298,0.8245614035087719\n",
     '{"kind": "matrix", "value": [[-0.40350877192982454, 0.7719298245614035, '
     "0.49122807017543857], [-0.9122807017543859, -0.2982456140350877, "
     "-0.2807017543859649], [-0.07017543859649122, -0.5614035087719298, "
     '0.8245614035087719]]}\n'),
    (["convert", "--from", "gibbs", "--to", "quaternion", "--value", "0.25,-0.5,1.5"],
     "0.5298129428260175,0.13245323570650439,-0.26490647141300877,0.7947194142390264\n",
     '{"kind": "quaternion", "value": [0.5298129428260175, 0.13245323570650439, '
     '-0.26490647141300877, 0.7947194142390264]}\n'),
    (["convert", "--from", "gibbs", "--to", "axis-angle", "--value", "0.25,-0.5,1.5"],
     "0.15617376188860604,-0.3123475237772121,0.9370425713316364,2.024832666307421\n",
     '{"kind": "axis_angle", "axis": [0.15617376188860604, -0.3123475237772121, '
     '0.9370425713316364], "angle": 2.024832666307421}\n'),
    (["convert", "--from", "gibbs", "--to", "euler", "--value", "0.25,-0.5,1.5"],
     "1.9872349439864885,-0.07023316418132715,0.5977583915930821\n",
     '{"kind": "euler", "yaw": 1.9872349439864885, "pitch": -0.07023316418132715, '
     '"roll": 0.5977583915930821}\n'),
    (["convert", "--from", "axis-angle", "--to", "gibbs", "--value",
      "0,0.6,-0.8,3.141592653589793"],
     "pi-rotation axis=0.0,0.5999999999999999,-0.8\n",
     '{"kind": "gibbs", "pi": true, "axis": [0.0, 0.5999999999999999, -0.8]}\n'),
    (["align", "--p", "1,2,2", "--q", "2,-1,2"],
     "base: -0.46153846153846156,-0.15384615384615385,0.38461538461538464\n"
     "direction: 0.23076923076923078,0.07692307692307693,0.3076923076923077\n"
     "valid-gamma: all finite gamma; the limit gamma -> +/-inf is the half turn "
     "about p + q\n",
     '{"kind": "line", "base": [-0.46153846153846156, -0.15384615384615385, '
     '0.38461538461538464], "direction": [0.23076923076923078, 0.07692307692307693, '
     '0.3076923076923077], "valid_domain": "all finite gamma; the limit gamma -> '
     '+/-inf is the half turn about p + q"}\n'),
]


@pytest.mark.parametrize("argv,text,as_json", GOLDEN)
def test_golden_stdout(argv, text, as_json):
    assert run_cli(argv) == (0, text, "")
    assert run_cli(argv + ["--json"]) == (0, as_json, "")


# --- compose / align --------------------------------------------------------


def test_compose_chain_and_half_turn_output():
    code, out, _ = run_cli(["compose", "--value", "1,0,0", "--value", "1,0,0"])
    assert code == 0
    assert out.strip() == "pi-rotation axis=1.0,0.0,0.0"
    code, out, _ = run_cli(["compose", "--value", "1,0,0", "--value", "0,1,0"])
    assert out.strip() == "1.0,1.0,-1.0"


def test_repeated_in_process_calls_do_not_share_state():
    # the parser is built once per process; appended --value lists must
    # still start empty on every call
    assert _build_parser() is _build_parser()
    code, out, _ = run_cli(["compose", "--value", "1,0,0", "--value", "0,1,0"])
    assert code == 0 and out.strip() == "1.0,1.0,-1.0"
    code, out, _ = run_cli(["compose", "--value", "0,0,1"])
    assert code == 0 and out.strip() == "0.0,0.0,1.0"


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


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize("argv, stdin", [
    (["align", "--p", "1,0,0", "--q", "0,2,0"], ""),
    (["align-pair", "--p1", "1,0,0", "--q1", "0,1,0", "--p2", "1,1,0", "--q2", "1,-1,0"], ""),
    (["sweep"], arc_polyline(4)),
], ids=["align", "align-pair", "sweep"])
def test_tol_must_be_a_finite_number_at_least_zero(argv, stdin, tol):
    # --tol nan made align and align-pair exit 0 on inputs they must reject
    code, out, err = run_cli(argv + ["--tol", tol], stdin=stdin)
    assert (code, out) == (1, "")
    assert err.startswith("error: INVALID_INPUT: tol must be a finite number >= 0")
    assert err.count("\n") == 1


def test_sweep_usage_errors():
    assert run_cli(["sweep"], stdin="1,0,0\n")[0] == 2  # too short
    assert run_cli(["sweep"], stdin="1,0\n2,0\n")[0] == 2  # bad point
    assert run_cli(["sweep"], stdin="0,0,0\n1,x,0\n") == (
        2, "", "error: USAGE: line 2: not a comma-separated point: '1,x,0'\n"
    )
    assert run_cli(["sweep", "--obj", "--profile", "circle:x:8"], stdin=arc_polyline(4)) == (
        2, "", "error: USAGE: --profile must look like circle:R:K, got 'circle:x:8'\n"
    )
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


def polyline_text(pts):
    return "\n".join(",".join(repr(float(x)) for x in p) for p in pts)


def test_sweep_straight_polyline_seeds_one_normal():
    # no sample turns, so the first normal, a seed perpendicular to the
    # tangent, is carried unchanged: every step is exactly the identity
    pts = [(0, 0, 0), (1, 1, 0), (2, 2, 0), (3, 3, 0)]
    basis, result = _polyline_transport(np.array(pts, dtype=float))
    t = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    assert np.abs(basis @ basis.T - np.eye(2)).max() <= 1e-15
    assert np.abs(basis @ t).max() <= 1e-15
    assert (result.cumulative == 0.0).all()
    assert run_cli(["sweep"], stdin=polyline_text(pts)) == (0, "0.0,0.0,0.0\n" * 3, "")


def test_sweep_reversal_is_a_computation_error():
    # the curve doubles back along its chord at sample 2: no step is defined
    pts = [(0, 0, 0), (1, 0, 0), (0.5, 0, 0)]
    code, out, err = run_cli(["sweep"], stdin=polyline_text(pts))
    assert (code, out) == (1, "")
    assert err.startswith("error: ANTIPODAL: step 1 -> 2: the polyline doubles back")


def test_sweep_coincident_points_are_a_usage_error():
    pts = [(0, 0, 0), (1, 0, 0), (0, 0, 0)]
    code, out, err = run_cli(["sweep"], stdin=polyline_text(pts))
    assert (code, out) == (2, "")
    assert err == "error: USAGE: polyline has coincident points near sample 1\n"
    # a repeated sample is not a coincident neighbour: it sweeps
    pts = [(0, 0, 0), (1, 0, 0), (1, 0, 0), (2, 1, 0)]
    code, out, err = run_cli(["sweep"], stdin=polyline_text(pts))
    assert (code, out.count("\n"), err) == (0, 3, "")


def test_sweep_non_finite_coordinate_is_a_usage_error():
    for bad in ("1,inf,0", "nan,0,0", "0,0,-inf"):
        code, out, err = run_cli(["sweep"], stdin=f"# curve\n0,0,0\n{bad}\n2,0,0\n")
        assert (code, out) == (2, "")
        assert err == "error: USAGE: line 3: a point takes finite numbers\n"


def per_row_gibbs_lines(steps, as_json):
    """The sweep output as it was printed one step at a time: each step's
    half-turn test and formatting done on that step alone."""
    out = []
    for step in steps:
        if gibbsrot.is_pi_encoded(step):
            axis = [float(x) for x in gibbsrot.gibbs_to_axis_angle(step).axis]
            if as_json:
                out.append(json.dumps({"kind": "gibbs", "pi": True, "axis": axis}))
            else:
                out.append("pi-rotation axis=" + ",".join(repr(x) for x in axis))
        elif as_json:
            out.append(json.dumps({"kind": "gibbs", "value": [float(x) for x in step]}))
        else:
            out.append(",".join(repr(float(x)) for x in step))
    return "".join(line + "\n" for line in out)


def test_sweep_lines_match_per_step_formatting():
    # a zigzag whose second step is a half turn (the tangents at samples 1
    # and 2 are opposite, off the chord), then a planar wave and a helix;
    # steps carry -0.0
    zigzag = np.array([[0.0, -1, 0], [0, 0, 0], [1, 0, 0], [-1, -1, 0]])
    t = np.linspace(0.0, 6.0 * np.pi, 400)
    wave = zigzag[-1] + np.stack([t, np.sin(t), 0.0 * t], axis=-1)[1:]
    turn = wave[-1] + np.stack([np.cos(t) - 1.0, np.sin(t), 0.05 * t], axis=-1)[1:]
    pts = np.concatenate([zigzag, wave, turn])
    poly = "\n".join(f"{x!r},{y!r},{z!r}" for x, y, z in pts.tolist())
    steps = _polyline_transport(pts)[1].steps
    assert gibbsrot.is_pi_encoded(steps).tolist().index(True) == 1
    assert np.signbit(steps[steps == 0.0]).any()
    for as_json in (False, True):
        code, out, err = run_cli(["sweep", "--json"] if as_json else ["sweep"], stdin=poly)
        assert code == 0, err
        assert out == per_row_gibbs_lines(steps, as_json)


def helix_with_straight_run(n=60):
    t = np.linspace(0.0, 4.0 * np.pi, n)
    pts = np.stack([np.cos(t), np.sin(t), 0.2 * t], axis=-1)
    # a straight run in the middle and a straight lead-in
    pts[n // 3 : n // 2] = pts[n // 3] + np.outer(np.arange(n // 2 - n // 3), [0.0, 0.1, 0.05])
    pts[n // 2 :] += pts[n // 2 - 1] - pts[n // 2] + [0.0, 0.1, 0.05]
    lead = pts[0] - np.outer(np.arange(5, 0, -1), [0.0, 0.1, 0.0])
    return np.concatenate([lead, pts])


def test_sweep_frames_do_not_depend_on_the_curve_scale():
    # samples 1e-200 apart are not coincident, and a curve scaled by a
    # power of two sweeps to the same steps, bit for bit, up to the float
    # ceiling (at 2^1022 the curve reaches 1.2e308)
    assert run_cli(["sweep"], stdin="0,0,0\n1e-200,0,0\n") == (0, "0.0,0.0,0.0\n", "")
    pts = helix_with_straight_run()
    want = run_cli(["sweep"], stdin=polyline_text(pts))
    assert want[0] == 0 and want[1].count("\n") == len(pts) - 1
    for k in (-700, -500, 500, 1022):
        assert run_cli(["sweep"], stdin=polyline_text(np.ldexp(pts, k))) == want
    # a fold at the ceiling (curvature 2e308 times the tangent), a fold
    # 1e-300 wide, and a curvature 2^-1075 times its tangent
    for text in (
        "1e308,0,0\n-1e308,1,0\n1e308,2,0\n",
        "1e300,0,0\n-1e300,1e-300,0\n1e300,2e-300,0\n",
        "5e-324,0,0\n1,0,0\n2,0,0\n",
    ):
        code, out, err = run_cli(["sweep"], stdin=text)
        assert (code, out.count("\n"), err) == (0, 2, "")


def test_emit_tube_matches_per_sample_rotation():
    from gibbsrot.cli import _emit_tube

    pts = helix_with_straight_run()
    basis, transport = _polyline_transport(pts)
    segments, radius = 7, 0.05
    lines = _emit_tube(pts, basis, transport, f"circle:{radius}:{segments}").splitlines()
    assert lines[0].startswith("#")
    verts = np.array([[float(t) for t in l.split()[1:]] for l in lines if l.startswith("v ")])
    angles = 2.0 * np.pi * np.arange(segments) / segments
    want = []
    for i, p in enumerate(pts):
        ni = gibbsrot.rotate_vector(transport.cumulative[i], basis[0])
        bi = gibbsrot.rotate_vector(transport.cumulative[i], basis[1])
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
    from gibbsrot.cli import _emit_tube

    pts = helix_with_straight_run(20)
    poly = "\n".join(f"{x!r},{y!r},{z!r}" for x, y, z in pts.tolist())
    code, out, err = run_cli(["sweep", "--obj", "--profile", "circle:0.1:5"], stdin=poly)
    assert code == 0, err
    text = _emit_tube(pts, *_polyline_transport(pts), "circle:0.1:5")
    assert out == text + "\n"
    # each vertex line is the repr of its three coordinates
    verts = [l for l in out.splitlines() if l.startswith("v ")]
    coords = (map(float, l.split()[1:]) for l in verts)
    assert verts == [f"v {x!r} {y!r} {z!r}" for x, y, z in coords]


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
    assert table[("rotate", "gibbs")] <= 1e-12
    assert table[("rotate", "matrix")] <= 1e-12
    assert table[("align_pair", "gibbs")] <= 1e-9
    assert table[("validate", "matrix")] <= 1e-12


def test_bench_runs_on_a_single_item():
    # one corpus item used to stack its Euler angles along the wrong axis
    code, out, err = run_cli(["bench", "--iters", "1", "--seed", "0"])
    assert code == 0, err
    assert len(out.strip().splitlines()) == len(bench_rows(2, 0)) + 1
    assert run_cli(["bench", "--iters", "0"]) == (
        2, "", "error: USAGE: --iters must be at least 1\n"
    )


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


def test_selftest_passes_and_reports(monkeypatch):
    code, out, _ = run_cli(["selftest", "--seed", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert all(l.startswith("ok   ") for l in lines[:-1])
    assert lines[-1].endswith("checks passed")
    # a failing check is a FAIL line and exit 1
    monkeypatch.setattr(cli, "selftest_checks", lambda seed: [("a", True, "x"), ("b", False, "y")])
    assert run_cli(["selftest"]) == (1, "ok   a (x)\nFAIL b (y)\n1/2 checks passed\n", "")


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


def test_console_script_quiet_when_the_reader_closes_stdout(tmp_path):
    # "gibbsrot sweep --obj ... | head -1": the tube is far larger than a
    # pipe buffer, so the writer meets the closed pipe mid-output
    t = np.linspace(0.0, 20.0 * np.pi, 2000)
    path = tmp_path / "helix.csv"
    path.write_text(polyline_text(np.stack([np.cos(t), np.sin(t), 0.05 * t], axis=-1)))
    command, env = console_script_command()
    with path.open() as stdin:
        proc = subprocess.Popen(
            command + ["sweep", "--obj", "--profile", "circle:0.05:16"],
            stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=60)
    assert first == "# swept tube: one ring per polyline sample\n"
    assert (code, err) == (1, "")
