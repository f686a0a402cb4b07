"""Vector alignment: the one-parameter family, two-pair solving with all
its degeneracies, frame transport, and rotation-minimizing frames along
polylines."""

import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gibbsrot import (
    PI_ENCODING_MAGNITUDE,
    AntipodalError,
    GibbsError,
    InvalidInputError,
    InvalidPairError,
    align_family,
    align_line,
    align_pair,
    align_pair_unchecked,
    compose,
    frame_transport,
    gibbs_to_matrix,
    is_pi_encoded,
    pi_encode,
    rotate_vector,
)
import gibbsrot.alignment
from gibbsrot.algebra import compose_scan
from gibbsrot.alignment import _polyline_transport, _reflection_pairs
from gibbsrot.core import _dehomogenize
from helpers import component_error, random_gibbs, random_units, tilted_pairs


def residual(r, p, q):
    """Relative size of rotate(r, p) - q."""
    moved = rotate_vector(r, p)
    return float(
        (np.linalg.norm(moved - q, axis=-1) / np.linalg.norm(q, axis=-1)).max()
    )


# --- the one-parameter family ------------------------------------------------


def test_minimal_member_is_pinned():
    # gamma = 0 for p = x, q = y: the smallest rotation carrying x to y
    r = align_line([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.0)
    assert np.allclose(r, [0.0, 0.0, -1.0])
    assert residual(r, np.array([1.0, 0, 0]), np.array([0.0, 1.0, 0])) < 1e-15


def test_family_members_all_map_p_to_q():
    rng = np.random.default_rng(51)
    n = 20_000
    p = rng.normal(size=(n, 3))
    true = random_gibbs(rng, n, 1e-3, 1e1)
    q = rotate_vector(true, p)
    gamma = rng.uniform(-10.0, 10.0, size=n)
    members = align_line(p, q, gamma)
    assert residual(members, p, q) <= 1e-9


def test_family_object_matches_align_line():
    rng = np.random.default_rng(52)
    p = rng.normal(size=3)
    q = np.linalg.norm(p) * random_units(rng, 1)[0]
    line = align_family(p, q)
    for g in (-3.0, 0.0, 0.25, 7.0, np.array([-3.0, 0.0, 0.25, 7.0])):
        assert np.allclose(line.member(g), align_line(p, q, g))
    # base is the minimal member, direction spans the family
    assert np.allclose(line.member(0.0), line.base)
    assert "gamma" in line.valid_domain


@pytest.mark.parametrize("gamma", [np.inf, -np.inf, np.nan, [0.0, np.inf]])
def test_family_member_rejects_a_non_finite_gamma_like_align_line(gamma):
    # member(inf) gave [inf, inf, nan] with a RuntimeWarning, member(nan) NaN
    line = align_family([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    for call in (line.member, lambda g: align_line([1.0, 0, 0], [0, 1.0, 0], g)):
        with pytest.raises(InvalidInputError, match="^gamma must be finite$"):
            call(gamma)


def test_minimal_member_is_orthogonal_to_sum():
    rng = np.random.default_rng(53)
    p = rng.normal(size=(100, 3))
    true = random_gibbs(rng, 100, 1e-2, 1e1)
    q = rotate_vector(true, p)
    base = align_line(p, q, np.zeros(100))
    s = p + q
    dots = np.abs((base * s).sum(axis=-1))
    scale = np.linalg.norm(base, axis=-1) * np.linalg.norm(s, axis=-1)
    assert (dots <= 1e-12 * scale).all()


def test_membership_identity():
    # q - p == (p + q) x r for every member r
    rng = np.random.default_rng(54)
    p = rng.normal(size=(500, 3))
    true = random_gibbs(rng, 500, 1e-2, 1e1)
    q = rotate_vector(true, p)
    gamma = rng.uniform(-5, 5, size=500)
    r = align_line(p, q, gamma)
    lhs = q - p
    rhs = np.cross(p + q, r)
    scale = np.linalg.norm(p, axis=-1, keepdims=True)
    assert np.abs(lhs - rhs).max() <= 1e-9 * scale.max()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gamma=st.floats(-10, 10))
def test_family_property(seed, gamma):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=3)
    if np.linalg.norm(p) < 1e-3:
        p = np.array([1.0, 0.0, 0.0])
    true = random_gibbs(rng, 1, 1e-3, 1e1)[0]
    q = rotate_vector(true, p)
    r = align_line(p, q, gamma)
    assert residual(r, p, q) <= 1e-9


def test_true_rotation_is_on_the_line():
    # the generating rotation itself must be a member: solving the family
    # equation for its gamma and evaluating there recovers it
    rng = np.random.default_rng(55)
    p = rng.normal(size=3)
    true = random_gibbs(rng, 1, 1e-2, 1e1)[0]
    q = rotate_vector(true, p)
    line = align_family(p, q)
    s = p + q
    gamma = float((true - line.base) @ s / (s @ s) * (p @ s))
    member = line.member(gamma)
    assert np.abs(member - true).max() <= 1e-9 * max(1.0, np.abs(true).max())


def test_antipodal_rejected_with_basis():
    with pytest.raises(AntipodalError) as exc:
        align_line([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], 0.0)
    assert exc.value.code == "ANTIPODAL"
    basis = exc.value.basis
    assert basis is not None
    for b in np.atleast_2d(basis):
        assert abs(b @ np.array([1.0, 0.0, 0.0])) < 1e-12


def test_length_mismatch_rejected():
    with pytest.raises(InvalidPairError) as exc:
        align_line([1.0, 0.0, 0.0], [0.0, 2.0, 0.0], 0.0)
    assert exc.value.code == "LENGTH_MISMATCH"
    with pytest.raises(InvalidInputError):
        align_line([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], 0.0)


def test_tolerance_is_relative_and_adjustable():
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([0.0, 1.0 + 1e-6, 0.0])
    with pytest.raises(InvalidPairError):
        align_line(p, q, 0.0)
    align_line(p, q, 0.0, tol=1e-5)  # widened tolerance accepts


TOL_CALLS = {
    "align_family": lambda tol: align_family([1.0, 0, 0], [0, 1.0, 0], tol=tol),
    "align_line": lambda tol: align_line([1.0, 0, 0], [0, 1.0, 0], 0.0, tol=tol),
    "align_pair": lambda tol: align_pair(
        [1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0], [1.0, -1.0, 0], tol=tol
    ),
    "frame_transport": lambda tol: frame_transport(
        [[[1.0, 0, 0], [0, 1.0, 0]], [[0, 1.0, 0], [-1.0, 0, 0]]], tol=tol
    ),
}


# nan passed every check (align_pair returned a non-solution for pairs
# whose angles differ), -1 failed every length check and inf passed every
# length check but failed the antipodal one; a list met numpy's raw
# ValueError in align_family
@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf, [1e-9, 1e-9]])
@pytest.mark.parametrize("call", TOL_CALLS.values(), ids=TOL_CALLS.keys())
def test_tolerance_must_be_a_finite_number_at_least_zero(call, tol):
    with pytest.raises(InvalidInputError, match="^tol must be a finite number >= 0") as exc:
        call(tol)
    assert exc.value.code == "INVALID_INPUT"


def test_zero_tolerance_is_accepted():
    assert align_line([1.0, 0, 0], [0, 1.0, 0], 0.0, tol=0.0).tolist() == [0.0, 0.0, -1.0]
    assert align_family([1.0, 0, 0], [0, 1.0, 0], tol=0).base.tolist() == [0.0, 0.0, -1.0]


# --- two-pair alignment --------------------------------------------------


def test_pair_recovers_known_rotation():
    rng = np.random.default_rng(56)
    n = 20_000
    true = random_gibbs(rng, n, 1e-3, 1e1)
    p1 = rng.normal(size=(n, 3))
    p2 = rng.normal(size=(n, 3))
    q1 = rotate_vector(true, p1)
    q2 = rotate_vector(true, p2)
    got = align_pair(p1, q1, p2, q2)
    assert residual(got, p1, q1) <= 1e-9
    assert residual(got, p2, q2) <= 1e-9
    assert np.abs(gibbs_to_matrix(got) - gibbs_to_matrix(true)).max() <= 1e-9


def test_pair_rejections():
    p1 = np.array([1.0, 0.0, 0.0])
    q1 = np.array([0.0, 1.0, 0.0])
    p2 = np.array([0.0, 0.0, 1.0])
    with pytest.raises(InvalidPairError) as exc:
        align_pair(p1, q1, p2, np.array([0.0, 0.0, 1.001]))
    assert exc.value.code == "LENGTH_MISMATCH"
    # angle between the pair is not preserved
    with pytest.raises(InvalidPairError) as exc:
        align_pair(p1, q1, np.array([1.0, 1.0, 0.0]), np.array([1.0, -1.0, 0.0]))
    assert exc.value.code == "ANGLE_MISMATCH"


def test_pair_antipodal_first_pair():
    p1 = np.array([1.0, 0.0, 0.0])
    p2 = np.array([1.0, 0.0, 1.0])  # keeps a fixed part under pi about z
    q2 = np.array([-1.0, 0.0, 1.0])
    with pytest.raises(InvalidPairError) as exc:
        align_pair(p1, -p1, p2, q2)
    assert exc.value.code == "ANTIPODAL"
    # swapping the roles of the two pairs sidesteps the singularity
    got = align_pair(p2, q2, p1, -p1)
    assert is_pi_encoded(got)
    assert np.allclose(gibbs_to_matrix(got), np.diag([-1.0, -1.0, 1.0]))


def test_pair_with_fixed_vector():
    # q1 == p1 pins the axis along p1; the second pair picks the angle
    p1 = np.array([0.0, 0.0, 2.0])
    p2 = np.array([1.0, 0.0, 0.5])
    true = np.array([0.0, 0.0, 0.7])
    q2 = rotate_vector(true, p2)
    got = align_pair(p1, p1, p2, q2)
    assert np.allclose(got, true, atol=1e-12)
    # and symmetrically when the second pair is fixed
    got2 = align_pair(p2, q2, p1, p1)
    assert np.allclose(got2, true, atol=1e-12)


def test_pair_both_fixed_is_identity():
    p1 = np.array([1.0, 2.0, 3.0])
    p2 = np.array([-1.0, 0.5, 0.25])
    got = align_pair(p1, p1, p2, p2)
    assert np.allclose(got, 0.0)


def test_pair_small_rotation_at_a_loose_tolerance_is_not_the_identity():
    # both pairs move by less than tol: still the rotation, not zero
    p1, p2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.3])
    r = np.array([1e-5, 2e-5, -1e-5])
    got = align_pair(p1, rotate_vector(r, p1), p2, rotate_vector(r, p2), tol=1e-3)
    assert np.abs(got - r).max() <= 1e-15


@pytest.mark.parametrize("tol", [1e-4, 1e-3])
@pytest.mark.parametrize("move1", [0.0, 1e-3])
def test_pair_fixed_within_tol_with_angle_slack_leaves_the_gamma_path(move1, tol):
    # pair 1 fixed (exactly, or within tol) and the angle off by half of
    # tol, well above the cut: gamma there is a ratio of noise terms
    # (0 at move1 = 0), the pivot finds the quarter turn about z
    p1 = np.array([0.0, 0.0, 1.0])
    q1 = rotate_vector([move1 * tol, 0.0, 0.0], p1)
    p2, q2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.5 * tol])
    got = align_pair(p1, q1, p2, q2, tol=tol)
    assert residual(got, p1, q1) <= tol and residual(got, p2, q2) <= tol
    assert np.abs(got - [0.0, 0.0, -1.0]).max() <= tol


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
@pytest.mark.parametrize("about", ["p1", "p2"])
def test_pair_recovers_rotations_about_either_vector(about, tol):
    # (a, b, h) -> (b, a, h) turns by pi/2 - 2 atan2(b, a) about z and
    # keeps lengths and angles exactly, so tol = 0 admits it too
    theta = np.concatenate([np.geomspace(1e-8, 1.0, 40), np.linspace(1.0, np.pi - 1e-3, 40)])
    phi = np.pi / 4.0 - theta / 2.0
    p = np.stack([np.cos(phi), np.sin(phi), np.full_like(phi, 0.5)], axis=-1)
    q = p[:, [1, 0, 2]]
    axis = np.array([0.0, 0.0, 2.0])
    pairs = (axis, axis, p, q) if about == "p1" else (p, q, axis, axis)
    got = align_pair(*pairs, tol=tol)
    assert residual(got, p, q) <= 1e-15 and residual(got, axis, axis) <= 1e-15
    assert np.abs(got[:, :2]).max() <= 1e-15
    assert np.abs(2.0 * np.arctan(np.abs(got[:, 2])) - theta).max() <= 1e-12


def test_pair_fixed_plus_antipodal_is_half_turn():
    v = np.array([0.0, 0.0, 1.5])
    m = np.array([2.0, 0.0, 0.0])
    got = align_pair(v, v, m, -m)
    assert is_pi_encoded(got)
    assert np.allclose(gibbs_to_matrix(got), np.diag([-1.0, -1.0, 1.0]))


def test_pair_half_turn_limit_is_encoded():
    # mapping x->y and y->x is the half turn about (1,1,0): the family
    # parameter runs off to infinity and the solver must encode it
    got = align_pair(
        [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]
    )
    assert is_pi_encoded(got)
    u = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    assert np.allclose(gibbs_to_matrix(got), 2.0 * np.outer(u, u) - np.eye(3))


def test_pair_parallel_second_pair_uses_minimal_member():
    # p2 parallel to p1 adds no information: the smallest member wins
    p1 = np.array([1.0, 0.0, 0.0])
    q1 = np.array([0.0, 1.0, 0.0])
    got = align_pair(p1, q1, 2.0 * p1, 2.0 * q1)
    assert np.allclose(got, align_line(p1, q1, 0.0))


def test_pair_indeterminate_instance_still_solved():
    # a half turn about z with p2 chosen so both gamma polynomials vanish:
    # the pivot must still produce the rotation
    p1 = np.array([1.0, 0.0, 1.0])
    q1 = np.array([-1.0, 0.0, 1.0])
    p2 = np.array([1.0, 0.0, 0.0])
    q2 = np.array([-1.0, 0.0, 0.0])
    got = align_pair(p1, q1, p2, q2)
    assert is_pi_encoded(got)
    assert np.allclose(gibbs_to_matrix(got), np.diag([-1.0, -1.0, 1.0]))


def test_pair_unchecked_matches_on_clean_input():
    rng = np.random.default_rng(57)
    true = random_gibbs(rng, 200, 1e-2, 1e1)
    p1 = rng.normal(size=(200, 3))
    p2 = rng.normal(size=(200, 3))
    q1 = rotate_vector(true, p1)
    q2 = rotate_vector(true, p2)
    raw = align_pair_unchecked(p1, q1, p2, q2)
    checked = align_pair(p1, q1, p2, q2)
    ok = np.isfinite(raw).all(axis=-1)
    assert ok.mean() > 0.99  # the raw ratio only fails on exact degeneracies
    assert np.allclose(raw[ok], checked[ok], atol=1e-9)


@pytest.mark.parametrize(
    "k1, k2",
    [(1e150, 1e150), (1e300, 1e300), (1e-150, 1e-150), (1e-300, 1e-300), (1e-310, 1e-310),
     (2.0**600, 2.0**600), (1e300, 1e-300), (2.0**-600, 1e150)],
)
def test_pair_unchecked_solves_far_from_unit_scale_as_align_pair(k1, k2):
    # the gamma formula is homogeneous in each pair: far rows are solved on
    # pairs scaled by powers of two, as align_pair solves them, where the
    # raw products overflowed (a RuntimeWarning, then NaN) or underflowed
    r = np.array([0.3, -0.2, 0.5])
    p1, p2 = np.array([1.0, 2.0, 3.0]), np.array([-1.0, 0.5, 2.0])
    row = (p1 * k1, rotate_vector(r, p1) * k1, p2 * k2, rotate_vector(r, p2) * k2)
    want = call_outcome(lambda: align_pair(*row))
    assert np.abs(np.frombuffer(want) - r).max() <= 1e-12
    assert call_outcome(lambda: align_pair_unchecked(*row)) == want
    assert call_outcome(lambda: align_pair_unchecked(*(x[None] for x in row))) == want


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pair_property(seed):
    rng = np.random.default_rng(seed)
    true = random_gibbs(rng, 1, 1e-3, 1e1)[0]
    p1, p2 = rng.normal(size=(2, 3))
    q1 = rotate_vector(true, p1)
    q2 = rotate_vector(true, p2)
    got = align_pair(p1, q1, p2, q2)
    assert residual(got, p1, q1) <= 1e-8
    assert residual(got, p2, q2) <= 1e-8


@pytest.mark.parametrize("tilt", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 0.0])
def test_pair_axis_tilted_toward_the_plane_of_p1_and_p2(tilt):
    # gamma's denominator (p1 + q1).(p2 - q2) vanishes as the axis tilts
    # into the p1-p2 plane; the answer must stay accurate all the way in
    p1, q1, p2, q2 = tilted_pairs(np.random.default_rng(71), 20_000, tilt)
    got = align_pair(p1, q1, p2, q2)
    assert residual(got, p1, q1) <= 1e-9
    assert residual(got, p2, q2) <= 1e-9


def test_pair_exact_in_plane_half_turns():
    # q = 2 (a.p) a - p for a unit axis a in the p1-p2 plane
    rng = np.random.default_rng(72)
    n = 20_000
    p1, p2 = rng.normal(size=(2, n, 3))
    a = rng.normal(size=(n, 1)) * p1 + rng.normal(size=(n, 1)) * p2
    a /= np.linalg.norm(a, axis=-1, keepdims=True)
    q1, q2 = (2.0 * np.sum(a * p, axis=-1, keepdims=True) * a - p for p in (p1, p2))
    # pair 1 clear of antipodal: a at least ~0.1 rad off perpendicular to p1
    keep = np.sum(a * p1, axis=-1) ** 2 > 0.01 * np.sum(p1 * p1, axis=-1)
    p1, q1, p2, q2 = p1[keep], q1[keep], p2[keep], q2[keep]
    got = align_pair(p1, q1, p2, q2)
    assert is_pi_encoded(got).all()
    assert residual(got, p1, q1) <= 1e-9
    assert residual(got, p2, q2) <= 1e-9


@pytest.mark.parametrize("scale", [1e100, 1e-100])
def test_pair_in_plane_rows_at_extreme_magnitudes(scale):
    # the pivot's entries are quartic in the inputs; each routed pair is
    # brought to unit length first, so neither overflow nor underflow
    p1, q1, p2, q2 = tilted_pairs(np.random.default_rng(74), 2000, 0.0)
    for s1, s2 in ((scale, 1.0), (1.0, scale), (scale, scale)):
        args = (s1 * p1, s1 * q1, s2 * p2, s2 * q2)
        got = align_pair(*args)
        assert residual(got, args[0], args[1]) <= 1e-9
        assert residual(got, args[2], args[3]) <= 1e-9


@pytest.mark.parametrize("k", range(1, 12))
def test_pair_in_plane_turns_approaching_a_half_turn(k):
    # theta = pi - 10^-k about axes in the p1-p2 plane: every row takes the
    # pivot path, whose half-turn threshold must not snap these to pi
    p1, q1, p2, q2 = tilted_pairs(np.random.default_rng(73 + k), 2000, 0.0, np.pi - 10.0**-k)
    s1, d = p1 + q1, p2 - q2
    cut = gibbsrot.alignment._GAMMA_CUT
    scale = np.linalg.norm(s1, axis=-1) * np.linalg.norm(p2, axis=-1)
    assert (np.abs(np.sum(s1 * d, axis=-1)) <= cut * scale).all()
    got = align_pair(p1, q1, p2, q2)
    assert residual(got, p1, q1) <= 1e-9
    assert residual(got, p2, q2) <= 1e-9


# --- frame transport -------------------------------------------------------


def quarter_arc_frames(n=10):
    t = np.linspace(0.0, np.pi / 2.0, n)
    tangents = np.stack([-np.sin(t), np.cos(t), np.zeros_like(t)], axis=-1)
    normals = np.stack([-np.cos(t), -np.sin(t), np.zeros_like(t)], axis=-1)
    return np.stack([tangents, normals], axis=1)


def test_transport_along_arc():
    frames = quarter_arc_frames(10)
    result = frame_transport(frames)
    assert result.steps.shape == (9, 3)
    assert result.cumulative.shape == (10, 3)
    assert np.allclose(result.cumulative[0], 0.0)
    # every step turns by 10 degrees about the plane normal
    step_angle = 2.0 * np.arctan(np.linalg.norm(result.steps, axis=-1))
    assert np.abs(step_angle - np.pi / 18.0).max() < 1e-12
    # the cumulative rotation carries frame 0 onto frame i
    for i in (3, 9):
        moved_t = rotate_vector(result.cumulative[i], frames[0, 0])
        moved_n = rotate_vector(result.cumulative[i], frames[0, 1])
        assert np.abs(moved_t - frames[i, 0]).max() < 1e-12
        assert np.abs(moved_n - frames[i, 1]).max() < 1e-12


def quarter_twist_frames(n):
    # the tangent stays put; the normal turns a quarter about it
    t = np.linspace(0.0, np.pi / 2.0, n)
    normals = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=-1)
    return np.stack([np.broadcast_to([0.0, 0.0, 1.0], normals.shape), normals], axis=1)


@pytest.mark.parametrize("frames", [quarter_arc_frames, quarter_twist_frames])
def test_transport_steps_below_a_loose_tolerance_still_turn(frames):
    # 2000 steps of ~7.9e-4 rad, each pair moving by less than tol = 1e-3
    f = frames(2001)
    want = frame_transport(f, tol=1e-9)
    got = frame_transport(f, tol=1e-3)
    assert np.abs(want.cumulative[-1]).max() == pytest.approx(1.0)  # a quarter turn
    assert np.abs(got.cumulative[-1] - want.cumulative[-1]).max() <= 1e-9
    assert np.abs(got.steps - want.steps).max() <= 1e-15


@pytest.mark.parametrize("k", [1e300, 1e-300, 2.0**1000, 2.0**-1000])
def test_transport_at_extreme_magnitudes_takes_the_unit_scale_steps(k):
    f = quarter_arc_frames(10)
    got = frame_transport(k * f)
    assert np.abs(got.steps - frame_transport(f).steps).max() <= 1e-15
    if np.frexp(k)[0] == 0.5:
        # the same frames at unit scale: k f / k is f, less what k f rounded away
        assert got.steps.tobytes() == frame_transport(k * f / k).steps.tobytes()


@pytest.mark.parametrize("tol", [0.0, 1e-15])
def test_transport_of_its_own_unit_frames_takes_any_tolerance(tol):
    # the unit tangents and normals frame_transport makes are rigid by
    # construction, within their own rounding (|t| = 0.99999999999999989),
    # so no tolerance below that rounding rejects them
    rng = np.random.default_rng(62)
    frames = rng.normal(size=(1000, 2, 3))
    want = frame_transport(frames, tol=1e-9)
    got = frame_transport(frames, tol=tol)
    assert got.steps.tobytes() == want.steps.tobytes()
    assert got.cumulative.tobytes() == want.cumulative.tobytes()


def test_transport_reversal_at_zero_tolerance_is_the_default_antipodal_error():
    # the unit frames are not checked for rigidity again, so at tol = 0 the
    # reversal at step 40 is reached and reported as at the default tol
    frames = np.random.default_rng(63).normal(size=(50, 2, 3))
    frames[41] = -frames[40]
    got = []
    for tol in (0.0, 1e-9):
        with pytest.raises(InvalidPairError) as exc:
            frame_transport(frames, tol=tol)
        got.append((exc.value.condition, exc.value.step, str(exc.value)))
    assert got[0] == got[1] and got[0][:2] == ("ANTIPODAL", 40)


def test_closed_loop_comes_back_to_identity():
    t = np.linspace(0.0, 2.0 * np.pi, 361)
    tangents = np.stack([-np.sin(t), np.cos(t), np.zeros_like(t)], axis=-1)
    normals = np.stack([-np.cos(t), -np.sin(t), np.zeros_like(t)], axis=-1)
    frames = np.stack([tangents, normals], axis=1)
    result = frame_transport(frames)
    assert np.linalg.norm(result.cumulative[-1]) <= 1e-6
    # halfway around, the cumulative rotation is the half turn
    assert is_pi_encoded(result.cumulative[180])


def test_transport_normalizes_and_projects():
    # tangents of any length; normals with a tangential component
    frames = quarter_arc_frames(5)
    frames[:, 0] *= 3.0
    frames[:, 1] += 0.25 * frames[:, 0]
    result = frame_transport(frames)
    clean = frame_transport(quarter_arc_frames(5))
    assert np.allclose(result.steps, clean.steps, atol=1e-12)


def test_transport_single_frame():
    result = frame_transport(quarter_arc_frames(5)[:1])
    assert result.steps.shape == (0, 3)
    assert np.allclose(result.cumulative, 0.0)


def test_transport_error_carries_step_index():
    frames = quarter_arc_frames(6)
    frames[3, 0] = -frames[2, 0]  # tangent reversal: antipodal pair
    frames[3, 1] = -frames[2, 1]
    with pytest.raises(InvalidPairError) as exc:
        frame_transport(frames)
    assert exc.value.code == "ANTIPODAL"
    assert exc.value.step == 2
    assert "step 2 -> 3" in str(exc.value)


def test_transport_error_names_the_first_bad_step():
    frames = quarter_arc_frames(8)
    for at in (5, 2):  # tangent reversals at two steps
        frames[at + 1] = -frames[at]
    with pytest.raises(InvalidPairError) as exc:
        frame_transport(frames)
    assert exc.value.code == "ANTIPODAL"
    assert exc.value.step == 2
    assert "step 2 -> 3" in str(exc.value)


def test_transport_input_validation():
    with pytest.raises(InvalidInputError):
        frame_transport(np.zeros((3, 2, 2)))
    frames = quarter_arc_frames(4)
    frames[1, 0] = 0.0
    with pytest.raises(InvalidInputError) as exc:
        frame_transport(frames)
    assert "frame 1" in str(exc.value)
    frames = quarter_arc_frames(4)
    frames[2, 1] = frames[2, 0]  # normal parallel to tangent
    with pytest.raises(InvalidInputError) as exc:
        frame_transport(frames)
    assert "frame 2" in str(exc.value)


def test_transport_rejects_empty_frames():
    with pytest.raises(InvalidInputError, match="frames is empty"):
        frame_transport(np.zeros((0, 2, 3)))


def test_family_rejects_a_batch():
    with pytest.raises(InvalidInputError, match="use align_line for batches"):
        align_family(np.eye(3), np.eye(3))


def test_line_and_pair_reject_shapes_that_do_not_broadcast():
    p, q = np.eye(3)[:2], np.eye(3)[1:]
    with pytest.raises(InvalidInputError, match="shapes do not broadcast"):
        align_line(np.zeros((4, 3)) + p[0], np.zeros((5, 3)) + q[0], 0.0)
    with pytest.raises(InvalidInputError, match="shapes do not broadcast"):
        align_line(p, q, np.zeros(3))
    pair = [np.tile(p[0], (4, 1)), np.tile(q[0], (4, 1)), np.tile(p[1], (5, 1)), np.tile(q[1], (5, 1))]
    named = r"^shapes do not broadcast: p1 \(4, 3\), q1 \(4, 3\), p2 \(5, 3\), q2 \(5, 3\)$"
    with pytest.raises(InvalidInputError, match=named):
        align_pair(*pair)
    with pytest.raises(InvalidInputError, match=named):
        align_pair_unchecked(*pair)
    # a non-finite input is named ahead of the shapes
    pair[2] = pair[2].copy()
    pair[2][3, 0] = np.nan
    with pytest.raises(InvalidInputError, match="^p2 has non-finite entries"):
        align_pair(*pair)


def test_transport_cumulative_is_step_fold():
    frames = quarter_arc_frames(7)
    result = frame_transport(frames)
    acc = np.zeros(3)
    for i, step in enumerate(result.steps):
        acc = compose(step, acc)
        assert np.allclose(result.cumulative[i + 1], acc)


# --- rotation-minimizing frames of a polyline --------------------------------


def test_polyline_frame_does_not_turn_over_at_inflections():
    # y = sin 2x inflects at x = 0 and +/-pi/2; a curvature frame's
    # binormal swings between -z and +z there, the transported one stays
    x = np.linspace(-3.0, 3.0, 400)
    pts = np.stack([x, np.sin(2.0 * x), 0.0 * x], axis=-1)
    basis, result = _polyline_transport(pts)
    assert np.abs(np.abs(basis[1]) - [0.0, 0.0, 1.0]).max() == 0.0
    moved = rotate_vector(result.cumulative[:, None], basis)
    assert np.abs(moved[:, 1] - basis[1]).max() <= 1e-15
    assert np.abs(moved[:, 0, 2]).max() <= 1e-15
    # every step carries the tangent at its start onto the one at its end
    t = np.gradient(pts, axis=0)
    t /= np.linalg.norm(t, axis=-1, keepdims=True)
    assert np.abs(rotate_vector(result.steps, t[:-1]) - t[1:]).max() <= 1e-15


@pytest.mark.parametrize("n", [100, 200, 400])
def test_reflection_steps_follow_the_helix_closed_form(n):
    # On the helix (a cos u, a sin u, b u) the rotation-minimizing normal
    # turns against the Frenet normal N by -tau s = -b u / c, c^2 = a^2 +
    # b^2.  Given exact tangents, double reflection errs by O(h^4) (Wang,
    # Juttler, Zheng & Liu 2008): 1.08e-3 h^4 from n = 50 to 1600 samples
    # over two turns, bounded here at 2e-3 h^4.
    a, b = 1.0, 0.5
    c = np.hypot(a, b)
    u = np.linspace(0.0, 4.0 * np.pi, n)
    x = np.stack([a * np.cos(u), a * np.sin(u), b * u])
    t = np.stack([-a * np.sin(u), a * np.cos(u), np.full(n, b)]) / c
    normal = np.stack([-np.cos(u), -np.sin(u), 0.0 * u])
    binormal = np.cross(t, normal, axis=0)
    w, v = _reflection_pairs(x[:, 1:] - x[:, :-1], t[:, :-1], t[:, 1:])
    steps = _dehomogenize(w, v, 0.0)
    cumulative = np.concatenate([np.zeros((1, 3)), compose_scan(steps)])
    got = rotate_vector(cumulative, normal[:, 0])
    angle = -b * u / c
    want = (np.cos(angle) * normal + np.sin(angle) * binormal).T
    assert np.abs(got - want).max() <= 2e-3 * (u[1] - u[0]) ** 4
    assert np.abs(rotate_vector(cumulative, t[:, 0]) - t.T).max() <= 1e-13


def test_polyline_reversal_is_a_typed_error_with_the_step():
    # the tangent at sample 2 mirrors sample 1's across the chord, so v2 = 0
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [0.5, 0, 0]])
    for tol in (1e-9, 0.0):
        with pytest.raises(InvalidPairError, match=r"^step 1 -> 2: ") as exc:
            _polyline_transport(pts, tol)
        assert (exc.value.code, exc.value.index) == ("ANTIPODAL", 1)


def test_polyline_repeated_sample_takes_the_smallest_rotation():
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [1, 0, 0], [2, 1, 0]])
    _, result = _polyline_transport(pts)
    t1, t2 = [1.0, 0.0, 0.0], [0.5**0.5, 0.5**0.5, 0.0]
    assert np.abs(result.steps[1] - align_line(t1, t2, 0.0)).max() <= 1e-16
    assert (result.steps[[0, 2]] == 0.0).all()


def test_polyline_step_with_perpendicular_reflections_is_a_half_turn():
    # v1 . v2 = 0: the tangents at samples 1 and 2 are opposite, and
    # neither lies along the chord between them
    pts = np.array([[0.0, -1, 0], [0, 0, 0], [1, 0, 0], [-1, -1, 0]])
    t = np.array([[1.0, 1, 0], [-1, -1, 0]]).T / 2**0.5
    w, v = _reflection_pairs(pts[2] - pts[1], t[:, 0], t[:, 1])
    assert w == 0.0 and (v[:2] == 0.0).all() and v[2] > 0.0
    _, result = _polyline_transport(pts)
    assert is_pi_encoded(result.steps).tolist() == [False, True, False]
    assert result.steps[1].tolist() == pi_encode([0.0, 0.0, 1.0]).tolist()


@pytest.mark.parametrize(
    "call",
    [
        lambda: align_pair("a", [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]),
        lambda: align_pair_unchecked([1.0, 0.0, 0.0], "b", [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]),
        lambda: align_line("x", [0.0, 1.0, 0.0], 0.0),
        lambda: align_line([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], "g"),
        lambda: align_family([1.0, 0.0, 0.0], "zz"),
        lambda: frame_transport("abc"),
        lambda: frame_transport([[[1.0, 0.0, 0.0], ["n", 1.0, 0.0]]]),
    ],
    ids=["align_pair", "align_pair_unchecked", "align_line", "align_line_gamma",
         "align_family", "frame_transport", "frame_transport_entry"],
)
def test_non_numeric_input_is_a_typed_error(call):
    with pytest.raises(InvalidInputError, match="is not numeric"):
        call()


def mixed_pair_batch():
    """One batch with a row of every kind align_pair tells apart."""
    rng = np.random.default_rng(61)
    true = random_gibbs(rng, 4, 1e-2, 1e1)
    p1 = rng.normal(size=(4, 3))
    p2 = rng.normal(size=(4, 3))
    rows = [
        (p1[k], rotate_vector(true[k], p1[k]), p2[k], rotate_vector(true[k], p2[k]))
        for k in range(4)
    ]
    z, m = np.array([0.0, 0.0, 2.0]), np.array([1.0, 0.0, 0.5])
    q = rotate_vector([0.0, 0.0, 0.7], m)
    x, y = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    rows[1:1] = [
        (z, z, m, q),  # pair 1 fixed
        (m, q, z, z),  # pair 2 fixed
        (z, z, m, m),  # both fixed: the identity
        (0.75 * z, 0.75 * z, m, m * [-1.0, -1.0, 1.0]),  # fixed + antipodal
        (x, y, y, x),  # in-plane half turn: the pivot
        (x, y, 2.0 * x, 2.0 * y),  # p2 parallel to p1: the smallest member
        ([1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], x, -x),  # in-plane half turn, pair 2 antipodal: the pivot
    ]
    # axes at or near the p1-p2 plane: the pivot
    for tilt, theta in ((1e-9, None), (0.0, None), (0.0, np.pi - 1e-3)):
        p1, q1, p2, q2 = tilted_pairs(rng, 1, tilt, theta)
        rows.append((p1[0], q1[0], p2[0], q2[0]))
    # a generic row out of the squared-norm range, above and below: rescaled
    rows += [tuple(k * v for v in rows[0]) for k in (1e300, 1e-300)]
    return [tuple(np.asarray(v, dtype=float) for v in row) for row in rows]


def test_pair_mixed_batch_matches_single_rows_bit_for_bit():
    rows = mixed_pair_batch()
    batch = align_pair(*(np.stack(col) for col in zip(*rows)))
    assert batch.shape == (len(rows), 3)
    for k, row in enumerate(rows):
        single = align_pair(*row)
        assert single.shape == (3,)
        assert batch[k].tobytes() == single.tobytes(), k
        for p, q in (row[:2], row[2:]):
            unit = np.abs(q).max()  # the residual in units of q: |q|^2 may overflow
            assert residual(single, p / unit, q / unit) <= 1e-9
    assert (batch[3] == 0.0).all()
    assert is_pi_encoded(batch[4]) and is_pi_encoded(batch[5]) and is_pi_encoded(batch[7])


def test_pair_mixed_batch_error_names_the_batch_index():
    # p2 parallel to p1 while q2 is y turned by eps about (x + y): lengths
    # and the angle agree within TOL_LEN, the gamma denominator vanishes,
    # and the smallest member of pair 1's line then misses q2 by ~eps,
    # which the residual check rejects.  Fixed rows ahead of it must not
    # shift the index.
    eps = 3e-5
    n = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    y = np.array([0.0, 1.0, 0.0])
    y_turned = y * np.cos(eps) + np.cross(n, y) * np.sin(eps) + n * (n @ y) * (1 - np.cos(eps))
    bad = (np.array([1.0, 0.0, 0.0]), y, np.array([2.0, 0.0, 0.0]), 2.0 * y_turned)
    rows = mixed_pair_batch()
    for at in (0, 5, len(rows)):
        batch = rows[:at] + [bad] + rows[at:]
        with pytest.raises(InvalidPairError, match=f"pairs at index {at} ") as exc:
            align_pair(*(np.stack(col) for col in zip(*batch)))
        assert exc.value.code == "ANGLE_MISMATCH"
        assert exc.value.index == at


@pytest.mark.parametrize(
    "condition, row",
    [
        ("LENGTH_MISMATCH", ([1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0, 0, 1.001])),
        ("ANGLE_MISMATCH", ([1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0], [1.0, -1.0, 0])),
        ("ANTIPODAL", ([1.0, 0, 0], [-1.0, 0, 0], [1.0, 0, 1.0], [-1.0, 0, 1.0])),
    ],
)
def test_pair_error_index_is_the_flat_batch_row(condition, row):
    rows = mixed_pair_batch()[:5]
    rows.insert(3, tuple(np.asarray(v, dtype=float) for v in row))
    cols = [np.stack(col)[:6].reshape(2, 3, 3) for col in zip(*rows)]
    with pytest.raises(InvalidPairError) as exc:
        align_pair(*cols)
    assert exc.value.code == condition
    assert exc.value.index == 3


def test_pair_empty_batch():
    empty = np.zeros((0, 3))
    assert align_pair(empty, empty, empty, empty).shape == (0, 3)


# k = 1e103 ... 1e150 gave NaN rows (the cubic gamma numerator overflowed),
# 1e160 and 1e300 the identity or a false ANTIPODAL (squared norms
# overflowed), 1e-150 a wrong rotation, 1e-160 a false LENGTH_MISMATCH and
# 1e-300 a false "zero vector" (squared norms underflowed)
EXTREME_SCALES = [1e-300, 1e-160, 1e-150, 1e103, 1e120, 1e150, 1e160, 1e300]


@pytest.mark.parametrize("k", EXTREME_SCALES)
def test_pair_recovers_the_rotation_at_extreme_magnitudes(k):
    rng = np.random.default_rng(83)
    true = random_gibbs(rng, 400, 1e-3, 1e3)
    p1, p2 = k * rng.normal(size=(400, 3)), k * rng.normal(size=(400, 3))
    got = align_pair(p1, rotate_vector(true, p1), p2, rotate_vector(true, p2))
    assert component_error(got, true) <= 1e-9


def test_pair_rows_in_range_keep_their_bytes_next_to_extreme_rows():
    # the solution does not change when either pair is scaled, so only the
    # rows out of range are rescaled (by powers of two), and every other
    # row is solved exactly as in a batch without them
    rng = np.random.default_rng(84)
    true = random_gibbs(rng, 60, 1e-3, 1e3)
    p1, p2 = rng.normal(size=(60, 3)), rng.normal(size=(60, 3))
    k = np.ones((60, 1))
    k[::3] = 1e300
    k[1::6] = 1e-300
    s1, s2 = k * p1, np.roll(k, 1, axis=0) * p2
    got = align_pair(s1, rotate_vector(true, s1), s2, rotate_vector(true, s2))
    plain = align_pair(p1, rotate_vector(true, p1), p2, rotate_vector(true, p2))
    same = (k[:, 0] == 1.0) & (np.roll(k, 1, axis=0)[:, 0] == 1.0)
    assert same.sum() >= 10
    assert got[same].tobytes() == plain[same].tobytes()
    assert component_error(got, true) <= 1e-9


@pytest.mark.parametrize("k", EXTREME_SCALES + [2.0**600, 2.0**-600])
def test_line_and_family_at_extreme_magnitudes_are_the_unit_scale_rotation(k):
    # the line is homogeneous in (p, q): scaled by k, gamma k gives the same
    # rotation, and the direction shrinks by k; powers of two keep the bytes
    rng = np.random.default_rng(86)
    true = random_gibbs(rng, 200, 1e-3, 1e3)
    p = rng.normal(size=(200, 3))
    q = rotate_vector(true, p)
    gamma = rng.normal(size=200)
    want = align_line(p, q, gamma)
    got = align_line(k * p, k * q, k * gamma)
    exact = np.frexp(k)[0] == 0.5
    if exact:
        assert got.tobytes() == want.tobytes()
    assert component_error(got, want) <= 1e-9
    for i in range(0, 200, 40):
        assert align_line(k * p[i], k * q[i], k * gamma[i]).tobytes() == got[i].tobytes()
        line = align_family(p[i], q[i])
        scaled = align_family(k * p[i], k * q[i])
        if exact:
            assert scaled.base.tobytes() == line.base.tobytes()
            assert scaled.direction.tobytes() == (line.direction / k).tobytes()
        assert component_error(scaled.base, line.base) <= 1e-9
        assert component_error(scaled.direction * k, line.direction) <= 1e-9


@pytest.mark.parametrize("k", [1e300, 1e-300])
def test_antipodal_basis_at_extreme_magnitudes_is_orthonormal(k):
    p = k * np.array([0.3, -0.5, 0.8])
    with pytest.raises(AntipodalError) as exc:
        align_family(p, -p)
    basis = exc.value.basis
    assert np.isfinite(basis).all()
    assert np.abs(basis @ basis.T - np.eye(2)).max() <= 1e-15
    assert np.abs(basis @ (p / k)).max() <= 1e-15


def test_family_of_a_subnormal_pair_is_a_typed_error_without_an_overflow_warning():
    # the direction grows as 1 / |p|: at |p| = 1e-314 it is past the float
    # range, and scaling it back by 2**-e overflowed with a RuntimeWarning
    p, q = [1e-314, 0.0, 0.0], [0.0, 1e-314, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="direction is past the float range"):
            align_family(p, q)
        # a representable direction at the same scale is still returned
        line = align_family([1e-300, 0.0, 0.0], [0.0, 1e-300, 0.0])
    assert np.isfinite(line.direction).all()


def exact_member(p, q, gamma):
    """``(q x p + gamma (p + q)) / (p . (p + q))`` in exact arithmetic."""
    p, q, g = ([Fraction(x) for x in a] for a in (p, q, [gamma]))
    c = [q[1] * p[2] - q[2] * p[1], q[2] * p[0] - q[0] * p[2], q[0] * p[1] - q[1] * p[0]]
    s = [a + b for a, b in zip(p, q)]
    den = sum(a * b for a, b in zip(p, s))
    return [(ci + g[0] * si) / den for ci, si in zip(c, s)]


def assert_member(got, p, q, gamma):
    """``got`` is the line member at ``gamma`` to rounding or, past the
    float range, the half-turn encoding along it."""
    want = exact_member(p, q, gamma)
    top = max(map(abs, want))
    if top > PI_ENCODING_MAGNITUDE:
        assert is_pi_encoded(got)
        axis = np.array([float(x / top) for x in want])
        assert np.abs(got / np.abs(got).max() - axis).max() <= 1e-15
    else:
        assert max(abs(Fraction(x) - y) for x, y in zip(got.tolist(), want)) <= 1e-15 * top


@pytest.mark.parametrize("p, q, gamma", [
    # rows brought into range by 2**996, where gamma 2**996 is past it
    # (the plain formula gives [inf, inf, nan])
    ([1e-300, 0.0, 0.0], [0.0, 1e-300, 0.0], 1e10),
    # a representable member, (3.3e307, 3.3e307, -1), where gamma (p + q)
    # overflows
    ([3.0, 0.0, 0.0], [0.0, 3.0, 0.0], 1e308),
    ([3.0, 0.0, 0.0], [0.0, 3.0, 0.0], -1e308),
    # past the float range at unit scale, and at 2^-600 toward -(p + q)
    ([1.0, 2.0, 0.0], [2.0, -1.0, 0.0], 1e308),
    ([2.0**-600, 0.0, 0.0], [0.0, 2.0**-600, 0.0], -1e200),
], ids=["tiny pair", "member near the ceiling", "negative gamma", "past the range",
        "2^-600"])
def test_line_member_near_the_float_range_is_the_member_or_its_half_turn(p, q, gamma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = align_line(p, q, gamma)
        # next to an in-range row, which keeps its bytes
        batch = align_line([p, p], [q, q], [gamma, 0.5])
        member = align_family(p, q).member(gamma)
        members = align_family(p, q).member([0.5, gamma])
    assert_member(one, p, q, gamma)
    assert_member(member, p, q, gamma)
    assert one.tobytes() == batch[0].tobytes()
    assert member.tobytes() == members[1].tobytes()
    assert batch[1].tobytes() == align_line(p, q, 0.5).tobytes()
    assert members[0].tobytes() == align_family(p, q).member(0.5).tobytes()


def test_member_at_huge_gamma_is_the_member_or_its_half_turn():
    # gamma * direction overflows at |gamma| near 1e308, also where the
    # member itself is representable
    rng = np.random.default_rng(88)
    p = rng.normal(size=(40, 3)) / 16.0  # |direction| from ~9 up
    q = rotate_vector(random_gibbs(rng, 40, 1e-2, 1e2), p)
    gamma = rng.choice([-1.0, 1.0], 40) * 10.0 ** rng.uniform(306.0, 308.25, 40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lines = align_line(p, q, gamma)
        members = [align_family(p[i], q[i]).member(gamma[i]) for i in range(40)]
    past = 0
    for i in range(40):
        assert_member(members[i], p[i], q[i], gamma[i])
        assert_member(lines[i], p[i], q[i], gamma[i])
        assert lines[i].tobytes() == align_line(p[i], q[i], gamma[i]).tobytes()
        past += bool(np.abs(lines[i]).max() == PI_ENCODING_MAGNITUDE)
    assert 0 < past < 40


def test_pair_errors_on_rescaled_rows_report_input_units():
    p1 = 1e300 * np.array([1.0, 0.0, 0.0])
    q1 = 1e300 * np.array([0.0, 1.001, 0.0])
    p2 = np.array([0.0, 0.0, 1.0])
    with pytest.raises(InvalidPairError) as exc:
        align_pair(p1, q1, p2, p2)
    assert exc.value.code == "LENGTH_MISMATCH"
    lengths = re.search(r"\|p\| = (\S+), \|q\| = (\S+) ", str(exc.value)).groups()
    assert np.allclose([float(x) for x in lengths], [1e300, 1.001e300], rtol=1e-15, atol=0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("at", range(4))
def test_pair_non_finite_input_names_the_first_bad_argument(bad, at):
    args = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
            np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0])]
    args[at] = args[at].copy()
    args[at][1] = bad
    name = ("p1", "q1", "p2", "q2")[at]
    with pytest.raises(InvalidInputError, match=f"^{name} has non-finite entries"):
        align_pair(*args)
    # ahead of a later argument's shape error, as each input is checked in turn
    if at < 3:
        args[3] = np.zeros(4)
        with pytest.raises(InvalidInputError, match=f"^{name} has non-finite entries"):
            align_pair(*args)


# --- one row = its batch row ---------------------------------------------------

PAIR_KINDS = ("generic", "half turn", "pair fixed", "both fixed", "fixed within tol",
              "p2 parallel to p1", "antipodal", "in-plane half turn")
# far from unit scale (the column code's power-of-two rescale), or in range
PAIR_SCALES = st.sampled_from([1e300, 1e-300, 1e150, 1e-150, 2.0**600, 2.0**-600]) | st.floats(
    1e-60, 1e60)


def pair_row(seed, kind, k1, k2, noise):
    """One ``align_pair`` row of ``kind``, pair 1 scaled by ``k1``, pair 2
    by ``k2``, and each q perturbed by relative ``noise`` (0 keeps it)."""
    rng = np.random.default_rng(seed)
    p1, p2 = rng.normal(size=(2, 3))
    r = random_gibbs(rng, 1, 1e-3, 1e3)[0]
    if kind == "half turn":
        r = pi_encode(r)
    elif kind == "fixed within tol":
        r = 1e-12 * rng.normal(size=3)
    elif kind == "in-plane half turn":
        r = pi_encode(p1 + rng.uniform(0.2, 5.0) * p2)
    elif kind == "p2 parallel to p1":
        p2 = rng.choice([-2.0, -0.5, 0.5, 3.0]) * p1
    elif kind == "pair fixed":  # about p1 or p2, which is then kept exactly
        p1, p2 = (p1, p2) if rng.random() < 0.5 else (p2, p1)
        r = rng.uniform(-3.0, 3.0) * p1
    elif kind == "antipodal":  # a half turn about an axis normal to p1
        r = pi_encode(np.cross(p1, rng.normal(size=3)))
    q1, q2 = rotate_vector(r, p1), rotate_vector(r, p2)
    if kind == "pair fixed":
        q1 = p1
    elif kind == "both fixed":
        q1, q2 = p1, p2
    elif kind == "antipodal":
        q1 = -p1
    q1, q2 = (q * (1.0 + noise * rng.normal(size=3)) for q in (q1, q2))
    return k1 * p1, k1 * q1, k2 * p2, k2 * q2


def call_outcome(call):
    """The output bytes of ``call()``, or its error's type, message, code,
    condition and index; warnings are errors, so a warning shows too."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call().tobytes()
        except (GibbsError, RuntimeWarning) as e:
            return (type(e), str(e), getattr(e, "code", None),
                    getattr(e, "condition", None), getattr(e, "index", None))


def test_pair_batch_row_off_the_gamma_path_does_not_warn():
    # a half turn whose gamma denominator is tiny but not 0: a batch forms
    # every row's gamma member before the off-path rows are solved again,
    # and this one's gamma overflowed (RuntimeWarning) where one row returns
    row = [np.array(x) for x in ([1.0, -1.0, 1.5], [1.0, 1.0, -1.5], [0.0, 1.0, 0.0],
                                 [-1e-310, -1.0, 1e-100])]
    one = call_outcome(lambda: align_pair(*row))
    assert isinstance(one, bytes) and is_pi_encoded(np.frombuffer(one))
    assert call_outcome(lambda: align_pair(*(x[None] for x in row))) == one
    assert call_outcome(lambda: align_pair(*(np.stack([x, -x]) for x in row))) == one * 2


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(PAIR_KINDS),
    k1=PAIR_SCALES,
    k2=PAIR_SCALES,
    noise=st.sampled_from([0.0, 0.0, 0.0, 1e-13, 1e-10, 1e-6]),
    tol=st.sampled_from([1e-9, 1e-9, 0, 1e-3, np.float64(1e-3)]),
)
def test_pair_one_row_equals_its_batch_row(seed, kind, k1, k2, noise, tol):
    row = pair_row(seed, kind, k1, k2, noise)
    one = call_outcome(lambda: align_pair(*row, tol=tol))
    batch = call_outcome(lambda: align_pair(*(x[None] for x in row), tol=tol))
    assert one == batch


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("generic", "half turn", "pair fixed", "antipodal")),
    k=PAIR_SCALES,
    noise=st.sampled_from([0.0, 0.0, 1e-13, 1e-6]),
    gamma=st.sampled_from([0.0, -2.5, 1e10, -1e300, 1e308]) | st.floats(-1e308, 1e308),
)
def test_line_and_family_one_row_equals_its_batch_row(seed, kind, k, noise, gamma):
    # rows far from unit scale and members past the float range included:
    # the same bytes or error, and never an overflow warning
    p, q = pair_row(seed, kind, k, 1.0, noise)[:2]
    line = call_outcome(lambda: align_line(p[None], q[None], [gamma]))
    assert call_outcome(lambda: align_line(p, q, gamma)) == line
    member = call_outcome(lambda: align_family(p, q).member(gamma))
    assert member == call_outcome(lambda: align_family(p, q).member([gamma]))
    for got in (line, member):
        assert isinstance(got, bytes) or got[0] is not RuntimeWarning
    if not isinstance(line, bytes):  # the row's error, raised by align_family too
        assert member == line


@pytest.mark.parametrize("tol", [np.float64(1e-3), np.float32(1e-3), np.float16(1e-3),
                                 Fraction(1, 1000)], ids=repr)
@pytest.mark.parametrize("kind", ["generic", "both fixed"])
def test_pair_one_row_takes_a_scalar_tolerance_of_any_real_type(kind, tol):
    row = pair_row(7, kind, 1.0, 1.0, 0.0)
    one = call_outcome(lambda: align_pair(*row, tol=tol))
    assert isinstance(one, bytes)
    assert one == call_outcome(lambda: align_pair(*(x[None] for x in row), tol=tol))
    assert one == call_outcome(lambda: align_pair(*row, tol=float(tol)))


@pytest.mark.parametrize("kind", ["half turn", "both fixed", "p2 parallel to p1"])
def test_pair_one_row_is_screened_checked_and_solved_once(kind, monkeypatch):
    # a row that leaves the gamma path goes on as a batch of one from the
    # floats already checked, with no second pass over it
    calls = []
    for name in ("_in_range", "_check_pair_lengths", "_solve_off_gamma", "_verify_rows"):
        def counted(*args, _fn=getattr(gibbsrot.alignment, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(gibbsrot.alignment, name, counted)
    row = pair_row(11, kind, 1.0, 1.0, 0.0)
    got = align_pair(*row)
    assert calls == ["_in_range", "_check_pair_lengths", "_check_pair_lengths",
                     "_solve_off_gamma", "_verify_rows"]
    assert residual(got, row[0], row[1]) <= 1e-12 and residual(got, row[2], row[3]) <= 1e-12
