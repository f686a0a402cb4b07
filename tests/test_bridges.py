"""Bridges to unit quaternions, axis-angle, and intrinsic z-y-x Euler
angles: layout pins, oracle agreement, and the half-turn handoff."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gibbsrot import (
    PI_ENCODING_THRESHOLD,
    TOL_QUATERNION_REAL,
    AxisAngle,
    EulerAngles,
    InvalidInputError,
    axis_angle_to_gibbs,
    canonicalize_quaternion,
    compose,
    euler_to_matrix,
    gibbs_to_axis_angle,
    gibbs_to_matrix,
    gibbs_to_quaternion,
    is_pi_encoded,
    matrix_to_euler,
    matrix_to_gibbs,
    matrix_to_quaternion,
    pi_encode,
    quaternion_multiply,
    quaternion_to_gibbs,
    quaternion_to_matrix,
)
from helpers import component_error, matrix_about, random_gibbs, random_units


# --- quaternions -------------------------------------------------------------


def test_quaternion_layout_and_identity():
    assert gibbs_to_quaternion([0.0, 0.0, 0.0]).tolist() == [1.0, 0.0, 0.0, 0.0]
    assert quaternion_to_gibbs([1.0, 0.0, 0.0, 0.0]).tolist() == [0.0, 0.0, 0.0]


def test_quaternion_matches_half_angle_trig():
    rng = np.random.default_rng(41)
    axes = random_units(rng, 300)
    angles = rng.uniform(-np.pi + 1e-6, np.pi - 1e-6, size=300)
    r = np.tan(angles / 2.0)[:, None] * axes
    q = gibbs_to_quaternion(r)
    want = np.concatenate(
        [np.cos(angles / 2.0)[:, None], np.sin(angles / 2.0)[:, None] * axes], axis=-1
    )
    # canonical form may flip the whole quaternion
    sign = np.where(want[:, :1] >= 0.0, 1.0, -1.0)
    assert np.abs(q - sign * want).max() < 1e-13


def test_quaternion_matrix_agrees_with_gibbs_matrix():
    rng = np.random.default_rng(42)
    r = random_gibbs(rng, 20_000, 1e-6, 1e3)
    got = quaternion_to_matrix(gibbs_to_quaternion(r))
    assert np.abs(got - gibbs_to_matrix(r)).max() <= 1e-10


def test_multiplication_order_pin():
    rng = np.random.default_rng(43)
    a = gibbs_to_quaternion(random_gibbs(rng, 100, 1e-2, 1e1))
    b = gibbs_to_quaternion(random_gibbs(rng, 100, 1e-2, 1e1))
    left = quaternion_to_matrix(quaternion_multiply(a, b))
    right = quaternion_to_matrix(b) @ quaternion_to_matrix(a)
    assert np.abs(left - right).max() <= 1e-12


def test_compose_partner_near_half_turn():
    rng = np.random.default_rng(44)
    axes = random_units(rng, 500)
    angles = np.pi - 10.0 ** rng.uniform(-9, -1, size=500)
    r = np.tan(angles / 2.0)[:, None] * axes
    s = random_gibbs(rng, 500, 1e-2, 1e1)
    q = quaternion_multiply(gibbs_to_quaternion(s), gibbs_to_quaternion(r))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    got = gibbs_to_matrix(compose(r, s))
    assert np.abs(quaternion_to_matrix(q) - got).max() <= 1e-10


def test_canonicalization():
    q = np.array([-0.5, 0.5, 0.5, -0.5])
    c = canonicalize_quaternion(q)
    assert c.tolist() == [0.5, -0.5, -0.5, 0.5]
    # zero real part: first nonzero imaginary component made positive
    z = canonicalize_quaternion([0.0, -1.0, 0.0, 0.0])
    assert z.tolist() == [0.0, 1.0, 0.0, 0.0]
    # idempotent bit for bit, no renormalization drift
    again = canonicalize_quaternion(c)
    assert np.array_equal(again, c)
    with pytest.raises(InvalidInputError):
        canonicalize_quaternion([1.0, 1.0, 0.0, 0.0])  # not unit length


def test_matrix_to_quaternion_hits_every_branch():
    # one rotation per dominant quaternion component
    cases = [
        [0.01, 0.0, 0.0],  # w dominant
        np.tan(np.array([1.5, 0.01, 0.01]) / 1.0),  # x dominant-ish
    ]
    rng = np.random.default_rng(45)
    axes = np.eye(3)
    for k in range(3):
        big = np.tan(1.5) * axes[k]  # angle ~ 2*0.983, imaginary part dominant
        cases.append(big)
    worst = 0.0
    for r in cases:
        u = gibbs_to_matrix(np.asarray(r, dtype=float))
        q = matrix_to_quaternion(u)
        worst = max(worst, float(np.abs(quaternion_to_matrix(q) - u).max()))
    assert worst <= 1e-13


def test_matrix_to_quaternion_round_trip_batch():
    rng = np.random.default_rng(46)
    q = gibbs_to_quaternion(random_gibbs(rng, 20_000, 1e-6, 1e3))
    back = matrix_to_quaternion(quaternion_to_matrix(q))
    assert np.abs(back - q).max() <= 1e-12


def test_matrix_to_quaternion_validation():
    with pytest.raises(InvalidInputError):
        matrix_to_quaternion(np.eye(3) * 1.01)
    matrix_to_quaternion(np.eye(3) * 1.01, check=False)


def test_matrix_to_quaternion_empty_batch_with_check():
    assert matrix_to_quaternion(np.zeros((0, 3, 3))).shape == (0, 4)


def test_half_turn_handoff_is_reciprocal():
    # |r| >= L/4 encodes as w = 0 exactly; |w| <= 4/L decodes back
    axes = np.array([[1.0, 0.0, 0.0], [0.6, -0.8, 0.0]])
    q = gibbs_to_quaternion(pi_encode(axes))
    assert np.allclose(q[:, 0], 0.0)
    assert np.abs(np.abs(q[:, 1:]) - np.abs(axes)).max() < 1e-15
    back = quaternion_to_gibbs(q)
    assert is_pi_encoded(back).all()
    # the threshold pair: w just above 4/L stays finite
    w = TOL_QUATERNION_REAL * 1.0001
    s = np.sqrt(1.0 - w * w)
    r = quaternion_to_gibbs([w, s, 0.0, 0.0])
    assert not is_pi_encoded(r)
    assert np.abs(r[0]) < PI_ENCODING_THRESHOLD


def test_quaternion_input_validation():
    with pytest.raises(InvalidInputError):
        quaternion_to_gibbs([0.9, 0.1, 0.0, 0.0])  # not unit
    with pytest.raises(InvalidInputError):
        quaternion_to_gibbs([1.0, 0.0, 0.0])  # wrong shape
    with pytest.raises(InvalidInputError):
        quaternion_to_gibbs([np.nan, 0.0, 0.0, 0.0])


# --- axis-angle --------------------------------------------------------------


def test_axis_angle_identity_and_zero_convention():
    axis, angle = gibbs_to_axis_angle([0.0, 0.0, 0.0])
    assert angle == 0.0
    assert axis.tolist() == [0.0, 0.0, 1.0]
    assert axis_angle_to_gibbs([0.6, -0.8, 0.0], 0.0).tolist() == [0.0, 0.0, 0.0]


def test_axis_angle_round_trip():
    rng = np.random.default_rng(47)
    axes = random_units(rng, 5_000)
    angles = rng.uniform(-np.pi + 1e-6, np.pi - 1e-6, size=5_000)
    r = axis_angle_to_gibbs(axes, angles)
    back_axis, back_angle = gibbs_to_axis_angle(r)
    # axis carries the sign of the angle: fold it back for comparison
    sign = np.where(angles >= 0.0, 1.0, -1.0)[:, None]
    assert np.abs(back_axis - sign * axes).max() < 1e-12
    assert np.abs(back_angle - np.abs(angles)).max() < 1e-12


def test_axis_angle_accepts_named_tuple():
    aa = AxisAngle(axis=np.array([0.0, 1.0, 0.0]), angle=0.8)
    r = axis_angle_to_gibbs(aa)
    assert np.allclose(r, [0.0, np.tan(0.4), 0.0])


def test_angle_reduction():
    r1 = axis_angle_to_gibbs([0.0, 0.0, 1.0], 0.3)
    r2 = axis_angle_to_gibbs([0.0, 0.0, 1.0], 0.3 + 2.0 * np.pi)
    r3 = axis_angle_to_gibbs([0.0, 0.0, 1.0], 0.3 - 4.0 * np.pi)
    assert np.abs(r1 - r2).max() < 1e-12
    assert np.abs(r1 - r3).max() < 1e-12


def test_exact_half_turn_angles_encode():
    r = axis_angle_to_gibbs([1.0, 0.0, 0.0], np.pi)
    assert is_pi_encoded(r)
    r2 = axis_angle_to_gibbs([1.0, 0.0, 0.0], -np.pi)
    assert is_pi_encoded(r2)
    axis, angle = gibbs_to_axis_angle(pi_encode([0.0, 1.0, 0.0]))
    assert angle == np.pi
    assert np.allclose(axis, [0.0, 1.0, 0.0])


def test_axis_validation():
    with pytest.raises(InvalidInputError):
        axis_angle_to_gibbs([1.0, 1.0, 0.0], 0.5)  # not unit length
    with pytest.raises(InvalidInputError):
        axis_angle_to_gibbs([0.0, 0.0, 0.0], 0.5)


# --- euler angles ------------------------------------------------------------


def test_euler_convention_is_intrinsic_zyx():
    yaw, pitch, roll = 0.7, -0.3, 0.4

    def rot_z(a):
        return matrix_about([0.0, 0.0, 1.0], a)

    def rot_y(a):
        return matrix_about([0.0, 1.0, 0.0], a)

    def rot_x(a):
        return matrix_about([1.0, 0.0, 0.0], a)

    want = rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)
    got = euler_to_matrix(yaw, pitch, roll)
    assert np.abs(got - want).max() < 1e-15


def test_euler_round_trip():
    rng = np.random.default_rng(48)
    yaw = rng.uniform(-np.pi, np.pi, size=5_000)
    pitch = rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6, size=5_000)
    roll = rng.uniform(-np.pi, np.pi, size=5_000)
    u = euler_to_matrix(np.stack([yaw, pitch, roll], axis=-1))
    y2, p2, r2 = matrix_to_euler(u)
    assert np.abs(y2 - yaw).max() < 1e-12
    assert np.abs(p2 - pitch).max() < 1e-12
    assert np.abs(r2 - roll).max() < 1e-12


def test_euler_near_gimbal_lock_round_trip():
    for dp in [1e-5, 1e-7, 1e-9, 1e-12, 1e-15]:
        for sign in (1.0, -1.0):
            e = EulerAngles(0.7, sign * (np.pi / 2 - dp), 0.4)
            u = euler_to_matrix(e)
            back = matrix_to_euler(u)
            u2 = euler_to_matrix(np.asarray(back))
            assert np.abs(u2 - u).max() < 1e-13, (dp, sign)


def test_euler_exact_gimbal_lock_representative():
    # a synthetic exact-lock matrix: pitch +pi/2, the yaw/roll split is
    # degenerate; the canonical representative has roll == 0
    c, s = np.cos(1.1), np.sin(1.1)
    u = np.array([[0.0, s, -c], [0.0, c, s], [1.0, 0.0, 0.0]])
    yaw, pitch, roll = matrix_to_euler(u)
    assert roll == 0.0
    assert pitch == np.pi / 2
    assert abs(yaw - 1.1) < 1e-15
    assert np.abs(euler_to_matrix(yaw, pitch, roll) - u).max() < 1e-15


def test_euler_angles_named_tuple_round_trip():
    e = EulerAngles(yaw=0.3, pitch=0.2, roll=-0.9)
    u = euler_to_matrix(e)
    back = matrix_to_euler(u)
    assert isinstance(back, EulerAngles)
    assert np.allclose(back, e)


def test_matrix_to_euler_validation():
    with pytest.raises(InvalidInputError):
        matrix_to_euler(np.eye(3) * 1.01)
    matrix_to_euler(np.eye(3) * 1.01, check=False)


def test_matrix_to_euler_empty_batch_with_check():
    yaw, pitch, roll = matrix_to_euler(np.zeros((0, 3, 3)))
    assert yaw.shape == pitch.shape == roll.shape == (0,)


# --- cross-representation triangles ------------------------------------------


def test_all_paths_into_matrices_agree():
    rng = np.random.default_rng(49)
    r = random_gibbs(rng, 2_000, 1e-4, 1e2)
    direct = gibbs_to_matrix(r)
    via_quaternion = quaternion_to_matrix(gibbs_to_quaternion(r))
    axis, angle = gibbs_to_axis_angle(r)
    via_axis_angle = gibbs_to_matrix(axis_angle_to_gibbs(axis, angle))
    ypr = matrix_to_euler(direct, check=False)
    via_euler = euler_to_matrix(np.stack(ypr, axis=-1))
    assert np.abs(via_quaternion - direct).max() <= 1e-10
    assert np.abs(via_axis_angle - direct).max() <= 1e-10
    assert np.abs(via_euler - direct).max() <= 1e-10


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_quaternion_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    r = random_gibbs(rng, 1, 1e-6, 1e3)[0]
    q = gibbs_to_quaternion(r)
    assert abs(np.linalg.norm(q) - 1.0) < 1e-12
    assert component_error(quaternion_to_gibbs(q), r) <= 1e-9
