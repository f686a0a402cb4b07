"""Bridges to unit quaternions, axis-angle, and intrinsic z-y-x Euler
angles: layout pins, oracle agreement, and the half-turn handoff."""

import warnings

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
from gibbsrot.bridges import _norm_sq
from gibbsrot.core import _columns
from helpers import component_error, matrix_about, mixed_rows, random_gibbs, random_units


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


@pytest.mark.parametrize("op", [
    quaternion_to_gibbs, canonicalize_quaternion, lambda q: quaternion_multiply(q, q),
], ids=["quaternion_to_gibbs", "canonicalize_quaternion", "quaternion_multiply"])
def test_huge_quaternion_in_a_batch_is_the_norm_error_of_its_row(op):
    # |q|^2 of a 1e200 entry overflows to inf: the batch raises the one
    # row's typed error, with no RuntimeWarning from the squares
    q = np.array([[1e200, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="is not unit length") as one:
            op(q[0])
        with pytest.raises(InvalidInputError, match="is not unit length") as batch:
            op(q)
    assert str(batch.value) == str(one.value)


def test_canonical_quaternions_are_unique_in_bytes():
    # q and -q are one rotation: with zero components the flip used to
    # leave -0.0 entries, so the two gave different bytes
    q = np.array([
        [0.0, 0.0, -0.6, 0.8], [-0.0, 0.0, -0.0, -1.0], [0.0, -1.0, 0.0, 0.0],
        [1.0, -0.0, 0.0, -0.0], [-0.6, 0.0, 0.8, -0.0], [0.0, 0.6, -0.0, 0.8],
    ])
    for a in (q, q[0], q.reshape(2, 3, 4)):
        c = canonicalize_quaternion(a)
        assert c.tobytes() == canonicalize_quaternion(-a).tobytes()
        assert c.tobytes() == canonicalize_quaternion(c).tobytes()
        assert not np.signbit(c[c == 0.0]).any()
    assert canonicalize_quaternion([0.0, 0.0, -0.6, 0.8]).tolist() == [0.0, 0.0, 0.6, -0.8]


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


def raised(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the parity is the point
        return type(exc), str(exc)
    raise AssertionError("no error")


@pytest.mark.parametrize("bad", [
    [np.nan, 0.0, 0.0, 1.0], [0.0, np.inf, 0.0, 0.0], [0.0, 0.0, -np.inf, 1.0],
    [0.6, 0.6, 0.0, 0.0], [1.0, 0.0, 0.0],
])
def test_quaternion_one_row_and_batch_raise_the_same_errors(bad):
    # one quaternion is checked on its Python floats, a batch on its
    # columns: a list, a tuple, a (4,) array and a (1, 4) batch give one
    # error type and message (the batch's shape aside)
    good = [1.0, 0.0, 0.0, 0.0]
    ops = (
        lambda q: quaternion_multiply(q, good), lambda q: quaternion_multiply(good, q),
        quaternion_to_matrix, canonicalize_quaternion, quaternion_to_gibbs,
    )
    shape = str(np.shape(bad))
    for op in ops:
        errors = [raised(lambda: op(x)) for x in (bad, tuple(bad), np.array(bad))]
        batch = raised(lambda: op(np.array([bad])))
        assert errors[0][0] is InvalidInputError and errors.count(errors[0]) == 3
        assert batch == (InvalidInputError, errors[0][1].replace(shape, str((1,) + np.shape(bad))))


def test_non_numeric_quaternion_is_a_typed_error():
    with pytest.raises(InvalidInputError, match="q is not numeric"):
        quaternion_to_gibbs("q")
    with pytest.raises(InvalidInputError, match="a is not numeric"):
        quaternion_multiply("q", [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(InvalidInputError, match="b is not numeric"):
        quaternion_multiply([1.0, 0.0, 0.0, 0.0], [1.0, "x", 0.0, 0.0])


def test_products_and_angles_reject_shapes_that_do_not_broadcast():
    # numpy's own broadcasting error used to escape from both
    q = np.tile([1.0, 0.0, 0.0, 0.0], (4, 1))
    with pytest.raises(InvalidInputError, match=r"^shapes do not broadcast: a \(4, 4\), b \(5, 4\)$"):
        quaternion_multiply(q, np.tile(q[0], (5, 1)))
    with pytest.raises(
        InvalidInputError, match=r"^shapes do not broadcast: yaw \(2,\), pitch \(3,\), roll \(\)$"
    ):
        euler_to_matrix(np.zeros(2), np.zeros(3), 0.0)
    with pytest.raises(
        InvalidInputError, match=r"^shapes do not broadcast: axis \(2, 3\), angle \(3, 1\)$"
    ):
        axis_angle_to_gibbs(np.eye(3)[:2], np.zeros(3))


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
    # the angles broadcast against the axis as any operand does
    turns = 0.3 + 2.0 * np.pi * np.array([0.0, 1.0, -2.0])
    assert np.abs(axis_angle_to_gibbs([0.0, 0.0, 1.0], turns) - r1).max() < 1e-12


def test_exact_half_turn_angles_encode():
    r = axis_angle_to_gibbs([1.0, 0.0, 0.0], np.pi)
    assert is_pi_encoded(r)
    r2 = axis_angle_to_gibbs([1.0, 0.0, 0.0], -np.pi)
    assert is_pi_encoded(r2)
    axis, angle = gibbs_to_axis_angle(pi_encode([0.0, 1.0, 0.0]))
    assert angle == np.pi
    assert np.allclose(axis, [0.0, 1.0, 0.0])


@pytest.mark.parametrize("call, missing", [
    (lambda: axis_angle_to_gibbs([0.0, 0.0, 1.0]), "angle"),
    (lambda: axis_angle_to_gibbs(1.0), "angle"),
    (lambda: axis_angle_to_gibbs(np.zeros((0, 3))), "angle"),
    # two rows are two axes, not an (axis, angle) pair
    (lambda: axis_angle_to_gibbs(np.array([[0, 0, 1.0], [1, 2, 3.0]])), "angle"),
    (lambda: axis_angle_to_gibbs([[0, 0, 1.0], [0, 1.0, 0]]), "angle"),
    (lambda: euler_to_matrix(0.1, 0.2), "roll"),
    (lambda: euler_to_matrix(0.1, roll=0.3), "pitch"),
    (lambda: euler_to_matrix([0.1, 0.2, 0.3], roll=0.3), "pitch"),
], ids=["axis-only", "scalar", "empty-batch", "two-rows", "two-axes", "no-roll", "no-pitch",
        "array-and-roll"])
def test_missing_angles_are_typed_errors(call, missing):
    with pytest.raises(InvalidInputError, match=f"^{missing} is missing"):
        call()


def test_axis_validation():
    with pytest.raises(InvalidInputError):
        axis_angle_to_gibbs([1.0, 1.0, 0.0], 0.5)  # not unit length
    with pytest.raises(InvalidInputError):
        axis_angle_to_gibbs([0.0, 0.0, 0.0], 0.5)


@pytest.mark.parametrize("axis", [[1e155, 0.0, 0.0], [[0.0, 0.0, 1.0], [0.0, -1e200, 0.0]]])
def test_huge_axis_is_not_unit_length_without_an_overflow_warning(axis):
    # |axis|^2 overflowed: a RuntimeWarning, an error under -W error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="axis must be unit length"):
            axis_angle_to_gibbs(axis, 1.0)


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


def locked_matrix(yaw, sign, roll):
    """``euler_to_matrix``'s formula at pitch = sign pi/2 with cos(pitch)
    exactly 0.0 (``np.cos(np.pi / 2)`` is 6e-17, so the function itself
    never builds one)."""
    ca, sa, cc, sc = np.cos(yaw), np.sin(yaw), np.cos(roll), np.sin(roll)
    cb, sb = 0.0, sign
    return np.array([
        [ca * cb, sa * cc + ca * sb * sc, sa * sc - ca * sb * cc],
        [-sa * cb, ca * cc - sa * sb * sc, ca * sc + sa * sb * cc],
        [sb, -cb * sc, cb * cc],
    ])


@pytest.mark.parametrize("roll", [0.3, 2.5, -2.5, -0.4])
@pytest.mark.parametrize("yaw", [0.7, -2.0, 3.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_euler_exact_gimbal_lock_puts_everything_into_yaw(sign, yaw, roll):
    # arctan2 of the locked roll entries (+-0.0, +-0.0) reads 0, +-pi or -0.0
    u = locked_matrix(yaw, sign, roll)
    back = matrix_to_euler(u)
    assert back.roll == 0.0 and np.copysign(1.0, back.roll) == 1.0
    assert back.pitch == sign * np.pi / 2
    assert np.abs(euler_to_matrix(back) - u).max() <= 1e-15


@pytest.mark.parametrize("diagonal, want", [
    ((1.0, -1.0, -1.0), (0.0, 0.0, np.pi)),  # roll reads arctan2(-0.0, -1) = -pi
    ((-1.0, -1.0, 1.0), (np.pi, 0.0, 0.0)),  # yaw reads arctan2(-0.0, -1) = -pi
])
def test_euler_half_turn_angles_are_plus_pi_and_one_matrix_gives_floats(diagonal, want):
    got = matrix_to_euler(np.diag(diagonal))
    assert [type(x) for x in got] == [float] * 3
    assert got == want
    batch = matrix_to_euler(np.diag(diagonal)[None])
    assert [x.tolist() for x in batch] == [[x] for x in want]


def test_axis_within_tolerance_is_renormalized():
    # |axis|^2 - 1 ~ 8e-10 passes the 1e-9 check; the Gibbs vector takes the unit axis
    axes = random_units(np.random.default_rng(61), 20)
    for theta in (0.3, -2.0, 3.0):
        want = axis_angle_to_gibbs(axes, theta)
        got = axis_angle_to_gibbs(axes * (1.0 + 4e-10), theta)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


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


@pytest.mark.parametrize("shape", [(4,), (1, 4), (7, 4), (5000, 4), (3, 5, 4), (0, 4)])
def test_quaternion_norm_sum_matches_np_sum_bit_for_bit(shape):
    # magnitudes far apart make the order of the four additions visible;
    # signed zeros and all-zero rows are included
    rng = np.random.default_rng(sum(shape))
    q = rng.normal(size=shape) * 10.0 ** rng.integers(-150, 150, size=shape)
    flat = q.reshape(-1)
    flat[:: 5] = -0.0
    if q.ndim > 1 and len(q):
        q[..., 0, :] = -0.0
    want = np.sum(q * q, axis=-1)
    # on the (4,) + batch component columns the quaternion ops unpack
    got = _norm_sq(_columns(q, 1))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    if q.ndim == 1:  # and on one quaternion's Python floats
        assert np.float64(_norm_sq(q.tolist())).tobytes() == want.tobytes()


# --- layout: each row of a batch is the call on that row alone -----------------


def layout_inputs(kind, rng):
    """Shuffled rows of one kind: :func:`mixed_rows`' Gibbs regimes plus
    half turns and finite rows with zero components, and what they give
    as quaternions, matrices (with gimbal-locked ones) and axis-angle rows
    (angles at +-pi and past)."""
    r = np.concatenate([
        mixed_rows(rng),
        pi_encode([[0.0, -0.6, 0.8], [-0.0, 0.0, -1.0]]), [[1.0, -0.0, 0.0], [-0.0, 2.0, -0.0]],
    ])
    if kind == "quaternion":
        q = gibbs_to_quaternion(r) * rng.choice([-1.0, 1.0], size=(len(r), 1))
        r = np.concatenate([q, [
            [0.0, 0.0, -0.6, 0.8], [-0.0, -0.0, 0.6, -0.8], [-1.0, 0.0, -0.0, 0.0],
            [-0.0, 0.0, -0.0, -1.0], [1e-320, 0.0, -0.6, 0.8], [-1e-320, 0.6, -0.0, 0.8],
        ]])
    elif kind == "matrix":
        locked = euler_to_matrix(
            [[0.3, np.pi / 2, 0.2], [-0.3, -np.pi / 2, 0.7], [np.pi, 0.0, -np.pi]]
        )
        r = np.concatenate([gibbs_to_matrix(r), locked, [np.diag([1.0, -1.0, -1.0]), np.eye(3)]])
    elif kind == "axis_angle":
        axes = np.concatenate([
            random_units(rng, len(r) - 3), [[0.0, -0.6, 0.8], [-0.0, 0.0, -1.0], [1.0, -0.0, 0.0]],
        ])
        angles = rng.uniform(-10.0, 10.0, size=len(r))
        angles[:8] = [np.pi, -np.pi, 3.0 * np.pi, 0.0, -0.0, 2.0 * np.pi, np.pi, -np.pi]
        r = np.concatenate([axes, angles[:, None]], axis=-1)
    return r[rng.permutation(len(r))]


LAYOUT_OPS = {
    "gibbs_to_quaternion": (gibbs_to_quaternion, "gibbs"),
    "gibbs_to_axis_angle": (gibbs_to_axis_angle, "gibbs"),
    "is_pi_encoded": (is_pi_encoded, "gibbs"),
    "canonicalize_quaternion": (canonicalize_quaternion, "quaternion"),
    "quaternion_to_gibbs": (quaternion_to_gibbs, "quaternion"),
    "matrix_to_quaternion": (matrix_to_quaternion, "matrix"),
    "matrix_to_euler": (matrix_to_euler, "matrix"),
    "axis_angle_to_gibbs": (lambda x: axis_angle_to_gibbs(x[..., :3], x[..., 3]), "axis_angle"),
}


def as_arrays(out):
    return [np.asarray(p) for p in (out if isinstance(out, tuple) else (out,))]


@pytest.mark.parametrize("name", LAYOUT_OPS)
def test_bridge_batch_rows_equal_single_calls_byte_for_byte(name):
    op, kind = LAYOUT_OPS[name]
    x = layout_inputs(kind, np.random.default_rng(60))
    x = x[: len(x) - len(x) % 2]
    batch = as_arrays(op(x))
    # the same rows on a (2, n/2) batch
    for b, g in zip(batch, as_arrays(op(x.reshape((2, -1) + x.shape[1:])))):
        assert g.shape == (2, len(x) // 2) + b.shape[1:] and g.tobytes() == b.tobytes()
    # and each row alone, batch shape ()
    for i in range(len(x)):
        for b, one in zip(batch, as_arrays(op(x[i]))):
            assert one.shape == b.shape[1:] and one.tobytes() == b[i].tobytes(), i


@pytest.mark.parametrize("shape", [(3,), (500, 3), (4, 5, 3)])
def test_quaternion_and_axis_norms_sum_in_np_sum_order(shape):
    # einsum sums a row in the lane order of its SIMD loop; the bridges
    # sum w^2 + x^2 + y^2 + z^2 and x^2 + y^2 + z^2 left to right, as
    # np.sum does.  With |r|_inf <= 1 the pair is (1, r) exactly.
    r = np.random.default_rng(61).uniform(-1.0, 1.0, size=shape)
    q = np.concatenate([np.ones(shape[:-1] + (1,)), r], axis=-1)
    want = q / np.sqrt(np.sum(q * q, axis=-1, keepdims=True))
    assert gibbs_to_quaternion(r).tobytes() == want.tobytes()
    axis, angle = gibbs_to_axis_angle(r)
    n = np.sqrt(np.sum(r * r, axis=-1, keepdims=True))
    assert axis.tobytes() == (r / n).tobytes()
    assert np.asarray(angle).tobytes() == (2.0 * np.arctan2(n[..., 0], 1.0)).tobytes()
