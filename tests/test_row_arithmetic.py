"""The row-wise 3-vector helpers in ``gibbsrot.core``: each returns what
the numpy reduction it replaces returns, bit for bit, and stays exact on
``fractions.Fraction``; ``is_rotation_matrix`` built on them reports the
same residuals as the einsum Gram matrix."""

import functools
from fractions import Fraction

import numpy as np
import pytest

from gibbsrot import (
    align_pair,
    align_pair_unchecked,
    is_rotation_matrix,
    pi_encode,
    quaternion_multiply,
    quaternion_to_matrix,
    rotate_vector,
)
from gibbsrot.algebra import _hamilton
from gibbsrot.core import (
    _cross,
    _dehomogenize,
    _dot,
    _matrix_from_pair,
    _max_abs,
    _pivot_table,
    _rotate_by_pair,
)


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def seeded_rows(seed, shape):
    """Rows spanning many magnitudes, with +/-inf, +/-1e300 and signed
    zeros mixed in."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)
    flat = a.reshape(-1)
    if not flat.size:
        return a
    picks = rng.integers(0, flat.size, size=(6, max(flat.size // 20, 1)))
    flat[picks[0]] = np.inf
    flat[picks[1]] = -np.inf
    flat[picks[2]] = 1e300
    flat[picks[3]] = -1e300
    flat[picks[4]] = -0.0
    flat[picks[5]] = 0.0
    return a


SHAPES = [
    ((500, 3), (500, 3)),
    ((3,), (500, 3)),
    ((40, 1, 3), (1, 30, 3)),
    ((3,), (3,)),
    ((0, 3), (0, 3)),
]


@pytest.mark.parametrize("sa, sb", SHAPES)
def test_helpers_match_numpy_bit_for_bit(sa, sb):
    a = seeded_rows(1, sa)
    b = seeded_rows(2, sb)
    ca, cb = np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0)  # component columns
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_bits(_dot(ca, cb), np.sum(a * b, axis=-1))
        assert same_bits(np.moveaxis(_cross(ca, cb), 0, -1), np.cross(a, b))
    assert same_bits(_max_abs(ca), np.abs(a).max(axis=-1))


def test_dot_orders_and_signs_its_sum_like_numpy():
    # (x + y) + z: 1e16 - 1e16 + 1 is 1, but 1e16 + (-1e16 + 1) would be 0
    a = np.array([[1e16, -1e16, 1.0], [1.0, 1e16, -1e16], [-0.0, -0.0, -0.0]])
    b = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    assert same_bits(_dot(a.T, b.T), np.sum(a * b, axis=-1))
    assert _dot(a.T, b.T).tolist() == [1.0, 0.0, 0.0]
    assert not np.signbit(_dot(a.T, b.T)[2])  # three -0 products sum to +0


def fraction_rows(count, seed):
    rng = np.random.default_rng(seed)
    num = rng.integers(-9, 10, size=(count, 3))
    den = rng.integers(1, 10, size=(count, 3))
    out = np.empty((count, 3), dtype=object)
    for i in range(count):
        for j in range(3):
            out[i, j] = Fraction(int(num[i, j]), int(den[i, j]))
    return out


def test_helpers_are_exact_on_fractions():
    a = fraction_rows(50, 5)
    b = fraction_rows(50, 6)
    dot = _dot(a.T, b.T)
    cross = _cross(a.T, b.T).T
    top = _max_abs(a.T)
    for i in range(50):
        x, y = list(a[i]), list(b[i])
        assert type(dot[i]) is Fraction
        assert dot[i] == x[0] * y[0] + x[1] * y[1] + x[2] * y[2]
        assert list(cross[i]) == [
            x[1] * y[2] - x[2] * y[1],
            x[2] * y[0] - x[0] * y[2],
            x[0] * y[1] - x[1] * y[0],
        ]
        assert all(type(c) is Fraction for c in cross[i])
        assert type(top[i]) is Fraction and top[i] == max(abs(c) for c in x)


def einsum_residual(u):
    """The orthogonality residual as computed from the full Gram matrix."""
    gram = np.einsum("...ji,...jk->...ik", u, u)
    return float(np.abs(gram - np.eye(3)).max())


def drifted_rotations(seed, n, size):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    w, x, y, z = q.T
    u = np.stack(
        [
            1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
        ],
        axis=-1,
    ).reshape(n, 3, 3)
    return u + size * rng.normal(size=u.shape)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 1000, 16384])
@pytest.mark.parametrize("size", [0.0, 1e-13, 1e-10, 1e-6])
def test_rotation_check_matches_the_einsum_gram(n, size):
    u = drifted_rotations(n, n, size)
    chk = is_rotation_matrix(u)
    res = einsum_residual(u)
    assert chk.max_orthogonality_residual == res
    dev = float(np.abs(
        u[:, 0, 0] * (u[:, 1, 1] * u[:, 2, 2] - u[:, 1, 2] * u[:, 2, 1])
        - u[:, 0, 1] * (u[:, 1, 0] * u[:, 2, 2] - u[:, 1, 2] * u[:, 2, 0])
        + u[:, 0, 2] * (u[:, 1, 0] * u[:, 2, 1] - u[:, 1, 1] * u[:, 2, 0])
        - 1.0
    ).max())
    assert chk.max_det_deviation == dev
    assert chk.ok == (res <= 1e-9 and dev <= 1e-9)


def test_rotation_check_single_matrix_and_empty_batch():
    u = drifted_rotations(4, 1, 1e-11)[0]
    chk = is_rotation_matrix(u)
    assert chk.max_orthogonality_residual == einsum_residual(u)
    assert chk.ok
    stacked = drifted_rotations(9, 12, 1e-11).reshape(3, 4, 3, 3)
    assert is_rotation_matrix(stacked).max_orthogonality_residual == einsum_residual(stacked)
    empty = is_rotation_matrix(np.zeros((0, 3, 3)))
    assert empty.ok and empty.max_orthogonality_residual == 0.0 and empty.max_det_deviation == 0.0


# --- the batched kernels against their one-expression forms ----------------
#
# Each kernel makes every intermediate with one out-of-place operation and
# folds later terms in with augmented assignment, keeping each IEEE
# operation and its operands.  The references below write the same
# formulas as single expressions; both must give the same bits, signed
# zeros, overflow and infinities included.


def same_float(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def textbook_rotation_check(u):
    u00, u01, u02, u10, u11, u12, u20, u21, u22 = (u[..., i, j] for i in range(3) for j in range(3))
    gram = (
        u00 * u00 + u10 * u10 + u20 * u20 - 1.0,
        u01 * u01 + u11 * u11 + u21 * u21 - 1.0,
        u02 * u02 + u12 * u12 + u22 * u22 - 1.0,
        u00 * u01 + u10 * u11 + u20 * u21,
        u00 * u02 + u10 * u12 + u20 * u22,
        u01 * u02 + u11 * u12 + u21 * u22,
    )
    det = (
        u00 * (u11 * u22 - u12 * u21)
        - u01 * (u10 * u22 - u12 * u20)
        + u02 * (u10 * u21 - u11 * u20)
    )
    res = functools.reduce(np.maximum, map(np.abs, gram)).max()
    return res, np.abs(det - 1.0).max()


def kernel_rows(seed, shape):
    """seeded_rows with about half the entries redrawn at unit scale, so
    that sums of comparable terms, whose rounding shows the order of the
    additions, are common."""
    a = seeded_rows(seed, shape)
    flat = a.reshape(-1)
    rng = np.random.default_rng([seed, 1])
    pick = rng.random(flat.size) < 0.5
    flat[pick] = rng.normal(size=int(pick.sum()))
    return a


def finite_rows(seed, shape):
    """kernel_rows without the infinities, for kernels behind a finiteness
    check."""
    a = kernel_rows(seed, shape)
    a[np.isinf(a)] = 1e300
    return a


@pytest.mark.parametrize("n", [1, 7, 500])
def test_rotation_check_matches_its_textbook_form(n):
    rows = finite_rows(n, (n, 3, 3))
    for u in (rows, drifted_rotations(n, n, 1e-10), rows[0]):
        with np.errstate(over="ignore", invalid="ignore"):
            chk = is_rotation_matrix(u)
            res, dev = textbook_rotation_check(u)
        assert same_float(chk.max_orthogonality_residual, res)
        assert same_float(chk.max_det_deviation, dev)


def textbook_pivot_table(u, scale):
    u00, u01, u02, u10, u11, u12, u20, u21, u22 = u
    return np.array([
        [u00 + u11 + u22 + scale, u12 - u21, u20 - u02, u01 - u10],
        [u12 - u21, u00 - u11 - u22 + scale, u01 + u10, u02 + u20],
        [u20 - u02, u01 + u10, u11 - u00 - u22 + scale, u12 + u21],
        [u01 - u10, u02 + u20, u12 + u21, u22 - u00 - u11 + scale],
    ])


@pytest.mark.parametrize("n", [1, 500])
def test_pivot_table_matches_its_textbook_form(n):
    u = kernel_rows(n + 1, (9, n))
    with np.errstate(invalid="ignore", over="ignore"):
        for scale in (1, kernel_rows(n + 2, (n,))):
            assert same_bits(_pivot_table(u, scale), textbook_pivot_table(u, scale))
        one = u[:, 0]  # one matrix: scalar columns
        assert same_bits(_pivot_table(one), textbook_pivot_table(one, 1))


def textbook_dehomogenize(w, v, rel_sq):
    x, y, z = v
    singular = w * w <= rel_sq * (w * w + (x * x + y * y + z * z))
    d = np.where(singular, 1.0, w)
    out = np.stack([x / d, y / d, z / d], axis=-1)
    if singular.any():
        out[singular] = pi_encode(np.stack([x[singular], y[singular], z[singular]], axis=-1))
    return out


def test_dehomogenize_matches_its_textbook_form():
    v = finite_rows(5, (3, 600))
    v[:, np.abs(v).max(axis=0) == 0] = 1.0  # a pair is never (0 : 0)
    w = finite_rows(6, (600,))
    w[::7] = 0.0
    w[1::7] = -0.0
    w[2::7] = 1e-13 * np.abs(v[:, 2::7]).max(axis=0)  # singular at 1e-24 only
    with np.errstate(over="ignore"):
        for rel_sq in (1e-24, 2.5e-13):
            want = textbook_dehomogenize(w, v, rel_sq)
            assert same_bits(_dehomogenize(w, v, rel_sq), want)
            assert same_bits(_dehomogenize(w[3], v[:, 3], rel_sq), want[3])


def textbook_matrix_from_pair(w, v):
    x, y, z = v
    den = w * w + (x * x + y * y + z * z)
    k = w * w - (x * x + y * y + z * z)
    out = np.empty(np.shape(den) + (3, 3))
    out[..., 0, 1] = ((x * y + w * z) + (x * y + w * z)) / den
    out[..., 1, 0] = ((x * y - w * z) + (x * y - w * z)) / den
    out[..., 0, 2] = ((x * z - w * y) + (x * z - w * y)) / den
    out[..., 2, 0] = ((x * z + w * y) + (x * z + w * y)) / den
    out[..., 1, 2] = ((y * z + w * x) + (y * z + w * x)) / den
    out[..., 2, 1] = ((y * z - w * x) + (y * z - w * x)) / den
    out[..., 0, 0] = (x * x + x * x + k) / den
    out[..., 1, 1] = (y * y + y * y + k) / den
    out[..., 2, 2] = (z * z + z * z + k) / den
    return out


def test_matrix_from_pair_matches_its_textbook_form():
    v = kernel_rows(7, (3, 500))
    with np.errstate(invalid="ignore", over="ignore"):
        for w in (1.0, kernel_rows(8, (500,))):
            assert same_bits(_matrix_from_pair(w, v), textbook_matrix_from_pair(w, v))
        assert same_bits(_matrix_from_pair(1.0, v[:, 4]), textbook_matrix_from_pair(1.0, v[:, 4]))


def textbook_rotate_by_pair(w, v, s):
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    s0, s1, s2 = s[..., 0], s[..., 1], s[..., 2]
    h = 1 / (w * w + (v0 * v0 + v1 * v1 + v2 * v2))
    k = (w * w - (v0 * v0 + v1 * v1 + v2 * v2)) * h
    p0, p1, p2 = v0 * (h + h), v1 * (h + h), v2 * (h + h)
    t = p0 * s0 + p1 * s1 + p2 * s2
    return np.stack([
        k * s0 + t * v0 + w * (s1 * p2 - s2 * p1),
        k * s1 + t * v1 + w * (s2 * p0 - s0 * p2),
        k * s2 + t * v2 + w * (s0 * p1 - s1 * p0),
    ], axis=-1)


@pytest.mark.parametrize("sv, ss", SHAPES[:4])
def test_rotate_by_pair_matches_its_textbook_form(sv, ss):
    v, s = kernel_rows(9, sv), kernel_rows(10, ss)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for w in (1.0, kernel_rows(11, sv[:-1])):
            assert same_bits(
                _rotate_by_pair(w, np.moveaxis(v, -1, 0), np.moveaxis(s, -1, 0)),
                textbook_rotate_by_pair(w, v, s),
            )


def textbook_hamilton(w1, v1, w2, v2):
    x1, y1, z1 = v1
    x2, y2, z2 = v2
    return w1 * w2 - (x1 * x2 + y1 * y2 + z1 * z2), (
        w2 * x1 + w1 * x2 - (y1 * z2 - z1 * y2),
        w2 * y1 + w1 * y2 - (z1 * x2 - x1 * z2),
        w2 * z1 + w1 * z2 - (x1 * y2 - y1 * x2),
    )


def test_hamilton_matches_its_textbook_form():
    v1, v2 = kernel_rows(12, (3, 500)), kernel_rows(13, (3, 500))
    w1, w2 = kernel_rows(14, (500,)), kernel_rows(15, (500,))
    with np.errstate(invalid="ignore", over="ignore"):
        for a, b in ((1.0, 1.0), (w1, 1.0), (1.0, w2), (w1, w2)):
            w, v = _hamilton(a, v1, b, v2)
            tw, tv = textbook_hamilton(a, v1, b, v2)
            assert same_bits(w, tw) and same_bits(np.array(v), np.array(tv))
        w, v = _hamilton(1.0, v1[:, 0], 1.0, v2[:, 0])  # one row: scalars
        tw, tv = textbook_hamilton(1.0, v1[:, 0], 1.0, v2[:, 0])
        assert same_bits(w, tw) and same_bits(np.array(v), np.array(tv))


def unit_quaternions(seed, n):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, 4))
    q /= np.sqrt(np.einsum("ni,ni->n", q, q))[:, None]
    q[::9] = [1.0, -0.0, 0.0, -0.0]
    q[1::9] = [-0.0, 0.0, -1.0, 0.0]
    q[2::9, 1:] *= -1.0
    return q


def test_quaternion_baselines_match_their_textbook_forms():
    a, b = unit_quaternions(16, 500), unit_quaternions(17, 500)
    aw, ax, ay, az = a.T
    bw, bx, by, bz = b.T
    want = np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by + ay * bw + az * bx - ax * bz,
        aw * bz + az * bw + ax * by - ay * bx,
    ], axis=-1)
    assert same_bits(quaternion_multiply(a, b), want)
    assert same_bits(quaternion_multiply(a[3], b[3]), want[3])
    spread = np.broadcast_to(a[3], b.shape)
    assert same_bits(quaternion_multiply(a[3], b), quaternion_multiply(spread, b))
    w, x, y, z = a.T
    k = 2.0 * w * w - 1.0
    want = np.stack([
        k + 2.0 * x * x, 2.0 * (x * y + w * z), 2.0 * (x * z - w * y),
        2.0 * (x * y - w * z), k + 2.0 * y * y, 2.0 * (y * z + w * x),
        2.0 * (x * z + w * y), 2.0 * (y * z - w * x), k + 2.0 * z * z,
    ], axis=-1).reshape(-1, 3, 3)
    assert same_bits(quaternion_to_matrix(a), want)
    assert same_bits(quaternion_to_matrix(a[5]), want[5])


def test_align_pair_gamma_rows_match_the_textbook_formula():
    # align_pair_unchecked is the gamma formula as one expression; on rows
    # align_pair solves by gamma the two agree bit for bit
    rng = np.random.default_rng(18)
    true = rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-3, 3, size=(2000, 1))
    true[::50] = -0.0
    p1, p2 = kernel_rows(20, (2000, 3)), rng.normal(size=(2000, 3))
    p1[~np.isfinite(p1)] = -0.0
    p1[np.abs(p1).max(axis=-1) == 0] = 1.0
    p1 /= np.abs(p1).max(axis=-1, keepdims=True)
    q1, q2 = rotate_vector(true, p1), rotate_vector(true, p2)
    got = align_pair(p1, q1, p2, q2)
    with np.errstate(invalid="ignore", over="ignore"):
        want = align_pair_unchecked(p1, q1, p2, q2)
        s1, d = p1 + q1, p2 - q2
        norms = np.linalg.norm(s1, axis=-1) * np.linalg.norm(p2, axis=-1)
        gamma_rows = np.abs(_dot(s1.T, d.T)) > 1e-3 * norms
    assert gamma_rows.sum() > 1500
    assert same_bits(got[gamma_rows], want[gamma_rows])
