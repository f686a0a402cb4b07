"""The row-wise 3-vector helpers in ``gibbsrot.core``: each returns what
the numpy reduction it replaces returns, bit for bit, and stays exact on
``fractions.Fraction``; ``is_rotation_matrix`` built on them reports the
same residuals as the einsum Gram matrix."""

from fractions import Fraction

import numpy as np
import pytest

from gibbsrot import is_rotation_matrix
from gibbsrot.core import _cross, _dot, _max_abs


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
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_bits(_dot(a, b), np.sum(a * b, axis=-1))
        assert same_bits(_cross(a, b), np.cross(a, b))
    assert same_bits(_max_abs(a), np.abs(a).max(axis=-1))


def test_dot_orders_and_signs_its_sum_like_numpy():
    # (x + y) + z: 1e16 - 1e16 + 1 is 1, but 1e16 + (-1e16 + 1) would be 0
    a = np.array([[1e16, -1e16, 1.0], [1.0, 1e16, -1e16], [-0.0, -0.0, -0.0]])
    b = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    assert same_bits(_dot(a, b), np.sum(a * b, axis=-1))
    assert _dot(a, b).tolist() == [1.0, 0.0, 0.0]
    assert not np.signbit(_dot(a, b)[2])  # three -0 products sum to +0


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
    dot = _dot(a, b)
    cross = _cross(a, b)
    top = _max_abs(a)
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
