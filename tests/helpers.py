"""Shared oracles and inputs for the test suite.

The oracles are independent of the library internals: rotation
matrices are built from explicit trigonometry, so agreement between
these oracles and the rational code paths is meaningful evidence.
"""

import numpy as np

from gibbsrot import pi_encode
from gibbsrot.core import _PAIR_LIMIT


def matrix_about(axis, angle: float) -> np.ndarray:
    """Trigonometric rotation matrix for the library's convention.

    ``matrix_about(u, a)`` is the matrix the library assigns to the
    Gibbs vector ``tan(a/2) * u``.  Column vectors transform as
    ``v -> U v`` and the probe
    ``matrix_about((1,0,0), pi/2) @ (0,1,0) == (0,0,-1)`` holds.
    """
    u = np.asarray(axis, dtype=float)
    u = u / np.linalg.norm(u)
    x, y, z = u
    c, s = np.cos(angle), np.sin(angle)
    cross = np.array([[0.0, z, -y], [-z, 0.0, x], [y, -x, 0.0]])
    return c * np.eye(3) + (1.0 - c) * np.outer(u, u) + s * cross


def random_units(rng, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def random_gibbs(rng, n: int, lo: float = 1e-6, hi: float = 1e3) -> np.ndarray:
    """Gibbs vectors with |r| log-uniform in [lo, hi]."""
    mags = 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), size=(n, 1))
    return random_units(rng, n) * mags


def mixed_rows(rng):
    """A shuffled batch over every regime of the pair choice: finite rows
    of |r| 1e-3 .. 1e3, rows at 1e49 .. 1e100 and beyond the scaled-pair
    limit (+-1e300, 1e150), infinite rows, pi-encoded rows, signed zeros
    and the zero vector."""
    below = np.nextafter(_PAIR_LIMIT, 0.0)
    rows = [
        random_gibbs(rng, 150, 1e-3, 1e3),
        [[1e300, -2e299, 5e298], [-1e300, 0.0, 1.0], [3e150, 1e-3, -2e149]],
        # on either side of the pair limit (1e50) and near 1e100
        [[1e49, -2e48, 3.0], [1e50, 1.0, -1e49], [-1e99, 5e98, 0.0], [1e100, 0.0, -1e100]],
        [[-0.0, -_PAIR_LIMIT, 1.0], [below, 0.0, -1.0], [1.0, -below, below]],
        [[np.inf, 0.0, -np.inf], [0.0, -np.inf, 0.0], [np.inf, 1.0, 2.0]],
        pi_encode(random_units(rng, 10)),
        -pi_encode(random_units(rng, 5)),
        [[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, 0.0, 0.0]],
    ]
    r = np.concatenate([np.asarray(x, dtype=float) for x in rows])
    return r[rng.permutation(len(r))]


def rotation_error(u: np.ndarray, v: np.ndarray) -> float:
    """Largest entry difference between two stacks of matrices."""
    return float(np.abs(np.asarray(u) - np.asarray(v)).max())


def component_error(got: np.ndarray, want: np.ndarray) -> float:
    """Per-component error relative to each vector's largest component.

    The natural round-trip metric for Gibbs vectors: components passing
    through zero carry no relative scale of their own, so each row is
    judged against its own magnitude.
    """
    got = np.atleast_2d(got)
    want = np.atleast_2d(want)
    scale = np.abs(want).max(axis=-1)
    return float((np.abs(got - want).max(axis=-1) / scale).max())


def turn_about(axis: np.ndarray, angle, v: np.ndarray) -> np.ndarray:
    """``matrix_about(axis, angle) @ v`` row by row, for stacks of unit
    axes, angles and vectors (Rodrigues' formula)."""
    c = np.cos(angle)[..., None]
    s = np.sin(angle)[..., None]
    along = np.sum(axis * v, axis=-1, keepdims=True) * axis
    return c * v + (1.0 - c) * along + s * np.cross(v, axis)


def tilted_pairs(rng, n: int, tilt: float, theta=None):
    """Two-pair alignment inputs ``(p1, q1, p2, q2)``: Gaussian p1, p2
    turned by ``theta`` (default uniform in [0.1, 3]) about an axis tilted
    ``tilt`` radians out of the p1-p2 plane.

    The axis's in-plane part is a random direction within 1.2 rad of p1,
    so pair 1 stays clear of antipodal even near a half turn.
    """
    p1 = rng.normal(size=(n, 3))
    p2 = rng.normal(size=(n, 3))
    e1 = p1 / np.linalg.norm(p1, axis=-1, keepdims=True)
    normal = np.cross(p1, p2)
    normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
    e2 = np.cross(normal, e1)
    phi = rng.uniform(-1.2, 1.2, size=(n, 1))
    axis = np.cos(tilt) * (np.cos(phi) * e1 + np.sin(phi) * e2) + np.sin(tilt) * normal
    angle = rng.uniform(0.1, 3.0, size=n) if theta is None else np.full(n, theta)
    return p1, turn_about(axis, angle, p1), p2, turn_about(axis, angle, p2)


def half_turn(axis) -> np.ndarray:
    """The half-turn matrix ``2 a a^T - I`` about the unit ``a`` along ``axis``."""
    a = np.asarray(axis, float) / np.linalg.norm(axis)
    return 2.0 * np.outer(a, a) - np.eye(3)


def pivot_pick_matrices() -> dict[str, np.ndarray]:
    """Matrices on which Shepperd's pivot pick meets its hard cases, by
    kind: ``ties``, pivot ties (half turns about (1, 1, 0) and (1, 1, 1),
    the identity with noise) and small-integer non-rotations; ``huge``,
    huge finite entries, the last with a Gram entry inf - inf; and
    ``nonfinite``, non-finite entries, one with 0 / 0 in the unchecked
    extraction's divide.  Seeded, so the same on every call."""
    rng = np.random.default_rng(62)
    nan_gram = np.eye(3)
    nan_gram[:2, :2] = [[1e200, 1e200], [1e200, -1e200]]
    zero_by_zero = np.diag([-1.0, 1.0, -1.0])
    zero_by_zero[0, 1], zero_by_zero[1, 0] = np.inf, -np.inf
    with_nan = np.eye(3)
    with_nan[2, 1] = np.nan
    ties = np.concatenate([
        [half_turn(a) for a in ([1, 1, 0], [1, 1, 1], [0, -1, 1], [1, 1, -1])],
        [np.diag([1.0, -1, -1]), np.diag([-1.0, -1, 1]), np.eye(3)],
        np.eye(3) + 1e-11 * rng.normal(size=(8, 3, 3)),
        rng.integers(-1, 2, size=(40, 3, 3)),
    ])
    huge = np.concatenate([
        rng.normal(size=(8, 3, 3)) * 10.0 ** rng.integers(150, 300, (8, 1, 1)), [nan_gram],
    ])
    return {"ties": ties, "huge": huge, "nonfinite": np.stack([zero_by_zero, with_nan])}
