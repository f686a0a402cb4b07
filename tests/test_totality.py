"""Totality across the float range, one row and batch alike.

Every public op below is fed inputs its validators accept, with magnitudes
from the smallest subnormal (5e-324) to the float maximum, exact zero
components and half turns.  Warnings are errors.  The contract:

* every call returns, or raises a :class:`GibbsError`;
* no output holds NaN, except ``align_pair_unchecked`` on rows where a
  denominator of its formula (nearly) vanishes, which its docstring names;
  outputs that are not Gibbs vectors are finite;
* one row's output has the bytes of the same row given as a batch of one,
  NaN compared as equal, or both raise the same error type; a batch that
  returns has the one-row outputs as its rows.

The draws are seeded, so the module is deterministic.
"""

import warnings

import numpy as np
import pytest

import gibbsrot as g
from gibbsrot import GibbsError

N = 48  # draws per op
FMAX = np.finfo(float).max


def wide(rng, shape):
    """Numbers of magnitude 2**-1074 ... FMAX, log-uniform in the exponent,
    of random sign, a quarter of them exactly zero."""
    x = np.ldexp(rng.uniform(0.5, 1.0, shape), rng.integers(-1073, 1025, shape))
    x *= rng.choice([-1.0, 1.0], shape)
    x[rng.random(shape) < 0.25] = 0.0
    return x


def directions(rng, n):
    """Nonzero rows of max-abs 1: Gaussian, or of wide components, where the
    small ones underflow to exact zeros."""
    v = np.where(rng.random((n, 1)) < 0.5, rng.normal(size=(n, 3)), wide(rng, (n, 3)))
    v[np.abs(v).max(axis=1) == 0.0] = [1.0, 0.0, 0.0]
    return v / np.abs(v).max(axis=1, keepdims=True)


def magnitudes(rng, n, top=FMAX):
    """Nonzero wide magnitudes up to ``top``."""
    k = np.abs(wide(rng, n))
    k[k == 0.0] = 1.0
    return np.minimum(k, top)


def gibbs_rows(rng, n):
    """Gibbs vectors of every regime: wide components, directions at wide
    magnitudes, half turns as ``pi_encode`` gives them and with infinite
    components, and signed zero rows."""
    r = wide(rng, (n, 3))
    r[1::4] = directions(rng, len(r[1::4])) * magnitudes(rng, len(r[1::4]))[:, None]
    r[2::8] = g.pi_encode(directions(rng, len(r[2::8])))
    r[3::8] = rng.choice([np.inf, -np.inf, 0.0, 1.0], (len(r[3::8]), 3))
    r[3::8, 0] = np.inf
    r[5] = [-0.0, 0.0, -0.0]
    return r


def rigid_pairs(rng, n):
    """``p1, q1, p2, q2`` with ``q = U(r) p``, each pair at its own wide scale
    (below FMAX / 2, so q's components stay finite); the rotations are of
    every regime, half turns included, or from |r| of 1e-3 ... 1e3 (wide |r|
    is nearly always the identity or a half turn); some rows are fixed
    (r = 0) and some have p2 parallel to p1."""
    r = gibbs_rows(rng, n)
    r[::2] = rng.normal(size=(len(r[::2]), 3)) * 10.0 ** rng.uniform(-3, 3, (len(r[::2]), 1))
    r[::7] = 0.0
    p1, p2 = directions(rng, n), directions(rng, n)
    p2[3::9] = -0.5 * p1[3::9]
    k1, k2 = (magnitudes(rng, n, FMAX / 2)[:, None] for _ in range(2))
    return p1 * k1, g.rotate_vector(r, p1) * k1, p2 * k2, g.rotate_vector(r, p2) * k2


def outcome(call):
    """``call()``'s output, or the GibbsError it raised; any other error,
    a warning included, propagates and fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except GibbsError as e:
            return e


def leaves(out) -> list[np.ndarray]:
    return [np.asarray(x) for x in out] if isinstance(out, tuple) else [np.asarray(out)]


def same(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bytes, NaN compared as equal."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if a.dtype.kind != "f":
        return a.tobytes() == b.tobytes()
    nan = np.isnan(a)
    return bool((nan == np.isnan(b)).all()) and a[~nan].tobytes() == b[~nan].tobytes()


def check_rows(fn, *args, gibbs=True, nan_rows=()):
    """The contract on ``fn`` over rows ``args[k][i]``: returns the one-row
    outputs (a GibbsError where the row raised)."""
    ones = []
    for i in range(len(args[0])):
        one = outcome(lambda: fn(*(a[i] for a in args)))
        row = outcome(lambda: fn(*(a[i:i + 1] for a in args)))
        ones.append(one)
        if isinstance(one, GibbsError) or isinstance(row, GibbsError):
            assert type(one) is type(row), (i, one, row)
            continue
        got, want = leaves(one), [x[0] for x in leaves(row)]
        assert all(map(same, got, want)), (i, got, want)
        for x in got:
            if i not in nan_rows:
                assert not np.isnan(x).any(), (i, x)
            if not gibbs:
                assert np.isfinite(x).all(), (i, x)
    batch = outcome(lambda: fn(*args))
    if isinstance(batch, GibbsError):
        assert any(isinstance(x, GibbsError) for x in ones), batch
    else:
        for i, one in enumerate(ones):
            assert all(map(same, leaves(one), [x[i] for x in leaves(batch)])), i
    return ones


@pytest.fixture
def rng(request):
    return np.random.default_rng(list(map(ord, request.node.name)))


def test_gibbs_ops(rng):
    r, r2 = gibbs_rows(rng, N), gibbs_rows(rng, N)
    s = np.where(rng.random((N, 1)) < 0.5, wide(rng, (N, 3)),
                 directions(rng, N) * magnitudes(rng, N)[:, None])
    check_rows(g.gibbs_to_matrix, r, gibbs=False)
    check_rows(g.rotate_vector, r, s, gibbs=False)
    check_rows(g.compose, r, r2)
    check_rows(g.invert, r)
    check_rows(g.is_pi_encoded, r)
    check_rows(g.pi_encode, s)
    check_rows(g.gibbs_to_quaternion, r, gibbs=False)
    check_rows(g.gibbs_to_axis_angle, r, gibbs=False)


def test_single_pair_ops(rng):
    p, q, _, _ = rigid_pairs(rng, N)
    check_rows(g.align_line, p, q, wide(rng, N))
    for i in range(N):  # one row only
        line = outcome(lambda: g.align_family(p[i], q[i]))
        if not isinstance(line, GibbsError):
            assert np.isfinite(line.base).all() and np.isfinite(line.direction).all(), i


def unit_pairs(p, q):
    """``p`` and ``q`` scaled by the power of two bringing max|p| into [0.5, 1)."""
    e = np.frexp(np.abs(p).max(axis=-1, keepdims=True))[1]
    return np.ldexp(p, -e), np.ldexp(q, -e)


def test_pair_ops(rng):
    pairs = rigid_pairs(rng, N)
    solved = check_rows(g.align_pair, *pairs)
    # the rows where a denominator of the gamma formula is small against the
    # lengths it is made of: there align_pair leaves the gamma path (its cut
    # is at most 3e-5 at the default tol) and the raw formula may give NaN
    p1, q1, p2, q2 = unit_pairs(*pairs[:2]) + unit_pairs(*pairs[2:])
    s1, d = p1 + q1, p2 - q2
    norm = np.linalg.norm
    with np.errstate(invalid="ignore"):
        near = (np.abs((s1 * d).sum(axis=1)) <= 1e-3 * norm(s1, axis=1) * norm(p2, axis=1)) | (
            np.abs((p1 * s1).sum(axis=1)) <= 1e-3 * norm(p1, axis=1) ** 2)
    near = set(np.flatnonzero(near).tolist())
    raw = check_rows(g.align_pair_unchecked, *pairs, nan_rows=near)
    compared = 0
    for i, (a, b) in enumerate(zip(raw, solved)):
        if i not in near:  # the gamma rows: finite, and align_pair's bytes
            assert np.isfinite(a).all(), (i, a)
            if not isinstance(b, GibbsError):
                assert same(a, b), (i, a, b)
                compared += 1
    assert compared >= N // 6


def test_batch_only_ops(rng):
    for _ in range(6):
        out = outcome(lambda: g.compose_scan(gibbs_rows(rng, 16)))
        assert isinstance(out, GibbsError) or not np.isnan(out).any()
        t, m = (directions(rng, 8) * magnitudes(rng, 8)[:, None] for _ in range(2))
        out = outcome(lambda: g.frame_transport(np.stack([t, m], axis=1)))
        assert isinstance(out, GibbsError) or not any(np.isnan(x).any() for x in out)
