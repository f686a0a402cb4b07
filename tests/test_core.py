"""Core conversions: gibbs <-> matrix, rotation action, the half-turn
encoding, and input validation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gibbsrot import (
    PI_ENCODING_MAGNITUDE,
    PI_ENCODING_THRESHOLD,
    TOL_ORTHO_OUTPUT,
    InvalidInputError,
    OutOfDomainError,
    axis_angle_to_gibbs,
    gibbs_to_matrix,
    invert,
    is_pi_encoded,
    is_rotation_matrix,
    matrix_to_gibbs,
    pi_encode,
    rotate_vector,
    skew_from_vector,
)
import gibbsrot
from gibbsrot.algebra import compose
from gibbsrot.alignment import align_pair
from gibbsrot.cli import main
from gibbsrot.core import _pivot_row, _pivot_table
from helpers import component_error, matrix_about, random_gibbs, random_units


def test_identity_is_exact():
    assert gibbs_to_matrix([0.0, 0.0, 0.0]).tolist() == np.eye(3).tolist()
    assert matrix_to_gibbs(np.eye(3)).tolist() == [0.0, 0.0, 0.0]


def test_handedness_probe_is_pinned():
    # tan(pi/4) about x carries y to -z: columns transform with the
    # clockwise (negative-angle) sense relative to the trig oracle's axis
    out = rotate_vector([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert np.allclose(out, [0.0, 0.0, -1.0], atol=1e-15)


def test_matches_trig_oracle():
    rng = np.random.default_rng(42)
    axes = random_units(rng, 500)
    angles = rng.uniform(-np.pi + 1e-3, np.pi - 1e-3, size=500)
    for u, a in zip(axes, angles):
        got = gibbs_to_matrix(np.tan(a / 2.0) * u)
        assert np.abs(got - matrix_about(u, a)).max() < 5e-14


def test_output_orthogonality():
    rng = np.random.default_rng(7)
    u = gibbs_to_matrix(random_gibbs(rng, 20_000))
    chk = is_rotation_matrix(u, tol=TOL_ORTHO_OUTPUT)
    assert chk.ok, (chk.max_orthogonality_residual, chk.max_det_deviation)


def test_trace_identity():
    rng = np.random.default_rng(8)
    r = random_gibbs(rng, 5_000, 1e-6, 1e2)
    u = gibbs_to_matrix(r)
    rho = (r * r).sum(axis=-1)
    trace = u[:, 0, 0] + u[:, 1, 1] + u[:, 2, 2]
    assert np.abs(trace - (3.0 - rho) / (1.0 + rho)).max() < 1e-12


def test_round_trip_random_batch():
    rng = np.random.default_rng(9)
    r = random_gibbs(rng, 100_000)
    assert component_error(matrix_to_gibbs(gibbs_to_matrix(r)), r) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    exponent=st.floats(min_value=-6.0, max_value=3.0),
)
def test_round_trip_property(seed, exponent):
    rng = np.random.default_rng(seed)
    r = random_units(rng, 1)[0] * 10.0**exponent
    assert component_error(matrix_to_gibbs(gibbs_to_matrix(r)), r) <= 1e-9


def test_round_trip_matrix_side_at_extreme_magnitudes():
    # beyond |r| ~ 1e8 the vector-side round trip saturates, but the
    # regenerated matrix must stay faithful all the way into the
    # half-turn regime
    rng = np.random.default_rng(10)
    r = random_units(rng, 200) * 10.0 ** rng.uniform(3, 300, size=(200, 1))
    u = gibbs_to_matrix(r)
    again = gibbs_to_matrix(matrix_to_gibbs(u))
    assert np.abs(again - u).max() <= 1e-6


# --- rotate_vector without a matrix; pairs chosen row by row ------------------


def mixed_rows(rng):
    """A shuffled batch over every regime of the pair choice: finite rows
    of |r| 1e-3 .. 1e3, rows at 1e49 .. 1e100 and beyond the scaled-pair
    limit (+-1e300, 1e150), infinite rows, pi-encoded rows and signed zeros."""
    rows = [
        random_gibbs(rng, 150, 1e-3, 1e3),
        [[1e300, -2e299, 5e298], [-1e300, 0.0, 1.0], [3e150, 1e-3, -2e149]],
        # on either side of the pair limit (1e50) and near 1e100
        [[1e49, -2e48, 3.0], [1e50, 1.0, -1e49], [-1e99, 5e98, 0.0], [1e100, 0.0, -1e100]],
        [[np.inf, 0.0, -np.inf], [0.0, -np.inf, 0.0], [np.inf, 1.0, 2.0]],
        pi_encode(random_units(rng, 10)),
        -pi_encode(random_units(rng, 5)),
        [[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0], [-0.0, -0.0, -0.0]],
    ]
    r = np.concatenate([np.asarray(x, dtype=float) for x in rows])
    return r[rng.permutation(len(r))]


def test_rotate_vector_matches_matrix_action():
    rng = np.random.default_rng(11)
    r = random_gibbs(rng, 1_000, 1e-3, 1e2)
    v = rng.normal(size=(1_000, 3))
    want = np.einsum("nij,nj->ni", gibbs_to_matrix(r), v)
    assert np.abs(rotate_vector(r, v) - want).max() < 1e-12 * np.abs(v).max()
    # row by row, relative to |s|, in every regime of the pair choice
    r = mixed_rows(rng)
    v = rng.normal(size=r.shape)
    want = np.einsum("nij,nj->ni", gibbs_to_matrix(r), v)
    err = np.linalg.norm(rotate_vector(r, v) - want, axis=-1)
    assert (err <= 1e-12 * np.linalg.norm(v, axis=-1)).all()


def test_rotate_vector_broadcasts():
    rng = np.random.default_rng(12)
    r = random_gibbs(rng, 4, 0.1, 2.0)
    v = rng.normal(size=3)
    out = rotate_vector(r, v)
    assert out.shape == (4, 3)
    for i in range(4):
        assert np.allclose(out[i], rotate_vector(r[i], v))


def test_batch_rows_equal_single_row_calls_byte_for_byte():
    # one huge row used to switch the whole batch to the scaled pair
    rng = np.random.default_rng(40)
    r = mixed_rows(rng)
    s = rng.normal(size=r.shape)
    s[::7] *= -0.0
    u = gibbs_to_matrix(r)
    out = rotate_vector(r, s)
    for i in range(len(r)):
        assert u[i].tobytes() == gibbs_to_matrix(r[i]).tobytes(), i
        assert out[i].tobytes() == rotate_vector(r[i], s[i]).tobytes(), i
    # r (n, 3) against one s (3,)
    out = rotate_vector(r, s[1])
    assert out.shape == r.shape
    for i in range(len(r)):
        assert out[i].tobytes() == rotate_vector(r[i], s[1]).tobytes(), i
    # two batch axes: r (k, 1, 3) against s (1, m, 3), and r as a (2, k/2) batch
    assert_outer_rows_equal_single_calls(rotate_vector, r, s[:3])
    assert gibbs_to_matrix(r.reshape(2, -1, 3)).tobytes() == u.tobytes()


def assert_outer_rows_equal_single_calls(op, r, s):
    """``op(r[:, None], s[None])`` row by row against ``op(r[i], s[j])``."""
    out = op(r[:, None], s[None])
    assert out.shape == (len(r), len(s), 3)
    for i in range(len(r)):
        for j in range(len(s)):
            assert out[i, j].tobytes() == op(r[i], s[j]).tobytes(), (i, j)


def test_public_ops_leave_read_only_inputs_unchanged():
    # the pair choice rewrites huge and half-turn rows of a private copy;
    # the caller's arrays, read-only here, come back bit for bit
    rng = np.random.default_rng(41)
    r = mixed_rows(rng)
    s = rng.normal(size=r.shape)
    before = r.tobytes(), s.tobytes()
    big = np.flatnonzero(np.abs(r).max(axis=-1) >= 1e50)
    assert len(big) >= 20
    for a in (r, s):
        a.setflags(write=False)
    for x, y in [(r, s), (r[:, None], s[None, :4]), *((r[i], s[i]) for i in big)]:
        gibbs_to_matrix(x)
        rotate_vector(x, y)
        compose(x, y)
        compose(y, x)
        is_pi_encoded(x)
    assert (r.tobytes(), s.tobytes()) == before


def near_half_turn_matrices(rng):
    """A shuffled batch of rotation matrices over every pivot row: finite
    turns, noisy near-half-turns (theta = pi - d, d down to 1e-12, plus
    1e-11 noise per entry), exact half turns, the pivot ties of the half
    turn about (1, 1, 0)/sqrt(2) (x and y diagonals equal) and of
    diag(1, -1, -1), and the identity."""
    axes = random_units(rng, 60)
    finite = gibbs_to_matrix(random_gibbs(rng, 40, 1e-3, 1e3))
    noisy = np.array([
        matrix_about(u, np.pi - d) for u, d in zip(axes[:10], 10.0 ** rng.uniform(-12, -3, 10))
    ]) + 1e-11 * rng.normal(size=(10, 3, 3))
    exact = 2.0 * axes[10:, :, None] * axes[10:, None, :] - np.eye(3)
    u = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    ties = np.array([2.0 * np.outer(u, u) - np.eye(3), np.diag([1.0, -1.0, -1.0]), np.eye(3)])
    m = np.concatenate([finite, noisy, exact, ties])
    return m[rng.permutation(len(m))]


def test_matrix_to_gibbs_batch_rows_equal_single_calls_byte_for_byte():
    rng = np.random.default_rng(45)
    m = near_half_turn_matrices(rng)
    assert is_rotation_matrix(m)
    out = matrix_to_gibbs(m)
    assert is_pi_encoded(out).sum() >= 50
    for i in range(len(m)):
        assert out[i].tobytes() == matrix_to_gibbs(m[i]).tobytes(), i
    # a (2, k) batch shape gives the same rows
    k = len(m) // 2
    assert matrix_to_gibbs(m[: 2 * k].reshape(2, k, 3, 3)).tobytes() == out[: 2 * k].tobytes()


def test_pivot_choice_is_the_lowest_index_argmax_of_the_table():
    # small-integer "matrices" make ties between the diagonal entries
    # common; the choice must match a full-table argmax, ties to the
    # lowest index, and gather that row
    rng = np.random.default_rng(46)
    cols = rng.integers(-1, 2, size=(9, 4000)).astype(float)
    table = _pivot_table(cols)
    diag = np.stack([table[k, k] for k in range(4)])
    want = table[diag.argmax(axis=0), :, np.arange(cols.shape[1])].T
    got = _pivot_row(cols)
    assert got.tobytes() == want.tobytes()
    ties = (diag == diag.max(axis=0)).sum(axis=0) > 1
    assert ties.sum() > 1000
    # the same choice on the pivot ties of real rotations
    m = near_half_turn_matrices(np.random.default_rng(47))
    cols = m.reshape(-1, 9).T.copy()
    table = _pivot_table(cols)
    diag = np.stack([table[k, k] for k in range(4)])
    want = table[diag.argmax(axis=0), :, np.arange(len(m))].T
    assert _pivot_row(cols).tobytes() == want.tobytes()


def test_compose_batch_rows_equal_single_calls_byte_for_byte():
    rng = np.random.default_rng(48)
    r = mixed_rows(rng)
    s = mixed_rows(rng)
    # half turns composed with the identity, either side, come back encoded
    r[:4], s[:4] = pi_encode(random_units(rng, 4)), -0.0
    r[4:8], s[4:8] = 0.0, -pi_encode(random_units(rng, 4))
    out = compose(r, s)
    assert is_pi_encoded(out).any()
    for i in range(len(r)):
        assert out[i].tobytes() == compose(r[i], s[i]).tobytes(), i
    # one operand broadcast against the batch
    out = compose(r, s[3])
    for i in range(len(r)):
        assert out[i].tobytes() == compose(r[i], s[3]).tobytes(), i
    # two batch axes, the half-turn and huge rows on either side
    assert_outer_rows_equal_single_calls(compose, r, s[2:6])
    assert_outer_rows_equal_single_calls(compose, s[2:6], r)


def test_align_pair_batch_rows_equal_single_calls_byte_for_byte():
    # pairs carried by rotations from every regime of mixed_rows (huge,
    # infinite and pi-encoded rows, signed zeros), plus rows where pair 1,
    # pair 2 or both are fixed
    rng = np.random.default_rng(49)
    r = mixed_rows(rng)
    n = len(r)
    p1 = rng.normal(size=(n, 3))
    p2 = rng.normal(size=(n, 3))
    p1[::9, 1] = -0.0
    p2[::11, 2] = 0.0
    r[:4], r[4:8], r[8:12] = 0.3 * p1[:4], -2.0 * p2[4:8], 0.0
    q1 = rotate_vector(r, p1)
    q2 = rotate_vector(r, p2)
    # pair 1 must not be antipodal
    keep = np.sum(q1 * p1, axis=-1) > -0.9 * np.sum(p1 * p1, axis=-1)
    assert keep[:12].all()
    p1, q1, p2, q2 = p1[keep], q1[keep], p2[keep], q2[keep]
    out = align_pair(p1, q1, p2, q2)
    assert is_pi_encoded(out).any() and (out[8:12] == 0.0).all()
    for i in range(len(out)):
        assert out[i].tobytes() == align_pair(p1[i], q1[i], p2[i], q2[i]).tobytes(), i
    # the same rows on two batch axes
    m = len(out) - len(out) % 2
    grid = align_pair(*(x[:m].reshape(2, m // 2, 3) for x in (p1, q1, p2, q2)))
    assert grid.shape == (2, m // 2, 3) and grid.tobytes() == out[:m].tobytes()


def test_rotate_vector_half_turns_are_the_exact_limit():
    rng = np.random.default_rng(43)
    axes = random_units(rng, 100)
    s = rng.normal(size=(100, 3))
    want = 2.0 * np.sum(axes * s, axis=-1, keepdims=True) * axes - s
    for enc in (pi_encode(axes), -pi_encode(axes)):
        got = rotate_vector(enc, s)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(s).max()
    inf = np.array([[np.inf, 0.0, 0.0], [np.inf, -np.inf, 0.0], [-np.inf, np.inf, np.inf]])
    axes = np.sign(inf) / np.linalg.norm(np.sign(inf), axis=-1, keepdims=True)
    want = 2.0 * np.sum(axes * s[:3], axis=-1, keepdims=True) * axes - s[:3]
    assert np.abs(rotate_vector(inf, s[:3]) - want).max() <= 1e-14 * np.abs(s[:3]).max()


def test_rotate_vector_outer_broadcast_and_empty_batch():
    rng = np.random.default_rng(44)
    r = mixed_rows(rng)[:20, None, :]
    s = rng.normal(size=(1, 30, 3))
    out = rotate_vector(r, s)
    assert out.shape == (20, 30, 3)
    for i in range(20):
        for j in range(30):
            assert out[i, j].tobytes() == rotate_vector(r[i, 0], s[0, j]).tobytes()
    assert rotate_vector(np.zeros((0, 3)), np.zeros((0, 3))).shape == (0, 3)
    assert rotate_vector(np.zeros((0, 3)), [1.0, 2.0, 3.0]).shape == (0, 3)


def test_rotate_vector_keeps_huge_vectors_finite():
    # no intermediate of the matrix-free action exceeds a few |s|
    rng = np.random.default_rng(45)
    r = mixed_rows(rng)
    s = rng.normal(size=r.shape)
    big = rotate_vector(r, 1e300 * s)
    assert np.isfinite(big).all()
    assert np.abs(big / 1e300 - rotate_vector(r, s)).max() <= 1e-14 * np.abs(s).max()


def test_invert_is_inverse():
    rng = np.random.default_rng(13)
    r = random_gibbs(rng, 1_000, 1e-3, 1e2)
    u = gibbs_to_matrix(r)
    uinv = gibbs_to_matrix(invert(r))
    assert np.abs(np.einsum("nij,nkj->nik", u, u) - np.eye(3)).max() < 1e-12  # sanity
    assert np.abs(np.einsum("nij,njk->nik", u, uinv) - np.eye(3)).max() < 1e-12


def test_invert_preserves_half_turns():
    enc = pi_encode([0.3, -0.4, 0.5])
    inv = invert(enc)
    assert is_pi_encoded(inv)
    assert np.allclose(gibbs_to_matrix(inv), gibbs_to_matrix(enc))


# --- the half-turn encoding ------------------------------------------------


def _threshold_norm_rows(rel):
    """Rows of |r| = T (1 + rel) along directions whose max-abs stays
    below T (T = PI_ENCODING_THRESHOLD)."""
    d = np.array([[1.0, 1.0, 1.0], [1.0, -2.0, 0.5], [0.0, 3.0, -4.0], [-1e-3, 1.0, 1.0]])
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    return d * (PI_ENCODING_THRESHOLD * (1.0 + rel))


T = PI_ENCODING_THRESHOLD
HALF_TURN_ROWS = {
    "norm-just-above-threshold": _threshold_norm_rows(1e-15),
    "norm-just-below-threshold": _threshold_norm_rows(-1e-15),
    "max-abs-at-threshold": [[T, 0.0, 0.0], [-T, 0.0, 0.0], [0.0, T, 1.0], [T, -T, T]],
    "infinite": [
        [np.inf, 0.0, 0.0], [-np.inf, 1.0, 2.0], [np.inf, -np.inf, 0.0], [1.0, 2.0, -np.inf],
    ],
    "pi-encoded": np.concatenate([
        pi_encode(random_units(np.random.default_rng(30), 4)),
        -pi_encode([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
    ]),
    "finite-near-1e307": [
        [1e307, 1e307, 1e307], [3e307, 3e307, 0.0], [3e307, 3.5e307, 0.0],
        [0.6 * T] * 3, [-0.5 * T, 0.5 * T, 0.5 * T], [0.5 * T, 0.5 * T, 0.0],
    ],
}


def exact_half_turn(row) -> bool:
    """The half-turn rule in exact arithmetic: |r| >= T, or some
    component is infinite."""
    if np.isinf(row).any():
        return True
    return sum(Fraction(float(x)) ** 2 for x in row) >= Fraction(PI_ENCODING_THRESHOLD) ** 2


@pytest.mark.parametrize("kind", HALF_TURN_ROWS)
def test_one_half_turn_rule_for_the_predicate_cayley_and_cli(kind, capsys):
    rows = np.asarray(HALF_TURN_ROWS[kind], dtype=float)
    want = [exact_half_turn(r) for r in rows]
    if kind.startswith("norm-"):
        assert all(want) == kind.endswith("above-threshold")
        assert (np.abs(rows).max(axis=-1) < PI_ENCODING_THRESHOLD).all()
    assert is_pi_encoded(rows).tolist() == want
    for r, half in zip(rows, want):
        assert is_pi_encoded(r) is half
        if half:
            with pytest.raises(OutOfDomainError):
                skew_from_vector(r)
        else:
            skew_from_vector(r)
        value = ",".join(repr(float(x)) for x in r)
        assert main(["convert", "--from", "gibbs", "--to", "gibbs", "--value", value]) == 0
        assert capsys.readouterr().out.startswith("pi-rotation axis=") is half


def test_pi_encode_magnitude_and_direction():
    enc = pi_encode([0.0, 0.0, 2.0])
    assert enc.tolist() == [0.0, 0.0, PI_ENCODING_MAGNITUDE]
    assert is_pi_encoded(enc)
    assert not is_pi_encoded([0.0, 0.0, 1.0])


def test_pi_encoding_threshold_boundary():
    below = np.array([PI_ENCODING_THRESHOLD * 0.999, 0.0, 0.0])
    at = np.array([PI_ENCODING_THRESHOLD, 0.0, 0.0])
    assert not is_pi_encoded(below)
    assert is_pi_encoded(at)
    # the finite side still produces a near-half-turn matrix
    u = gibbs_to_matrix(below)
    assert np.abs(u - np.diag([1.0, -1.0, -1.0])).max() < 1e-12


def test_pi_encoded_matrix_is_exact_half_turn():
    rng = np.random.default_rng(14)
    axes = random_units(rng, 100)
    u = gibbs_to_matrix(pi_encode(axes))
    want = 2.0 * np.einsum("ni,nj->nij", axes, axes) - np.eye(3)
    assert np.abs(u - want).max() < 1e-14


def test_half_turn_matrices_extract_to_encoding():
    rng = np.random.default_rng(15)
    axes = random_units(rng, 100)
    u = 2.0 * np.einsum("ni,nj->nij", axes, axes) - np.eye(3)
    r = matrix_to_gibbs(u)
    assert is_pi_encoded(r).all()
    assert np.abs(gibbs_to_matrix(r) - u).max() <= 1e-6


def test_infinite_components_count_as_half_turns():
    assert is_pi_encoded([np.inf, 0.0, 0.0])
    u = gibbs_to_matrix([np.inf, 0.0, 0.0])
    assert np.allclose(u, np.diag([1.0, -1.0, -1.0]))


def test_pi_encode_rejects_bad_axes():
    with pytest.raises(InvalidInputError):
        pi_encode([0.0, 0.0, 0.0])
    with pytest.raises(InvalidInputError):
        pi_encode([np.inf, 0.0, 0.0])


def ladder_matrices(rng, theta, n):
    axes = random_units(rng, n)
    return gibbs_to_matrix(axis_angle_to_gibbs(axes, np.full(n, theta)))


@pytest.mark.parametrize("d", [1e-3, 1e-4, 1e-5, 1e-9, 1e-10, 1e-12, 0.0])
def test_noisy_near_half_turns_round_trip(d):
    # theta = pi - d plus 1e-10 noise per entry: the validator accepts
    # every matrix, so extraction must return the rotation it was given
    rng = np.random.default_rng(61)
    u = ladder_matrices(rng, np.pi - d, 300)
    u += rng.uniform(-1e-10, 1e-10, size=u.shape)
    assert is_rotation_matrix(u)
    assert np.abs(gibbs_to_matrix(matrix_to_gibbs(u)) - u).max() <= 1e-8


def test_noisy_half_turn_about_z_is_not_the_identity():
    u = np.diag([-1.0, -1.0, 1.0]) + 1e-10
    assert is_rotation_matrix(u)
    r = matrix_to_gibbs(u)
    assert is_pi_encoded(r)
    assert np.abs(gibbs_to_matrix(r) - u).max() <= 1e-8


@pytest.mark.parametrize("tol, first", [(None, 7), (1e-9, 5)])
def test_pi_trace_tol_decides_the_encoded_ladder(tol, first):
    # exact matrices at theta = pi - 10^-k have 1 + trace = 10^-2k to
    # rounding; they come back pi-encoded exactly when that is at or
    # below pi_trace_tol.  The rung at 10^-2k == tol sits on the boundary
    # and is not pinned.
    kwargs = {} if tol is None else {"pi_trace_tol": tol}
    rng = np.random.default_rng(3)
    for k in range(1, 13):
        u = ladder_matrices(rng, np.pi - 10.0 ** (-k), 50)
        encoded = is_pi_encoded(matrix_to_gibbs(u, **kwargs))
        if k >= first:
            assert encoded.all(), k
        elif k < first - 1:
            assert not encoded.any(), k


def test_pi_trace_tol_past_four_encodes_every_row_without_overflow():
    # a tolerance of 4 or more already encodes every row; 1e308 / 4 times
    # the squared pivot row overflowed with a RuntimeWarning
    u = gibbs_to_matrix([[0.1, 0.2, 0.3], [0.0, -1e-3, 0.0], [3.0, -1.0, 2.0]])
    want = pi_encode([0.1, 0.2, 0.3])
    for tol in (4.0, 1e10, 1e308):
        with np.errstate(all="raise"):
            r = matrix_to_gibbs(u, pi_trace_tol=tol)
        assert is_pi_encoded(r).all()
        assert np.abs(r[0] - want).max() <= 1e-15 * PI_ENCODING_MAGNITUDE


# --- validation -------------------------------------------------------------


def test_nan_rejected():
    with pytest.raises(InvalidInputError):
        gibbs_to_matrix([np.nan, 0.0, 0.0])
    with pytest.raises(InvalidInputError):
        rotate_vector([np.nan, 0.0, 0.0], [1.0, 0.0, 0.0])


def test_wrong_shape_rejected():
    with pytest.raises(InvalidInputError):
        gibbs_to_matrix([1.0, 2.0])
    with pytest.raises(InvalidInputError):
        matrix_to_gibbs(np.eye(4))


def test_non_rotation_rejected_and_check_flag():
    m = np.eye(3)
    m[0, 0] = 1.5
    with pytest.raises(InvalidInputError) as exc:
        matrix_to_gibbs(m)
    assert exc.value.code == "NOT_ROTATION"
    # the unchecked variant extracts without complaint
    matrix_to_gibbs(m, check=False)
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(InvalidInputError):
        matrix_to_gibbs(reflection)


# Every tolerance bounds a check through core's one rule.  inf let the
# non-rotation diag(2, 1, 1) through (extracted as the identity), nan
# packed the identity as the zero skew matrix and let cayley_forward fail
# later as "not antisymmetric", nan and -1 for pi_trace_tol divided by
# zero, and a list raised Python's TypeError.
TOLERANCE_CALLS = {
    "is_rotation_matrix": ("tol", lambda t: is_rotation_matrix(np.diag([2.0, 1, 1]), tol=t)),
    "matrix_to_gibbs-ortho_tol": (
        "ortho_tol", lambda t: matrix_to_gibbs(np.diag([2.0, 1, 1]), ortho_tol=t)
    ),
    "matrix_to_gibbs-pi_trace_tol": (
        "pi_trace_tol", lambda t: matrix_to_gibbs(np.diag([1.0, -1, -1]), pi_trace_tol=t)
    ),
    "matrix_to_quaternion": (
        "ortho_tol", lambda t: gibbsrot.matrix_to_quaternion(np.diag([2.0, 1, 1]), ortho_tol=t)
    ),
    "matrix_to_euler": (
        "ortho_tol", lambda t: gibbsrot.matrix_to_euler(np.diag([2.0, 1, 1]), ortho_tol=t)
    ),
    "cayley_forward": ("tol", lambda t: gibbsrot.cayley_forward(np.diag([2.0, 1, 1]), tol=t)),
    "SkewMatrix.from_array": ("tol", lambda t: gibbsrot.SkewMatrix.from_array(np.eye(3), tol=t)),
}


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf, [1e-9, 1e-9]])
@pytest.mark.parametrize("name, call", TOLERANCE_CALLS.values(), ids=TOLERANCE_CALLS.keys())
def test_every_tolerance_must_be_a_finite_number_at_least_zero(name, call, tol):
    with pytest.raises(InvalidInputError, match=f"^{name} must be a finite number >= 0, got ") as exc:
        call(tol)
    assert exc.value.code == "INVALID_INPUT"


def test_zero_and_scalar_real_tolerances_are_accepted():
    assert is_rotation_matrix(np.eye(3), tol=0.0).ok
    assert is_rotation_matrix(np.eye(3), tol=np.float32(1e-6)).ok
    assert is_rotation_matrix(np.eye(3), tol=Fraction(1, 10**9)).ok
    u = np.diag([1.0, -1, -1])
    assert matrix_to_gibbs(u, ortho_tol=np.int64(0), pi_trace_tol=np.float64(0.0)).tolist() == [
        PI_ENCODING_MAGNITUDE, 0.0, 0.0
    ]


def test_is_rotation_matrix_report():
    chk = is_rotation_matrix(np.eye(3))
    assert chk.ok and bool(chk)
    assert chk.max_orthogonality_residual == 0.0
    assert chk.max_det_deviation == 0.0
    bad = is_rotation_matrix(np.diag([1.0, 1.0, -1.0]))
    assert not bad.ok and bad.max_det_deviation == 2.0


def test_empty_batch_passes_through():
    assert gibbs_to_matrix(np.zeros((0, 3))).shape == (0, 3, 3)
    assert matrix_to_gibbs(np.zeros((0, 3, 3)), check=False).shape == (0, 3)


def test_empty_batch_is_a_rotation_check_pass():
    chk = is_rotation_matrix(np.zeros((0, 3, 3)))
    assert chk.ok and bool(chk)
    assert chk.max_orthogonality_residual == 0.0
    assert chk.max_det_deviation == 0.0


def test_empty_batch_with_check_extracts_nothing():
    assert matrix_to_gibbs(np.zeros((0, 3, 3))).shape == (0, 3)
    assert matrix_to_gibbs(np.zeros((2, 0, 3, 3))).shape == (2, 0, 3)


def test_non_finite_matrix_and_vector_inputs_are_rejected():
    u = np.eye(3)
    u[1, 2] = np.inf
    with pytest.raises(InvalidInputError, match="matrix has non-finite entries"):
        is_rotation_matrix(u)
    with pytest.raises(InvalidInputError, match="s has non-finite components"):
        rotate_vector([0.1, 0.2, 0.3], [1.0, np.inf, 0.0])


@pytest.mark.parametrize("call", [
    lambda: gibbsrot.euler_to_matrix("abc"),
    lambda: gibbsrot.euler_to_matrix("a", "b", "c"),
    lambda: gibbsrot.axis_angle_to_gibbs([1.0, 0.0, 0.0], "x"),
    lambda: gibbsrot.cayley_forward("x"),
    lambda: gibbsrot.cayley_inverse("x"),
    lambda: gibbsrot.vector_from_skew("x"),
    lambda: gibbsrot.SkewMatrix(3, ["a", "b", "c"]),
    lambda: gibbsrot.compose_sequence([[1, 2, 3], [1, 2]]),
], ids=[
    "euler_to_matrix", "euler_to_matrix-3", "axis_angle_to_gibbs", "cayley_forward",
    "cayley_inverse", "vector_from_skew", "SkewMatrix", "compose_sequence",
])
def test_non_numeric_input_is_a_typed_error(call):
    # numpy's own conversion error used to escape from each of these
    with pytest.raises(InvalidInputError, match="is not numeric"):
        call()


@pytest.mark.parametrize("call, match", [
    (lambda: gibbsrot.align_line([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], np.inf),
     "gamma must be finite"),
    (lambda: gibbsrot.frame_transport([[[1.0, 0.0, 0.0], [0.0, np.nan, 0.0]]]),
     "frames have non-finite entries"),
    (lambda: gibbsrot.axis_angle_to_gibbs([1.0, 0.0, 0.0], -np.inf), "angle must be finite"),
    (lambda: gibbsrot.euler_to_matrix([0.1, np.nan, 0.2]), "angles must be finite"),
    (lambda: gibbsrot.euler_to_matrix(0.1, 0.2, np.inf), "angles must be finite"),
    (lambda: gibbsrot.euler_to_matrix([0.1, 0.2]),
     r"expected \[yaw, pitch, roll\] along the last axis, got \(2,\)"),
    (lambda: gibbsrot.SkewMatrix(3, [1.0, 2.0]),
     r"packed subdiagonal for n=3 must have shape \(3,\), got \(2,\)"),
    (lambda: gibbsrot.SkewMatrix(3, [1.0, np.nan, 2.0]), "skew coefficients contain NaN"),
], ids=[
    "align_line-gamma", "frame_transport", "axis_angle_to_gibbs", "euler_to_matrix",
    "euler_to_matrix-3", "euler_to_matrix-shape", "SkewMatrix-shape", "SkewMatrix-nan",
])
def test_non_finite_or_misshapen_input_is_a_typed_error(call, match):
    with pytest.raises(InvalidInputError, match=match):
        call()


def test_rotate_vector_rejects_non_broadcasting_shapes():
    # a raw numpy broadcasting error used to escape here
    with pytest.raises(InvalidInputError, match=r"r \(4, 3\), s \(5, 3\)"):
        rotate_vector(np.zeros((4, 3)), np.ones((5, 3)))
    with pytest.raises(InvalidInputError, match=r"r \(2, 4, 3\), s \(3, 1, 3\)"):
        rotate_vector(np.zeros((2, 4, 3)), np.ones((3, 1, 3)))
