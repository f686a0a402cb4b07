"""Core conversions: gibbs <-> matrix, rotation action, the half-turn
encoding, and input validation."""

import math
import warnings
from contextlib import nullcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gibbsrot import (
    PI_ENCODING_MAGNITUDE,
    PI_ENCODING_THRESHOLD,
    TOL_ORTHO_OUTPUT,
    TOL_QUATERNION_NORM,
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
from gibbsrot.core import _pivot_row, _pivot_table, _rotate_by_pair
from helpers import (
    component_error,
    matrix_about,
    mixed_rows,
    pivot_pick_matrices,
    random_gibbs,
    random_units,
)


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
    # one huge row used to switch the whole batch to the scaled pair; one
    # row runs the kernels on Python floats, from an array, list or tuple
    rng = np.random.default_rng(40)
    r = mixed_rows(rng)
    s = rng.normal(size=r.shape)
    s[::7] *= -0.0
    s[1::9, 1] = 1e300
    u = gibbs_to_matrix(r)
    out = rotate_vector(r, s)
    for i in range(len(r)):
        for a, b in ((r[i], s[i]), (r[i].tolist(), s[i].tolist()), (tuple(r[i]), tuple(s[i]))):
            assert u[i].tobytes() == gibbs_to_matrix(a).tobytes(), i
            assert out[i].tobytes() == rotate_vector(a, b).tobytes(), i
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


def test_one_row_compose_landing_exactly_on_a_half_turn():
    # s = (h + r x h) / (r . h) makes compose(r, s) the half turn about h;
    # with r = x and h = x + y every quantity is exact and w = 0 exactly
    r, h = np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0])
    s = (h + np.cross(r, h)) / np.dot(r, h)
    assert s.tolist() == [1.0, 1.0, 1.0]
    one = compose(r, s)
    assert one.tobytes() == pi_encode(h).tobytes()
    assert one.tobytes() == compose(np.stack([r, -r]), np.stack([s, s]))[0].tobytes()
    # rounded landings from the benchmark's recipe come back encoded too
    rng = np.random.default_rng(51)
    r, h = rng.normal(size=(50, 3)), random_units(rng, 50)
    s = (h + np.cross(r, h)) / np.sum(r * h, axis=-1, keepdims=True)
    batch = compose(r, s)
    assert is_pi_encoded(batch).all()
    for i in range(50):
        assert compose(r[i], s[i]).tobytes() == batch[i].tobytes(), i


def raised(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the parity is the point
        return type(exc), str(exc), getattr(exc, "code", None)
    raise AssertionError("no error")


@pytest.mark.parametrize("bad, shape", [
    ([np.nan, 0.0, 1.0], None), ([0.0, -np.nan, np.inf], None),
    ([1.0, 2.0], (2,)), ([1.0, 2.0, 3.0, 4.0], (4,)),
])
def test_one_row_and_batch_raise_the_same_errors(bad, shape):
    # validation runs before the route: NaN components and wrong shapes
    # give one error, type, message and code, for one row or a batch
    good = [0.1, 0.2, 0.3]
    batch = np.stack([np.zeros_like(bad), bad])
    for call_one, call_batch in (
        (lambda: gibbs_to_matrix(bad), lambda: gibbs_to_matrix(batch)),
        (lambda: rotate_vector(bad, good), lambda: rotate_vector(batch, good)),
        (lambda: rotate_vector(good, bad), lambda: rotate_vector(good, batch)),
        (lambda: compose(bad, good), lambda: compose(batch, good)),
        (lambda: compose(good, bad), lambda: compose(good, batch)),
    ):
        one, many = raised(call_one), raised(call_batch)
        assert one[0] is many[0] is InvalidInputError and one[2] == many[2] == "INVALID_INPUT"
        if shape is None:
            assert one[1] == many[1] and one[1].endswith("contains NaN components")
        else:
            assert one[1].replace(str(shape), str((2,) + shape)) == many[1]


@pytest.mark.parametrize("bad", [[np.inf, 0.0, 1.0], [0.0, -np.inf, 0.0]])
def test_non_finite_s_is_one_error_for_one_row_and_a_batch(bad):
    batch = np.stack([np.ones(3), bad])
    for r in ([0.1, 0.2, 0.3], np.zeros((2, 3)), pi_encode([1.0, 0.0, 0.0])):
        assert raised(lambda: rotate_vector(r, bad)) == raised(lambda: rotate_vector(r, batch)) == (
            InvalidInputError, "s has non-finite components", "INVALID_INPUT"
        )


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


def pivot_choice(diag):
    """The pick's rule on the table's diagonals ``diag`` (4, n): the lowest
    index of the largest entry, inf included; with a NaN among the four,
    row 1 where d1 > d0, else row 0."""
    with np.errstate(invalid="ignore"):
        return np.where(np.isnan(diag).any(axis=0), diag[1] > diag[0], diag.argmax(axis=0))


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
    assert all(_pivot_row(c.tolist()) == w.tolist() for c, w in zip(cols.T, want.T))
    ties = (diag == diag.max(axis=0)).sum(axis=0) > 1
    assert ties.sum() > 1000
    # entries of +-inf and NaN give diagonals of +-inf (ties among them) and
    # NaN; columns and one matrix's floats pick the same row
    cols[rng.random(cols.shape) < 0.05] = np.nan
    cols[rng.random(cols.shape) < 0.05] = np.inf
    cols[rng.random(cols.shape) < 0.05] = -np.inf
    with np.errstate(invalid="ignore"):
        table = _pivot_table(cols)
        got = _pivot_row(cols)
    diag = np.stack([table[k, k] for k in range(4)])
    nan = np.isnan(diag)
    assert nan.any(axis=0).sum() > 500 and (nan[2:].any(axis=0) & ~nan[:2].any(axis=0)).sum() > 10
    assert ((diag == np.inf).sum(axis=0) > 1).sum() > 500
    want = table[pivot_choice(diag), :, np.arange(cols.shape[1])].T
    assert got.tobytes() == want.tobytes()
    for c, w in zip(cols.T, want.T):  # NaN as NaN, whatever its payload
        np.testing.assert_array_equal(_pivot_row(c.tolist()), w)
    # the same choice on the pivot ties of real rotations
    m = near_half_turn_matrices(np.random.default_rng(47))
    cols = m.reshape(-1, 9).T.copy()
    table = _pivot_table(cols)
    diag = np.stack([table[k, k] for k in range(4)])
    want = table[diag.argmax(axis=0), :, np.arange(len(m))].T
    assert _pivot_row(cols).tobytes() == want.tobytes()
    # one matrix's nine floats pick the same row
    for i in range(len(m)):
        assert _pivot_row(cols[:, i].tolist()) == want[:, i].tolist(), i


def one_matrix_cases():
    """The matrices of :func:`helpers.pivot_pick_matrices`, every kind in turn."""
    return np.concatenate(list(pivot_pick_matrices().values()))


ONE_MATRIX_CALLS = {
    "matrix_to_gibbs": matrix_to_gibbs,
    "matrix_to_gibbs-unchecked": lambda u: matrix_to_gibbs(u, check=False),
    "matrix_to_gibbs-pi_trace_tol": lambda u: matrix_to_gibbs(u, pi_trace_tol=4.0, ortho_tol=0.5),
    "matrix_to_gibbs-unchecked-pi_trace_tol": lambda u: matrix_to_gibbs(
        u, check=False, pi_trace_tol=1e300
    ),
    "matrix_to_quaternion": gibbsrot.matrix_to_quaternion,
    "matrix_to_quaternion-unchecked": lambda u: gibbsrot.matrix_to_quaternion(u, check=False),
    "matrix_to_euler": gibbsrot.matrix_to_euler,
    "matrix_to_euler-unchecked": lambda u: gibbsrot.matrix_to_euler(u, check=False),
    "is_rotation_matrix": is_rotation_matrix,
}


def matrix_outcome(call, quiet: bool):
    """The output's bytes (a report's fields, NaN as itself), or the
    error's type, message and code.  A warning is an error, unless
    ``quiet`` turns numpy's off: an unchecked extraction's batch raises
    them on huge and non-finite entries where one matrix's floats do not."""
    with warnings.catch_warnings(), np.errstate(all="ignore") if quiet else nullcontext():
        warnings.simplefilter("error")
        try:
            out = call()
        except InvalidInputError as exc:
            return type(exc), str(exc), exc.code
    if isinstance(out, gibbsrot.RotationCheck):
        return out.ok, repr(out.max_orthogonality_residual), repr(out.max_det_deviation)
    return [np.asarray(x).tobytes() for x in (out if isinstance(out, tuple) else [out])]


@pytest.mark.parametrize("name", ONE_MATRIX_CALLS)
def test_one_matrix_gives_the_bytes_of_its_batch_of_one(name):
    # one matrix runs the kernels on its nine Python floats, a batch on
    # component columns; both give the same bytes or the same error, and a
    # checked call's gate warns on neither
    call, quiet = ONE_MATRIX_CALLS[name], "unchecked" in name
    cases = one_matrix_cases()
    outcomes = [matrix_outcome(lambda: call(u), quiet) for u in cases]
    for i, u in enumerate(cases):
        assert outcomes[i] == matrix_outcome(lambda: call(u[None]), quiet), i
    assert sum(not isinstance(x[0], type) for x in outcomes) >= 7


@pytest.mark.parametrize("call", [
    matrix_to_gibbs, gibbsrot.matrix_to_quaternion, gibbsrot.matrix_to_euler, is_rotation_matrix,
])
def test_a_batch_of_huge_matrices_fails_the_gate_without_a_warning(call):
    # the gate's Gram and determinant products of 1e200 overflow; a batch
    # reports or raises what one matrix does, with no numpy warning
    u = np.full((3, 3), 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if call is is_rotation_matrix:
            assert repr(call(u[None])) == repr(call(u)) == (
                "RotationCheck(ok=False, max_orthogonality_residual=inf, max_det_deviation=nan)"
            )
            return
        for m in (u, u[None], np.stack([np.eye(3), u])):
            with pytest.raises(InvalidInputError, match="residual inf") as exc:
                call(m)
            assert exc.value.code == "NOT_ROTATION"


# a rotation whose pivot row, unscaled, squares past the float range
# from about 2**512 and whose pivot table overflows at 2**1023
PAST_RANGE = gibbs_to_matrix([57.82484923972174, 156.24322390419118, 15.088186110999954])


@pytest.mark.parametrize("call", [matrix_to_gibbs, gibbsrot.matrix_to_quaternion])
def test_unchecked_extraction_of_a_scaled_rotation_keeps_its_bytes(call):
    # the pivot table is homogeneous in (u, scale), so a matrix past the
    # squares' range is scaled first: a spurious half turn or a zero
    # quaternion from 2**512, NaN at 2**1023, had the bytes been unscaled
    want = call(PAST_RANGE * 2.0**100, check=False).tobytes()
    for k in range(100, 1024):
        u = PAST_RANGE * 2.0**k
        assert call(u, check=False).tobytes() == want, k
        assert call(u[None], check=False)[0].tobytes() == want, k


def test_unchecked_quaternions_of_finite_matrices_are_unit():
    cases = [u for u in one_matrix_cases() if np.isfinite(u).all()]
    cases += [np.full((3, 3), 1e308), np.full((3, 3), -1e308), np.eye(3) * 1e308]
    cases += [(1.0 - np.eye(3)) * 1e308]  # pivot row (scale, 0, 0, 0): its square must not underflow
    # the largest pivot row, |row|^2 = 21 m^2, on either side of m = 2**509
    cases += [np.array([[1.0, 1, 1], [-1, 1, 1], [-1, -1, 1]]) * np.nextafter(2.0**k, 0) for k in (509, 510)]
    cases += [PAST_RANGE * 2.0**k for k in range(500, 1024)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in cases:
            for q in (gibbsrot.matrix_to_quaternion(u, check=False),
                      gibbsrot.matrix_to_quaternion(u[None], check=False)[0]):
                assert abs(math.sqrt(np.sum(q * q)) - 1.0) <= TOL_QUATERNION_NORM, u


def test_a_nan_gram_entry_is_the_residual_of_one_matrix():
    # huge finite entries make a Gram entry inf - inf; numpy's max keeps the
    # NaN and Python's max drops it after an inf, which would report inf
    u = one_matrix_cases()[-3]
    chk = is_rotation_matrix(u)
    assert not chk.ok and math.isnan(chk.max_orthogonality_residual)
    with pytest.raises(InvalidInputError, match="orthogonality residual nan") as exc:
        matrix_to_gibbs(u)
    assert exc.value.code == "NOT_ROTATION"


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
        for a, b in ((r[i], s[i]), (r[i].tolist(), s[i].tolist()), (tuple(r[i]), tuple(s[i]))):
            assert out[i].tobytes() == compose(a, b).tobytes(), i
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
    # pair 2 or both are fixed, exactly or only within tol
    rng = np.random.default_rng(49)
    r = mixed_rows(rng)
    n = len(r)
    p1 = rng.normal(size=(n, 3))
    p2 = rng.normal(size=(n, 3))
    p1[::9, 1] = -0.0
    p2[::11, 2] = 0.0
    r[:4], r[4:8], r[8:12] = 0.3 * p1[:4], -2.0 * p2[4:8], 0.0
    r[12:16] = 1e-12 * rng.normal(size=(4, 3))
    q1 = rotate_vector(r, p1)
    q2 = rotate_vector(r, p2)
    # pair 1 must not be antipodal
    keep = np.sum(q1 * p1, axis=-1) > -0.9 * np.sum(p1 * p1, axis=-1)
    assert keep[:16].all()
    r, p1, q1, p2, q2 = r[keep], p1[keep], q1[keep], p2[keep], q2[keep]
    out = align_pair(p1, q1, p2, q2)
    assert is_pi_encoded(out).any() and (out[8:12] == 0.0).all()
    # within tol, not exactly fixed: the small rotation, not the identity
    assert ((q1 != p1) | (q2 != p2))[12:16].any(axis=-1).all()
    assert np.abs(out[12:16] - r[12:16]).max() < 1e-15
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


def rotate_outcome(r, s):
    """``rotate_vector(r, s)``'s bytes, or its error's type and message;
    warnings are errors, so a warning shows too."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return rotate_vector(r, s).tobytes()
        except (InvalidInputError, RuntimeWarning) as e:
            return type(e), str(e)


def test_rotate_vector_near_the_float_maximum_does_not_overflow():
    # one row came back [-1e308, -inf, 0] with no warning; the (1, 3)
    # batch raised RuntimeWarning: the kernel's intermediates reach 2|s|
    r, s = [0.0, 0.0, 1e60], [1e308, 0.0, 0.0]
    got = rotate_outcome(r, s)
    assert got == rotate_outcome([r], [s])
    assert np.frombuffer(got).tolist() == pytest.approx([-1e308, -2e248, 0.0], rel=1e-15)


def test_rotate_vector_past_the_float_range_is_a_typed_error_naming_the_row():
    # an eighth turn about z carries (1.5e308, 1.5e308, 0) to 2.1e308 on an axis
    r = [0.0, 0.0, math.sqrt(2.0) - 1.0]
    s = [[1e308, 0.0, 0.0], [1.5e308, 1.5e308, 0.0]]
    msg = "rotate_vector: s rotated at index {} is past the float range"
    assert rotate_outcome(r, s) == (InvalidInputError, msg.format(1))
    assert rotate_outcome(r, s[1]) == (InvalidInputError, msg.format(0))
    assert rotate_outcome([[0.0, 0.0, 0.0], r], s[1]) == (InvalidInputError, msg.format(1))
    assert rotate_outcome(r, [s[1], s[0]]) == (InvalidInputError, msg.format(0))
    assert np.isfinite(np.frombuffer(rotate_outcome(r, s[0]))).all()


FINITE_ROWS = [r for r in mixed_rows(np.random.default_rng(47)) if np.isfinite(r).all()]
S_MAX_ABS = st.sampled_from([
    PI_ENCODING_MAGNITUDE, 1e308, PI_ENCODING_THRESHOLD,
    float(np.nextafter(PI_ENCODING_THRESHOLD, 0.0)), 2.0**1021, 1e300, 1.0,
]) | st.floats(1e-300, PI_ENCODING_MAGNITUDE)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    i=st.integers(0, len(FINITE_ROWS) - 1),
    seed=st.integers(0, 2**32 - 1),
    m=S_MAX_ABS,
    spread=st.sampled_from([0.0, 0.0, 30.0, 400.0]),
)
def test_rotate_vector_up_to_the_float_maximum_is_the_exact_rotation(i, seed, m, spread):
    # s with max|s| = m and its other components down to 10**-spread of it;
    # compared with the exact rotation at the scale 2**-k of max|s|
    r = FINITE_ROWS[i]
    rng = np.random.default_rng(seed)
    s = rng.normal(size=3) * 10.0 ** -rng.uniform(0.0, spread, size=3)
    s = s / np.abs(s).max() * m
    one = rotate_outcome(r, s)
    assert one == rotate_outcome(r[None], s[None])
    want = _rotate_by_pair(1, [Fraction(x) for x in r], [Fraction(x) for x in s])
    top = max(map(abs, want)) / Fraction(PI_ENCODING_MAGNITUDE)
    if not isinstance(one, bytes):
        assert one[0] is InvalidInputError and "past the float range" in one[1]
        assert top > 1 - Fraction(1, 10**12)
        return
    assert top < 1 + Fraction(1, 10**12)
    got = np.frombuffer(one)
    assert np.isfinite(got).all()
    scale = Fraction(2) ** math.frexp(m)[1]
    err = max(abs(Fraction(g) - w) for g, w in zip(got.tolist(), want)) / scale
    assert err <= Fraction(1, 10**12)


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


def test_identity_at_a_pi_trace_tol_past_four_stays_zero():
    # past 4 every row is singular; the identity's pivot row (4 : 0) has
    # v = 0 and no half-turn axis, and was encoded as 0 / 0 = NaN
    rows = np.stack([np.eye(3), gibbs_to_matrix([0.1, 0.2, 0.3])])
    for tol in (4.0, 1e10, 1e308):
        with np.errstate(all="raise"):
            assert matrix_to_gibbs(np.eye(3), pi_trace_tol=tol).tolist() == [0.0, 0.0, 0.0]
            r = matrix_to_gibbs(rows, pi_trace_tol=tol)
        assert r[0].tolist() == [0.0, 0.0, 0.0]
        assert r[1].tobytes() == matrix_to_gibbs(rows[1], pi_trace_tol=tol).tobytes()
        assert is_pi_encoded(r[1])


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
