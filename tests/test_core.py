"""Core conversions: gibbs <-> matrix, rotation action, the half-turn
encoding, and input validation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gibbsrot import (
    PI_ENCODING_MAGNITUDE,
    PI_ENCODING_THRESHOLD,
    TOL_ORTHO_OUTPUT,
    InvalidInputError,
    gibbs_to_matrix,
    invert,
    is_pi_encoded,
    is_rotation_matrix,
    matrix_to_gibbs,
    pi_encode,
    rotate_vector,
)
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


def test_rotate_vector_matches_matrix_action():
    rng = np.random.default_rng(11)
    r = random_gibbs(rng, 1_000, 1e-3, 1e2)
    v = rng.normal(size=(1_000, 3))
    want = np.einsum("nij,nj->ni", gibbs_to_matrix(r), v)
    assert np.abs(rotate_vector(r, v) - want).max() < 1e-12 * np.abs(v).max()


def test_rotate_vector_broadcasts():
    rng = np.random.default_rng(12)
    r = random_gibbs(rng, 4, 0.1, 2.0)
    v = rng.normal(size=3)
    out = rotate_vector(r, v)
    assert out.shape == (4, 3)
    for i in range(4):
        assert np.allclose(out[i], rotate_vector(r[i], v))


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


def test_rotate_vector_rejects_non_broadcasting_shapes():
    # a raw numpy broadcasting error used to escape here
    with pytest.raises(InvalidInputError, match=r"r \(4, 3\), s \(5, 3\)"):
        rotate_vector(np.zeros((4, 3)), np.ones((5, 3)))
    with pytest.raises(InvalidInputError, match=r"r \(2, 4, 3\), s \(3, 1, 3\)"):
        rotate_vector(np.zeros((2, 4, 3)), np.ones((3, 1, 3)))
