"""Composition: quotient-rule formula vs matrix and quaternion oracles,
half-turn composites and operands, the sequence fold and the prefix
scan."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gibbsrot import (
    InvalidInputError,
    compose,
    compose_scan,
    compose_sequence,
    gibbs_to_matrix,
    gibbs_to_quaternion,
    invert,
    is_pi_encoded,
    matrix_to_gibbs,
    pi_encode,
    quaternion_multiply,
    quaternion_to_matrix,
)
from helpers import random_gibbs, random_units


def test_pinned_example():
    assert compose([1.0, 0, 0], [0, 1.0, 0]).tolist() == [1.0, 1.0, -1.0]


def test_matches_matrix_product():
    rng = np.random.default_rng(21)
    r = random_gibbs(rng, 50_000, 1e-6, 1e2)
    s = random_gibbs(rng, 50_000, 1e-6, 1e2)
    got = gibbs_to_matrix(compose(r, s))
    want = gibbs_to_matrix(r) @ gibbs_to_matrix(s)
    assert np.abs(got - want).max() <= 1e-10


def test_matches_quaternion_product():
    rng = np.random.default_rng(22)
    r = random_gibbs(rng, 50_000, 1e-6, 1e2)
    s = random_gibbs(rng, 50_000, 1e-6, 1e2)
    q = quaternion_multiply(gibbs_to_quaternion(s), gibbs_to_quaternion(r))
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    got = gibbs_to_matrix(compose(r, s))
    assert np.abs(quaternion_to_matrix(q) - got).max() <= 1e-10


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_associativity_through_matrices(seed):
    rng = np.random.default_rng(seed)
    r, s, t = random_gibbs(rng, 3, 1e-3, 1e2)
    left = gibbs_to_matrix(compose(compose(r, s), t))
    right = gibbs_to_matrix(compose(r, compose(s, t)))
    assert np.abs(left - right).max() <= 1e-9


def test_quarter_turns_compose_to_half_turn():
    out = compose([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert is_pi_encoded(out)
    assert np.allclose(gibbs_to_matrix(out), np.diag([1.0, -1.0, -1.0]))


def test_singular_dot_product_cases_encode():
    # r . s = 1 makes the quotient denominator vanish: the composite is a
    # half turn and must come back encoded, matching the matrix product
    rng = np.random.default_rng(23)
    for _ in range(50):
        r = random_units(rng, 1)[0] * rng.uniform(0.5, 2.0)
        v = rng.normal(size=3)
        v -= (v @ r) * r / (r @ r)
        s = r / (r @ r) + np.cross(v, r) / (r @ r)  # s . r == 1 exactly-ish
        s *= 1.0 / (s @ r)
        out = compose(r, s)
        assert is_pi_encoded(out)
        want = gibbs_to_matrix(r) @ gibbs_to_matrix(s)
        assert np.abs(gibbs_to_matrix(out) - want).max() <= 1e-9


def test_inverse_composes_to_identity():
    rng = np.random.default_rng(24)
    r = random_gibbs(rng, 1_000, 1e-3, 1e2)
    out = compose(r, invert(r))
    mags = np.linalg.norm(out, axis=-1)
    assert mags.max() <= 1e-9 * np.linalg.norm(r, axis=-1).max()


def test_half_turn_operands_use_matrix_route():
    rng = np.random.default_rng(25)
    axes = random_units(rng, 100)
    enc = pi_encode(axes)
    r = random_gibbs(rng, 100, 1e-2, 1e1)
    for a, b in [(enc, r), (r, enc)]:
        got = gibbs_to_matrix(compose(a, b))
        want = gibbs_to_matrix(a) @ gibbs_to_matrix(b)
        assert np.abs(got - want).max() <= 1e-9


def test_two_half_turns_compose():
    # two half turns make a rotation by twice the angle between the axes
    a = pi_encode([1.0, 0.0, 0.0])
    b = pi_encode([0.0, 1.0, 0.0])
    out = compose(a, b)
    assert np.allclose(gibbs_to_matrix(out), np.diag([-1.0, -1.0, 1.0]))


def test_opposite_half_turns_cancel():
    a = pi_encode([0.0, 0.0, 1.0])
    b = pi_encode([0.0, 0.0, -1.0])
    out = compose(a, b)
    assert np.allclose(out, 0.0)


def test_broadcasting():
    rng = np.random.default_rng(26)
    r = random_gibbs(rng, 8, 1e-2, 1e1)
    s = random_gibbs(rng, 1, 1e-2, 1e1)[0]
    out = compose(r, s)
    assert out.shape == (8, 3)
    for i in range(8):
        assert np.allclose(out[i], compose(r[i], s))


def test_compose_sequence_folds_right_to_left():
    rng = np.random.default_rng(27)
    chain = random_gibbs(rng, 5, 1e-2, 1e1)
    total = compose_sequence(chain)
    want = chain[0]
    for nxt in chain[1:]:
        want = compose(want, nxt)
    assert np.allclose(total, want)
    # the last element acts first on column vectors
    u = gibbs_to_matrix(total)
    prod = np.eye(3)
    for g in chain:
        prod = prod @ gibbs_to_matrix(g)
    assert np.abs(u - prod).max() <= 1e-12


def test_compose_sequence_edges():
    single = compose_sequence([[0.1, 0.2, 0.3]])
    assert np.allclose(single, [0.1, 0.2, 0.3])
    with pytest.raises(InvalidInputError):
        compose_sequence(np.zeros((0, 3)))
    with pytest.raises(InvalidInputError):
        compose([np.nan, 0, 0], [0.1, 0, 0])


def test_round_trip_through_matrix_extraction():
    rng = np.random.default_rng(28)
    r = random_gibbs(rng, 1_000, 1e-3, 1e2)
    s = random_gibbs(rng, 1_000, 1e-3, 1e2)
    direct = compose(r, s)
    via = matrix_to_gibbs(gibbs_to_matrix(r) @ gibbs_to_matrix(s))
    finite = ~is_pi_encoded(direct)
    scale = np.abs(direct[finite]).max(axis=-1)
    err = np.abs(direct[finite] - via[finite]).max(axis=-1) / scale
    assert err.max() <= 1e-9


def test_compose_rejects_non_broadcasting_shapes():
    # a raw numpy "shape mismatch" error used to escape here
    with pytest.raises(InvalidInputError, match=r"r \(4, 3\), s \(5, 3\)"):
        compose(np.zeros((4, 3)), np.zeros((5, 3)))


def test_compose_empty_batch():
    assert compose(np.zeros((0, 3)), np.zeros((0, 3))).shape == (0, 3)
    assert compose(np.zeros((0, 3)), [0.1, 0.2, 0.3]).shape == (0, 3)


def test_compose_at_extreme_finite_magnitudes():
    # operands just below the encoding threshold: nothing overflows and the
    # composite of two near half turns about x and y is the half turn about z
    r = np.array([[1e300, 0.0, 0.0], [0.0, 1e300, 0.0], [1e300, 1e-300, 0.0]])
    s = np.array([[0.0, 1e300, 0.0], [1e-300, 0.0, 1e300], [0.0, 0.5, 0.0]])
    out = compose(r, s)
    assert np.isfinite(out).all()
    assert is_pi_encoded(out[0]) and is_pi_encoded(out[1])
    want = gibbs_to_matrix(r) @ gibbs_to_matrix(s)
    assert np.abs(gibbs_to_matrix(out) - want).max() <= 1e-12


def test_compose_scan_empty_and_single():
    assert compose_scan(np.zeros((0, 3))).shape == (0, 3)
    assert np.allclose(compose_scan([[0.1, 0.2, 0.3]]), [[0.1, 0.2, 0.3]])
    with pytest.raises(InvalidInputError):
        compose_scan([0.1, 0.2, 0.3])  # one vector, not a sequence
    with pytest.raises(InvalidInputError):
        compose_scan([[np.nan, 0.0, 0.0]])


def test_compose_scan_order():
    # out[k] applies vectors[0] first and vectors[k] last
    rng = np.random.default_rng(31)
    chain = random_gibbs(rng, 7, 1e-2, 1e1)
    out = compose_scan(chain)
    prod = np.eye(3)
    for k, g in enumerate(chain):
        prod = gibbs_to_matrix(g) @ prod
        assert np.abs(gibbs_to_matrix(out[k]) - prod).max() <= 1e-12
    # the fold reads the other way round
    assert np.array_equal(compose_sequence(chain[::-1]), out[-1])


def _hard_chain(rng, n):
    """Random steps with pi-encoded steps, infinite components and
    near-ceiling magnitudes mixed in.  It opens with exact quarter turns
    whose prefixes 1 and 3 are exact half turns."""
    chain = random_gibbs(rng, n, 1e-3, 1e3)
    chain[:4] = [[1.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 1.0, 0]]
    picks = rng.permutation(np.arange(4, n))
    pi_rows, inf_rows, big_rows = picks[:40], picks[40:60], picks[60:70]
    chain[pi_rows] = pi_encode(random_units(rng, 40))
    inf = rng.normal(size=(20, 3))
    inf[:, 0] = np.where(rng.random(20) < 0.5, -np.inf, np.inf)
    inf[:10, 1] = np.inf
    chain[inf_rows] = inf
    chain[big_rows] = random_units(rng, 10) * 1e200
    return chain


def test_compose_scan_matches_sequential_fold():
    rng = np.random.default_rng(29)
    n = 10_000
    mid = n // 2
    chain = _hard_chain(rng, n)
    fold = np.empty((n, 3))
    fold[0] = chain[0]
    for k in range(1, n):
        if k == mid:
            # choose the step so the prefix lands on a half turn
            chain[k] = compose(pi_encode(random_units(rng, 1)[0]), invert(fold[k - 1]))
        fold[k] = compose(chain[k], fold[k - 1])
    scan = compose_scan(chain)
    for k in (1, 3, mid):
        assert is_pi_encoded(fold[k]) and is_pi_encoded(scan[k])
    assert np.abs(gibbs_to_matrix(scan) - gibbs_to_matrix(fold)).max() <= 1e-12


def test_compose_scan_closes_a_long_loop():
    # 1e5 steps out and the same steps inverted back
    rng = np.random.default_rng(30)
    steps = random_gibbs(rng, 100_000, 1e-4, 1e1)
    out = compose_scan(np.concatenate([steps, -steps[::-1]]))
    assert np.linalg.norm(out[-1]) <= 1e-12
    assert np.abs(gibbs_to_matrix(out[-1]) - np.eye(3)).max() <= 1e-12
