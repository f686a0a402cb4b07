"""Composition: quotient-rule formula vs matrix and quaternion oracles,
half-turn composites and operands, the sequence fold and the prefix
scan."""

from fractions import Fraction

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
from gibbsrot.algebra import TOL_COMPOSE_SINGULAR, _compose_direct, _hamilton
from gibbsrot.core import _PAIR_LIMIT, _columns, _dehomogenize, _homogeneous, _row_pairs
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
    assert np.array_equal(compose_sequence([0.1, 0.2, 0.3]), single)  # a bare 3-vector
    for empty in (np.zeros((0, 3)), []):
        with pytest.raises(InvalidInputError, match="cannot compose an empty sequence"):
            compose_sequence(empty)
    # the error names the shape the caller passed, not one atleast_2d made
    for bad, shape in ((5.0, r"\(\)"), ([1.0, 2.0], r"\(2,\)")):
        with pytest.raises(InvalidInputError, match=rf"got shape {shape}$"):
            compose_sequence(bad)
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


def scaled_pair_route(r, s):
    """compose with every operand row as its max-abs scaled pair
    (1/c, r/c), c = max(|r|_inf, 1)."""
    w1, v1 = _homogeneous(_columns(r, 1))
    w2, v2 = _homogeneous(_columns(s, 1))
    w, v = _hamilton(w1, v1, w2, v2)
    return _dehomogenize(w, v, TOL_COMPOSE_SINGULAR**2)


def test_compose_rows_within_unit_magnitude_equal_the_scaled_pair_route():
    # rows with |r|_inf, |s|_inf <= 1 have c = 1, so the (1, r) pair compose
    # uses is the scaled pair itself: the same bits, in batches with and
    # without rows past the pair limit
    rng = np.random.default_rng(31)
    r = rng.uniform(-1.0, 1.0, size=(3000, 3)) * 10.0 ** rng.integers(-300, 1, size=(3000, 1))
    s = rng.uniform(-1.0, 1.0, size=(3000, 3))
    r[::11] = [1.0, -0.0, -1.0]
    s[1::13] = [0.0, -0.0, 0.0]
    r[2::17] = s[2::17] * [-1.0, -1.0, 1.0]  # composites near half turns
    small = (np.abs(r).max(axis=-1) <= 1.0) & (np.abs(s).max(axis=-1) <= 1.0)
    big = r.copy()
    big[::5] = [3e60, -1.0, 0.5]
    big[1::7] = pi_encode([1.0, 2.0, -3.0])
    for a in (r, big):
        keep = small & (np.abs(a).max(axis=-1) <= 1.0)
        assert keep.sum() >= 2000
        got, want = compose(a, s), scaled_pair_route(a, s)
        assert got[keep].tobytes() == want[keep].tobytes()
        for k in np.flatnonzero(keep)[:20]:
            assert compose(a[k], s[k]).tobytes() == want[k].tobytes()


def test_kernels_on_one_row_of_python_floats_equal_the_column_rows():
    # the one-row route of compose: _row_pairs, _hamilton and _dehomogenize
    # on Python floats make the column code's decisions and write its bits,
    # at the pair limit, past it, on half turns and where every row is
    # singular (rel_sq = 1), the v = 0 pair included
    rng = np.random.default_rng(53)
    r = np.concatenate([
        random_gibbs(rng, 40, 1e-3, 1e3),
        [[_PAIR_LIMIT, 0.0, 0.0], [np.nextafter(_PAIR_LIMIT, 0.0), 1.0, -1.0]],
        [[1e300, -1.0, 0.0], [np.inf, 0.0, -0.0], [-0.0, 0.0, -0.0]],
        pi_encode(random_units(rng, 5)),
    ])
    s = r[rng.permutation(len(r))]
    s[:3] = -r[:3]  # composites (w : 0)
    w, v = _hamilton(*_row_pairs(_columns(r, 1)), *_row_pairs(_columns(s, 1)))
    for rel_sq in (TOL_COMPOSE_SINGULAR**2, 1.0):
        batch = _dehomogenize(w, v, rel_sq)
        for i in range(len(r)):
            pairs = _row_pairs(r[i].tolist()), _row_pairs(s[i].tolist())
            assert all(type(x) is float for wi, vi in pairs for x in (wi, *vi))
            wi, vi = _hamilton(*pairs[0], *pairs[1])
            assert np.float64(wi).tobytes() == w[i].tobytes(), i
            assert np.array(vi).tobytes() == np.array([c[i] for c in v]).tobytes(), i
            assert _dehomogenize(wi, vi, rel_sq).tobytes() == batch[i].tobytes(), i
        assert (batch[:3] == 0.0).all()


def exact_errors(got, r, s):
    """Per-row |got - exact|_inf / |exact|_inf against the exact rational
    composite of the float operands."""
    frac = np.vectorize(Fraction, otypes=[object])
    exact = _compose_direct(frac(r), frac(s))
    return np.array([
        max(abs(Fraction(float(g)) - e) for g, e in zip(got[i], exact[i])) / max(map(abs, exact[i]))
        for i in range(len(r))
    ])


def test_compose_errs_within_its_conditioning_of_the_exact_product():
    # The (1, r) pair rounds differently from the scaled pair, so either
    # route's worst row may be the other's best; both stay within one
    # rounding unit times the row's condition number: that of w = 1 - r.s
    # and of v = r + s - r x s against their roundoff.
    rng = np.random.default_rng(32)
    r = random_gibbs(rng, 800, 1e-3, 1e3)
    s = random_gibbs(rng, 800, 1e-3, 1e3)
    nr, ns = np.linalg.norm(r, axis=-1), np.linalg.norm(s, axis=-1)
    v = np.abs(r + s - np.cross(r, s)).max(axis=-1)
    kappa = (1.0 + nr * ns) / np.abs(1.0 - (r * s).sum(axis=-1)) + (nr + ns + nr * ns) / v
    eps = np.finfo(float).eps
    new, old = exact_errors(compose(r, s), r, s), exact_errors(scaled_pair_route(r, s), r, s)
    assert (old <= eps * kappa).all()
    assert (new <= eps * kappa).all()
    assert np.median(new) <= 1.1 * np.median(old) <= 2 * eps


def test_compose_scan_empty_and_single():
    for empty in (np.zeros((0, 3)), []):
        assert compose_scan(empty).shape == (0, 3)
    assert np.allclose(compose_scan([[0.1, 0.2, 0.3]]), [[0.1, 0.2, 0.3]])
    with pytest.raises(InvalidInputError):
        compose_scan([0.1, 0.2, 0.3])  # one vector, not a sequence
    with pytest.raises(InvalidInputError):
        compose_scan([[np.nan, 0.0, 0.0]])


def test_compose_scan_on_small_integer_steps_is_the_exact_fold_rounded_once():
    # the pairs of such steps stay short dyadic rationals, and each round
    # rescales them by a power of two, which is exact, so every prefix is
    # rounded once, in the final division (a rescale by a max-abs such as
    # 3 or 5 would round in every round)
    rng = np.random.default_rng(32)
    for _ in range(50):
        chain = rng.integers(-2, 3, size=(8, 3)).astype(float)
        w, v, want = Fraction(1), [Fraction(0)] * 3, []
        for r in ([Fraction(x) for x in row] for row in chain.tolist()):
            # the pair (1 : r) after (w : v), as compose(r, previous prefix)
            cross = [r[1] * v[2] - r[2] * v[1], r[2] * v[0] - r[0] * v[2],
                     r[0] * v[1] - r[1] * v[0]]
            w, v = w - sum(a * b for a, b in zip(r, v)), [
                w * a + b - c for a, b, c in zip(r, v, cross)]
            if w == 0:  # a half turn: compared up to it
                break
            want.append([float(x / w) for x in v])
        assert compose_scan(chain)[: len(want)].tolist() == want


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


def moderate_rows(rng, n):
    """Seeded Gibbs rows with 1 < |r|_inf < 1e11 and no subnormal
    component: rows whose (1, r) pair differs from the max-abs scaled
    pair, at magnitudes where a power-of-two rescale is exact."""
    r = random_gibbs(rng, 2 * n, 1.0, 1e11)
    m = np.abs(r).max(axis=-1)
    normal = ((r == 0.0) | (np.abs(r) >= np.finfo(float).tiny)).all(axis=-1)
    r = r[(1.0 < m) & (m < 1e11) & normal][:n]
    assert len(r) == n
    return r


def test_compose_sequence_of_one_row_is_the_row():
    # one pair rule: every row enters the scan as its (1, r) pair, as
    # compose takes it, so a prefix of one row divides r by 1
    for x in moderate_rows(np.random.default_rng(33), 500):
        assert compose_sequence([x]).tobytes() == x.tobytes()
        assert compose_scan([x])[0].tobytes() == x.tobytes()


def test_compose_scan_second_prefix_is_compose():
    # the first round is compose's Hamilton product on compose's pairs; its
    # power-of-two rescale is exact off the subnormals
    rng = np.random.default_rng(34)
    for x, y in zip(moderate_rows(rng, 500), moderate_rows(rng, 500)):
        want = compose(y, x)
        if ((want == 0.0) | (np.abs(want) >= np.finfo(float).tiny)).all():
            assert compose_scan([x, y])[1].tobytes() == want.tobytes()
            assert compose_sequence([y, x]).tobytes() == want.tobytes()


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
