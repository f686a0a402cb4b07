"""The Cayley map: skew-matrix packing, any-size transforms, the 3D
equivalence with the rational paths, and singularity handling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gibbsrot import (
    InvalidInputError,
    OutOfDomainError,
    SingularCayleyError,
    SkewMatrix,
    cayley_forward,
    cayley_inverse,
    gibbs_to_matrix,
    matrix_to_gibbs,
    pi_encode,
    skew_from_vector,
    vector_from_skew,
)
from helpers import random_gibbs, random_units


def random_special_orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_skew_matrix_round_trip():
    a = np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 3.0], [2.0, -3.0, 0.0]])
    s = SkewMatrix.from_array(a)
    assert s.n == 3
    assert np.array_equal(s.to_array(), a)
    assert SkewMatrix.from_array(s.to_array()) == s
    # the dense form through numpy, equality with other types, repr
    f32 = np.asarray(s, dtype=np.float32)
    assert f32.dtype == np.float32 and np.array_equal(f32, a)
    assert s != 1.0 and s != "s"
    assert repr(s) == "SkewMatrix(n=3, packed=[-1.0, 2.0, -3.0])"
    assert eval(repr(s), {"SkewMatrix": SkewMatrix}) == s


def test_skew_matrix_symmetrizes_roundoff():
    a = np.array([[0.0, 1.0 + 1e-13], [-1.0, 0.0]])
    s = SkewMatrix.from_array(a)
    back = s.to_array()
    assert np.array_equal(back, -back.T)  # exactly antisymmetric


def test_skew_matrix_rejects_asymmetry_and_shape():
    with pytest.raises(InvalidInputError):
        SkewMatrix.from_array(np.eye(3))
    with pytest.raises(InvalidInputError):
        SkewMatrix.from_array(np.zeros((2, 3)))
    with pytest.raises(InvalidInputError):
        SkewMatrix.from_array(np.array([[0.0, np.inf], [-np.inf, 0.0]]))


# 0x0 input met numpy's raw "zero-size array to reduction operation"
# ValueError, and SkewMatrix(0, []) said shape (0,) must have shape (0,)
@pytest.mark.parametrize("call", [cayley_forward, cayley_inverse, SkewMatrix.from_array])
def test_empty_matrix_is_a_typed_error(call):
    with pytest.raises(InvalidInputError, match=r"^matrix must be at least 1x1, got shape \(0, 0\)$"):
        call(np.zeros((0, 0)))


def test_skew_matrix_needs_n_at_least_one():
    with pytest.raises(InvalidInputError, match="^n must be at least 1, got 0$"):
        SkewMatrix(0, [])
    assert cayley_forward([[1.0]]) == SkewMatrix(1, [])
    assert cayley_inverse(SkewMatrix(1, [])).tolist() == [[1.0]]


@pytest.mark.parametrize("n", [2.5, 2.0, "3", None, -1])
def test_skew_matrix_needs_an_integer_n(n):
    # SkewMatrix(2.5, [1.0]) used to pack as n=2
    with pytest.raises(InvalidInputError, match=r"^n must be (an integer|at least 1), got "):
        SkewMatrix(n, [1.0])
    assert SkewMatrix(np.int64(2), [1.0]) == SkewMatrix(2, [1.0])


def test_vector_packing_is_the_cross_product():
    # the 3D skew of r acts as v -> v x r
    rng = np.random.default_rng(31)
    r = rng.normal(size=3)
    v = rng.normal(size=3)
    e = skew_from_vector(r).to_array()
    assert np.allclose(e @ v, np.cross(v, r), atol=1e-15)
    assert np.allclose(vector_from_skew(skew_from_vector(r)), r)


def test_three_dimensional_oracle_equivalence():
    rng = np.random.default_rng(32)
    r = random_gibbs(rng, 10_000, 1e-6, 1e2)
    u = gibbs_to_matrix(r)
    for i in range(0, 10_000, 97):
        fast = u[i]
        via_cayley = cayley_inverse(skew_from_vector(r[i]))
        assert np.abs(via_cayley - fast).max() <= 1e-12
        back = vector_from_skew(cayley_forward(u[i]))
        scale = max(np.abs(r[i]).max(), 1.0)
        assert np.abs(back - matrix_to_gibbs(u[i])).max() <= 1e-10 * scale


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
def test_any_size_round_trip(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    s = SkewMatrix.from_array(a - a.T)
    u = cayley_inverse(s)
    assert np.abs(u @ u.T - np.eye(n)).max() < 1e-12
    assert abs(np.linalg.det(u) - 1.0) < 1e-12
    again = cayley_forward(u)
    assert np.abs(again.to_array() - s.to_array()).max() < 1e-10


def test_forward_accepts_any_size_rotation():
    rng = np.random.default_rng(33)
    for n in (2, 4, 5):
        u = random_special_orthogonal(rng, n)
        s = cayley_forward(u)
        assert s.n == n
        assert np.abs(cayley_inverse(s) - u).max() < 1e-10


def test_half_turn_is_singular():
    u = np.diag([-1.0, -1.0, 1.0])  # pi about z: U + I is rank deficient
    with pytest.raises(SingularCayleyError) as exc:
        cayley_forward(u)
    assert exc.value.code == "SINGULAR_CAYLEY"
    with pytest.raises(SingularCayleyError):
        cayley_forward(-np.eye(2))


def test_forward_rejects_non_rotation():
    with pytest.raises(InvalidInputError) as exc:
        cayley_forward(np.diag([1.0, 1.0, -1.0]))
    assert exc.value.code == "NOT_ROTATION"
    with pytest.raises(InvalidInputError):
        cayley_forward(np.eye(3) * 1.001)


def test_vector_bridge_domain():
    with pytest.raises(OutOfDomainError):
        skew_from_vector(pi_encode([0.0, 0.0, 1.0]))
    with pytest.raises(OutOfDomainError):
        vector_from_skew(SkewMatrix.from_array(np.zeros((4, 4))))
    with pytest.raises(InvalidInputError):
        skew_from_vector(np.zeros((2, 3)))  # single vectors only


def test_inverse_accepts_dense_antisymmetric_arrays():
    a = np.array([[0.0, 0.5], [-0.5, 0.0]])
    u = cayley_inverse(a)
    want = cayley_inverse(SkewMatrix.from_array(a))
    assert np.array_equal(u, want)
