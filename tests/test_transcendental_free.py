"""The finite-regime conversion and composition kernels must be pure
rational arithmetic: no square roots, no trigonometry, no norms.

Two enforcement layers: a source audit that walks the syntax tree of every
finite-path function and rejects calls to transcendental routines, and a
shadow run on ``fractions.Fraction`` inputs, where any sneaky float escape
would surface immediately and the algebraic identities must hold exactly.
"""

import ast
import inspect
from fractions import Fraction

import numpy as np
import pytest

import gibbsrot.algebra
import gibbsrot.core
from gibbsrot.algebra import _compose_direct
from gibbsrot.core import _gibbs_from_matrix_direct, _matrix_from_gibbs_direct

FORBIDDEN_CALLS = {
    "sqrt", "cbrt", "hypot", "norm",
    "sin", "cos", "tan", "sinh", "cosh", "tanh",
    "arcsin", "arccos", "arctan", "arctan2",
    "asin", "acos", "atan", "atan2",
    "exp", "expm1", "log", "log1p", "log2", "log10",
    "power", "float_power", "pow",
}

AUDITED = {
    gibbsrot.core: [
        "gibbs_to_matrix",
        "matrix_to_gibbs",
        "is_rotation_matrix",
        "_pi_mask",
        "_matrix_from_gibbs_direct",
        "_matrix_from_gibbs_scaled",
        "_matrix_from_gibbs_fused",
        "_gibbs_from_matrix_direct",
        "_gibbs_from_matrix_half_turn",
    ],
    gibbsrot.algebra: [
        "compose",
        "compose_scan",
        "compose_sequence",
        "_compose_direct",
        "_homogeneous",
        "_hamilton",
        "_dehomogenize",
    ],
}


def violations_in(func):
    """All transcendental calls / fractional powers in a function body."""
    tree = ast.parse(inspect.getsource(func))
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in FORBIDDEN_CALLS:
                bad.append(f"line {node.lineno}: call to {name}")
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            r = node.right
            if not (isinstance(r, ast.Constant) and isinstance(r.value, int)):
                bad.append(f"line {node.lineno}: non-integer power")
    return bad


def test_finite_regime_functions_are_rational_arithmetic():
    offenders = {}
    for module, names in AUDITED.items():
        for name in names:
            func = getattr(module, name)
            found = violations_in(func)
            if found:
                offenders[f"{module.__name__}.{name}"] = found
    assert not offenders, f"transcendental operations in rational kernels: {offenders}"


def test_audited_names_still_exist():
    # guards the audit itself against silent refactors
    for module, names in AUDITED.items():
        for name in names:
            assert callable(getattr(module, name))


# --- exact-arithmetic shadow run ---------------------------------------------


def rational_vectors(count, seed):
    rng = np.random.default_rng(seed)
    num = rng.integers(-9, 10, size=(count, 3))
    den = rng.integers(1, 10, size=(count, 3))
    out = np.empty((count, 3), dtype=object)
    for i in range(count):
        for j in range(3):
            out[i, j] = Fraction(int(num[i, j]), int(den[i, j]))
    return out


def frac_eye():
    eye = np.empty((3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            eye[i, j] = Fraction(1 if i == j else 0)
    return eye


def test_exact_matrices_from_rational_vectors():
    r = rational_vectors(100, 42)
    m = _matrix_from_gibbs_direct(r)
    assert m.shape == (100, 3, 3)
    assert all(type(v) is Fraction for v in m.flat)
    # exactly orthogonal with exactly unit determinant, as fractions
    prod = np.matmul(m, np.swapaxes(m, -1, -2))
    eye = frac_eye()
    assert (prod == eye).all()
    det = (
        m[:, 0, 0] * (m[:, 1, 1] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 1])
        - m[:, 0, 1] * (m[:, 1, 0] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 0])
        + m[:, 0, 2] * (m[:, 1, 0] * m[:, 2, 1] - m[:, 1, 1] * m[:, 2, 0])
    )
    assert all(d == Fraction(1) for d in det)


def test_exact_round_trip_on_rational_vectors():
    r = rational_vectors(100, 7)
    back = _gibbs_from_matrix_direct(_matrix_from_gibbs_direct(r))
    assert all(type(v) is Fraction for v in back.flat)
    assert (back == r).all()


def test_exact_composition_matches_exact_matrix_product():
    r = rational_vectors(100, 3)
    s = rational_vectors(100, 4)
    dot = (r * s).sum(axis=-1)
    keep = np.array([d != 1 for d in dot])  # composite would be a half turn
    r, s = r[keep], s[keep]
    assert keep.sum() >= 95
    t = _compose_direct(r, s)
    lhs = _matrix_from_gibbs_direct(t)
    rhs = np.matmul(_matrix_from_gibbs_direct(r), _matrix_from_gibbs_direct(s))
    assert all(type(v) is Fraction for v in lhs.flat)
    assert (lhs == rhs).all()


def test_exact_extraction_of_exact_product():
    r = rational_vectors(60, 11)
    s = rational_vectors(60, 12)
    dot = (r * s).sum(axis=-1)
    keep = np.array([d != 1 for d in dot])
    r, s = r[keep], s[keep]
    prod = np.matmul(_matrix_from_gibbs_direct(r), _matrix_from_gibbs_direct(s))
    assert (_gibbs_from_matrix_direct(prod) == _compose_direct(r, s)).all()


def test_floats_never_contaminate_the_fraction_path():
    r = rational_vectors(5, 0)
    m = _matrix_from_gibbs_direct(r)
    total = sum(v for v in m.flat) + sum(v for v in _gibbs_from_matrix_direct(m).flat)
    assert type(total) is Fraction


def test_public_float_paths_match_the_direct_kernel():
    # the production float kernels agree with the literal rational map
    rng = np.random.default_rng(19)
    rf = rng.uniform(-3.0, 3.0, size=(500, 3))
    robj = np.empty_like(rf, dtype=object)
    for i in range(rf.shape[0]):
        for j in range(3):
            robj[i, j] = Fraction(rf[i, j])  # exact binary fraction
    exact = _matrix_from_gibbs_direct(robj).astype(float)
    got = gibbsrot.core.gibbs_to_matrix(rf)
    assert np.abs(got - exact).max() < 5e-16


def test_direct_kernel_rejects_nothing_it_should_accept():
    with pytest.raises(TypeError):
        # sanity: Fractions refuse silent mixing with float-only ufuncs
        np.sqrt(np.array([Fraction(1, 2)], dtype=object))
