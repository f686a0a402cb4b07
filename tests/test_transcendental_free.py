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
import gibbsrot.alignment
import gibbsrot.bridges
import gibbsrot.core
from gibbsrot.algebra import _compose_direct, _hamilton
from gibbsrot.alignment import _line, _pair_pivot_row, _reflection_pairs
from gibbsrot.core import (
    _columns,
    _dehomogenize,
    _matrix_from_pair,
    _gibbs_from_matrix_direct,
    _matrix_from_gibbs_direct,
    _pivot_row,
    _quotient_rows,
    _rotate_by_pair,
    _rotation_residuals,
)

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
        "_homogeneous",
        "_dehomogenize",
        "_matrix_from_pair",
        "_matrix_from_gibbs_direct",
        "_columns",
        "_rotation_residuals",
        "_residuals",
        "_rotation_columns",
        "_pivot_table",
        "_pivot_row",
        "_gibbs_from_matrix_direct",
        "_inner",
        "_dot",
        "_cross",
        "_max_abs",
        "_pow2_scale",
        "rotate_vector",
        "_rotate_by_pair",
        "_row_pairs",
        "_unpack",
        "_quotient_rows",
        "pi_encode",
        "_encode_half_turns",
    ],
    gibbsrot.algebra: [
        "compose",
        "compose_scan",
        "compose_sequence",
        "_compose_direct",
        "_hamilton",
    ],
    gibbsrot.alignment: [
        "align_pair_unchecked",
        "_pair_pivot_row",
        "_in_range",
        "_line",
        "_member",
        "_gamma_member",
        "_solve_off_gamma",
        "_reflection_pairs",
    ],
    gibbsrot.bridges: [
        "quaternion_multiply",
        "quaternion_to_matrix",
        "_canonical_signs",
        "_norm_sq",
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


def test_exact_extraction_through_every_pivot_row():
    # a component beyond 1 in magnitude means that component of the
    # quaternion outweighs w, so the pivot is the x, y or z row, not w
    r = rational_vectors(200, 23)
    big = np.array([max(abs(c) for c in row) > 1 for row in r])
    r = r[big]
    pivots = {int(np.argmax([abs(c) for c in row])) for row in r}
    assert len(r) >= 100 and pivots == {0, 1, 2}
    row = _pivot_row(_columns(_matrix_from_gibbs_direct(r), 2))
    assert all(type(v) is Fraction for v in row.flat)
    assert (row[1:] / row[0] == r.T).all()


def test_exact_column_kernels_on_a_single_matrix():
    # one matrix unpacks into scalar columns, or into a list of its nine
    # numbers as one matrix's route takes it; the kernels stay exact and
    # give the batched row, the gate finds no residual and the divide the
    # Gibbs row
    r = rational_vectors(30, 29)
    m = _matrix_from_gibbs_direct(r)
    rows = _pivot_row(_columns(m, 2))
    back = _gibbs_from_matrix_direct(m)
    for i in range(len(r)):
        one = _pivot_row(_columns(m[i], 2))
        assert one.shape == (4,) and all(type(v) is Fraction for v in one)
        assert (one == rows[:, i]).all()
        nine = m[i].ravel().tolist()
        row = _pivot_row(nine)
        assert type(row) is list and all(type(v) is Fraction for v in row)
        assert row == rows[:, i].tolist()
        assert _rotation_residuals(nine) == (0, 0)
        gibbs = _dehomogenize(row[0], row[1:], 0)
        assert all(type(v) is Fraction for v in gibbs) and (gibbs == r[i]).all()
        assert (_gibbs_from_matrix_direct(m[i]) == back[i]).all()
        assert (_matrix_from_gibbs_direct(r[i]) == m[i]).all()


def test_exact_rotation_by_pair_matches_exact_matrix_action():
    # the matrix-free action is the matrix kernel's U applied to s, exactly
    r = rational_vectors(100, 31)
    s = rational_vectors(100, 32)
    got = _rotate_by_pair(1, r.T, s.T)
    want = np.matmul(_matrix_from_gibbs_direct(r), s[..., None])[..., 0]
    assert all(type(v) is Fraction for v in got.flat)
    assert (got == want).all()


def test_exact_kernels_on_plain_tuples_of_fractions():
    # the one-row route's number type: a row given as a tuple of Fractions
    # runs the kernels on the numbers themselves, stays exact and gives the
    # object-array batch row
    r = rational_vectors(60, 53)
    s = rational_vectors(60, 54)
    keep = np.array([sum(a * b for a, b in zip(x, y)) != 1 for x, y in zip(r, s)])
    r, s = r[keep], s[keep]  # (w : v) = (0 : v) is a half turn, no quotient
    m, t = _matrix_from_gibbs_direct(r), _compose_direct(r, s)
    turned = _rotate_by_pair(1, r.T, s.T)
    for i in range(len(r)):
        ri, si = tuple(r[i]), tuple(s[i])
        w, v = _hamilton(1, ri, 1, si)
        for got, want in (
            (_matrix_from_gibbs_direct(ri), m[i]),
            (_matrix_from_pair(1, ri), m[i]),
            (_compose_direct(ri, si), t[i]),
            (_quotient_rows(v, w), t[i]),
            (_rotate_by_pair(1, ri, si), turned[i]),
        ):
            assert got.shape == want.shape and all(type(x) is Fraction for x in got.flat)
            assert (got == want).all(), i
    assert (np.matmul(m, s[..., None])[..., 0] == turned).all()


def test_exact_pair_alignment_through_the_pivot():
    # q = U(r) p exactly; the two-pair kernel recovers r exactly, through
    # every pivot row
    r = rational_vectors(200, 37)
    p1 = rational_vectors(200, 38)
    p2 = rational_vectors(200, 39)
    c = np.cross(p1, p2)
    keep = np.array([any(v != 0 for v in row) for row in c])  # p1, p2 not parallel
    r, p1, p2, c = r[keep], p1[keep], p2[keep], c[keep]
    assert len(r) >= 150
    u = _matrix_from_gibbs_direct(r)
    q1 = np.matmul(u, p1[..., None])[..., 0]
    q2 = np.matmul(u, p2[..., None])[..., 0]
    row = _pair_pivot_row(p1.T, q1.T, p2.T, q2.T, c.T, (c * c).sum(axis=1))
    assert all(type(v) is Fraction for v in row.flat)
    assert (row[1:] / row[0] == r.T).all()
    pivots = {int(np.argmax([abs(x) for x in (1, *v)])) for v in r}
    assert pivots == {0, 1, 2, 3}
    # r lies on pair 1's line: r den - q1 x p1 is a multiple of p1 + q1
    c, s, den = _line(p1.T, q1.T)
    off = np.cross((r.T * den - c).T, s.T)
    assert all(type(v) is Fraction for v in off.flat) and (off == 0).all()


def rational_unit_vectors(count, seed):
    """Unit vectors with rational components: signed permutations of
    Pythagorean quadruples a^2 + b^2 + c^2 = d^2."""
    quads = [(1, 2, 2, 3), (2, 3, 6, 7), (1, 4, 8, 9), (4, 4, 7, 9), (2, 6, 9, 11),
             (6, 6, 7, 11), (3, 4, 12, 13), (0, 3, 4, 5), (0, 0, 1, 1)]
    rng = np.random.default_rng(seed)
    out = np.empty((count, 3), dtype=object)
    for i in range(count):
        a, b, c, d = quads[rng.integers(len(quads))]
        signs = rng.choice([-1, 1], size=3)
        for j, k in enumerate(rng.permutation(3)):
            out[i, j] = Fraction(int(signs[j]) * (a, b, c)[k], d)
    return out


def reflection(a):
    """The exact reflection matrix I - 2 a a^T / (a . a)."""
    return frac_eye() - 2 * np.outer(a, a) / np.dot(a, a)


def test_exact_double_reflection_steps():
    # each step's pair is the rotation H_v2 H_v1, exactly, and carries the
    # tangent at its start onto the one at its end; v1 . v2 = 0 rows are
    # exact half turns (w = 0)
    x = rational_vectors(201, 43)
    t = rational_unit_vectors(201, 44)
    v1 = x[1:] - x[:-1]
    keep = np.array([any(c != 0 for c in row) for row in v1])
    w, v = _reflection_pairs(v1[keep].T, t[:-1][keep].T, t[1:][keep].T)
    assert keep.sum() >= 190
    assert all(type(c) is Fraction for c in (*w, *v.flat))
    u = _matrix_from_pair(w, v)
    for i, (a, p, q) in enumerate(zip(v1[keep], t[:-1][keep], t[1:][keep])):
        v2 = q - reflection(a) @ p
        if not any(c != 0 for c in v2):
            continue  # (0 : 0): the step is undefined
        assert (u[i] == reflection(v2) @ reflection(a)).all()
        assert (u[i] @ p == q).all()
    assert (w == 0).any()


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
