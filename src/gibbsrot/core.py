"""Gibbs-vector core: the 3-vector encoding of rotations and the fast
vector <-> matrix conversions.

A rotation is stored as a plain 3-vector ``r`` parallel to the rotation
axis with ``|r| = tan(theta/2)``.  Half turns (theta = pi) have no finite
encoding; they are stored with the largest component at the float ceiling
and are detected by ``|r| >= PI_ENCODING_THRESHOLD`` or an infinite
component (the "pi-encoding regime"), in floating point: a row within a
few ulp of the threshold can fall either way, but every decider runs it.

Every conversion meets at the homogeneous pair ``(w : v)``, the
quaternion up to scale: the Gibbs vector is ``v / w`` and a half turn is
``w = 0``.  This module alone decides, row by row, whether a row is a
half turn and which pair it takes: ``(1, r)`` below ``_PAIR_LIMIT``,
else the max-abs scaled pair of :func:`_homogeneous`.
``gibbs_to_matrix`` runs one rational kernel on the pair, and
``rotate_vector`` applies the pair to the vector without forming a
matrix.  ``matrix_to_gibbs`` reads the pair off the largest row of
Shepperd's pivot table (Shepperd 1978, J. Guidance & Control 1(3)) and
divides once, encoding a half turn where ``w`` vanishes.  All three use
only addition, subtraction, multiplication and division: no square roots
and no trigonometric calls.  All operations accept single values or
stacked arrays (leading batch dimensions, numpy-style).

The batched kernels read each input component many times, so a public
call first unpacks its input once into contiguous component columns
(``_columns``: a ``(3,) + batch`` array for vectors, ``(9,) + batch`` for
matrices), runs the kernel's formula on those columns and writes its
output rows once.  Every kernel and row helper reads this one layout; a
caller holding rows passes a transposed view.  One row of the pair ops
and one matrix unpack instead into a list of Python floats (``_unpack``),
which the same kernels take with no numpy call per operation; each row
of a batch equals the call on that row alone, byte for byte.  Every
kernel hands its output columns, or one row's numbers, as a list to the
one row writer ``_quotient_rows``, which copies or divides them into
rows and alone decides between one row and a batch.  Inside a kernel
each intermediate is made by one out-of-place operation and every later
term is folded in with augmented assignment (``s = a * b; s += c * d``),
in the order of the written formula, so no pass allocates a fresh
batch-sized temporary it need not.

Convention
----------
``gibbs_to_matrix`` uses the classical rational form with the
antisymmetric term oriented so that one probe fixes the handedness::

    rotate_vector((1, 0, 0), (0, 1, 0)) == (0, 0, -1)

``U(r) @ v`` turns column vectors through ``-theta`` about ``r`` in the
right-hand-rule sense; equivalently, ``U(r)`` re-expresses coordinates in
a frame turned by ``+theta`` about ``r``.  Every module in the package is
consistent with this single choice.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "PI_ENCODING_MAGNITUDE",
    "PI_ENCODING_THRESHOLD",
    "TOL_ORTHO_INPUT",
    "TOL_ORTHO_OUTPUT",
    "TOL_PI_TRACE",
    "RotationCheck",
    "gibbs_to_matrix",
    "matrix_to_gibbs",
    "rotate_vector",
    "invert",
    "is_rotation_matrix",
    "is_pi_encoded",
    "pi_encode",
]

# Largest finite float64; half-turn encodings put their largest component here.
PI_ENCODING_MAGNITUDE = float(np.finfo(np.float64).max)

# |r| at or beyond a quarter of the float ceiling is read as a half turn.
# The margin keeps |r| computations for genuine encodings clear of overflow.
PI_ENCODING_THRESHOLD = PI_ENCODING_MAGNITUDE / 4.0

# Orthogonality / determinant tolerance when accepting matrices from outside
# (drifted inputs are tolerated) and the tighter bound our own outputs meet.
TOL_ORTHO_INPUT = 1e-9
TOL_ORTHO_OUTPUT = 1e-12

# A rotation matrix with 1 + trace at or below this is extracted as a half
# turn: the pivot row's w^2 is at most a quarter of it, relative to the row.
TOL_PI_TRACE = 1e-12

# ---------------------------------------------------------------------------
# row arithmetic on 3-vectors
#
# numpy's generic reductions over a length-3 axis cost several times the
# arithmetic they do, so 3-vectors are combined component by component.
# Each helper takes component columns (batch shapes broadcast), returns
# what the numpy call it replaces returns on the rows, bit for bit, and
# is exact on ``fractions.Fraction``.


def _inner(a, b):
    """:func:`_dot` without its trailing ``+ 0``, a pass over the batch:
    the same value, except that three -0 products give -0.  For squared
    norms, never -0, and for sums whose sign at zero reaches no result."""
    s = a[0] * b[0]
    s += a[1] * b[1]
    s += a[2] * b[2]
    return s


def _dot(a, b):
    """Dot products, ``np.sum(a * b, axis=-1)`` on the rows.

    Summed ``(x + y) + z`` as ``np.sum`` does; its sum starts from +0, so
    the trailing ``+ 0`` turns a sum of three -0 products into +0 too.
    """
    s = _inner(a, b)
    s += 0
    return s


def _cross(a, b):
    """Cross products with ``np.cross``'s formula, as component columns,
    or as a list for one row's numbers given as lists."""
    out = []
    for i, j in ((1, 2), (2, 0), (0, 1)):
        x = a[i] * b[j]
        x -= a[j] * b[i]
        out.append(x)
    return out if type(a) is list else np.array(out)


def _max_abs(a):
    """Largest |component|, ``np.abs(a).max(axis=-1)`` on the rows."""
    return np.maximum(np.maximum(np.abs(a[0]), np.abs(a[1])), np.abs(a[2]))


def _pow2_scale(x, e=None):
    """``x`` times ``2**-e``, and ``e``: by default per row the exponent of
    the max-abs of the component columns ``x`` (``(k,) + batch``; a flat
    array is one row), which that brings into [0.5, 1), 0 for a zero row.
    Exact in the normal range; past it inf, quietly, for the caller to test."""
    if e is None:
        e = np.frexp(np.abs(x).max(axis=0))[1]
    with np.errstate(over="ignore"):
        return np.ldexp(x, -e), e


def _quotient_rows(v, d=None):
    """Rows of the component columns ``v``, all of one batch shape, each
    divided by ``d`` (of that shape too) if given: a new ``batch +
    (len(v),)`` array that every column is copied or divided straight
    into.  One row of numbers is divided in a list.  The one writer of
    every kernel's output rows."""
    like = v[0] if d is None else d
    if not isinstance(like, np.ndarray):
        return np.array(v if d is None else [x / d for x in v])
    out = np.empty(like.shape + (len(v),), like.dtype)
    for i, x in enumerate(v):
        if d is None:
            out[..., i] = x
        else:
            np.divide(x, d, out=out[..., i])
    return out


# ---------------------------------------------------------------------------
# validation helpers


def _as_float(x, name: str) -> np.ndarray:
    """``np.asarray(x, dtype=float)``; non-numeric input is an
    :class:`InvalidInputError` instead of numpy's conversion error."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} is not numeric: {exc}") from exc


def _broadcast(names: tuple[str, ...], *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays broadcast to their common shape: an operand already of
    that shape comes back as is, the others as read-only views.  Shapes
    that do not broadcast are an :class:`InvalidInputError` naming each
    operand, by its entry in ``names``, with its shape."""
    shape = arrays[0].shape
    for a in arrays:
        if a.shape != shape:
            break
    else:  # one shape, as one row's operands have: nothing to broadcast
        return arrays
    try:
        shape = np.broadcast(*arrays).shape
    except ValueError:
        detail = ", ".join(f"{name} {a.shape}" for name, a in zip(names, arrays))
        raise InvalidInputError(f"shapes do not broadcast: {detail}") from None
    return tuple(a if a.shape == shape else np.broadcast_to(a, shape) for a in arrays)


def _check_tol(tol, name: str = "tol") -> None:
    """Raise unless the tolerance ``tol`` is one finite real >= 0: NaN
    would pass every check it bounds, -1 fail them all, inf pass all.
    A type test, not an array conversion, since every one-row call pays
    it; ``float`` comes first as the ABC test is several times slower."""
    if not (isinstance(tol, (float, numbers.Real)) and 0 <= tol < math.inf):
        raise InvalidInputError(f"{name} must be a finite number >= 0, got {tol!r}")


def _as_vec3(x, name: str) -> np.ndarray:
    """Coerce to a float array with last axis 3; reject NaN components."""
    a = _as_float(x, name)
    if a.ndim == 0 or a.shape[-1] != 3:
        raise InvalidInputError(
            f"{name} must have 3 components on the last axis, got shape {a.shape}"
        )
    if any(map(math.isnan, a.tolist())) if a.ndim == 1 else np.isnan(a).any():
        raise InvalidInputError(f"{name} contains NaN components")
    return a


def _columns(a: np.ndarray, row_ndim: int) -> np.ndarray:
    """The rows of ``a``, its last ``row_ndim`` axes, unpacked once into
    contiguous component columns: a ``(width,) + batch`` array whose
    ``[i]`` holds component ``i`` (row-major within a row) of every row.

    Batched kernels read each component many times; on row-major
    (n, 3) or (n, 3, 3) input every such read is strided and pulls the
    whole array through the cache, so each input is copied once here.
    The batch shape is kept, so one row unpacks into numpy scalars;
    :func:`_unpack` gives one row as Python floats instead.
    """
    batch = a.shape[: a.ndim - row_ndim]
    width = math.prod(a.shape[a.ndim - row_ndim:])
    return a.reshape(-1, width).T.copy().reshape((width,) + batch)


def _unpack(a: np.ndarray, row_ndim: int = 1):
    """The component columns (:func:`_columns`) of the rows ``a``, its last
    ``row_ndim`` axes, or one row's components as a list of Python floats,
    row-major: the kernels run on both, as Python's ``+ - * /`` are
    numpy's IEEE ops."""
    if a.ndim != row_ndim:
        return _columns(a, row_ndim)
    return (a if row_ndim == 1 else a.ravel()).tolist()


@dataclass(frozen=True)
class RotationCheck:
    """Outcome of :func:`is_rotation_matrix`.

    ``ok`` aggregates over any batch: every matrix must pass.  The residuals
    are maxima over the batch, so a failing entry is always visible.
    """

    ok: bool
    max_orthogonality_residual: float
    max_det_deviation: float

    def __bool__(self) -> bool:
        return self.ok


def is_rotation_matrix(u, *, tol: float = TOL_ORTHO_INPUT) -> RotationCheck:
    """Check orthogonality (``U^T U = I``) and ``det U = +1`` within ``tol``.

    Returns a :class:`RotationCheck`; it is truthy exactly when both hold.
    NaN or infinite entries are rejected with :class:`InvalidInputError`.
    An empty batch passes with residuals 0.0.
    """
    _check_tol(tol)
    res, dev = _rotation_residuals(_rotation_columns(u, False, tol))
    return RotationCheck(bool(res <= tol and dev <= tol), res, dev)


def _rotation_residuals(u):
    """The two numbers of :func:`is_rotation_matrix`, the orthogonality
    residual and the determinant deviation, of the nine component columns
    ``u`` of a batch (``u00, u01, ..., u22``, as :func:`_columns` gives
    them) or one matrix's nine finite numbers as a list; 0.0 each for an
    empty batch.  A batch's huge finite entries overflow quietly, as one
    matrix's Python floats do, and give residuals inf or NaN."""
    if type(u) is list:
        return _residuals(u)
    if not np.isfinite(u).all():
        raise InvalidInputError("matrix has non-finite entries")
    if not u.size:
        return 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        return _residuals(u)


def _residuals(u):
    """:func:`_rotation_residuals`' arithmetic on the columns or numbers
    ``u``: the six distinct entries of ``U^T U - I`` and ``det U - 1``,
    each reduced to its largest magnitude."""
    u00, u01, u02, u10, u11, u12, u20, u21, u22 = u
    cols = ((u00, u10, u20), (u01, u11, u21), (u02, u12, u22))
    # the six distinct entries of U^T U - I: dot products of the columns,
    # summed over the rows in order, as the full Gram product sums them
    gram = []
    for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)):
        g = _inner(cols[i], cols[j])
        if i == j:
            g -= 1.0
        gram.append(g)
    # det U = row 0 . (row 1 x row 2), row 0 folded into the cross in place
    det, *rest = _cross([u10, u11, u12], [u20, u21, u22])
    det *= u00
    for m, x in zip(rest, (u01, u02)):
        m *= x
        det += m
    det -= 1.0
    # a NaN entry (inf - inf of huge entries) is the residual: numpy's max
    # keeps it, Python's may not
    if type(u) is list:
        return math.nan if any(map(math.isnan, gram)) else max(map(abs, gram)), abs(det)
    gram = np.array(gram)  # one array of the six entries, so one max reads them all
    return float(np.abs(gram, out=gram).max()), float(np.abs(det).max())


def _rotation_columns(u, check: bool, ortho_tol: float):
    """The nine component columns of the 3x3 matrices ``u`` as
    :func:`_unpack` gives them, one finite matrix's as its Python floats:
    the one gate of every matrix operand, ``ortho_tol`` checked, the
    shape, then with ``check`` set :func:`_rotation_residuals`."""
    _check_tol(ortho_tol, "ortho_tol")
    a = _as_float(u, "matrix")
    if a.ndim < 2 or a.shape[-2:] != (3, 3):
        raise InvalidInputError(f"matrix must be 3x3 (last two axes), got shape {a.shape}")
    cols = _unpack(a, 2)
    # a non-finite entry gets numpy scalars, as in a batch: their inf - inf
    # and 0 / 0 give NaN where Python's / raises
    if type(cols) is list and not all(map(math.isfinite, cols)):
        cols = _columns(a, 2)
    if check:
        res, dev = _rotation_residuals(cols)
        if not (res <= ortho_tol and dev <= ortho_tol):
            raise InvalidInputError(
                "not a rotation matrix within tolerance "
                f"{ortho_tol:g} (orthogonality residual {res:.3e}, "
                f"determinant deviation {dev:.3e})",
                code="NOT_ROTATION",
            )
    return cols


# ---------------------------------------------------------------------------
# pi-encoding regime


def _pi_mask(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Half turns among rows given as max-abs scaled columns ``v`` (3, n)
    and their nonzero max-abs ``m``: ``|v|^2 >= (PI_ENCODING_THRESHOLD /
    m)^2``, free of overflow; infinite rows (``v`` their signs) pass."""
    return _inner(v, v) >= np.square(PI_ENCODING_THRESHOLD / m)


def is_pi_encoded(r) -> bool | np.ndarray:
    """True where ``r`` is a half turn, ``|r| >= PI_ENCODING_THRESHOLD``
    or an infinite component (homogeneous pair ``w = 0``).  ``|r|`` is
    compared in floating point: a row within a few ulp of the threshold
    may fall either way, and every operation decides by this same test."""
    w, _ = _homogeneous(_columns(_as_vec3(r, "r"), 1))
    mask = w == 0.0
    return bool(mask) if mask.ndim == 0 else mask


def pi_encode(axis) -> np.ndarray:
    """Half-turn encoding along ``axis``: the direction rescaled so its
    largest |component| sits at the float ceiling.

    ``axis`` need not be unit length, only nonzero and finite.
    """
    a = _as_vec3(axis, "axis")
    if not np.isfinite(a).all():
        raise InvalidInputError("axis has non-finite components")
    if (_max_abs(np.moveaxis(a, -1, 0)) == 0.0).any():
        raise InvalidInputError("axis must be nonzero")
    return _encode_half_turns(a.copy())


def _encode_half_turns(out: np.ndarray, half=None) -> np.ndarray:
    """``out``, rows of three the caller owns, with the rows at the flat
    indices ``half`` (every row if None) replaced in place by the
    half-turn encoding along the axis ``v`` each holds: ``v`` rescaled so
    its largest |component| sits at the float ceiling.  Indexed rows
    holding ``v = 0`` have no axis and stay 0."""
    if half is None:
        v = np.moveaxis(out, -1, 0)
        v /= _max_abs(v)
        v *= PI_ENCODING_MAGNITUDE
    elif len(half):
        rows = out.reshape(-1, 3)
        half = np.asarray(half)[_max_abs(np.moveaxis(rows[half], -1, 0)) > 0.0]
        rows[half] = _encode_half_turns(rows[half])
    return out


# ---------------------------------------------------------------------------
# the homogeneous pair (w : v)

# |r| >= PI_ENCODING_THRESHOLD needs max|component| >= threshold / sqrt(3),
# so only rows at or above half the threshold go through the half-turn mask.
_HALF_TURN_SCREEN = PI_ENCODING_THRESHOLD / 2.0


def _homogeneous(r: np.ndarray):
    """Homogeneous pairs ``(w, v)``, max-abs 1 each, of Gibbs vectors
    given as ``(3,) + batch`` component columns; ``w`` has the batch shape.

    Finite rows map to ``(1/c, r/c)`` with ``c = max(|r|_inf, 1)``.  Half
    turns (pi-encoded rows and rows with infinite components) get
    ``w = 0`` exactly; infinite rows keep only the signs of their
    infinite components.  Rows are picked by index in flat views.
    Elementary arithmetic only.
    """
    flat = r.reshape(3, -1)
    m = _max_abs(flat)
    c = np.maximum(m, 1.0)
    w = 1.0 / c
    with np.errstate(invalid="ignore"):
        v = flat / c
    big = np.flatnonzero(m >= _HALF_TURN_SCREEN)
    if big.size:
        mb = m[big]
        inf = big[np.isinf(mb)]
        ri = flat[:, inf]
        v[:, inf] = np.where(np.isinf(ri), np.sign(ri), 0.0)
        w[big[_pi_mask(v[:, big], mb)]] = 0.0
    return w.reshape(r.shape[1:]), v.reshape(r.shape)


def _dehomogenize(w: np.ndarray, v, rel_sq: float) -> np.ndarray:
    """Gibbs vectors ``v / w`` of pairs given as ``w`` and the three
    component columns ``v`` of the same batch shape (or one pair of
    numbers), as rows of that shape; the half-turn encoding along ``v``
    where ``w^2 <= rel_sq (w^2 + |v|^2)``, except for ``v = 0``, which has
    no axis and stays 0."""
    ww = w * w
    # rel_sq (w^2 + |v|^2), with |v|^2 summed x^2 + y^2 + z^2 first
    lim = _inner(v, v)
    lim += ww
    lim *= rel_sq
    singular = ww <= lim
    if isinstance(singular, np.ndarray):
        d, half = np.where(singular, 1.0, w), np.flatnonzero(singular)
    else:  # one row of numbers
        d, half = (1.0, [0]) if singular else (w, [])
    # the singular rows are divided by 1, so they hold v itself
    return _encode_half_turns(_quotient_rows(v, d), half)


# ---------------------------------------------------------------------------
# rational kernels (elementary arithmetic only; no sqrt, no trig)

# Largest |component| a row enters the matrix, rotation and composition
# kernels with as the pair (1, r): a composite of two such pairs has
# components below 2 L + 2 L^2 and w below 1 + 3 L^2, whose squares
# overflow only near L = 5e76.  Larger rows, and half turns, enter as
# their max-abs scaled pair, which is correct at every magnitude.
_PAIR_LIMIT = 1e50


def _row_pairs(r):
    """Homogeneous pairs ``(w, v)`` of Gibbs rows, chosen row by row, for
    the caller's private component columns ``r`` (from :func:`_columns`).

    Every row gets ``(1, r)``; rows with a component at or beyond
    ``_PAIR_LIMIT`` (half turns included) get their max-abs scaled pair
    from :func:`_homogeneous`, written into ``r``, so each row's pair
    depends on that row alone.  ``v`` is ``r``; ``w`` has its batch shape,
    or is the scalar 1.0 when no row is replaced; one row of numbers gets
    numbers (a replaced one from the column code).  Elementary arithmetic only.
    """
    if not isinstance(r, np.ndarray):
        if max(map(abs, r)) < _PAIR_LIMIT:
            return 1.0, r
        w, v = _row_pairs(np.array(r).reshape(3, 1))
        return w.item(), v[:, 0].tolist()
    if not r.size or np.abs(r).max() < _PAIR_LIMIT:
        return 1.0, r
    flat = r.reshape(3, -1)
    big = np.flatnonzero(_max_abs(flat) >= _PAIR_LIMIT)
    w = np.ones(flat.shape[1])
    w[big], flat[:, big] = _homogeneous(flat[:, big])
    return w.reshape(r.shape[1:]), r


def _matrix_from_pair(w, v):
    """Rotation matrices of homogeneous pairs ``(w : v)``, with ``v``
    given as three component columns of one batch shape, or as three
    numbers for one pair::

        U = ((w^2 - |v|^2) I + 2 v v^T + 2 w [v]x) / (w^2 + |v|^2)

    ``w`` may be a scalar; ``w = 0`` gives the half turn ``2 u u^T - I``.
    Each entry is ``(p + p) / (w^2 + |v|^2)`` for its ``p``: ``v_i v_j``
    plus or minus one ``w v_k`` off the diagonal, ``v_i^2`` on it with
    ``w^2 - |v|^2`` added after the doubling; the division writes it into
    the output.  Exact on ``fractions.Fraction``; elementary arithmetic
    only.
    """
    x, y, z = v
    wx, wy, wz = w * x, w * y, w * z
    xx, yy, zz = x * x, y * y, z * z
    den = xx + yy
    den += zz
    ww = w * w
    k = ww - den
    den += ww  # w^2 + |v|^2
    e = [None] * 9  # entry (i, j) is e[3 i + j]
    # v_i v_j + w v_k goes to entry (i, j), v_i v_j - w v_k to (j, i)
    for p, q, ij, ji in ((x * y, wz, 1, 3), (x * z, wy, 6, 2), (y * z, wx, 5, 7)):
        a = p + q
        a += a
        e[ij] = a
        p -= q
        p += p
        e[ji] = p
    for ii, p in zip((0, 4, 8), (xx, yy, zz)):
        p += p
        p += k
        e[ii] = p
    out = _quotient_rows(e, den)
    return out.reshape(out.shape[:-1] + (3, 3))


def _rotate_by_pair(w, v, s):
    """Vectors ``s`` turned by the rotations of the pairs ``(w : v)``::

        U s = ((w^2 - |v|^2) s + 2 (v.s) v + 2 w (s x v)) / (w^2 + |v|^2)

    the action of :func:`_matrix_from_pair`'s ``U`` without forming it,
    as rows.  ``v`` and ``s`` are three component columns (or numbers)
    each and ``w`` a scalar or of ``v``'s batch shape; the batch shapes
    broadcast.  The denominator divides ``v`` before ``v`` meets ``s``, so
    intermediates reach up to about 2 ``|s|``, which ``rotate_vector``
    keeps in range.  Exact on ``fractions.Fraction``; elementary
    arithmetic only.
    """
    v0, v1, v2 = v[0], v[1], v[2]
    s0, s1, s2 = s[0], s[1], s[2]
    ww = w * w
    h = _inner(v, v)
    k = ww - h
    h += ww
    h = 1 / h  # 1 / (w^2 + |v|^2)
    k *= h
    h += h
    # p = 2 v / (w^2 + |v|^2): the last two terms are (p.s) v and w (s x p)
    p0, p1, p2 = p = (v0 * h, v1 * h, v2 * h)
    t = _inner(p, s)
    out = []  # each of the broadcast batch shape, as t is
    for si, vi, a, b, c, d in (
        (s0, v0, s1, p2, s2, p1), (s1, v1, s2, p0, s0, p2), (s2, v2, s0, p1, s1, p0),
    ):
        e = a * b
        e -= c * d
        e *= w
        o = k * si
        o += t * vi
        o += e
        out.append(o)
    return _quotient_rows(out)


def _matrix_from_gibbs_direct(r):
    """Textbook rational map r -> U: the pair kernel with ``w = 1``.

    Exact on ``fractions.Fraction`` inputs: every entry is the literal
    ratio of the defining polynomials.  No overflow guard, so float
    callers use :func:`gibbs_to_matrix`.
    """
    return _matrix_from_pair(1, np.moveaxis(r, -1, 0))


def _pivot_table(u, scale=1):
    """Shepperd's table of the nine component columns ``u`` of a batch
    (``u00, u01, ..., u22``, as :func:`_columns` gives them): the
    ``(4, 4) + batch`` array whose ``[k, :]`` is ``4 q_k (w, x, y, z)``,
    its diagonal ``1 + tr`` and ``1 + 2 u_kk - tr``; for one matrix's
    nine numbers as a list (:func:`_unpack`), the table as four lists.
    Ten distinct entries, each a signed sum of named matrix entries; exact
    on ``fractions.Fraction``.  Elementary arithmetic only.

    ``u`` may be a rotation matrix times ``scale`` (a scalar or a batch
    column): the table, every entry homogeneous in ``(u, scale)``, is then
    ``scale`` times the rotation's.
    """
    u00, u01, u02, u10, u11, u12, u20, u21, u22 = u
    d = u00 + u11
    d += u22
    d += scale
    diag = [d]  # 4 w^2
    # 4 x^2, 4 y^2, 4 z^2: u_kk minus the other two, plus scale
    for a, b, c in ((u00, u11, u22), (u11, u00, u22), (u22, u00, u11)):
        d = a - b
        d -= c
        d += scale
        diag.append(d)
    wx, wy, wz = u12 - u21, u20 - u02, u01 - u10  # 4 w (x, y, z)
    xy, xz, yz = u01 + u10, u02 + u20, u12 + u21  # 4 x y, 4 x z, 4 y z
    t = [
        [diag[0], wx, wy, wz],
        [wx, diag[1], xy, xz],
        [wy, xy, diag[2], yz],
        [wz, xz, yz, diag[3]],
    ]
    return t if type(u) is list else np.array(t)


# flat offsets of a table row's four entries, per batch element
_ROW_ENTRIES = np.arange(4)[:, None]


def _pivot_row(u, scale=1):
    """The row of :func:`_pivot_table` with the largest own entry, for the
    nine component columns ``u`` (a rotation matrix times ``scale``): the
    ``(4,) + batch`` columns ``4 scale q_k (w, x, y, z)``, or one
    matrix's row as a list.

    The four own entries sum to ``4 scale``, so for a nonzero ``scale``
    the chosen row is never zero, and its ratios are the quaternion up to
    scale: ``v / w`` is the Gibbs vector.  Comparisons alone pick the row,
    the lowest index on ties as ``argmax`` would, with the same spelling
    on columns and on one matrix's Python floats, and one flat gather
    reads a batch's rows.  Elementary arithmetic only.
    """
    t = _pivot_table(u, scale)
    d0, d1, d2, d3 = t[0][0], t[1][1], t[2][2], t[3][3]
    # rows 2, 3 when d2 or d3 beats both d0 and d1.  A diagonal NaN comes
    # from a NaN entry (all four) or from inf - inf among u00, u11, u22,
    # which makes a NaN d2 or d3 only with a NaN d0, d1 or both of d2, d3;
    # as a NaN fails every comparison, any NaN keeps rows 0, 1, and a NaN
    # d0 or d1 picks row 0.  ``hi ^ True`` negates a bool and a bool column
    # alike, where Python's ``~True`` is -2.
    hi = (d2 > d0) & (d2 > d1) | (d3 > d0) & (d3 > d1)
    k = 2 * hi + ((d3 > d2) & hi | (d1 > d0) & (hi ^ True))
    if type(t) is list:  # one matrix's numbers
        return t[k]
    # a Fraction table of one matrix gives a Python int
    k = np.reshape(k, -1)
    n = k.size
    at = k * (4 * n) + np.arange(n) + _ROW_ENTRIES * n
    return np.take(t, at).reshape(t.shape[1:])


def _gibbs_from_matrix_direct(u):
    """Textbook rational map U -> r away from half turns: the w row of
    the pivot table, ``(u_12 - u_21, ...) / (1 + tr)``.

    Exact on ``fractions.Fraction`` inputs; inverse of the direct map.
    Elementary arithmetic only.
    """
    t = _pivot_table(_columns(u, 2))
    return np.moveaxis(t[0, 1:] / t[0, 0], 0, -1)


# ---------------------------------------------------------------------------
# public conversions


def gibbs_to_matrix(r) -> np.ndarray:
    """Rotation matrix for the Gibbs vector ``r``.

    One rational kernel on the homogeneous pair ``(w : v)``, chosen per
    row: ``(1, r)`` for a row of moderate magnitude, the max-abs scaled
    pair for a huge or half-turn row, so each row of a batch equals the
    call on that row alone.  Pi-encoded inputs have ``w = 0`` and return
    the exact half-turn limit ``2 u u^T - I`` about the unit axis
    ``u = r/|r|``.  Elementary arithmetic only.

    The output is orthogonal with residual and determinant deviation
    within ``TOL_ORTHO_OUTPUT``.

    >>> gibbs_to_matrix([0.0, 0.0, 0.0]).tolist()
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    """
    return _matrix_from_pair(*_row_pairs(_unpack(_as_vec3(r, "r"))))


def matrix_to_gibbs(
    u,
    *,
    check: bool = True,
    pi_trace_tol: float = TOL_PI_TRACE,
    ortho_tol: float = TOL_ORTHO_INPUT,
) -> np.ndarray:
    """Gibbs vector of a rotation matrix.

    Takes the row of Shepperd's pivot table with the largest diagonal
    entry, ``4 q_k (w, x, y, z)``, and returns ``v / w``; where
    ``w^2 <= pi_trace_tol / 4 * |(w, v)|^2`` it returns the half-turn
    encoding along ``v`` instead.  On an exact rotation that is the test
    ``1 + trace <= pi_trace_tol``.  Elementary arithmetic only.

    ``check=True`` validates the input against ``ortho_tol`` first and
    raises :class:`InvalidInputError` for non-rotations.
    """
    _check_tol(pi_trace_tol, "pi_trace_tol")
    cols = _rotation_columns(u, check, ortho_tol)
    # past 1 every row is encoded already; the cap keeps the limit finite
    rel_sq = min(pi_trace_tol / 4.0, 1.0)
    if type(cols) is list:
        row = _pivot_row(cols)
        return _dehomogenize(row[0], row[1:], rel_sq)
    # a batch's huge entries (check=False) overflow quietly, as one matrix's floats do
    with np.errstate(over="ignore", invalid="ignore"):
        row = _pivot_row(cols)
        return _dehomogenize(row[0], row[1:], rel_sq)


def rotate_vector(r, s) -> np.ndarray:
    """Apply the rotation encoded by ``r`` to the vector ``s``.

    Applies the homogeneous pair of each row of ``r`` (chosen as in
    :func:`gibbs_to_matrix`) to ``s`` directly, without forming a matrix.
    It agrees with ``gibbs_to_matrix(r) @ s`` to within 1e-12 of ``|s|``,
    and each row of a batch equals the call on that row alone.  ``r`` and
    ``s`` broadcast over their leading axes.  ``s`` must be finite; ``r``
    may be pi-encoded.  A row of ``s`` whose largest |component| reaches
    ``PI_ENCODING_THRESHOLD`` is rotated scaled by a power of two and
    scaled back; one whose rotation is past the float range raises
    :class:`InvalidInputError` naming the flat index of the output row.

    >>> rotate_vector([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]).tolist()
    [0.0, 0.0, -1.0]
    """
    a = _as_vec3(r, "r")
    b = _as_vec3(s, "s")
    # s is only read, so a batch's component columns can be a view
    s = b.tolist() if b.ndim == 1 else np.moveaxis(b, -1, 0)
    # one pass: below a quarter of the float ceiling, s is finite and the
    # kernel's intermediates (up to 2|s| <= 2 sqrt(3) max|s|) cannot overflow
    lo, hi = (min(s), max(s)) if b.ndim == 1 else (b.min(initial=0.0), b.max(initial=0.0))
    far = not (-PI_ENCODING_THRESHOLD < lo and hi < PI_ENCODING_THRESHOLD)
    if far and not np.isfinite(b).all():
        raise InvalidInputError("s has non-finite components")
    # the check only: the kernel broadcasts itself, and an expanded r
    # would repeat its pair's work for every row of s
    _broadcast(("r", "s"), a, b)
    pair = _row_pairs(_unpack(a))
    if not far:
        return _rotate_by_pair(*pair, s)
    s = np.moveaxis(b, -1, 0)
    e = np.where(_max_abs(s) >= PI_ENCODING_THRESHOLD, _pow2_scale(s)[1], 0)
    out = _pow2_scale(_rotate_by_pair(*pair, _pow2_scale(s, e)[0]), -e[..., None])[0]
    if (past := np.flatnonzero(~np.isfinite(out).all(axis=-1))).size:
        raise InvalidInputError(
            f"rotate_vector: s rotated at index {past[0]} is past the float range"
        )
    return out


def invert(r) -> np.ndarray:
    """Gibbs vector of the inverse rotation: plain negation.

    Works in both regimes; a pi-encoding stays a pi-encoding of the same
    half turn.
    """
    a = _as_vec3(r, "r")
    return -a
