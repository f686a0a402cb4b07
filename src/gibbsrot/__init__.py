"""gibbsrot: 3D rotations through the Gibbs vector.

A rotation by angle ``theta`` about unit axis ``u`` is stored as the
3-vector ``r = tan(theta/2) * u``.  In this parameterization conversion
to and from rotation matrices, composition, inversion, and vector
alignment are all rational: no square root or trigonometric call
appears anywhere on the core paths, so exact inputs stay exact and
error growth is governed by plain arithmetic.

The half turn, where ``tan(theta/2)`` diverges, is kept representable by
an explicit encoding: a vector with ``|r| >= PI_ENCODING_THRESHOLD``
(``[0.6 * PI_ENCODING_THRESHOLD] * 3`` is one; see :func:`is_pi_encoded`)
or an infinite component is read as "a rotation by pi about the direction
of this vector".  Every operation accepts and produces such encodings, so
chains of compositions pass through half turns unharmed.

Modules
-------
``core``
    Matrix conversions, rotation action, inversion, the pi encoding.
``algebra``
    Composition of rotations on one homogeneous kernel, half turns
    included, and its log-depth prefix scan over chains.
``cayley``
    The Cayley map between orthogonal and antisymmetric matrices of any
    size, and its 3D specialization onto Gibbs vectors.
``bridges``
    Unit quaternions, axis-angle, and intrinsic z-y-x Euler angles.
``alignment``
    The one-parameter family of rotations aligning one vector with
    another, two-pair alignment, and frame transport along curves.
``cli``
    The ``gibbsrot`` command-line tool built from the above.
"""

from .algebra import TOL_COMPOSE_SINGULAR, compose, compose_scan, compose_sequence
from .alignment import (
    TOL_ALIGN_SINGULAR,
    TOL_LEN,
    AlignmentLine,
    TransportResult,
    align_family,
    align_line,
    align_pair,
    align_pair_unchecked,
    frame_transport,
)
from .bridges import (
    TOL_QUATERNION_NORM,
    TOL_QUATERNION_REAL,
    AxisAngle,
    EulerAngles,
    axis_angle_to_gibbs,
    canonicalize_quaternion,
    euler_to_matrix,
    gibbs_to_axis_angle,
    gibbs_to_quaternion,
    matrix_to_euler,
    matrix_to_quaternion,
    quaternion_multiply,
    quaternion_to_gibbs,
    quaternion_to_matrix,
)
from .cayley import (
    TOL_CAYLEY_SINGULAR,
    SkewMatrix,
    cayley_forward,
    cayley_inverse,
    skew_from_vector,
    vector_from_skew,
)
from .core import (
    PI_ENCODING_MAGNITUDE,
    PI_ENCODING_THRESHOLD,
    TOL_ORTHO_INPUT,
    TOL_ORTHO_OUTPUT,
    TOL_PI_TRACE,
    RotationCheck,
    gibbs_to_matrix,
    invert,
    is_pi_encoded,
    is_rotation_matrix,
    matrix_to_gibbs,
    pi_encode,
    rotate_vector,
)
from .errors import (
    AntipodalError,
    GibbsError,
    InvalidInputError,
    InvalidPairError,
    OutOfDomainError,
    SingularCayleyError,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # constants
    "PI_ENCODING_MAGNITUDE",
    "PI_ENCODING_THRESHOLD",
    "TOL_ORTHO_INPUT",
    "TOL_ORTHO_OUTPUT",
    "TOL_PI_TRACE",
    "TOL_COMPOSE_SINGULAR",
    "TOL_CAYLEY_SINGULAR",
    "TOL_QUATERNION_NORM",
    "TOL_QUATERNION_REAL",
    "TOL_LEN",
    "TOL_ALIGN_SINGULAR",
    # core
    "RotationCheck",
    "gibbs_to_matrix",
    "matrix_to_gibbs",
    "rotate_vector",
    "invert",
    "is_rotation_matrix",
    "is_pi_encoded",
    "pi_encode",
    # algebra
    "compose",
    "compose_scan",
    "compose_sequence",
    # cayley
    "SkewMatrix",
    "cayley_forward",
    "cayley_inverse",
    "skew_from_vector",
    "vector_from_skew",
    # bridges
    "AxisAngle",
    "EulerAngles",
    "gibbs_to_quaternion",
    "quaternion_to_gibbs",
    "quaternion_multiply",
    "canonicalize_quaternion",
    "quaternion_to_matrix",
    "matrix_to_quaternion",
    "gibbs_to_axis_angle",
    "axis_angle_to_gibbs",
    "euler_to_matrix",
    "matrix_to_euler",
    # alignment
    "AlignmentLine",
    "TransportResult",
    "align_family",
    "align_line",
    "align_pair",
    "align_pair_unchecked",
    "frame_transport",
    # errors
    "GibbsError",
    "InvalidInputError",
    "AntipodalError",
    "InvalidPairError",
    "SingularCayleyError",
    "OutOfDomainError",
]
