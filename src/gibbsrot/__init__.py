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
``errors``
    The exception types every module raises.
``cli``
    The ``gibbsrot`` command-line tool built from the above.

Each library module declares its public names once, in its own
``__all__``; the package re-exports exactly those, with ``__version__``.
"""

from . import algebra, alignment, bridges, cayley, core, errors
from .algebra import *  # noqa: F403
from .alignment import *  # noqa: F403
from .bridges import *  # noqa: F403
from .cayley import *  # noqa: F403
from .core import *  # noqa: F403
from .errors import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *core.__all__,
    *algebra.__all__,
    *cayley.__all__,
    *bridges.__all__,
    *alignment.__all__,
    *errors.__all__,
]
