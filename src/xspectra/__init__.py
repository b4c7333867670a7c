"""Exceptional-orthogonal-polynomial spectra for complex-shifted solvable models.

The package builds the X1 Laguerre and X1 Jacobi families from their
differential equations, transforms them into Schrodinger data through a
point canonical transformation engine, and checks the resulting complex
potentials numerically: orthogonality, zero patterns, similarity
relations, and grid spectra.

The public names are each module's ``__all__``, re-exported here.
"""

from . import errors, models, numerics, pct, polycore, xop
from .errors import *
from .models import *
from .numerics import *
from .pct import *
from .polycore import *
from .xop import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *models.__all__,
    *numerics.__all__,
    *pct.__all__,
    *polycore.__all__,
    *xop.__all__,
    "__version__",
]
