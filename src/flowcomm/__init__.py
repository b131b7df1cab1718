"""Exact decisions about suspension flows of hyperbolic torus
automorphisms: topological equivalence through an orientation-preserving
torus map (SL2(Z) conjugacy via canonical RL words), topological
commensurability (matching power traces, the square class of t^2 - 4
as invariant, the least common power by a Euclid on units, explicit
covering certificates), and
almost-commensurability chains reaching the geodesic flows of
closed orientable hyperbolic 2-orbifolds, surfaces included.

All arithmetic is exact over arbitrary-precision integers and
rationals. Every positive decision is backed by a certificate that an
independent verifier (the verify module) re-checks from scratch.
"""

__version__ = "0.23.0"

from . import commensurability, conjugacy, errors, linalg, models, verify
from .errors import *
from .linalg import *
from .conjugacy import *
from .commensurability import *
from .models import *
from .verify import *

__all__ = [
    "__version__",
    *errors.__all__,
    *linalg.__all__,
    *conjugacy.__all__,
    *commensurability.__all__,
    *models.__all__,
    *verify.__all__,
]
