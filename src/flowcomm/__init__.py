"""Exact decisions about suspension flows of hyperbolic torus
automorphisms: topological equivalence (integer conjugacy via
canonical RL words), topological commensurability (matching power
traces, the square class of t^2 - 4 as invariant, the least common
power by a Euclid on units, explicit covering certificates), and
almost-commensurability chains reaching the geodesic flows of
closed orientable hyperbolic 2-orbifolds, surfaces included.

All arithmetic is exact over arbitrary-precision integers and
rationals. Every positive decision is backed by a certificate that an
independent verifier re-checks from scratch.
"""

__version__ = "0.11.0"

from .errors import (
    ComputationLimit,
    DocumentError,
    FlowcommError,
    NotHyperbolic,
)
from .linalg import (
    HyperbolicMatrix,
    Lattice2,
    Mat2,
    hnf,
    intertwiner_lattice,
    lattice_image,
    mat_mul,
)
from .conjugacy import (
    L,
    R,
    EquivalenceVerdict,
    RLWord,
    are_equivalent,
    evaluate_word,
    reduction_cycle,
    rl_word,
)
from .commensurability import (
    CommensurabilityCertificate,
    CommensurabilityVerdict,
    are_commensurable,
    find_intertwiner,
    stabilization_exponent,
    verify_certificate,
)
from .models import (
    ALMOST_EQUIVALENCE,
    BIRKHOFF_SECTION_23N,
    COMMENSURABILITY,
    GHYS_HASHIGUCHI,
    ChainCertificate,
    ChainLink,
    GeodesicCommonCover,
    GeodesicOrbifold,
    Suspension,
    almost_commensurability_chain,
    genus_model_matrix,
    orbifold_common_cover,
    orbifold_euler_characteristic,
    orbifold_model_matrix,
    verify_chain,
)

__all__ = [
    "__version__",
    "FlowcommError",
    "NotHyperbolic",
    "DocumentError",
    "ComputationLimit",
    "Mat2",
    "HyperbolicMatrix",
    "Lattice2",
    "mat_mul",
    "hnf",
    "lattice_image",
    "intertwiner_lattice",
    "R",
    "L",
    "RLWord",
    "EquivalenceVerdict",
    "evaluate_word",
    "rl_word",
    "reduction_cycle",
    "are_equivalent",
    "CommensurabilityCertificate",
    "CommensurabilityVerdict",
    "are_commensurable",
    "find_intertwiner",
    "stabilization_exponent",
    "verify_certificate",
    "GHYS_HASHIGUCHI",
    "BIRKHOFF_SECTION_23N",
    "ALMOST_EQUIVALENCE",
    "COMMENSURABILITY",
    "Suspension",
    "GeodesicOrbifold",
    "GeodesicCommonCover",
    "ChainLink",
    "ChainCertificate",
    "orbifold_model_matrix",
    "genus_model_matrix",
    "orbifold_euler_characteristic",
    "orbifold_common_cover",
    "almost_commensurability_chain",
    "verify_chain",
]
