"""fractalab: numerics for self-similar measures on the line.

Exact iterated-function-system arithmetic, certified coding-point
enclosures, word-tree and Monte Carlo Fourier transforms, derivative-cocycle
random walks with stopping-time laws, digit/orbit normality statistics, and
exact structural classification (periodicity, Diophantine scans).
"""

from .ifs_core import (
    AffineMap,
    Enclosure,
    Ifs,
    PreconditionError,
    ShortPrefixError,
    SmoothMap,
    WeightVector,
    aperiodic_125,
    attractor_interval,
    bernoulli_convolution,
    cantor,
    coding_point,
    compose_word,
    dyadic_pair,
    golden_bernoulli,
    registered_affine,
    smooth_example,
)
from .quadfield import QuadExact, golden_ratio_conjugate

__all__ = [
    "AffineMap",
    "Enclosure",
    "Ifs",
    "PreconditionError",
    "QuadExact",
    "ShortPrefixError",
    "SmoothMap",
    "WeightVector",
    "aperiodic_125",
    "attractor_interval",
    "bernoulli_convolution",
    "cantor",
    "coding_point",
    "compose_word",
    "dyadic_pair",
    "golden_bernoulli",
    "golden_ratio_conjugate",
    "registered_affine",
    "smooth_example",
]

__version__ = "0.1.0"
