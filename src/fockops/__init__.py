"""Numerics for integral-type and weighted composition operators on Fock spaces.

The transform of an operator's weight data against the normalized
reproducing kernels drives everything: boundedness and compactness
classification, essential-norm and Schatten-class estimates, all
cross-checked against truncated-matrix spectra.
"""

from .berezin import (BerezinProfile, GridSpec, berezin_at,
                      berezin_power_integral, berezin_profile,
                      hilbert_schmidt_integral, vanishes_at_infinity)
from .criteria import (Classification, ConsistencyReport, Verdict,
                       classify_berezin, consistency_report, oracle_classify,
                       random_volterra_family, schatten_membership)
from .errors import (ConfigError, DegreeCap, DivergentTail, InvalidIntegrand,
                     NonConvergence)
from .fock_core import basis_log_norm, derivative_functional, fock_norm
from .operator_rep import (SpectralSummary, TruncatedOperator, build_matrix,
                           kernel_image_norm, singular_values,
                           spectral_summary, toeplitz_crosscheck)
from .quadrature import (IntegralResult, QuadratureScheme, Tolerance,
                         build_scheme, gaussian_integral, tail_radius)
from .symbols import AffineMap, Symbol, SymbolPair, weight_at

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "BerezinProfile",
    "Classification",
    "ConfigError",
    "ConsistencyReport",
    "DegreeCap",
    "DivergentTail",
    "GridSpec",
    "IntegralResult",
    "InvalidIntegrand",
    "NonConvergence",
    "QuadratureScheme",
    "SpectralSummary",
    "Symbol",
    "SymbolPair",
    "Tolerance",
    "TruncatedOperator",
    "Verdict",
    "basis_log_norm",
    "berezin_at",
    "berezin_power_integral",
    "berezin_profile",
    "build_matrix",
    "build_scheme",
    "classify_berezin",
    "consistency_report",
    "derivative_functional",
    "fock_norm",
    "gaussian_integral",
    "hilbert_schmidt_integral",
    "kernel_image_norm",
    "oracle_classify",
    "random_volterra_family",
    "schatten_membership",
    "singular_values",
    "spectral_summary",
    "tail_radius",
    "toeplitz_crosscheck",
    "vanishes_at_infinity",
    "weight_at",
]
