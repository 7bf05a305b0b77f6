"""Numerics for integral-type and weighted composition operators on Fock spaces.

The transform of an operator's weight data against the normalized
reproducing kernels drives everything: boundedness and compactness
classification, essential-norm and Schatten-class estimates, all
cross-checked against truncated-matrix spectra.
"""

import importlib

__version__ = "0.1.0"
SCHEMA = "v1"  # the CLI's config and artifact schema

# public name -> the submodule defining it, imported on first use.  Each
# access reads the submodule's live binding; nothing is copied here.
_HOME = {name: module for module, names in {
    "berezin": "BerezinProfile GridSpec berezin_at berezin_power_integral"
               " berezin_profile hilbert_schmidt_integral",
    "criteria": "Classification ConsistencyReport Verdict classify_berezin"
                " consistency_report oracle_classify random_volterra_family"
                " schatten_membership",
    "errors": "ConfigError DegreeCap DivergentTail InvalidIntegrand"
              " NonConvergence",
    "fock_core": "basis_log_norm derivative_functional fock_norm",
    "operator_rep": "SpectralSummary TruncatedOperator build_matrix"
                    " kernel_image_norm singular_values spectral_summary"
                    " toeplitz_crosscheck",
    "quadrature": "IntegralResult QuadratureScheme Tolerance build_scheme"
                  " gaussian_integral tail_radius",
    "symbols": "AffineMap Symbol SymbolPair weight_at",
}.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is not None:
        return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    if name in _HOME.values():  # a submodule not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_HOME.values()})
