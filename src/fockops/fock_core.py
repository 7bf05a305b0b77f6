"""Gaussian-weighted entire-function spaces: basis scale and norms.

The space with exponent p and weight parameter alpha consists of entire f
with

    ||f||^p = (p alpha / 2 pi) integral |f(z)|^p exp(-(p alpha / 2) |z|^2) dm(z)

finite.  The normalisation makes the constant function 1 have norm one for
every p.  For p = 2 the monomials z^n / sqrt(n! / alpha^n) form an
orthonormal basis and point evaluation is reproduced by the kernel
K_w(z) = exp(alpha conj(w) z).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergence
from .quadrature import Tolerance, gaussian_integral
from .symbols import Symbol

__all__ = [
    "basis_log_norm",
    "fock_norm",
    "derivative_functional",
]


def basis_log_norm(n: int, alpha: float) -> float:
    """log of the normalising constant sqrt(alpha^n / n!) of z^n."""
    return 0.5 * (n * math.log(alpha) - math.lgamma(n + 1))


def _mean_power(f: Symbol, p: float, alpha: float, tol: Tolerance | None,
                damped: bool) -> float:
    """Exponent-p norm of f, or of f(z) / (1 + |z|) when ``damped``."""
    if p <= 0 or alpha <= 0:
        raise ValueError("p and alpha must be positive")
    c = 0.5 * p * alpha

    def integrand(z):
        log_vals = f.log_abs(z)
        if damped:
            log_vals = log_vals - np.log1p(np.abs(z))
        return np.exp(np.maximum(p * log_vals, -745.0))

    res = gaussian_integral(integrand, c, tol,
                            growth_bound=p * f.gaussian_growth,
                            linear_bound=p * f.linear_growth,
                            poly_degree_cap=int(math.ceil(p * f.degree)) + 8)
    mean = float((c / math.pi) * res.value.real)
    try:
        return mean ** (1.0 / p)
    except OverflowError:
        raise NonConvergence(f"the mean {mean!r} has no representable "
                             f"{p!r}-th root") from None


def fock_norm(f: Symbol, p: float, alpha: float,
              tol: Tolerance | None = None) -> float:
    """Numerical norm of ``f`` in the exponent-p space."""
    return _mean_power(f, p, alpha, tol, damped=False)


def derivative_functional(f: Symbol, p: float, alpha: float,
                          tol: Tolerance | None = None) -> float:
    """|f(0)| plus the norm of f'(z) / (1 + |z|) in the exponent-p space.

    This derivative-based quantity is equivalent to the norm itself with
    constants depending only on p and alpha; the measured two-sided band is
    pinned down in the regression tests.
    """
    seminorm = _mean_power(f.derivative(), p, alpha, tol, damped=True)
    return abs(complex(f(0.0))) + seminorm
