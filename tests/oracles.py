"""Closed-form references for the p = 2 Fock space, used only by the tests.

The basis vectors, reproducing kernels and exact polynomial inner products
below are independent of the quadrature routes they check; the verdict
lattice is the order every classification must respect.
"""

from __future__ import annotations

import math

import numpy as np

from fockops.criteria import Verdict
from fockops.fock_core import basis_log_norm
from fockops.symbols import Symbol


def basis_element(n: int, alpha: float) -> Symbol:
    """The n-th orthonormal basis vector sqrt(alpha^n / n!) z^n (p = 2)."""
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = math.exp(basis_log_norm(n, alpha))
    return Symbol.polynomial(coeffs)


def kernel(w: complex, alpha: float) -> Symbol:
    """Reproducing kernel K_w(z) = exp(alpha conj(w) z)."""
    return Symbol.exponential(q1=alpha * np.conj(w))


def normalized_kernel(w: complex, alpha: float) -> Symbol:
    """Unit-norm kernel exp(-alpha |w|^2 / 2 + alpha conj(w) z)."""
    return Symbol.exponential(q0=-0.5 * alpha * abs(w) ** 2,
                              q1=alpha * np.conj(w))


def kernel_coefficients(w, alpha, size):
    """Coefficients of the normalised kernel in the orthonormal basis."""
    if w == 0:
        coeffs = np.zeros(size, dtype=complex)
        coeffs[0] = 1.0
        return coeffs
    n = np.arange(size)
    log_mag = (n * np.log(abs(w))
               + np.array([basis_log_norm(int(k), alpha) for k in n])
               - alpha * abs(w) ** 2 / 2)
    return np.exp(-1j * n * np.angle(w)) * np.exp(log_mag)


def monomial_gram(m: int, n: int, alpha: float) -> float:
    """<z^m, z^n> = delta_{mn} n! / alpha^n in the p = 2 space."""
    if m < 0 or n < 0:
        raise ValueError("monomial indices must be non-negative")
    if m != n:
        return 0.0
    return math.exp(math.lgamma(n + 1) - n * math.log(alpha))


def poly_inner(f: Symbol, g: Symbol, alpha: float) -> complex:
    """Exact p = 2 inner product of two polynomial symbols.

    Uses <z^m, z^n> = delta_{mn} n! / alpha^n, which is the monomial
    orthogonality under the (alpha / pi)-normalised Gaussian measure.
    """
    if not (f.is_polynomial and g.is_polynomial):
        raise ValueError("exact inner products require polynomial symbols")
    n = min(len(f.poly), len(g.poly))
    fa = np.asarray(f.poly[:n])
    ga = np.asarray(g.poly[:n])
    moments = np.exp([math.lgamma(k + 1) - k * math.log(alpha)
                      for k in range(n)])
    return complex(np.sum(fa * np.conj(ga) * moments))


def lattice_breaks(cls) -> list:
    """The verdict-lattice rules a classification breaks, as labels.

    Bounded NO forces compact NO, compact YES forces bounded YES, an S_t
    YES forces compact YES and S_t' YES or INCONCLUSIVE for every t' > t.
    """
    breaks = []
    if cls.bounded is Verdict.NO and cls.compact is not Verdict.NO:
        breaks.append("bounded no, compact not no")
    if cls.compact is Verdict.YES and cls.bounded is not Verdict.YES:
        breaks.append("compact yes, bounded not yes")
    members = [t for t, v in cls.schatten.items() if v is Verdict.YES]
    if members and cls.compact is not Verdict.YES:
        breaks.append("schatten yes, compact not yes")
    breaks += [f"schatten yes at {min(members)}, no at {t}"
               for t, v in cls.schatten.items()
               if members and v is Verdict.NO and t > min(members)]
    return breaks
