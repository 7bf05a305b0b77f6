"""Truncated matrices on the p = 2 basis and singular-value quantities."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .berezin import berezin_at
from .errors import NonConvergence
from .fock_core import basis_log_norm
from .quadrature import Tolerance, _leggauss, build_scheme, tail_radius
from .symbols import SymbolPair

__all__ = [
    "TruncatedOperator",
    "SchattenPartial",
    "SpectralSummary",
    "build_matrix",
    "singular_values",
    "spectral_summary",
    "toeplitz_crosscheck",
    "radial_metric_moments",
    "kernel_image_norm",
]

# Relative agreement with the half-size truncation that counts as converged
# for op_norm and the essential-norm proxy.
_HALVING_TOL = 0.05

# A Schatten partial sum counts as converged when the smallest quarter of
# the singular values contributes less than this fraction.
_TAIL_FRACTION = 0.01


@dataclass(frozen=True)
class TruncatedOperator:
    """N x N matrix of the operator on the orthonormal basis, column = image."""

    pair: SymbolPair
    size: int
    entries: np.ndarray


def _weighted_power_series(pair: SymbolPair, size: int,
                           rows: int) -> np.ndarray:
    """cols[m, n] = m-th Taylor coefficient of psi^n times the weight symbol.

    The weight symbol is g' for the integral kind and u for the weighted
    composition kind; n runs below ``size`` and m below ``rows``.  Column
    n is column n - 1 times psi(z) = a z + b.
    """
    a, b = pair.psi.a, pair.psi.b
    cols = np.empty((rows, size), dtype=complex)
    cols[:, 0] = pair.weight_symbol.series(rows)
    for n in range(1, size):
        cols[:, n] = b * cols[:, n - 1]
        cols[1:, n] += a * cols[:-1, n - 1]
    return cols


def _monomial_image_coeffs(pair: SymbolPair, size: int) -> np.ndarray:
    """raw[m, n] = m-th Taylor coefficient of the image of z^n."""
    if pair.kind == "weighted":
        return _weighted_power_series(pair, size, size)
    # antiderivative vanishing at 0: c_m = h_{m-1} / m
    raw = np.zeros((size, size), dtype=complex)
    raw[1:] = (_weighted_power_series(pair, size, size - 1)
               / np.arange(1, size)[:, None])
    return raw


def build_matrix(pair: SymbolPair, size: int) -> TruncatedOperator:
    """Matrix entries M[m][n] = <T e_n, e_m>, exact for polynomial symbols.

    Basis normalisation is applied in log space so the n!-sized scale
    factors never overflow on the way to an entry of moderate size.  Raises
    NonConvergence when an entry is still not finite: the linear-space
    Taylor coefficients of u psi^n overflowed before normalisation.
    """
    if size < 2:
        raise ValueError("size must be at least 2")
    raw = _monomial_image_coeffs(pair, size)
    log_norm = np.array([basis_log_norm(k, pair.alpha) for k in range(size)])
    shift = log_norm[None, :] - log_norm[:, None]  # [m, n]
    mag = np.abs(raw)
    log_mag = np.full_like(mag, -np.inf)
    np.log(mag, out=log_mag, where=mag > 0)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.divide(raw, mag, out=np.zeros_like(raw), where=mag > 0)
        entries = phase * np.exp(log_mag + shift)
    if not np.all(np.isfinite(entries)):
        raise NonConvergence(f"matrix entries overflow at size {size}")
    return TruncatedOperator(pair=pair, size=size, entries=entries)


def singular_values(matrix) -> np.ndarray:
    if isinstance(matrix, TruncatedOperator):
        matrix = matrix.entries
    return np.linalg.svd(matrix, compute_uv=False)


@dataclass(frozen=True)
class SchattenPartial:
    order: float
    value: float
    tail_fraction: float
    converged: bool


@dataclass(frozen=True)
class SpectralSummary:
    pair: SymbolPair
    size: int
    singular: np.ndarray
    op_norm: float
    op_norm_converged: bool
    hs_norm: float
    schatten: dict
    ess_norm_proxy: float
    ess_proxy_converged: bool


def _schatten_partial(sv: np.ndarray, order: float) -> SchattenPartial:
    powered = sv ** order
    total = float(np.sum(powered))
    if total == 0.0:
        return SchattenPartial(order=order, value=0.0, tail_fraction=0.0,
                               converged=True)
    tail_start = -(len(sv) // 4) or len(sv)
    fraction = float(np.sum(powered[tail_start:]) / total)
    return SchattenPartial(order=order, value=total ** (1.0 / order),
                           tail_fraction=fraction,
                           converged=fraction < _TAIL_FRACTION)


def spectral_summary(op: TruncatedOperator,
                     orders=(1.0, 2.0, 3.0, 4.0)) -> SpectralSummary:
    """Singular values plus Schatten partial sums with convergence flags.

    The smallest-quarter tail rule flags each Schatten sum; op_norm and the
    essential-norm proxy s_{ceil(N/2)} carry flags from comparing against
    the leading half-size truncation of the same matrix.
    """
    sv = singular_values(op.entries)
    half = op.size // 2
    sv_half = singular_values(op.entries[:half, :half])
    op_norm = float(sv[0])
    op_half = float(sv_half[0])
    op_flag = abs(op_norm - op_half) <= _HALVING_TOL * max(op_norm, 1e-300)
    proxy = float(sv[math.ceil(op.size / 2) - 1])
    proxy_half = float(sv_half[math.ceil(half / 2) - 1])
    proxy_flag = abs(proxy - proxy_half) <= _HALVING_TOL * max(proxy, 1e-300)
    schatten = {float(t): _schatten_partial(sv, float(t)) for t in orders}
    hs = schatten.get(2.0) or _schatten_partial(sv, 2.0)
    return SpectralSummary(pair=op.pair, size=op.size, singular=sv,
                           op_norm=op_norm, op_norm_converged=bool(op_flag),
                           hs_norm=hs.value, schatten=schatten,
                           ess_norm_proxy=proxy,
                           ess_proxy_converged=bool(proxy_flag))


def radial_metric_moments(count: int, alpha: float,
                          nodes: int = 1024) -> np.ndarray:
    """mu_j = 2 pi int_0^inf r^{2j+1} (1+r)^{-2} e^{-alpha r^2} dr, j < count.

    A one-dimensional mapped Gauss-Legendre rule, independent of the polar
    schemes used elsewhere, so Gram cross-checks compare two genuinely
    different quadratures.
    """
    radius = tail_radius(alpha, 1e-24, poly_degree_cap=2 * count + 2)
    x, gw = _leggauss(nodes)
    r = 0.5 * radius * (x + 1.0)
    wr = 0.5 * radius * gw
    base = wr * r * np.exp(-alpha * r * r) / (1.0 + r) ** 2
    powers = np.power.outer(r * r, np.arange(count))  # r^{2j}
    return 2.0 * np.pi * (base @ powers)


def _derivative_frame_columns(pair: SymbolPair, size: int) -> np.ndarray:
    """Coefficient columns of (image of e_n)' = g'(z) e_n(psi(z))."""
    gp = pair.weight_symbol
    if not gp.is_polynomial:
        raise ValueError("the Gram cross-check needs a polynomial symbol")
    scale = np.array([math.exp(basis_log_norm(n, pair.alpha))
                      for n in range(size)])
    return _weighted_power_series(pair, size, size + gp.degree) * scale


def toeplitz_crosscheck(pair: SymbolPair, size: int) -> float:
    """Max deviation between two routes to the pullback Gram matrix.

    Both sides compute G[m][n] = int e_n(psi(w)) conj(e_m(psi(w)))
    |g'(w)|^2 (1+|w|)^{-2} e^{-alpha |w|^2} dm(w): once from image
    coefficients against independently computed radial moments, once by
    direct two-dimensional quadrature of the integrand.  The identity
    behind it lives in the derivative-form inner product, where the image
    Gram of the operator is exactly this matrix; the standard-frame matrix
    product differs at order one and is not the object tested here.
    Returns the max absolute entry difference over the inner block
    m, n < size // 2.
    """
    if pair.kind != "volterra":
        raise ValueError("the Gram cross-check is defined for the integral "
                         "operator kind only")
    alpha = pair.alpha
    h_cols = _derivative_frame_columns(pair, size)
    mu = radial_metric_moments(h_cols.shape[0], alpha)
    g1 = h_cols.conj().T @ (mu[:, None] * h_cols)

    gp = pair.weight_symbol
    cap = 2 * size + 2 * gp.degree + 8
    scheme = build_scheme(alpha, Tolerance(), 0.0, poly_degree_cap=cap,
                          radial_count=192, angular_count=4 * size)
    pts, bare = scheme.complex_nodes()
    psi_vals = pair.psi(pts)
    basis_vals = np.empty((size, pts.size), dtype=complex)
    row = np.ones(pts.size, dtype=complex)
    for n in range(size):
        basis_vals[n] = row * math.exp(basis_log_norm(n, alpha))
        row = row * psi_vals
    density = (bare * np.abs(gp(pts)) ** 2 / (1.0 + np.abs(pts)) ** 2
               * np.exp(-alpha * np.abs(pts) ** 2))
    g2 = (basis_vals * density) @ basis_vals.conj().T
    g2 = g2.T  # [m, n] = <column n, column m> ordering as in g1
    inner = size // 2
    return float(np.max(np.abs(g1[:inner, :inner] - g2[:inner, :inner])))


def kernel_image_norm(pair: SymbolPair, w: complex, q: float,
                      tol: Tolerance | None = None) -> float:
    """Norm of the image of the unit kernel at w, via the transform.

    Equals ((q alpha / 2 pi) B(w))^{1/q}: exact for the weighted
    composition kind, and the derivative-form surrogate (image vanishes at
    0, its derivative is the kernel pullback times g') for the integral
    kind.
    """
    value = berezin_at(pair, q, w, tol=tol)
    scale = q * pair.alpha / (2.0 * math.pi)
    return float((scale * value) ** (1.0 / q))
