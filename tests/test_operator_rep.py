import math

import numpy as np
import pytest

from fockops.errors import NonConvergence
from fockops.operator_rep import (
    _weighted_power_series,
    build_matrix,
    kernel_image_norm,
    radial_metric_moments,
    singular_values,
    spectral_summary,
    toeplitz_crosscheck,
)
from fockops.symbols import AffineMap, Symbol, SymbolPair
from oracles import kernel_coefficients

ONE = Symbol.polynomial([1.0])
Z = Symbol.polynomial([0.0, 1.0])

# 2 pi int_0^inf r^(2k+1) e^{-alpha r^2} (1+r)^-2 dr for k = 0, 1,
# frozen from scipy.integrate.quad
MOMENT0_ALPHA_1 = 1.051303812194896
MOMENT0_ALPHA_2 = 0.666231488370593
MOMENT1_ALPHA_1 = 0.660574220699140


class TestBuildMatrix:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_volterra_monomial_singular_values(self, alpha):
        op = build_matrix(SymbolPair.volterra(Z, alpha=alpha), 64)
        sv = np.sort(singular_values(op))[::-1]
        want = np.sort(1.0 / np.sqrt(alpha * np.arange(1, 64)))[::-1]
        np.testing.assert_allclose(sv[:62], want[:62], rtol=1e-8)

    def test_weighted_contraction_is_diagonal(self):
        op = build_matrix(SymbolPair.weighted(ONE, AffineMap(0.5)), 48)
        diag = np.diagonal(op.entries)
        np.testing.assert_allclose(diag, 0.5 ** np.arange(48), rtol=1e-12)
        off = op.entries - np.diag(diag)
        assert np.max(np.abs(off)) == 0.0

    def test_shifted_map_first_column_is_kernel_data(self):
        # uC_psi 1 = u for the constant basis vector; with u = 1, psi = z + b
        # the image is again 1, so column zero must be the unit vector
        op = build_matrix(SymbolPair.weighted(ONE, AffineMap(1.0, 0.3)), 16)
        np.testing.assert_allclose(op.entries[0, 0], 1.0, rtol=1e-12)
        composed = op.entries[:, 1]
        # psi(z) = z + 0.3 in basis terms: sqrt(alpha) (z + 0.3)
        np.testing.assert_allclose(composed[1], 1.0, rtol=1e-12)
        np.testing.assert_allclose(composed[0], 0.3, rtol=1e-12)

    def test_minimum_size_guard(self):
        with pytest.raises(ValueError):
            build_matrix(SymbolPair.volterra(Z), 1)

    def test_entries_stay_finite_for_large_sizes(self):
        op = build_matrix(SymbolPair.volterra(Z), 256)
        assert np.all(np.isfinite(op.entries))

    # the Weyl unitary f -> e^(z - 1/2) f(z - 1) at alpha 1
    WEYL = SymbolPair.weighted(Symbol.exponential(-0.5, 1.0),
                               AffineMap(1.0, -1.0))

    def test_overflowing_entries_raise(self):
        # the Taylor coefficients of u psi^n overflow before normalisation
        with pytest.raises(NonConvergence, match="overflow at size 256"):
            build_matrix(self.WEYL, 256)

    def test_unitary_compression_up_to_size_128_is_finite(self):
        op = build_matrix(self.WEYL, 128)
        assert np.all(np.isfinite(op.entries))
        assert singular_values(op)[0] <= 1.0 + 1e-8


def product_columns(pair, size, rows):
    """Column n: Taylor coefficients of psi^n times the weight symbol."""
    psi = Symbol.polynomial([pair.psi.b, pair.psi.a])
    power = Symbol.one()
    cols = np.empty((rows, size), dtype=complex)
    for n in range(size):
        cols[:, n] = (power * pair.weight_symbol).series(rows)
        power = power * psi
    return cols


class TestPowerSeries:
    @pytest.mark.parametrize("pair", [
        SymbolPair.weighted(Symbol.exponential(q1=0.3, q2=0.1j),
                            AffineMap(0.6, 0.4 - 0.2j)),
        SymbolPair.weighted(Symbol(poly=(1.0, 0.5j), expo=(0.1, -0.2, 0.05)),
                            AffineMap(-0.5j, 0.7)),
        SymbolPair.volterra(Symbol.exponential(q2=0.2), AffineMap(0.8, 0.5),
                            alpha=2.0),
    ])
    @pytest.mark.parametrize("size,rows", [(32, 35), (128, 127)])
    def test_recurrence_matches_symbol_products(self, pair, size, rows):
        got = _weighted_power_series(pair, size, rows)
        want = product_columns(pair, size, rows)
        scale = np.max(np.abs(want), axis=0)
        assert np.all(scale > 0)
        assert np.max(np.abs(got - want) / scale) <= 1e-13


class TestSpectralSummary:
    def test_volterra_monomial_tail_flags(self):
        op = build_matrix(SymbolPair.volterra(Z), 64)
        summary = spectral_summary(op, orders=(2.0, 4.0))
        # sigma_k ~ k^{-1/2}: the square sum diverges so the smallest quarter
        # keeps contributing, while the fourth power sum converges fast
        assert not summary.schatten[2.0].converged
        assert summary.schatten[4.0].converged
        assert 0 <= summary.schatten[2.0].tail_fraction <= 1

    def test_weighted_contraction_trace_norm(self):
        op = build_matrix(SymbolPair.weighted(ONE, AffineMap(0.5)), 64)
        summary = spectral_summary(op, orders=(1.0, 2.0))
        np.testing.assert_allclose(summary.schatten[1.0].value, 2.0, rtol=1e-9)
        assert summary.schatten[1.0].converged
        assert summary.op_norm == pytest.approx(1.0, rel=1e-12)
        assert summary.op_norm_converged

    def test_essential_proxy_uses_the_middle_of_the_spectrum(self):
        op = build_matrix(SymbolPair.volterra(Z), 64)
        summary = spectral_summary(op)
        sv = np.sort(singular_values(op))[::-1]
        assert summary.ess_norm_proxy == pytest.approx(sv[31], rel=1e-12)

    def test_hs_norm_matches_quadratic_partial(self):
        op = build_matrix(SymbolPair.weighted(ONE, AffineMap(0.5)), 64)
        summary = spectral_summary(op, orders=(2.0,))
        want = math.sqrt(sum(0.25 ** k for k in range(64)))
        np.testing.assert_allclose(summary.hs_norm, want, rtol=1e-10)


class TestRadialMoments:
    def test_frozen_references(self):
        np.testing.assert_allclose(radial_metric_moments(2, 1.0),
                                   [MOMENT0_ALPHA_1, MOMENT1_ALPHA_1],
                                   rtol=1e-10)
        np.testing.assert_allclose(radial_metric_moments(1, 2.0),
                                   [MOMENT0_ALPHA_2], rtol=1e-10)

    def test_moments_bounded_by_undamped_gaussian_moments(self):
        alpha = 2.0
        moments = radial_metric_moments(12, alpha)
        assert np.all(moments > 0)
        bare = np.array([np.pi * math.factorial(k) / alpha ** (k + 1)
                         for k in range(12)])
        assert np.all(moments < bare)


class TestToeplitzCrosscheck:
    @pytest.mark.parametrize("g", [Z, Symbol.polynomial([0.0, 0.0, 1.0])])
    def test_gram_routes_agree(self, g):
        deviation = toeplitz_crosscheck(SymbolPair.volterra(g), 32)
        assert deviation < 1e-6

    def test_weighted_kind_rejected(self):
        pair = SymbolPair.weighted(ONE, AffineMap(0.5))
        with pytest.raises(ValueError):
            toeplitz_crosscheck(pair, 16)

    def test_exponential_symbol_rejected(self):
        g = Symbol.exponential(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            toeplitz_crosscheck(SymbolPair.volterra(g), 16)


class TestKernelImageNorm:
    def test_identity_composition_preserves_kernels(self):
        pair = SymbolPair.weighted(ONE, AffineMap(1.0))
        np.testing.assert_allclose(kernel_image_norm(pair, 1.5, 2.0), 1.0,
                                   rtol=1e-9)

    @pytest.mark.parametrize("w", [0.5, 1.0 + 1.0j, 2.0])
    def test_contraction_closed_form(self, w):
        pair = SymbolPair.weighted(ONE, AffineMap(0.5))
        want = math.exp(-0.75 * abs(w) ** 2 / 2)
        np.testing.assert_allclose(kernel_image_norm(pair, w, 2.0), want,
                                   rtol=1e-8)

    @pytest.mark.parametrize("w", [0.5, 1.0 + 1.0j, 2.0])
    def test_matrix_route_agrees_for_smooth_weights(self, w):
        pair = SymbolPair.weighted(ONE, AffineMap(0.5))
        op = build_matrix(pair, 64)
        image = op.entries @ kernel_coefficients(w, 1.0, 64)
        np.testing.assert_allclose(np.linalg.norm(image),
                                   kernel_image_norm(pair, w, 2.0), rtol=1e-8)
