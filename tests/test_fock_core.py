import math

import numpy as np
import pytest

from fockops.bands import LEMMA_DERIVATIVE_BAND
from fockops.fock_core import basis_log_norm, derivative_functional, fock_norm
from fockops.symbols import Symbol
from oracles import (basis_element, kernel, monomial_gram, normalized_kernel,
                     poly_inner)

# sqrt(2 * I0) with I0 = int |z|^2 (1+|z|)^-2 e^{-|z|^2} dm / pi computed
# by adaptive 1-d quadrature, frozen here as an independent reference.
DERIV_FUNCTIONAL_Z = 0.578481111882093


class TestMonomialGram:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_diagonal(self, alpha):
        for n in range(6):
            np.testing.assert_allclose(monomial_gram(n, n, alpha),
                                       math.factorial(n) / alpha ** n,
                                       rtol=1e-12)

    def test_off_diagonal_vanishes(self):
        for m in range(5):
            for n in range(5):
                if m != n:
                    assert monomial_gram(m, n, 1.0) == 0.0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            monomial_gram(-1, 0, 1.0)

    def test_poly_inner_matches_entrywise_sum(self):
        lhs = Symbol.polynomial([1.0, 2.0j, 0.5])
        rhs = Symbol.polynomial([0.5, 1.0])
        want = sum(a * np.conj(b) * monomial_gram(n, n, 1.0)
                   for n, (a, b) in enumerate(zip(lhs.poly, rhs.poly)))
        np.testing.assert_allclose(poly_inner(lhs, rhs, 1.0), want, rtol=1e-12)


class TestBasis:
    @pytest.mark.parametrize("n,alpha", [(0, 1.0), (3, 1.0), (5, 0.5), (8, 2.0)])
    def test_normalized_in_quadratic_mean(self, n, alpha):
        np.testing.assert_allclose(fock_norm(basis_element(n, alpha), 2.0, alpha),
                                   1.0, rtol=1e-9)

    def test_log_norm_consistency(self):
        # e_n = exp(basis_log_norm) z^n must carry coefficient sqrt(alpha^n/n!)
        for n, alpha in [(4, 1.0), (10, 0.5), (40, 2.0)]:
            want = 0.5 * (n * math.log(alpha) - math.lgamma(n + 1))
            np.testing.assert_allclose(basis_log_norm(n, alpha), want, rtol=1e-13)


class TestNorms:
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_constants_have_unit_norm(self, p, alpha):
        np.testing.assert_allclose(fock_norm(Symbol.one(), p, alpha), 1.0,
                                   rtol=1e-10)

    def test_homogeneity(self):
        f = Symbol.polynomial([0.3, 1.0, 0.2j])
        base = fock_norm(f, 2.0, 1.0)
        scaled = fock_norm(Symbol.polynomial([1.5 * c for c in f.poly]), 2.0, 1.0)
        np.testing.assert_allclose(scaled, 1.5 * base, rtol=1e-10)

    def test_quadratic_norm_matches_gram(self):
        f = Symbol.polynomial([1.0, -0.5j, 0.25])
        want = math.sqrt(sum((abs(c) ** 2 * monomial_gram(n, n, 1.0)).real
                             for n, c in enumerate(f.poly)))
        np.testing.assert_allclose(fock_norm(f, 2.0, 1.0), want, rtol=1e-9)


class TestKernel:
    def test_normalized_kernel_has_unit_norm(self):
        w = 1.2 + 0.8j
        f = normalized_kernel(w, 1.0)
        # truncate far beyond the scale of |w| so the tail is negligible
        np.testing.assert_allclose(fock_norm(f, 2.0, 1.0), 1.0, rtol=1e-8)

    def test_kernel_reproduces_polynomials(self):
        f = Symbol.polynomial([0.5, 1.0, 0.75j])
        w = 0.6 - 0.3j
        truncated = Symbol.polynomial(kernel(w, 1.0).series(40))
        inner = poly_inner(f, truncated, 1.0)
        np.testing.assert_allclose(inner, f(w), rtol=1e-10)

    def test_exact_inner_product_rejects_exponentials(self):
        with pytest.raises(ValueError):
            poly_inner(Symbol.one(), kernel(1.0, 1.0), 1.0)


class TestDerivativeFunctional:
    def test_monomial_reference_value(self):
        np.testing.assert_allclose(
            derivative_functional(Symbol.polynomial([0.0, 1.0]), 2.0, 1.0),
            DERIV_FUNCTIONAL_Z, rtol=1e-9)

    def test_constant_sees_only_the_point_mass(self):
        np.testing.assert_allclose(
            derivative_functional(Symbol.polynomial([3.0]), 2.0, 1.0),
            3.0, rtol=1e-12)

    @pytest.mark.parametrize("f,frozen_ratio", [
        (Symbol.one(), 1.0),
        (Symbol.polynomial([0.0, 1.0]), 1.728665),
        (Symbol.polynomial([0.0, 0.0, 1.0]), 1.542052),
        (Symbol.polynomial([0.0, 0.0, 0.0, 1.0]), 1.458401),
        (normalized_kernel(1.0 + 1.0j, 1.0), 1.030233),
    ])
    def test_comparability_band(self, f, frozen_ratio):
        # the full norm is controlled by the point mass plus the damped
        # derivative seminorm, with a modest equivalence constant
        ratio = fock_norm(f, 2.0, 1.0) / derivative_functional(f, 2.0, 1.0)
        np.testing.assert_allclose(ratio, frozen_ratio, rtol=1e-5)
        assert 1.0 - 1e-9 <= ratio <= LEMMA_DERIVATIVE_BAND
