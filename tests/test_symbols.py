import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockops.errors import DegreeCap
from fockops.symbols import (
    MAX_DEGREE,
    AffineMap,
    Symbol,
    SymbolPair,
    weight_at,
)

st_coeff = st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                              allow_infinity=False)
st_coeffs = st.lists(st_coeff, min_size=1, max_size=5)
st_point = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                              allow_infinity=False)


def close(lhs, rhs, scale=1.0):
    return abs(lhs - rhs) <= 1e-8 * (scale + abs(rhs))


class TestAffineMap:
    def test_call_and_identity(self):
        amap = AffineMap(2.0, 1.0 - 1.0j)
        assert amap(0.5j) == 2.0 * 0.5j + 1.0 - 1.0j
        assert not amap.is_identity
        assert AffineMap(1.0).is_identity
        assert not AffineMap(1.0, 0.1).is_identity


class TestSymbolBasics:
    def test_polynomial_degree_and_zero(self):
        assert Symbol.polynomial([1.0, 0.0, 2.0]).degree == 2
        assert Symbol.polynomial([0.0]).is_zero
        assert not Symbol.polynomial([0.0, 1.0]).is_zero
        assert Symbol.one().is_polynomial

    def test_trailing_zero_coefficients_trimmed(self):
        sym = Symbol.polynomial([1.0, 2.0, 0.0, 0.0])
        assert sym.degree == 1

    def test_growth_properties(self):
        sym = Symbol.exponential(0.0, 1.5j, -0.25)
        assert sym.gaussian_growth == 0.25
        assert sym.linear_growth == 1.5
        assert not sym.is_polynomial

    def test_exponential_evaluation(self):
        sym = Symbol.exponential(math.log(2.0), 0.3, 0.1)
        expected = 2.0 * math.exp(0.3 * 0.5 + 0.1 * 0.25)
        np.testing.assert_allclose(sym(0.5), expected, rtol=1e-13)

    def test_degree_cap_on_construction(self):
        with pytest.raises(DegreeCap):
            Symbol.polynomial(np.zeros(MAX_DEGREE + 2))

    def test_degree_cap_on_product_blowup(self):
        spike = Symbol.polynomial([0.0] * 64 + [1.0])
        acc = spike
        with pytest.raises(DegreeCap):
            for _ in range(MAX_DEGREE // 64 + 1):
                acc = acc * spike


@given(coeffs=st_coeffs, z=st_point)
@settings(max_examples=60, deadline=None)
def test_polynomial_evaluates_by_horner(coeffs, z):
    sym = Symbol.polynomial(coeffs)
    direct = sum(c * z ** k for k, c in enumerate(coeffs))
    assert close(sym(z), direct, scale=1.0)


@given(coeffs=st_coeffs, a=st_coeff, b=st_coeff, z=st_point)
@settings(max_examples=60, deadline=None)
def test_affine_composition_matches_pointwise(coeffs, a, b, z):
    sym = Symbol.polynomial(coeffs)
    amap = AffineMap(a, b)
    assert close(sym.compose_affine(amap)(z), sym(amap(z)), scale=1.0)


@given(lhs=st_coeffs, rhs=st_coeffs, z=st_point)
@settings(max_examples=60, deadline=None)
def test_product_matches_pointwise(lhs, rhs, z):
    product = Symbol.polynomial(lhs) * Symbol.polynomial(rhs)
    assert close(product(z), Symbol.polynomial(lhs)(z) * Symbol.polynomial(rhs)(z),
                 scale=1.0)


class TestDerivative:
    def test_polynomial_rule(self):
        sym = Symbol.polynomial([5.0, 1.0, 2.0, 3.0])
        assert Symbol.polynomial([1.0, 4.0, 9.0]).poly == sym.derivative().poly

    def test_exponential_chain_rule(self):
        sym = Symbol.exponential(math.log(2.0), 0.3, 0.1)
        got = sym.derivative()(0.5)
        want = 2.0 * math.exp(0.15 + 0.025) * (0.3 + 0.2 * 0.5)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_mixed_product_rule(self):
        sym = Symbol(poly=(1.0, 2.0), expo=(0j, 0.5, 0.2))
        h = 1e-5
        got = sym.derivative()(0.7)
        fd = (sym(0.7 + h) - sym(0.7 - h)) / (2 * h)
        np.testing.assert_allclose(got, fd, rtol=1e-8)


class TestSeries:
    def test_polynomial_padding(self):
        assert np.allclose(Symbol.polynomial([1.0, 2.0]).series(4),
                           [1.0, 2.0, 0.0, 0.0])

    def test_linear_exponential_taylor(self):
        got = Symbol.exponential(0.0, 1.0, 0.0).series(8)
        want = [1.0 / math.factorial(k) for k in range(8)]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_quadratic_exponential_taylor(self):
        q2 = 0.3 - 0.1j
        got = Symbol.exponential(0.0, 0.0, q2).series(9)
        np.testing.assert_allclose(got[0::2],
                                   [q2 ** m / math.factorial(m) for m in range(5)],
                                   rtol=1e-12)
        assert np.all(got[1::2] == 0)

    def test_series_sums_back_to_value(self):
        sym = Symbol(poly=(0.5, 1.0), expo=(0.1, 0.2j, -0.15))
        z = 0.3 - 0.2j
        coeffs = sym.series(24)
        total = sum(c * z ** k for k, c in enumerate(coeffs))
        np.testing.assert_allclose(total, sym(z), rtol=1e-12)


class TestSymbolPair:
    def test_volterra_defaults_to_identity_map(self):
        pair = SymbolPair.volterra(Symbol.polynomial([0.0, 1.0]))
        assert pair.psi.is_identity
        assert pair.kind == "volterra"
        assert pair.has_metric_factor

    def test_weighted_weight_is_the_multiplier(self):
        u = Symbol.polynomial([2.0])
        pair = SymbolPair.weighted(u, AffineMap(0.5))
        assert not pair.has_metric_factor
        np.testing.assert_allclose(weight_at(pair, 1.0 + 1.0j), 2.0)

    def test_volterra_weight_has_metric_damping(self):
        pair = SymbolPair.volterra(Symbol.polynomial([0.0, 0.0, 1.0]))
        z = 2.0 + 1.0j
        expected = abs(2.0 * z) / (1.0 + abs(z))
        np.testing.assert_allclose(weight_at(pair, z), expected, rtol=1e-13)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            SymbolPair.volterra(Symbol.one(), alpha=0.0)
