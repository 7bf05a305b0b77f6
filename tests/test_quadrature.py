import itertools
import math

import mpmath
import numpy as np
import pytest

from fockops import quadrature
from fockops.berezin import berezin_at
from fockops.criteria import random_volterra_family
from fockops.errors import DivergentTail, InvalidIntegrand, NonConvergence
from fockops.fock_core import fock_norm
from fockops.quadrature import (
    Tolerance,
    build_scheme,
    gaussian_integral,
    tail_radius,
)
from fockops.symbols import Symbol


def constant_one(z):
    return np.ones(z.shape)


@pytest.fixture
def table_sizes(monkeypatch):
    """Node counts of every Gauss-Legendre table asked for."""
    asked = []
    table = quadrature._leggauss

    def spy(n):
        asked.append(n)
        return table(n)

    monkeypatch.setattr(quadrature, "_leggauss", spy)
    return asked


class TestGaussianIntegral:
    def test_unit_mass(self):
        result = gaussian_integral(constant_one, 1.0)
        np.testing.assert_allclose(result.value, np.pi, rtol=1e-10)

    @pytest.mark.parametrize("decay", [0.25, 0.5, 2.0, 7.5])
    def test_mass_scaling(self, decay):
        result = gaussian_integral(constant_one, decay)
        np.testing.assert_allclose(result.value, np.pi / decay, rtol=1e-10)

    @pytest.mark.parametrize("shift", [0.5, 1.0 + 0.5j, -2.0, 3.0j])
    def test_translation_invariance(self, shift):
        # exp(-|z - a|^2) = exp(2 Re(conj(a) z) - |a|^2) exp(-|z|^2), so the
        # shifted mass must come back equal to pi as well.
        def shifted(z):
            return np.exp(2.0 * (np.conj(shift) * z).real - abs(shift) ** 2)

        result = gaussian_integral(shifted, 1.0, linear_bound=2.0 * abs(shift))
        np.testing.assert_allclose(result.value, np.pi, rtol=1e-10)

    @pytest.mark.parametrize("n,decay", [(1, 1.0), (3, 1.0), (2, 0.5), (5, 2.0)])
    def test_radial_moments(self, n, decay):
        def moment(z):
            return np.abs(z) ** (2 * n)

        result = gaussian_integral(moment, decay, poly_degree_cap=2 * n)
        exact = np.pi * math.factorial(n) / decay ** (n + 1)
        np.testing.assert_allclose(result.value, exact, rtol=1e-9)

    def test_angular_harmonics_cancel(self):
        result = gaussian_integral(lambda z: z ** 3, 1.0, poly_degree_cap=3)
        assert abs(result.value) < 1e-12

    def test_reported_error_bounds_convergence(self):
        tol = Tolerance(rel_tol=1e-8, abs_tol=1e-12)
        result = gaussian_integral(constant_one, 1.0, tol)
        assert result.error <= max(tol.abs_tol, tol.rel_tol * abs(result.value))
        assert result.error_history[-1] <= result.error_history[0]

    def test_nan_integrand_rejected(self):
        with pytest.raises(InvalidIntegrand):
            gaussian_integral(lambda z: np.full(z.shape, np.nan), 1.0)

    def test_zero_refinements_cannot_converge(self):
        tol = Tolerance(rel_tol=1e-10, abs_tol=1e-12, max_refinements=0)
        with pytest.raises(NonConvergence):
            gaussian_integral(constant_one, 1.0, tol)

    def test_nonconvergence_carries_partial_value(self):
        tol = Tolerance(rel_tol=1e-14, abs_tol=1e-16, max_refinements=1)
        with pytest.raises(NonConvergence) as info:
            gaussian_integral(lambda z: np.cos(40 * z.real), 1.0, tol)
        assert info.value.value is not None


class TestTolerance:
    @pytest.mark.parametrize("kwargs,message", [
        (dict(rel_tol=0.0), "rel_tol"),
        (dict(rel_tol=1.5), "rel_tol"),
        (dict(abs_tol=-1.0), "abs_tol"),
        (dict(max_refinements=-1), "max_refinements"),
        (dict(max_refinements=2.5), "max_refinements"),
        (dict(max_refinements=2.0), "max_refinements"),
        (dict(max_refinements="3"), "max_refinements"),
    ])
    def test_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Tolerance(**kwargs)


class TestTailRadius:
    def test_pinned_root(self):
        # 2-exp(0.5 r^2 + 10 log(1+r)) crossing for abs_tol 1e-12, decay 2
        radius = tail_radius(2.0, 1e-12, growth_bound=0.5, poly_degree_cap=10)
        np.testing.assert_allclose(radius, 5.56465122705939, rtol=1e-9)

    def test_shrinking_tolerance_grows_radius(self):
        loose = tail_radius(1.0, 1e-6)
        tight = tail_radius(1.0, 1e-14)
        assert tight > loose

    @pytest.mark.parametrize("decay", [0.5, 1.0, 3.0])
    def test_radius_floor(self, decay):
        assert tail_radius(decay, 1e-8) >= 1.0 / math.sqrt(decay)

    def test_growth_at_decay_diverges(self):
        with pytest.raises(DivergentTail):
            tail_radius(1.0, 1e-12, growth_bound=1.0)
        with pytest.raises(DivergentTail):
            tail_radius(1.0, 1e-12, growth_bound=1.25)

    def test_matches_an_mpmath_root(self):
        # the root of -gap R^2 + L R + k log1p(R) - log(abs_tol) at 30
        # digits, bracketed between 0 and the first power of two past it
        grid = itertools.product((0.05, 1.0, 40.0), (0.0, 0.9),
                                 (0.0, 0.5, 30.0), (0, 10, 64),
                                 (1e-6, 1e-12))
        with mpmath.workdps(30):
            for decay, share, linear, cap, abs_tol in grid:
                growth = share * decay
                gap = mpmath.mpf(decay) - mpmath.mpf(growth)

                def log_tail(r):
                    return (-gap * r * r + linear * r
                            + cap * mpmath.log1p(r) - mpmath.log(abs_tol))

                hi = mpmath.mpf(1)
                while log_tail(hi) > 0:
                    hi *= 2
                root = mpmath.findroot(log_tail, (0, hi), solver="illinois")
                want = max(float(root), 1.0 / math.sqrt(decay))
                got = tail_radius(decay, abs_tol, growth_bound=growth,
                                  linear_bound=linear, poly_degree_cap=cap)
                assert got == pytest.approx(want, rel=1e-13), (
                    decay, share, linear, cap, abs_tol)

    def test_unreachable_radius_diverges(self):
        # no radius up to 2^199 ~ 8.0e59 meets the bound at L = 1e61
        assert tail_radius(1.0, 1e-12, linear_bound=1e59) == \
            pytest.approx(1e59, rel=1e-13)
        with pytest.raises(DivergentTail):
            tail_radius(1.0, 1e-12, linear_bound=1e61)


class TestScheme:
    def test_angular_count_must_be_even(self):
        with pytest.raises(ValueError):
            build_scheme(1.0, angular_count=5)
        with pytest.raises(ValueError):
            build_scheme(1.0, angular_count=2)

    def test_refined_doubles_radial_nodes(self):
        base = build_scheme(1.0, radial_count=8, angular_count=8)
        finer = base.refined(1)
        assert len(finer.radial_nodes) == 2 * len(base.radial_nodes)
        assert finer.angular_count == 2 * base.angular_count

    def test_bare_weights_recover_gaussian_mass(self):
        scheme = build_scheme(1.0)
        nodes, weights = scheme.complex_nodes()
        mass = np.sum(weights * np.exp(-np.abs(nodes) ** 2))
        np.testing.assert_allclose(mass, np.pi, rtol=1e-12)

    def test_integrate_folds_gaussian(self):
        scheme = build_scheme(2.0)
        value = scheme.integrate(lambda z: np.ones(z.shape))
        np.testing.assert_allclose(value, np.pi / 2, rtol=1e-12)

    def test_integrate_rejects_nonfinite(self):
        scheme = build_scheme(1.0, radial_count=4, angular_count=4)
        with pytest.raises(InvalidIntegrand):
            scheme.integrate(lambda z: np.where(z.real > 0, np.inf, 1.0))


class TestLevels:
    def test_levels_double_up_to_the_budget(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_SAMPLE_BUDGET", 128 * 128)
        base = build_scheme(1.0, radial_count=16, angular_count=16)
        levels = list(base.levels(10))
        assert levels[0] is base
        assert [(s.radial_nodes.size, s.angular_count) for s in levels] == [
            (16, 16), (32, 32), (64, 64), (128, 128)]
        assert all(s.radius == base.radius for s in levels)

    def test_levels_stop_at_the_refinement_cap(self):
        base = build_scheme(1.0, radial_count=8, angular_count=8)
        assert [s.angular_count for s in base.levels(2)] == [8, 16, 32]

    def test_no_table_past_the_budget(self, monkeypatch, table_sizes):
        monkeypatch.setattr(quadrature, "_SAMPLE_BUDGET", 128 * 128)
        base = build_scheme(1.0, radial_count=16, angular_count=16)
        for _ in base.levels(10):
            pass
        assert max(table_sizes) == 128


class TestBudget:
    """Refinement that ends on the sample budget builds no larger table.

    The last level within 2^22 samples is 2048 x 2048 on the 64-node base
    of ``gaussian_integral`` and 1536 x 1536 on the transform's 24-node
    base.
    """

    UNMEETABLE = Tolerance(rel_tol=1e-15, abs_tol=1e-300)

    def test_unmeetable_norm_stops_at_the_budget(self, table_sizes):
        with pytest.raises(NonConvergence):
            fock_norm(Symbol.polynomial([1.0, 0.5]), 2.0, 1.0,
                      tol=self.UNMEETABLE)
        assert max(table_sizes) == 2048

    def test_far_transform_stops_at_the_budget(self, table_sizes):
        pair = random_volterra_family(1, seed=3, degree_max=3, alpha=0.5)[0]
        with pytest.raises(NonConvergence):
            berezin_at(pair, 2.0, 1.0, tol=self.UNMEETABLE)
        assert max(table_sizes) == 1536
