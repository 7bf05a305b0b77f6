import cmath
import math
import tracemalloc
import types

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockops import berezin, quadrature
from fockops.bands import HS_DIRECT_RATIO_BAND, SUBHARMONIC_LOWER
from fockops.berezin import (
    PROFILE_TOL,
    GridSpec,
    berezin_at,
    berezin_log_profile,
    berezin_power_integral,
    berezin_profile,
    hilbert_schmidt_integral,
)
from fockops.criteria import classify_berezin, random_volterra_family
from fockops.errors import DivergentTail, NonConvergence
from fockops.quadrature import Tolerance, build_scheme, gaussian_integral
from fockops.symbols import AffineMap, Symbol, SymbolPair, weight_at

# 2 pi int_0^inf r^3 e^{-r^2} / (1+r)^2 dr, frozen from scipy.integrate.quad
VOLTERRA_Z_AT_ORIGIN = 1.051303812194897

ONE = Symbol.polynomial([1.0])
Z = Symbol.polynomial([0.0, 1.0])


def flat_pair(alpha=1.0):
    return SymbolPair.weighted(ONE, AffineMap(1.0), alpha=alpha)


def mp_identity_volterra(w):
    """B(w) for g = z, psi = z, alpha = 1, power 2, by mpmath at 30 digits:

        2 pi e^(-|w|^2) int_0^inf I_0(2 r |w|) e^(-r^2) r (1 + r)^(-2) dr.

    The integrand peaks at r = |w| with unit width; outside 12 widths it
    is below e^(-144) of the peak.
    """
    with mpmath.workdps(30):
        s = mpmath.mpf(abs(w))

        def f(r):
            return (mpmath.besseli(0, 2 * r * s) * mpmath.exp(-r * r - s * s)
                    * r / (1 + r) ** 2)

        return float(2 * mpmath.pi * mpmath.quad(
            f, [max(0, s - 12), s, s + 12], method="gauss-legendre"))


def _bessel_i(n, x):
    """[I_0(x), ..., I_n(x)] by Miller's backward recurrence."""
    if not x:
        return [mpmath.mpf(1)] + [mpmath.mpf(0)] * n
    top = n + 40 + int(x)
    vals = [mpmath.mpf(0)] * (top + 2)
    vals[top] = mpmath.mpf(10) ** -30
    for k in range(top, 0, -1):
        vals[k - 1] = vals[k + 1] + 2 * k / x * vals[k]
    scale = mpmath.besseli(0, x) / vals[0]
    return [v * scale for v in vals[:n + 1]]


def mp_transform(pair, power, w, radial, about=0.0):
    """B(w) by mpmath for a weight whose W^power e^(-power Re q) is
    ``radial(|z - about|)``.

    In polar coordinates about ``about`` the remaining exponent is
    Re(beta zeta) + Re(gamma zeta^2) - c |zeta|^2 plus a constant, and its
    angular integral is the Bessel series
    2 pi sum_m I_2m(rho |beta|) I_m(rho^2 |gamma|) cos(m (arg gamma - 2 arg beta)),
    which leaves one radial integral for mpmath.
    """
    mp = mpmath.mp
    with mpmath.workdps(15):
        c = mp.mpf(power) * pair.alpha / 2
        q0, q1, q2 = (mp.mpc(q) for q in pair.weight_symbol.expo)
        a, b, w, p = (mp.mpc(x) for x in (pair.psi.a, pair.psi.b, w, about))
        beta = 2 * c * a * mp.conj(w) + power * q1
        gamma = power * q2
        const = (c * (2 * mp.re(b * mp.conj(w)) - abs(w) ** 2)
                 + power * mp.re(q0) + mp.re(beta * p + gamma * p * p)
                 - c * abs(p) ** 2)
        beta += 2 * gamma * p - 2 * c * mp.conj(p)
        phase = mp.arg(gamma) - 2 * mp.arg(beta)
        # The exponent is at most |beta| rho - gap rho^2, so beyond
        # |beta| / gap plus 12 widths of the gap the tail is below e^(-144).
        gap = c - abs(gamma)
        top = abs(beta) / gap + 12 / mp.sqrt(gap)
        terms = int(top * abs(beta) / 2 + top * top * abs(gamma)) + 30
        cosines = [mp.cos(k * phase) for k in range(terms + 1)]

        def f(rho):
            x, y = rho * abs(beta), rho * rho * abs(gamma)
            m = int(max(x / 2, y)) + 30
            ix, iy = _bessel_i(2 * m, x), _bessel_i(m, y)
            series = ix[0] * iy[0] + 2 * mp.fsum(
                ix[2 * k] * iy[k] * cosines[k] for k in range(1, m + 1))
            return radial(rho) * mp.exp(-c * rho * rho) * 2 * mp.pi * series * rho

        return float(mp.exp(const) * mp.quad(f, [0, top],
                                             method="gauss-legendre"))


# g' = z - 0.9 at power 1: the transform near the kink of |g'| at the zero
# of g' needs the fourth level (192 x 192 samples) on the default rule,
# points far from it stop earlier.
DEEP_PAIR = SymbolPair.volterra(Symbol.polynomial([0.0, -0.9, 0.5]))

# A contracting map with b != 0, so every centre v* is non-zero.
CONTRACTING = AffineMap(0.5 * cmath.exp(0.4j), 0.6 + 0.3j)
# Weights u0 e^q: about v* the integrand is the same at every w.
PURE_EXPONENTIAL = [SymbolPair.weighted(Symbol.polynomial([1.5 - 0.4j]),
                                        CONTRACTING),
                    SymbolPair.weighted(Symbol.exponential(q2=0.1j),
                                        CONTRACTING)]
# Weights whose integrand about v* depends on w through P(v* + zeta).
POINT_DEPENDENT = [SymbolPair.weighted(Symbol.polynomial([0.3, 1.0 - 0.5j]),
                                       CONTRACTING),
                   SymbolPair.volterra(Symbol.polynomial([0.0, 0.2, 0.5j]),
                                       CONTRACTING)]


def spy_rows(monkeypatch):
    """[points, sample rows P was evaluated on] of each level to come."""
    levels = []
    level = berezin._log_level
    polyval = berezin._POLY.polyval

    def count(x, c):
        levels[-1][1] += 1 if x.ndim == 1 else x.shape[0]
        return polyval(x, c)

    def spy(pair, power, v, lam, scheme):
        levels.append([v.size, 0])
        return level(pair, power, v, lam, scheme)

    monkeypatch.setattr(berezin, "_POLY", types.SimpleNamespace(polyval=count))
    monkeypatch.setattr(berezin, "_log_level", spy)
    return levels


def spy_levels(monkeypatch, record):
    """[record(v, lam, scheme)] of each level to come."""
    levels = []
    level = berezin._log_level

    def spy(pair, power, v, lam, scheme):
        levels.append(record(v, lam, scheme))
        return level(pair, power, v, lam, scheme)

    monkeypatch.setattr(berezin, "_log_level", spy)
    return levels


def spy_centres(monkeypatch):
    """The centres v of the points of each level to come."""
    return spy_levels(monkeypatch, lambda v, lam, scheme: v.copy())


def spy_nodes(monkeypatch):
    """(radial, angular) node counts of each level to come."""
    return spy_levels(monkeypatch, lambda v, lam, scheme: (
        scheme.radial_nodes.size, scheme.angular_count))


def level_samples(scheme):
    return scheme.radial_nodes.size * scheme.angular_count


class TestPointValues:
    @pytest.mark.parametrize("w", [0.0, 1.0, 4.0 - 2.0j, 12.0j, 30.0])
    def test_identity_weight_is_flat(self, w):
        np.testing.assert_allclose(berezin_at(flat_pair(), 2.0, w), np.pi,
                                   rtol=1e-10)

    @pytest.mark.parametrize("alpha,power", [(0.5, 2.0), (2.0, 2.0), (1.0, 4.0)])
    def test_identity_weight_scaling(self, alpha, power):
        pair = flat_pair(alpha)
        np.testing.assert_allclose(berezin_at(pair, power, 1.5),
                                   2.0 * np.pi / (power * alpha), rtol=1e-10)

    @pytest.mark.parametrize("w", [0.0, 1.0 + 1.0j, -2.5, 3.0j])
    def test_contraction_closed_form(self, w):
        pair = SymbolPair.weighted(ONE, AffineMap(0.5))
        want = np.pi * np.exp(-0.75 * abs(w) ** 2)
        np.testing.assert_allclose(berezin_at(pair, 2.0, w), want, rtol=1e-9)

    def test_shifted_map_closed_form(self):
        # u = 1, psi = a z + b: value pi exp(-(1-|a|^2)|w|^2 + 2 Re(b conj(w)))
        a, b, w = 0.6, 0.4 + 0.2j, 1.0 - 0.5j
        pair = SymbolPair.weighted(ONE, AffineMap(a, b))
        exponent = -(1 - a * a) * abs(w) ** 2 + 2 * (b * np.conj(w)).real
        np.testing.assert_allclose(berezin_at(pair, 2.0, w),
                                   np.pi * np.exp(exponent), rtol=1e-9)

    def test_volterra_monomial_at_origin(self):
        pair = SymbolPair.volterra(Z)
        np.testing.assert_allclose(berezin_at(pair, 2.0, 0.0),
                                   VOLTERRA_Z_AT_ORIGIN, rtol=1e-8)

    @pytest.mark.parametrize("w", [0.8, 1.0 + 0.5j, -1.5j])
    @pytest.mark.parametrize("g", [Z, Symbol.polynomial([0.0, 0.0, 1.0])])
    def test_matches_plain_quadrature(self, g, w):
        # same transform without recentring: the integrand against the full
        # Gaussian, with the kernel factor written out explicitly
        pair = SymbolPair.volterra(g)
        c = 1.0

        def plain(z):
            kernel_part = np.exp(2 * c * (pair.psi(z) * np.conj(w)).real
                                 - c * abs(w) ** 2)
            return weight_at(pair, z) ** 2 * kernel_part

        direct = gaussian_integral(plain, c, linear_bound=2 * c * abs(w),
                                   poly_degree_cap=2 * g.degree)
        np.testing.assert_allclose(berezin_at(pair, 2.0, w), direct.value,
                                   rtol=1e-6)


class TestConstantExponentFactor:
    """B[P e^(q0 + q1 z + q2 z^2)] = exp(power Re q0) B[P e^(q1 z + q2 z^2)].

    The integral kind has the metric kink at 0, and |1 + z/2|^1 kinks at
    -2; the mpmath reference integrates in polar coordinates about it.
    """

    CASES = [
        (SymbolPair.volterra, (1.0,), 0.1, AffineMap(0.5), 2.0),
        (SymbolPair.weighted, (1.0, 0.5), 0.05, AffineMap(0.5, 0.2), 1.0),
    ]
    # kind -> (kink, |P|^power over the metric factor as a function of the
    # distance to the kink)
    RADIAL = {"volterra": (0.0, lambda r: (0.2 * r) ** 2 / (1 + r) ** 2),
              "weighted": (-2.0, lambda r: 0.5 * r)}

    @pytest.mark.parametrize("w", [0.0, 0.3, 1.0 + 0.5j, -1.5j])
    @pytest.mark.parametrize("make,poly,q2,psi,power", CASES)
    def test_q0_scales_the_transform(self, make, poly, q2, psi, power, w):
        full = make(Symbol(poly=poly, expo=(1.0, 0.0, q2)), psi)
        bare = make(Symbol(poly=poly, expo=(0.0, 0.0, q2)), psi)
        np.testing.assert_allclose(berezin_at(full, power, w),
                                   math.exp(power) * berezin_at(bare, power, w),
                                   rtol=1e-9)
        # The kink of |1 + z/2| off the rule's centre limits the weighted
        # case's agreement to about 1e-8.
        kink, radial = self.RADIAL[full.kind]
        np.testing.assert_allclose(berezin_at(full, power, w),
                                   mp_transform(full, power, w, radial, kink),
                                   rtol=1e-6)


class TestFarPoints:
    """Points far from the origin, each about the centre the rule gives it."""

    @pytest.mark.parametrize("r", [0.0, 0.3, 3.0, 6.0, 30.0, 300.0, 3000.0])
    def test_identity_volterra_matches_mpmath(self, r):
        w = r * cmath.exp(0.7j)
        np.testing.assert_allclose(berezin_at(SymbolPair.volterra(Z), 2.0, w),
                                   mp_identity_volterra(w), rtol=1e-12)

    # (q0, q1, q2), psi, power, alpha; power |q2| < c, the last two
    # within 2 % of that edge
    EXP_CASES = [
        ((0.3 - 0.2j, 0.2 - 0.1j, 0.1 + 0.2j), AffineMap(0.8, 0.3 + 0.1j),
         2.0, 1.0),
        ((0.0, 0.5, -0.3j), AffineMap(cmath.exp(0.4j), -0.5), 1.0, 2.0),
        ((0.0, 0.0, 0.45), AffineMap(1.0), 2.0, 1.0),
        ((0.0, 0.0, 0.4925), AffineMap(0.05), 2.0, 1.0),
        ((0.0, 0.3, 0.499j), AffineMap(0.5, 0.2), 2.0, 1.0),
    ]

    @pytest.mark.parametrize("expo,psi,power,alpha", EXP_CASES)
    def test_exp_quadratic_closed_form(self, expo, psi, power, alpha):
        # log B = log(pi / sqrt(c^2 - |gamma|^2)) + power Re q0 - c |w|^2
        #         + 2 c Re(b conj(w)) + Re(beta v*) / 2
        # with beta = 2 c a conj(w) + power q1, gamma = power q2 and v* the
        # stationary point (conj(gamma) beta + c conj(beta))
        # / (2 (c^2 - |gamma|^2)) of Re(beta z) + Re(gamma z^2) - c |z|^2.
        pair = SymbolPair.weighted(Symbol.exponential(*expo), psi,
                                   alpha=alpha)
        w = np.multiply.outer([0.0, 1.0, 10.0, 167.0, 1400.0],
                              np.exp(1j * np.array([0.3, 2.0, 4.1]))).ravel()
        c = 0.5 * power * alpha
        q0, q1, q2 = expo
        beta = 2.0 * c * psi.a * np.conj(w) + power * q1
        gamma = power * q2
        det = c * c - abs(gamma) ** 2
        v = (np.conj(gamma) * beta + c * np.conj(beta)) / (2.0 * det)
        want = (math.log(math.pi / math.sqrt(det)) + power * np.real(q0)
                - c * np.abs(w) ** 2 + 2.0 * c * np.real(psi.b * np.conj(w))
                + 0.5 * np.real(beta * v))
        got = berezin_log_profile(pair, power, w,
                                  tol=Tolerance(rel_tol=1e-8))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_vanishing_power_gives_the_gaussian_mass(self):
        # as power -> 0, W^power -> 1 and B -> pi / c at every w; c^2 would
        # underflow here, and v* must not square c
        power = 1e-300
        c = 0.5 * power
        pts = GridSpec(radial_count=3, angular_count=4).points(1.0)
        got = berezin_log_profile(SymbolPair.volterra(Z), power, pts)
        np.testing.assert_allclose(got, math.log(math.pi / c), rtol=1e-12)

    def test_far_point_memory_stays_small(self):
        pair = random_volterra_family(1, seed=3, degree_max=3, alpha=0.5)[0]
        tracemalloc.start()
        try:
            value = berezin_at(pair, 2.0, 1414.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(value)
        assert peak < 32 * 2 ** 20


class TestKinkRule:
    """A Volterra point leaves the origin centre for v* only where the
    metric kink at 0 is too light for the tolerance to see."""

    @pytest.mark.parametrize("x", [2.5, 3.5, 4.5, 6.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_volterra_points_match_mpmath(self, monkeypatch, alpha, x):
        # g = z at power 2, so c = alpha, v* = w and |w| sqrt(c) = x.  The
        # kink drops below the margin between x = 3.5 and 4.5 at
        # PROFILE_TOL, and between 4.5 and 6 at Tolerance().
        pair = SymbolPair.volterra(Z, alpha=alpha)
        w = x / math.sqrt(alpha) * cmath.exp(0.7j)
        if alpha == 1.0:
            want = mp_identity_volterra(w)
        else:
            want = mp_transform(pair, 2.0, w, lambda r: (1 + r) ** -2)
        centres = spy_centres(monkeypatch)
        for tol, last_origin in ((PROFILE_TOL, 3.5), (Tolerance(), 4.5)):
            centres.clear()
            got = berezin_log_profile(pair, 2.0, [w], tol=tol)[0]
            assert abs(got - math.log(want)) <= tol.rel_tol
            assert (centres[0][0] == 0) == (x <= last_origin)

    def test_zero_of_the_derivative_keeps_the_origin(self, monkeypatch):
        # g' = z - 5: at w = 5 the weight vanishes at v* = w, so the kink
        # outweighs the peak; at w = 5i it is e^(-22) below it.
        pair = SymbolPair.volterra(Symbol.polynomial([0.0, -5.0, 0.5]))
        centres = spy_centres(monkeypatch)
        for w, centre in ((5.0, 0.0), (5.0j, 5.0j)):
            centres.clear()
            berezin_log_profile(pair, 2.0, [w])
            assert centres[0][0] == centre

    def test_origin_set_shrinks_as_the_tolerance_grows(self, monkeypatch):
        points = np.linspace(2.0, 7.0, 41) * cmath.exp(0.3j)
        centres = spy_centres(monkeypatch)
        counts = []
        for rel_tol in (1e-10, 1e-7, 1e-4, 1e-1):
            centres.clear()
            berezin_log_profile(SymbolPair.volterra(Z), 2.0, points,
                                tol=Tolerance(rel_tol=rel_tol))
            # v* = w is never 0 here, so only the origin's points have v = 0
            counts.append(max(int(np.sum(v == 0)) for v in centres))
        assert all(a > b for a, b in zip(counts, counts[1:])), counts


class TestProfile:
    def test_grid_shape_and_header(self):
        prof = berezin_profile(flat_pair(), 2.0,
                               grid=GridSpec(w_max=4.0, radial_count=6,
                                             angular_count=8))
        rows = list(prof.csv_rows())
        assert rows[0] == ("w_re", "w_im", "value")
        assert len(rows) == 6 * 8 + 1
        values = np.array([r[2] for r in rows[1:]])
        np.testing.assert_allclose(values, np.pi, rtol=1e-8)

    def test_ring_maxima_decrease_for_contraction(self):
        prof = berezin_profile(SymbolPair.weighted(ONE, AffineMap(0.5)), 2.0)
        rings = prof.values.max(axis=1)
        assert np.all(np.diff(rings) < 0)
        # the grid starts at r_min, so the sup sits on the innermost ring
        assert prof.values.max() == pytest.approx(
            np.pi * np.exp(-0.75 * 0.25 ** 2), rel=1e-4)
        assert np.all(np.isfinite(prof.values))

    def test_expanding_map_grows_toward_the_rim(self):
        prof = berezin_profile(SymbolPair.weighted(ONE, AffineMap(1.2)), 2.0)
        rings = prof.values.max(axis=1)
        assert rings[-1] > 10 * rings[0]

    def test_divergent_exponential_weight_is_infinite(self):
        u = Symbol.exponential(0.0, 0.0, 0.6)
        prof = berezin_profile(SymbolPair.weighted(u, AffineMap(1.0)), 2.0)
        assert np.all(np.isposinf(prof.values))

    def test_log_profile_agrees_with_point_evaluation(self):
        pair = SymbolPair.volterra(Z)
        points = np.array([0.5, 1.0 + 1.0j, 2.0])
        logs = berezin_log_profile(pair, 2.0, points)
        for got, w in zip(logs, points):
            np.testing.assert_allclose(math.exp(got),
                                       berezin_at(pair, 2.0, complex(w)),
                                       rtol=2e-4)


class TestEvaluator:
    """The chunked, per-point refinement of the transform evaluator."""

    @pytest.mark.parametrize("a", [1.0, 0.0])
    def test_chunk_size_leaves_values_bit_identical(self, monkeypatch, a):
        # a = 1 centres every point at w; a = 0 centres them all at 0
        pair = SymbolPair.volterra(Symbol.polynomial([0.2, -0.9, 0.5]),
                                   AffineMap(a, 0.3))
        w = np.geomspace(0.25, 16.0, 40) * np.exp(0.7j * np.arange(40))
        v = np.conj(a) * w
        lam = 2.0 * np.conj(np.conj(a) * w - v) + 0.5
        scheme = build_scheme(1.0, radial_count=48,
                              angular_count=48).refined(1)
        small = berezin._log_level(pair, 2.0, v, lam, scheme)
        monkeypatch.setattr(quadrature, "_CHUNK", 1 << 22)
        whole = berezin._log_level(pair, 2.0, v, lam, scheme)
        np.testing.assert_array_equal(small, whole)

    def test_points_stop_on_their_own(self, monkeypatch):
        # (points, samples, tilted) of each level evaluated
        calls = spy_levels(monkeypatch, lambda v, lam, scheme: (
            v.size, level_samples(scheme), bool(np.any(lam))))
        near = 0.8 * np.exp(2j * np.pi * np.arange(6) / 6)
        points = np.concatenate([near, [3.0, 5.0j, -8.0, 2.0 + 2.0j]])
        logs = berezin_log_profile(DEEP_PAIR, 1.0, points)
        # each centre kind's first level evaluates all of its points
        firsts = {}
        for size, _, tilted in calls:
            firsts.setdefault(tilted, size)
        assert sum(firsts.values()) == points.size
        size, samples, tilted = calls[-1]
        assert 0 < size < firsts[tilted]
        assert samples == 192 * 192
        # |g'| kinks at 0.9, which keeps 1e-9 out of reach within the budget
        reference = Tolerance(rel_tol=1e-8)
        for got, w in zip(logs, points):
            want = math.log(berezin_at(DEEP_PAIR, 1.0, complex(w),
                                       tol=reference))
            assert abs(got - want) <= 1e-4

    @pytest.mark.parametrize("q,alpha", [(2.0, 1.0), (1.0, 0.5), (3.0, 2.0)])
    def test_constant_weight_with_a_zero_map(self, q, alpha):
        u0, b = 1.5 - 0.4j, 0.6 + 0.3j
        pair = SymbolPair.weighted(Symbol.polynomial([u0]), AffineMap(0.0, b),
                                   alpha=alpha)
        prof = berezin_profile(pair, q, grid=GridSpec(w_max=6.0,
                                                      radial_count=8,
                                                      angular_count=8))
        w = prof.radii[:, None] * np.exp(1j * prof.angles)[None, :]
        c = 0.5 * q * alpha
        want = abs(u0) ** q * (np.pi / c) * np.exp(
            c * (-np.abs(w) ** 2 + 2.0 * np.real(b * np.conj(w))))
        np.testing.assert_allclose(prof.values, want, rtol=1e-9)

    @pytest.mark.parametrize("pair", PURE_EXPONENTIAL)
    def test_pure_exponential_weight_costs_one_row_per_level(self,
                                                             monkeypatch,
                                                             pair):
        points = GridSpec().points(pair.alpha).ravel()
        levels = spy_rows(monkeypatch)
        logs = berezin_log_profile(pair, 2.0, points)
        berezin_power_integral(pair, 2.0, 1.0)
        # the profile's 384 points and annulus 0's 24 x 32
        assert {384, 24 * 32} <= {size for size, _ in levels}
        assert all(rows == 1 for _, rows in levels)
        single = [berezin_log_profile(pair, 2.0, [w])[0] for w in points]
        np.testing.assert_array_equal(logs, single)

    @pytest.mark.parametrize("pair", POINT_DEPENDENT)
    def test_point_dependent_weight_keeps_a_row_per_point(self, monkeypatch,
                                                          pair):
        # |v*| >= 10 keeps every volterra point off the origin centre
        points = GridSpec(w_max=40.0, r_min=20.0, radial_count=6,
                          angular_count=8).points(pair.alpha).ravel()
        levels = spy_rows(monkeypatch)
        logs = berezin_log_profile(pair, 2.0, points)
        assert levels[0][0] == points.size
        assert all(rows == size for size, rows in levels)
        single = [berezin_log_profile(pair, 2.0, [w])[0] for w in points]
        np.testing.assert_array_equal(logs, single)

    @pytest.mark.parametrize("evaluate", [
        lambda: berezin_at(DEEP_PAIR, 1.0, 0.8),
    ], ids=["at"])
    def test_levels_start_at_24_by_24_and_double(self, monkeypatch,
                                                  evaluate):
        # at rel_tol 1e-8 the 12-node rule misses the bare Gaussian
        nodes = spy_nodes(monkeypatch)
        evaluate()
        assert nodes[:2] == [(24, 24), (48, 48)]
        for prev, cur in zip(nodes, nodes[1:]):
            assert cur == (2 * prev[0], 2 * prev[1])

    @pytest.mark.parametrize("evaluate", [
        lambda: berezin_log_profile(DEEP_PAIR, 1.0,
                                    GridSpec().points(1.0).ravel()),
        lambda: berezin._annulus(DEEP_PAIR, 1.0, 0),
    ], ids=["profile", "annulus"])
    def test_levels_start_at_12_by_12_and_double(self, monkeypatch,
                                                  evaluate):
        nodes = spy_nodes(monkeypatch)
        evaluate()
        # the v* points run first, and at 1e-4 and 1e-3 their Gaussian
        # is resolved by 12 nodes, so they start at 12 x 12
        assert nodes[:2] == [(12, 12), (24, 24)]
        # each centre kind starts its own levels at 12 x 12 or 24 x 24
        for prev, cur in zip(nodes, nodes[1:]):
            assert cur in ((12, 12), (24, 24), (2 * prev[0], 2 * prev[1]))

    def test_budget_error_keeps_converged_values(self, monkeypatch):
        points = GridSpec(radial_count=8, angular_count=8).points(1.0).ravel()
        full = berezin_log_profile(DEEP_PAIR, 1.0, points)
        # The origin points start at 24 x 24; 48 x 48 still fits, 96 x 96,
        # which some of them need, does not.
        monkeypatch.setattr(quadrature, "_SAMPLE_BUDGET", 48 * 48)
        with pytest.raises(NonConvergence) as info:
            berezin_log_profile(DEEP_PAIR, 1.0, points)
        value = info.value.value
        assert value.shape == points.shape
        assert np.all(np.isfinite(value))
        stopped = value == full
        assert stopped.any() and not stopped.all()

    def test_deep_profile_memory_stays_small(self):
        tracemalloc.start()
        try:
            prof = berezin_profile(DEEP_PAIR, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(prof.values))
        assert peak < 32 * 2 ** 20

    def test_acceptance_profiles_keep_their_sample_count(self, monkeypatch):
        # Sup profiles of the first five acceptance-family pairs at alpha 1
        # took 5,186,304 point-samples when this bound was set (11,437,056
        # with every kink-disk point on the origin and a 24 x 24 start).
        counts = spy_levels(monkeypatch, lambda v, lam, scheme:
                            v.size * level_samples(scheme))
        points = GridSpec().points(1.0).ravel()
        for pair in random_volterra_family(50, seed=1729)[:5]:
            berezin_log_profile(pair, 2.0, points)
        assert sum(counts) <= 1.1 * 5_186_304


def spy_ring_levels(monkeypatch):
    """The number of points of each ring-route level to come."""
    sizes = []
    ring = berezin._ring_level

    def spy(pair, power, rings, idx, scheme):
        sizes.append(idx.size)
        return ring(pair, power, rings, idx, scheme)

    monkeypatch.setattr(berezin, "_ring_level", spy)
    return sizes


def _polar(modulus, phase):
    return modulus * cmath.exp(1j * phase)


_PHASE = st.floats(0.0, 2.0 * math.pi)
_COEFF = st.builds(_polar, st.floats(0.0, 2.0), _PHASE)


class TestRingRoute:
    """Origin points on the rings of a 2-D input share their samples."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(kind=st.sampled_from(["volterra", "weighted"]),
           alpha=st.sampled_from([0.5, 1.0, 2.0]),
           power=st.sampled_from([1.0, 2.0]),
           a=st.builds(_polar, st.floats(0.0, 1.2), _PHASE),
           b=st.builds(_polar, st.floats(0.05, 2.0), _PHASE),
           poly=st.lists(_COEFF, min_size=1, max_size=4),
           q1=_COEFF,
           q2=st.builds(_polar, st.floats(0.0, 0.95), _PHASE),
           count=st.sampled_from([1, 3, 8, 16, 24, 32]),
           base=_PHASE,
           radii=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=3),
           nodes=st.tuples(st.sampled_from([12, 24, 48, 96]),
                           st.sampled_from([12, 24, 48, 96])))
    def test_ring_route_matches_the_tilted_route(
            self, kind, alpha, power, a, b, poly, q1, q2, count, base, radii,
            nodes):
        # q2 stays inside the divergence margin: |q2| < 0.98 alpha / 2
        q2 *= 0.98 * alpha / 2.0
        symbol = Symbol(poly=tuple(poly), expo=(0.0, q1, q2))
        pair = getattr(SymbolPair, kind)(symbol, AffineMap(a, b),
                                         alpha=alpha)
        c = 0.5 * power * alpha
        points = np.multiply.outer(
            np.asarray(radii) * cmath.exp(1j * base) / math.sqrt(alpha),
            np.exp(2j * np.pi * np.arange(count) / count))
        lam = (2.0 * c * a * np.conj(points) + power * q1).ravel()
        scheme = build_scheme(c, PROFILE_TOL, power * abs(q2),
                              linear_bound=float(np.max(np.abs(lam))),
                              radial_count=nodes[0], angular_count=nodes[1])
        ring = berezin._ring_level(pair, power, points, np.arange(lam.size),
                                   scheme)
        tilted = berezin._log_level(pair, power, np.zeros(lam.size), lam,
                                    scheme)
        np.testing.assert_allclose(ring, tilted, rtol=0, atol=1e-12)

    def test_underflowing_points_take_the_tilted_route(self, monkeypatch):
        # Near w = -20 the turning tilt 2 conj(w) cancels power q1 = 40:
        # the ring route's two factors peak on opposite sides of 0, and
        # their products underflow.
        pair = SymbolPair.volterra(Symbol(poly=(1.0, 0.5),
                                          expo=(0.0, 20.0, 0.0)))
        points = np.multiply.outer([-20.0, -10.0],
                                   np.exp(2j * np.pi * np.arange(8) / 8))
        lam = (2.0 * np.conj(points) + 40.0).ravel()
        scheme = build_scheme(1.0, PROFILE_TOL,
                              linear_bound=float(np.max(np.abs(lam))),
                              radial_count=48, angular_count=48)
        tilted = berezin._log_level(pair, 2.0, np.zeros(lam.size), lam,
                                    scheme)
        redone = spy_levels(monkeypatch, lambda v, lam, scheme: v.size)
        ring = berezin._ring_level(pair, 2.0, points, np.arange(lam.size),
                                   scheme)
        assert redone and 0 < redone[0] < lam.size
        np.testing.assert_allclose(ring, tilted, rtol=0, atol=1e-12)

    def test_profile_and_inner_disk_take_the_ring_route(self, monkeypatch):
        # lam is 0 exactly for the v*-centred points
        tilted = spy_levels(monkeypatch,
                            lambda v, lam, scheme: bool(np.any(lam)))
        rings = spy_ring_levels(monkeypatch)
        points = GridSpec().points(1.0)
        berezin_log_profile(DEEP_PAIR, 2.0, points.ravel())
        assert any(tilted)
        tilted.clear()
        berezin_profile(DEEP_PAIR, 2.0)
        berezin._annulus(DEEP_PAIR, 2.0, 0)
        assert tilted and not any(tilted)
        assert rings

    def test_rows_that_are_not_rings_keep_the_flat_values(self, monkeypatch):
        rings = spy_ring_levels(monkeypatch)
        points = GridSpec().points(1.0)
        # rows run clockwise, with two points swapped, and off the circle
        # by more than 1e-12 relative; the last row, the innermost ring,
        # is a true one, so a level holds origin points of both kinds
        shuffled = np.concatenate([points[:, ::-1],
                                   points[:, np.r_[0, 2, 1, 3:16]],
                                   points * (1.0 + 1e-10 * np.arange(16)),
                                   points[:1]])
        two_d = berezin_log_profile(DEEP_PAIR, 2.0, shuffled)
        assert rings and max(rings) == 16
        flat = berezin_log_profile(DEEP_PAIR, 2.0, shuffled.ravel())
        np.testing.assert_array_equal(two_d[:-16], flat[:-16])
        np.testing.assert_allclose(two_d[-16:], flat[-16:], rtol=0,
                                   atol=1e-12)


class TestWeightScaling:
    """Scaling the weight by lam multiplies B by |lam|^power."""

    SCALES = [1e-150, 1e-3, 2.5 * cmath.exp(0.7j), 1e3, 1e150]

    @staticmethod
    def scaled(pair, lam):
        symbol = Symbol(poly=tuple(lam * c for c in pair.symbol.poly),
                        expo=pair.symbol.expo)
        return SymbolPair(kind=pair.kind, symbol=symbol, psi=pair.psi,
                          alpha=pair.alpha)

    @pytest.mark.parametrize("pair", PURE_EXPONENTIAL + POINT_DEPENDENT)
    def test_log_transform_shifts_by_power_log_lam(self, pair):
        points = GridSpec(radial_count=8, angular_count=8).points(
            pair.alpha).ravel()
        tol = Tolerance(rel_tol=1e-6)
        base = berezin_log_profile(pair, 2.0, points, tol=tol)
        for lam in self.SCALES:
            got = berezin_log_profile(self.scaled(pair, lam), 2.0, points,
                                      tol=tol)
            shift = 2.0 * math.log(abs(lam))
            np.testing.assert_allclose(got - base, shift, rtol=0,
                                       atol=tol.rel_tol)

    @pytest.mark.parametrize("pair", PURE_EXPONENTIAL + POINT_DEPENDENT)
    def test_verdicts_hold_and_norm_scales(self, pair):
        def verdicts(cls):
            return cls.bounded, cls.compact, cls.schatten

        def estimates(cls):
            return [cls.norm_estimate] + [cls.evidence["schatten"][t][
                "estimate"] for t in orders]

        orders = (1.0, 2.0, 4.0)
        base = classify_berezin(pair, 2.0, 2.0, schatten_orders=orders)
        assert math.isfinite(base.norm_estimate)
        for lam in self.SCALES:
            cls = classify_berezin(self.scaled(pair, lam), 2.0, 2.0,
                                   schatten_orders=orders)
            assert verdicts(cls) == verdicts(base)
            np.testing.assert_allclose(estimates(cls),
                                       abs(lam) * np.array(estimates(base)),
                                       rtol=1e-9)

    @pytest.mark.parametrize("pair", [SymbolPair.volterra(Z)]
                             + PURE_EXPONENTIAL + POINT_DEPENDENT)
    def test_power_integral_norm_scales(self, pair):
        # p > q reads the norm off the power integral, whose march must
        # stop on a floor relative to its own sum
        def verdicts(cls):
            return cls.bounded, cls.compact

        base = classify_berezin(pair, 4.0, 2.0)
        assert math.isfinite(base.norm_estimate)
        for lam in (1e-150, 1e-3, 1e3, 1e150):
            cls = classify_berezin(self.scaled(pair, lam), 4.0, 2.0)
            assert verdicts(cls) == verdicts(base)
            np.testing.assert_allclose(cls.norm_estimate,
                                       abs(lam) * base.norm_estimate,
                                       rtol=1e-9)


class TestRotation:
    """h(z) = e^{i theta} g(e^{i phi} z) has |h'(z)| = |g'(e^{i phi} z)|,
    so B_h(e^{-i phi} w) = B_g(w) and h has g's verdicts."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_turned_symbol_turns_the_transform(self, alpha):
        rng = np.random.default_rng(7)
        points = GridSpec().points(alpha).ravel()
        for pair in random_volterra_family(4, seed=11, alpha=alpha):
            theta, phi = rng.uniform(0.0, 2.0 * np.pi, 2)
            coeffs = np.asarray(pair.symbol.poly)
            turned = SymbolPair.volterra(Symbol.polynomial(
                coeffs * np.exp(1j * (theta + phi * np.arange(coeffs.size)))),
                alpha=alpha)
            np.testing.assert_allclose(
                berezin_log_profile(turned, 2.0, points * cmath.exp(-1j * phi)),
                berezin_log_profile(pair, 2.0, points),
                rtol=0, atol=PROFILE_TOL.rel_tol)
            want = classify_berezin(pair, 2.0, 2.0)
            got = classify_berezin(turned, 2.0, 2.0)
            assert (got.bounded, got.compact) == (want.bounded, want.compact)


class TestPowerIntegral:
    def test_monomial_tail_converges_for_high_order(self):
        log_value, status = berezin_power_integral(SymbolPair.volterra(Z),
                                                   2.0, 2.0)
        assert status == "converged"
        assert math.isfinite(log_value)

    def test_monomial_low_order_diverges(self):
        value, status = berezin_power_integral(SymbolPair.volterra(Z), 2.0, 0.5)
        assert status == "diverged"
        assert value == math.inf

    @pytest.fixture
    def marched(self, monkeypatch):
        """Indices of the annuli the power integral evaluates."""
        ks = []
        original = berezin._annulus

        def spy(pair, power, k):
            ks.append(k)
            return original(pair, power, k)

        monkeypatch.setattr(berezin, "_annulus", spy)
        return ks

    @pytest.mark.parametrize("s_exp", [0.5, 1.0])
    def test_a_diverging_exponent_marches_no_annulus(self, marched, s_exp):
        # B ~ |w|^-2 for g = z, so s_exp <= 1 diverges, s_exp = 1 by a log
        assert berezin_power_integral(SymbolPair.volterra(Z), 2.0, s_exp) \
            == (math.inf, "diverged")
        assert marched == []

    def test_a_power_law_tail_closes_after_annulus_three(self, marched):
        # 34.5172: annuli 0-16 summed, then the exact tail of ratio 2^-0.5
        log_value, status = berezin_power_integral(SymbolPair.volterra(Z),
                                                   2.0, 1.25)
        assert status == "converged"
        assert marched == [0, 1, 2, 3]
        np.testing.assert_allclose(math.exp(log_value), 34.5172, rtol=0.02)

    def test_the_tail_closes_past_the_metric_kink(self, marched):
        # At alpha = 16 annulus 3 starts at |w| = 6, where 1 / (1 + |z|) is
        # still far from |z|^-1; the far scale 1 = 4 / sqrt(alpha) closes
        # two annuli later.  1.09336: closed after annulus 12 instead.
        pair = SymbolPair.volterra(Z, alpha=16.0)
        log_value, status = berezin_power_integral(pair, 2.0, 1.25)
        assert status == "converged"
        assert marched == [0, 1, 2, 3, 4, 5]
        np.testing.assert_allclose(math.exp(log_value), 1.09336, rtol=0.02)

    def test_zero_weight_short_circuits(self):
        pair = SymbolPair.volterra(ONE)  # g' = 0
        assert berezin_power_integral(pair, 2.0, 1.0) == (-math.inf,
                                                          "converged")

    def test_gaussian_growth_beyond_decay_diverges(self):
        u = Symbol.exponential(0.0, 0.0, 0.6)
        pair = SymbolPair.weighted(u, AffineMap(1.0))
        value, status = berezin_power_integral(pair, 2.0, 1.0)
        assert status == "diverged"
        assert value == math.inf

    @pytest.mark.parametrize("u0,a,b,alpha,s", [
        (1.3, 0.5, 0.0, 1.0, 2.0),
        (0.9 - 0.3j, 0.5 + 0.2j, 0.4 - 0.7j, 1.0, 1.0),
        (1.0, 0.7j, 1.0, 0.5, 0.5),
        (2.0, 0.3, 0.2, 2.0, 2.0),
    ])
    def test_constant_weight_closed_form(self, u0, a, b, alpha, s):
        # B(w) = |u0|^q (pi / c) exp(-c (1 - |a|^2) |w|^2
        #        + 2 c Re(b conj(w))), c = q alpha / 2, so the integral of
        # B^s is Gaussian: with A = s c (1 - |a|^2) it equals
        # |u0|^(q s) (pi / c)^s (pi / A) exp((s c)^2 |b|^2 / A)
        q = 2.0
        pair = SymbolPair.weighted(Symbol.polynomial([u0]), AffineMap(a, b),
                                   alpha=alpha)
        c = 0.5 * q * alpha
        big_a = s * c * (1.0 - abs(a) ** 2)
        want = (abs(u0) ** (q * s) * (math.pi / c) ** s * (math.pi / big_a)
                * math.exp((s * c) ** 2 * abs(b) ** 2 / big_a))
        log_value, status = berezin_power_integral(pair, q, s)
        assert status == "converged"
        assert abs(log_value - math.log(want)) <= 1e-10
        t = 2.0 * s
        cls = classify_berezin(pair, 2.0, 2.0, schatten_orders=(t,))
        assert cls.evidence["schatten"][t]["estimate"] == pytest.approx(
            math.exp(log_value / t), rel=1e-15)

    @pytest.mark.parametrize("s_exp", [math.nan, math.inf, -math.inf, 0.0])
    def test_exponent_must_be_finite_and_positive(self, s_exp):
        with pytest.raises(ValueError, match="s_exp"):
            berezin_power_integral(SymbolPair.volterra(Z), 2.0, s_exp)


class TestLpIntegral:
    def test_contraction_reference_value(self):
        # p = 4 > q = 2 gives s = 2; for psi = z/2 the double Gaussian
        # integral collapses to (pi^3 / 1.5)^(1/4)
        pair = SymbolPair.weighted(ONE, AffineMap(0.5))
        got = classify_berezin(pair, 4.0, 2.0).norm_estimate
        np.testing.assert_allclose(got, (np.pi ** 3 / 1.5) ** 0.25, rtol=1e-6)

    def test_identity_map_is_not_integrable(self):
        assert classify_berezin(flat_pair(), 4.0, 2.0).norm_estimate \
            == math.inf


class TestHilbertSchmidt:
    @pytest.mark.parametrize("a", [0.3, 0.5, 0.7])
    def test_weighted_geometric_reference(self, a):
        pair = SymbolPair.weighted(ONE, AffineMap(a))
        want = np.pi / (1.0 - a * a)
        np.testing.assert_allclose(hilbert_schmidt_integral(pair), want,
                                   rtol=1e-10)

    def test_volterra_reference_value(self):
        pair = SymbolPair.volterra(Z, psi=AffineMap(0.5))
        np.testing.assert_allclose(hilbert_schmidt_integral(pair),
                                   1.255091538303287, rtol=1e-8)

    def test_volterra_direct_ratio_stays_in_band(self):
        # the derivative-form integral is only comparable to the squared
        # spectral norm, 4 ln(4/3) here; the ratio is pinned by the band
        pair = SymbolPair.volterra(Z, psi=AffineMap(0.5))
        ratio = hilbert_schmidt_integral(pair) / (4.0 * math.log(4.0 / 3.0))
        lo, hi = HS_DIRECT_RATIO_BAND
        assert lo < ratio < hi

    # (a, b, alpha); b != 0 moves the transform point w0 off the origin
    SHIFTED_MAPS = [(0.5, 1.0, 1.0), (0.3 - 0.6j, -1.5 + 0.4j, 0.5),
                    (0.8j, 0.7 - 0.2j, 2.0), (0.0, 2.0, 1.0)]

    @pytest.mark.parametrize("a,b,alpha", SHIFTED_MAPS)
    def test_constant_weight_closed_form(self, a, b, alpha):
        u0 = 0.9 - 0.3j
        pair = SymbolPair.weighted(Symbol.polynomial([u0]), AffineMap(a, b),
                                   alpha=alpha)
        decay = alpha * (1.0 - abs(a) ** 2)
        want = (abs(u0) ** 2 * math.pi / decay
                * math.exp(alpha * abs(b) ** 2
                           + alpha ** 2 * abs(a * b) ** 2 / decay))
        np.testing.assert_allclose(hilbert_schmidt_integral(pair), want,
                                   rtol=1e-10)

    @pytest.mark.parametrize("a,b,alpha", SHIFTED_MAPS)
    def test_exp_linear_weight_closed_form(self, a, b, alpha):
        q0, q1 = 0.2 - 0.5j, -0.3 + 0.4j
        pair = SymbolPair.weighted(Symbol.exponential(q0, q1),
                                   AffineMap(a, b), alpha=alpha)
        decay = alpha * (1.0 - abs(a) ** 2)
        want = (math.exp(2.0 * q0.real) * math.pi / decay
                * math.exp(alpha * abs(b) ** 2
                           + abs(alpha * a * np.conj(b) + q1) ** 2 / decay))
        np.testing.assert_allclose(hilbert_schmidt_integral(pair), want,
                                   rtol=1e-10)

    @pytest.mark.parametrize("q2,want", [(0.489, 16.0064),
                                         (0.4925, 19.9567)])
    def test_gaussian_weight_near_the_divergence_edge(self, q2, want):
        # pi / sqrt((1 - |a|^2)^2 - 4 |q2|^2), finite while 2 |q2| < 1 - |a|^2
        a = 0.05
        pair = SymbolPair.weighted(Symbol.exponential(q2=q2), AffineMap(a))
        exact = math.pi / math.sqrt((1.0 - a * a) ** 2 - 4.0 * q2 * q2)
        assert exact == pytest.approx(want, abs=1e-4)
        np.testing.assert_allclose(hilbert_schmidt_integral(pair), exact,
                                   rtol=1e-10)

    def test_zero_weight(self):
        assert hilbert_schmidt_integral(SymbolPair.volterra(ONE)) == 0.0

    def test_unitary_map_is_not_hilbert_schmidt(self):
        assert hilbert_schmidt_integral(flat_pair()) == math.inf


class TestSubharmonicLowerBound:
    @pytest.mark.parametrize("g", [Z, Symbol.polynomial([0.0, 0.0, 1.0])])
    def test_transform_dominates_the_pointwise_weight(self, g):
        # measured min over this grid: 0.511, pinned with headroom
        pair = SymbolPair.volterra(g)
        scale = 2.0 * np.pi / 2.0
        for r in np.geomspace(0.25, 6.0, 8):
            for phase in (1.0, 1.0j, -1.0):
                w = r * phase
                ratio = berezin_at(pair, 2.0, w) / (
                    scale * weight_at(pair, w) ** 2)
                assert ratio >= SUBHARMONIC_LOWER


class TestDivergenceGuards:
    def test_berezin_at_raises_beyond_decay(self):
        u = Symbol.exponential(0.0, 0.0, 0.6)
        pair = SymbolPair.weighted(u, AffineMap(1.0))
        with pytest.raises(DivergentTail):
            berezin_at(pair, 2.0, 0.0)

    def test_exponential_weight_inside_decay_is_finite(self):
        u = Symbol.exponential(0.0, 0.0, 0.2)
        pair = SymbolPair.weighted(u, AffineMap(0.5))
        value = berezin_at(pair, 2.0, 1.0)
        assert math.isfinite(value)
        assert value > 0
