"""The Berezin-type transform of an operator pair and derived global quantities.

For a pair with weight function W (that is |g'| / (1 + |z|) or |u|), map
psi(z) = a z + b and exponent power, the transform at w is

    B(w) = integral over C of
           exp(c (2 Re(psi(z) conj(w)) - |z|^2 - |w|^2)) W(z)^power dm(z)

with c = power * alpha / 2.  One log-space evaluator computes it about a
centre v chosen per point.  With W's entire factor P e^q, z = v + zeta and
d = conj(a) w - v, the exponent splits into the prefactor

    L = c ((|a|^2 - 1) |w|^2 - |d|^2 + 2 Re(b conj(w))) + power Re q(v)

and a Gaussian integral in zeta whose exponent holds only the increment
power (q(v + zeta) - q(v)), the linear term 2 c Re(conj(d) zeta) and
-c |zeta|^2; each level is summed by log-sum-exp.  At the recentred
centre v = conj(a) w the exponent peaks and d = 0, so the integrand never
sees the large cancelling exponents of the defining formula and B is
computable at any |w|; profile batches use it.  The origin-centred v = 0
puts the metric kink of the integral kind at the rule's centre, where the
radial variable resolves it, at the price of a radius growing with |w|;
``berezin_at`` takes it for single points whose recentred integrand has
conical points.

A batch shares one quadrature scheme, sized for its worst point, and
runs its levels (``QuadratureScheme.levels``).  Each point stops on its
own: once its log value is finite at its last two levels and they agree
within the relative tolerance, or is finite at neither, it keeps that
level's value and later levels evaluate only the points still active.
Points are evaluated ``quadrature._CHUNK`` samples at a time, which keeps
the per-point temporaries cache-sized however many points a level has;
the per-sample terms shared by all points span the whole level, so a
lone point at the 2048 x 2048 level peaks at 288 MB of traced allocations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import DivergentTail, NonConvergence
from .quadrature import Tolerance, _leggauss, build_scheme, gaussian_integral
from .symbols import SymbolPair, weight_at

__all__ = [
    "GridSpec",
    "BerezinProfile",
    "berezin_at",
    "berezin_log_profile",
    "berezin_profile",
    "vanishes_at_infinity",
    "berezin_power_integral",
    "lp_integral",
    "hilbert_schmidt_integral",
]

# Divergence margin: the shifted integrand W^power exp(-c |zeta|^2) is
# declared non-integrable when the quadratic growth of W^power reaches
# this fraction of c.
_DIVERGENCE_MARGIN = 0.02

# berezin_power_integral: stop tolerances, annulus cap, annulus log accuracy.
_MARCH_REL, _MARCH_ABS = 1e-4, 1e-12
_MAX_ANNULI = 12
_ANNULUS_REL = 1e-3

# vanishes_at_infinity: outer ring below _VANISH_EPS * max(sup, floor).
_VANISH_EPS, _VANISH_FLOOR = 1e-4, 1e-30

_POLY = np.polynomial.polynomial


def _decay_and_growth(pair: SymbolPair, power: float) -> tuple[float, float]:
    """(c, quadratic growth of W^power); raises DivergentTail when unusable."""
    if power <= 0:
        raise ValueError("power must be positive")
    c = 0.5 * power * pair.alpha
    growth = power * pair.weight_symbol.gaussian_growth
    if growth >= c * (1.0 - _DIVERGENCE_MARGIN):
        raise DivergentTail(
            f"weight growth {growth:.6g} reaches the Gaussian decay "
            f"{c:.6g}; the transform integral diverges at every w")
    return c, growth


def _log_level(pair: SymbolPair, power: float, v: np.ndarray,
               lam: np.ndarray, scheme) -> np.ndarray:
    """log of the zeta-integral about each centre v at one scheme level.

    The whole exponent, Gaussian included, is assembled per sample and
    summed by log-sum-exp, which keeps every intermediate finite.  Points
    are processed ``max(1, quadrature._CHUNK // samples)`` at a time, which
    bounds the per-point temporaries but not the level-wide shared terms.
    """
    weight = pair.weight_symbol
    coeffs = np.asarray(weight.poly)
    q2 = weight.expo[2]
    zeta, bare = scheme.complex_nodes()
    centred = bool(np.any(v))
    tilted = bool(np.any(lam))
    # Centre-independent terms once per level, the radial ones once per
    # radius: the Gaussian, and the metric factor when every centre is 0.
    radial = -scheme.decay * scheme.radial_nodes ** 2
    if pair.has_metric_factor and not centred:
        radial -= power * np.log1p(scheme.radial_nodes)
    # complex_nodes returns fresh arrays; reusing the weights' buffer keeps
    # the level's peak memory at that of the samples.
    shared = np.log(bare, out=bare)
    shared += np.repeat(radial, scheme.angular_count)
    if q2 != 0:
        shared += power * np.real(q2 * zeta * zeta)
    out = np.empty(v.size, dtype=float)
    # Untilted, uncentred points share one row of samples and one value.
    chunk = (max(1, quadrature._CHUNK // zeta.size) if centred or tilted
             else max(1, v.size))
    with np.errstate(divide="ignore"):
        if not centred:
            # All-zero centres sample P at the nodes themselves, so its
            # terms join the shared ones once per level.
            log_p = np.log(np.abs(_POLY.polyval(zeta, coeffs)))
            log_p *= power
            shared += log_p
        for lo in range(0, v.size, chunk):
            hi = lo + chunk
            if centred:
                args = v[lo:hi, None] + zeta
                total = np.log(np.abs(_POLY.polyval(args, coeffs)))
                if pair.has_metric_factor:
                    total -= np.log1p(np.abs(args))
                total *= power
                total += shared
            else:
                total = shared[None, :]
            if tilted:
                # Re(lambda zeta) in real arithmetic, cheaper than complex
                lam_c = lam[lo:hi, None]
                total = total + lam_c.real * zeta.real
                total -= lam_c.imag * zeta.imag
            peak = total.max(axis=1)
            finite = np.isfinite(peak)
            safe = np.where(finite, peak, 0.0)
            sums = np.exp(total - safe[:, None]).sum(axis=1)
            out[lo:hi] = np.where(finite, safe + np.log(sums), -np.inf)
    return out


def _log_transform(pair: SymbolPair, power: float, w: np.ndarray,
                   v: np.ndarray, rel_tol: float, tol: Tolerance,
                   radial_count: int, angular_count: int) -> np.ndarray:
    """log B at each point of ``w``, integrated about its centre in ``v``.

    One quadrature scheme, sized for the worst point, serves every point;
    refinement doubles it level by level.  From level 1 on only the points
    still active are evaluated.  A point stops, keeping that level's value,
    once its log value is finite at both of its last two levels and they
    differ by at most ``rel_tol``, or is finite at neither.  Raises
    DivergentTail when the shifted integral diverges, and NonConvergence,
    carrying the latest log value of every point, when the levels run out
    (``tol.max_refinements`` or the sample budget) first.
    """
    c, growth = _decay_and_growth(pair, power)
    weight = pair.weight_symbol
    a, b = pair.psi.a, pair.psi.b
    q0, q1, q2 = weight.expo
    d = np.conj(a) * w - v
    shift = 2.0 * c * np.conj(d)
    tilt = power * (q1 + 2.0 * q2 * v)
    linear = float(np.max(np.abs(shift) + np.abs(tilt), initial=0.0))
    cap = int(math.ceil(power * weight.degree)) + 8
    scheme = build_scheme(c, tol, growth, linear_bound=linear,
                          poly_degree_cap=cap, radial_count=radial_count,
                          angular_count=angular_count)
    lam = shift + tilt
    log_pref = (c * ((abs(a) ** 2 - 1.0) * np.abs(w) ** 2 - np.abs(d) ** 2
                     + 2.0 * np.real(b * np.conj(w)))
                + power * np.real(q0 + v * (q1 + q2 * v)))

    logs = None
    active = np.arange(w.size)
    for sch in scheme.levels(tol.max_refinements):
        cur = _log_level(pair, power, v[active], lam[active], sch)
        if logs is None:
            logs = cur
            continue
        prev = logs[active]
        finite = np.isfinite(cur)
        with np.errstate(invalid="ignore"):
            done = np.where(finite & np.isfinite(prev),
                            np.abs(cur - prev) <= rel_tol,
                            finite == np.isfinite(prev))
        logs[active] = cur
        active = active[~done]
        if not active.size:
            return logs + log_pref
    raise NonConvergence("transform levels ran out before log agreement",
                         value=None if logs is None else logs + log_pref)


def berezin_log_profile(pair: SymbolPair, power: float, points,
                        rel_tol: float = 1e-4,
                        tol: Tolerance | None = None,
                        radial_count: int = 48,
                        angular_count: int = 48) -> np.ndarray:
    """log B(w) at each point of ``points``, to ``rel_tol`` log-accuracy.

    Every point is integrated about its recentred centre conj(a) w, with
    one quadrature scheme (sized for the worst point) shared by the whole
    batch.  Each point is refined until its own last two levels agree
    within ``rel_tol`` and then keeps that value, so only the points that
    need a deeper level pay for it.  Raises DivergentTail when the shifted
    integral diverges and NonConvergence, carrying the latest log value of
    every point, when refinement runs out.

    The default tolerance is deliberately modest: for metric-weighted
    pairs the recentred integrand has a conical point at zeta = -v, which
    caps the tensor rule's convergence rate, and profile batches cannot
    afford the deep refinements that squeezing it further would need.
    :func:`berezin_at` evaluates such single points about the origin
    instead, where that point is resolved exactly.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    return _log_transform(pair, power, pts, np.conj(pair.psi.a) * pts,
                          rel_tol, tol or Tolerance(), radial_count,
                          angular_count)


def _shifted_integrand_smooth(pair: SymbolPair, power: float) -> bool:
    """True when the shifted integrand has no conical points.

    The metric factor kinks at zeta = -v; |P|^power kinks at the zeros of
    P unless the power is an even integer (then |P|^power is a polynomial
    in z and conj(z)).
    """
    if pair.has_metric_factor:
        return False
    if pair.weight_symbol.degree == 0:
        return True
    half = 0.5 * power
    return abs(half - round(half)) < 1e-12


def berezin_at(pair: SymbolPair, power: float, w: complex,
               tol: Tolerance | None = None) -> float:
    """B(w) for a single point; +inf on overflow of the finite log value.

    Recentred (through :func:`berezin_log_profile`) when the shifted
    integrand is smooth, origin-centred on a 64 x 64 base rule otherwise;
    either way to ``tol.rel_tol`` in log value.
    """
    tol = tol or Tolerance()
    if _shifted_integrand_smooth(pair, power):
        logb = berezin_log_profile(pair, power, [w], rel_tol=tol.rel_tol,
                                   tol=tol)[0]
    else:
        logb = _log_transform(pair, power, np.array([w], dtype=complex),
                              np.zeros(1, dtype=complex), tol.rel_tol, tol,
                              64, 64)[0]
    if logb == -np.inf:
        return 0.0
    with np.errstate(over="ignore"):
        return float(np.exp(logb))


@dataclass(frozen=True)
class GridSpec:
    """Geometric-radii times uniform-angles evaluation grid."""

    w_max: float | None = None
    radial_count: int = 24
    angular_count: int = 16
    r_min: float = 0.25

    def resolve_w_max(self, alpha: float) -> float:
        return self.w_max if self.w_max is not None else 8.0 / math.sqrt(alpha)

    def radii(self, alpha: float) -> np.ndarray:
        return np.geomspace(self.r_min, self.resolve_w_max(alpha),
                            self.radial_count)

    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.angular_count) / self.angular_count

    def points(self, alpha: float) -> np.ndarray:
        return np.multiply.outer(self.radii(alpha),
                                 np.exp(1j * self.angles()))


@dataclass(frozen=True)
class BerezinProfile:
    """Transform values on a grid, with its sup and outer-ring statistics."""

    pair: SymbolPair
    power: float
    radii: np.ndarray
    angles: np.ndarray
    values: np.ndarray
    unbounded: bool = False
    note: str = ""

    @property
    def ring_maxima(self) -> np.ndarray:
        return np.max(self.values, axis=1)

    @property
    def sup(self) -> float:
        return float(np.max(self.values))

    @property
    def argmax(self) -> complex:
        i, j = np.unravel_index(int(np.argmax(self.values)),
                                self.values.shape)
        return complex(self.radii[i] * np.exp(1j * self.angles[j]))

    @property
    def tail_max(self) -> float:
        return float(np.max(self.values[-1]))

    def csv_rows(self):
        """(w_re, w_im, value) rows for plotting, header included."""
        yield ("w_re", "w_im", "value")
        for i, r in enumerate(self.radii):
            for j, t in enumerate(self.angles):
                w = r * np.exp(1j * t)
                yield (float(w.real), float(w.imag),
                       float(self.values[i, j]))


def berezin_profile(pair: SymbolPair, power: float,
                    grid: GridSpec | None = None,
                    tol: Tolerance | None = None,
                    rel_tol: float = 1e-4) -> BerezinProfile:
    """Evaluate the transform over the grid; divergence marks unbounded."""
    grid = grid or GridSpec()
    radii = grid.radii(pair.alpha)
    angles = grid.angles()
    pts = grid.points(pair.alpha)
    try:
        logb = berezin_log_profile(pair, power, pts.ravel(), rel_tol=rel_tol,
                                   tol=tol)
    except DivergentTail as exc:
        values = np.full(pts.shape, np.inf)
        return BerezinProfile(pair=pair, power=power, radii=radii,
                              angles=angles, values=values, unbounded=True,
                              note=str(exc))
    with np.errstate(over="ignore"):
        values = np.exp(logb).reshape(pts.shape)
    return BerezinProfile(pair=pair, power=power, radii=radii, angles=angles,
                          values=values, unbounded=bool(np.any(np.isinf(values))))


def vanishes_at_infinity(profile: BerezinProfile) -> tuple[bool, np.ndarray]:
    """Strict decay test: small outer ring and non-increasing last rings.

    Returns (verdict, ring maxima sequence as evidence).
    """
    if profile.unbounded:
        raise ValueError("vanishing test requires a bounded profile")
    rings = profile.ring_maxima
    scale = max(profile.sup, _VANISH_FLOOR)
    small = profile.tail_max < _VANISH_EPS * scale
    monotone = bool(np.all(np.diff(rings[-3:]) <= 1e-12 * scale))
    return small and monotone, rings


def _segment_nodes(lo: float, hi: float, radial: int = 24,
                   angular: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """Polar product nodes and area weights on the annulus lo < |w| < hi."""
    x, gw = _leggauss(radial)
    r = 0.5 * (hi - lo) * (x + 1.0) + lo
    wr = 0.5 * (hi - lo) * gw * r * (2.0 * np.pi / angular)
    phases = np.exp(2j * np.pi * np.arange(angular) / angular)
    pts = np.multiply.outer(r, phases).ravel()
    wts = np.repeat(wr, angular)
    return pts, wts


def berezin_power_integral(pair: SymbolPair, power: float,
                           s_exp: float) -> tuple[float, str]:
    """integral of B(w)^s_exp dm(w), marched over doubling annuli.

    Returns (value, status) with status one of "converged", "diverged",
    "inconclusive".  Divergence is data here: the value is +inf and no
    exception escapes.  The march compares consecutive annulus sums; a
    ratio staying near or above 1 certifies divergence (the borderline
    log-divergent case has ratio exactly 1), while a stable ratio below 1
    is extrapolated geometrically.
    """
    if s_exp <= 0:
        raise ValueError("s_exp must be positive")
    try:
        c, _ = _decay_and_growth(pair, power)
    except DivergentTail:
        return math.inf, "diverged"
    if pair.weight_symbol.is_zero:
        return 0.0, "converged"

    r_edge = 6.0 / math.sqrt(c)
    lo = 0.0
    total = 0.0
    prev_sum = None
    prev_rho = None
    for k in range(_MAX_ANNULI + 1):
        hi = r_edge * (2.0 ** k)
        # The inner disk holds the mass that decides convergent values,
        # so it gets the dense rule; outer annuli only steer the ratio
        # test and can run coarse.
        if k == 0:
            pts, wts = _segment_nodes(lo, hi, radial=24, angular=32)
        else:
            pts, wts = _segment_nodes(lo, hi, radial=12, angular=24)
        try:
            logb = berezin_log_profile(pair, power, pts, rel_tol=_ANNULUS_REL,
                                       radial_count=32, angular_count=32)
        except NonConvergence:
            return total, "inconclusive"
        with np.errstate(over="ignore"):
            seg = float(np.sum(wts * np.exp(s_exp * logb)))
        if not math.isfinite(seg):
            return math.inf, "diverged"
        if k == 0:
            total = seg
            lo = hi
            continue
        if seg <= max(_MARCH_ABS, _MARCH_REL * max(total, _MARCH_ABS)):
            return total + seg, "converged"
        rho = seg / prev_sum if prev_sum and prev_sum > 0 else None
        total += seg
        if rho is not None and prev_rho is not None:
            if rho >= 0.92 and prev_rho >= 0.92:
                return math.inf, "diverged"
            if rho < 0.9 and abs(rho - prev_rho) <= 0.15 * rho:
                return total + seg * rho / (1.0 - rho), "converged"
        prev_sum = seg
        prev_rho = rho
        lo = hi
    return total, "inconclusive"


def lp_integral(pair: SymbolPair, q: float, s: float) -> float:
    """The p > q norm surrogate (integral of B^s dm)^(1 / (s q)); +inf verdict.

    ``s`` is p / (p - q) for the requested exponents.
    """
    if s <= 1:
        raise ValueError("s must exceed 1 (requires p > q)")
    value, status = berezin_power_integral(pair, q, s)
    if status == "converged":
        return float(value) ** (1.0 / (s * q))
    if status == "diverged":
        return math.inf
    raise NonConvergence("annulus march was inconclusive", value=value)


def hilbert_schmidt_integral(pair: SymbolPair) -> float:
    """integral of W(z)^2 exp(alpha (|psi(z)|^2 - |z|^2)) dm(z); +inf verdict.

    Recentred as exp(alpha |b|^2) times a Gaussian integral with decay
    alpha (1 - |a|^2), which keeps the exponential argument small whenever
    the integral converges at all.
    """
    weight = pair.weight_symbol
    if weight.is_zero:
        return 0.0
    alpha = pair.alpha
    a, b = pair.psi.a, pair.psi.b
    decay = alpha * (1.0 - abs(a) ** 2)
    growth = 2.0 * weight.gaussian_growth
    if decay <= 0 or growth >= decay * (1.0 - _DIVERGENCE_MARGIN):
        return math.inf
    cross = 2.0 * alpha * a * np.conj(b)

    def integrand(z):
        return weight_at(pair, z) ** 2 * np.exp(np.real(cross * z))

    linear = 2.0 * weight.linear_growth + float(abs(cross))
    cap = 2 * weight.degree + 8
    try:
        res = gaussian_integral(integrand, decay, growth_bound=growth,
                                linear_bound=linear, poly_degree_cap=cap)
    except DivergentTail:
        return math.inf
    return float(math.exp(alpha * abs(b) ** 2) * res.value.real)
