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
-c |zeta|^2; each level is summed by log-sum-exp.

One rule picks v.  In z the exponent's quadratic part is
Re(beta z) + Re(gamma z^2) - c |z|^2 with beta = 2 c a conj(w) + power q1
and gamma = power q2; its stationary point

    v* = (conj(gamma) beta + c conj(beta)) / (2 (c^2 - |gamma|^2))

(conj(a) w for a polynomial weight) leaves the zeta-integrand without a
linear tilt, so it never sees the large cancelling exponents of the
defining formula and B is computable at any |w|.  The one exception is
the metric kink of the integral kind at z = 0.  A point is centred at 0
instead, where the radial variable resolves the kink exactly, when its
v*-centred truncation disk holds the kink and the kink's log weight
relative to the peak at v* exceeds log(rel_tol) - 7 (``_kink_matters``);
a lighter kink cannot move log B by rel_tol, and the smooth rule about
v* needs fewer and cheaper samples than the tilted one about 0.

The points of each centre kind share one quadrature scheme, sized for
their worst point, and run its levels (``QuadratureScheme.levels``).
Profiles, ``berezin_at`` and the power integral's annuli share one level
lattice, 12 * 2^k per axis.  A scheme starts at 12 x 12 where that rule
integrates the bare radial Gaussian r e^(-c r^2) over its disk to
rel_tol, else at 24 x 24: the rule converges exponentially, so a smooth
point exact at 24 x 24 need not confirm at 48 x 48.
Each point stops on its own: once its log value is finite at its last two
levels and they agree within the relative tolerance, or is finite at
neither, it keeps that level's value and later levels evaluate only the
points still active.  Points are evaluated ``quadrature._CHUNK`` samples
at a time, which keeps the per-point temporaries cache-sized however many
points a level has; the per-sample terms shared by all points span the
whole level.  Untilted points whose centres cannot change the samples
(all are 0, or P is constant without the metric factor: about v* a
weight u0 e^q leaves power (log |u0| + Re(q2 zeta^2)) at every w) share
one row of samples per level, whatever their number.

A 2-D ``points`` array is read a ring per row, and a row
w_r0 e^(2 pi i j / J), j < J, is a ring, as in the profile grid, the
annuli and the far rings.  Its origin-centred points share their samples
too (``_ring_level``): on the uniform angular rule a turn by whole node
spacings is an index shift, so a level exponentiates the shared terms
once, a ring one kernel row per gcd(M, J) points, and each point's sum
is a lagged matrix product, with no exp, log or polyval of its own.
1-D points and ``berezin_at`` keep the tilted route.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass, replace

import numpy as np

from . import quadrature
from .errors import DivergentTail, NonConvergence
from .quadrature import Tolerance, _leggauss, build_scheme
from .symbols import AffineMap, SymbolPair

__all__ = [
    "GridSpec",
    "BerezinProfile",
    "berezin_at",
    "berezin_log_profile",
    "berezin_profile",
    "berezin_power_integral",
    "hilbert_schmidt_integral",
]

# Divergence margin: the shifted integrand W^power exp(-c |zeta|^2) is
# declared non-integrable when the quadratic growth of W^power reaches
# this fraction of c.
_DIVERGENCE_MARGIN = 0.02

# Log-accuracy of a profile point unless the caller sets its own tolerance.
PROFILE_TOL = Tolerance(rel_tol=1e-4)

# Nodes per axis of the coarsest first level.  Gauss-Legendre converges
# exponentially, so a smooth v*-centred point is often exact at 24 x 24;
# a 12 x 12 start lets it stop there.  A scheme starts at 12 x 12 only
# where that rule already integrates the bare Gaussian to the tolerance,
# else at 24 x 24; the levels 12 * 2^k hold the 24 * 2^k ones.
_BASE_NODES = 12

# A metric-weighted point keeps the origin centre only if the kink's log
# weight relative to its peak exceeds log(rel_tol) - _KINK_MARGIN.
_KINK_MARGIN = 7.0

# berezin_power_integral: stop tolerance, annulus cap, annulus log accuracy.
_MARCH_REL = 1e-4
_MAX_ANNULI = 12
_ANNULUS_TOL = Tolerance(rel_tol=1e-3)

# _tail_exponent: ring slopes within _TAIL_BAND * power of each other and
# of a multiple of power read as that power law.
_TAIL_BAND = 0.25

# A ring point whose log value lies this far below its sub-ring's bound
# may have lost terms under e^-708 of it to underflow (``_ring_level``).
_RING_FLOOR = 650.0

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


def _shared_terms(pair: SymbolPair, power: float, scheme,
                  centred: bool) -> tuple[np.ndarray, np.ndarray]:
    """The level's nodes zeta and the exponent terms its points share;
    about zero centres (not ``centred``) these include P and the metric."""
    weight = pair.weight_symbol
    q2 = weight.expo[2]
    zeta, bare = scheme.complex_nodes()
    radial = -scheme.decay * scheme.radial_nodes ** 2
    if pair.has_metric_factor and not centred:
        radial -= power * np.log1p(scheme.radial_nodes)
    # complex_nodes returns fresh arrays; reusing the weights' buffer keeps
    # the level's peak memory at that of the samples.
    shared = np.log(bare, out=bare)
    shared += np.repeat(radial, scheme.angular_count)
    if q2 != 0:
        shared += power * np.real(q2 * zeta * zeta)
    if not centred:
        # Zero centres sample P at the nodes, and a constant P is the
        # same anywhere, so its terms join the shared ones per level.
        with np.errstate(divide="ignore"):
            log_p = np.log(np.abs(_POLY.polyval(zeta, weight.poly)))
        log_p *= power
        shared += log_p
    return zeta, shared


def _log_level(pair: SymbolPair, power: float, v: np.ndarray,
               lam: np.ndarray, scheme) -> np.ndarray:
    """log of the zeta-integral about each centre v at one scheme level.

    The whole exponent, Gaussian included, is assembled per sample and
    summed by log-sum-exp, which keeps every intermediate finite.  Points
    are processed ``max(1, quadrature._CHUNK // samples)`` at a time, which
    bounds the per-point temporaries but not the level-wide shared terms.
    A centre acts only through P and the metric factor; see the module.
    """
    coeffs = np.asarray(pair.weight_symbol.poly)
    centred = bool(np.any(v)) and (pair.weight_symbol.degree >= 1
                                   or pair.has_metric_factor)
    tilted = bool(np.any(lam))
    zeta, shared = _shared_terms(pair, power, scheme, centred)
    out = np.empty(v.size, dtype=float)
    # Untilted, uncentred points (``centred`` above) share one row.
    chunk = (max(1, quadrature._CHUNK // zeta.size) if centred or tilted
             else max(1, v.size))
    with np.errstate(divide="ignore"):
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


def _ring_level(pair: SymbolPair, power: float, rings: np.ndarray,
                idx: np.ndarray, scheme) -> np.ndarray:
    """log of the zeta-integral about 0 at the points ``idx`` = r J + j of
    ``rings``, whose row r is w_r0 e^(2 pi i j / J).

    With power Re(q1 zeta) among the level-wide terms s, the tilt
    lambda = 2 c a conj(w) turns with w, and at M angles a ring splits into
    sub-rings of g = gcd(M, J) points M / g nodes apart.  With
    t_i = max_k s_ik + |lambda| rho_i and T = max_i t_i, point l of a
    sub-ring is T + log sum_ik A_i,k+lM/g G_ik: A_ik = e^(s_ik - max_k s_ik)
    serves the level, G_ik = exp(|lambda| rho_i (cos(phi_k + arg lambda)
    - 1) + t_i - T) the sub-ring.  No factor exceeds 1 and no term cancels;
    a point over ``_RING_FLOOR`` below T may have lost terms to underflow
    and takes ``_log_level``'s route.
    """
    J, count = rings.shape[1], scheme.angular_count
    q1 = pair.weight_symbol.expo[1]
    tilt = power * pair.alpha * pair.psi.a * np.conj(rings)  # 2 c a conj(w)
    g = math.gcd(count, J)
    step = J // g
    rows, cols = np.divmod(idx, J)
    # Sub-ring (r, m) holds the columns m + l step, l < g, of ring r.
    subs, which = np.unique(rows * step + cols % step, return_inverse=True)
    first = tilt[subs // step, subs % step]
    zeta, s = _shared_terms(pair, power, scheme, centred=False)
    s = (s + power * np.real(q1 * zeta)).reshape(-1, count)
    peak = s.max(axis=1)
    peak[~np.isfinite(peak)] = 0.0
    weights = np.exp(s - peak[:, None])
    rho, mod = scheme.radial_nodes, np.abs(first)
    # |lambda| rho (cos x - 1) = -2 |lambda| rho sin^2(x / 2), without loss
    kern = -2.0 * mod[:, None] * np.sin(0.5 * np.add.outer(
        np.angle(first), scheme.angular_nodes())) ** 2
    bound = peak + np.multiply.outer(mod, rho)
    top = bound.max(axis=1)
    bound -= top[:, None]
    # Blocks of about _CHUNK samples: radii, then sub-rings.
    radii = max(1, quadrature._CHUNK // (count * g))
    batch = max(1, quadrature._CHUNK // (radii * count))
    lagged = ((np.arange(count) + count // g * np.arange(g)[:, None, None])
              % count + count * np.arange(radii)[:, None])
    sums = np.zeros((g, subs.size))
    for lo in range(0, rho.size, radii):
        block = weights[lo:lo + radii]
        rolled = block.ravel()[lagged[:, :len(block)]].reshape(g, -1)
        for part in range(0, subs.size, batch):
            ker = rho[lo:lo + radii, None] * kern[part:part + batch, None]
            ker += bound[part:part + batch, lo:lo + radii, None]
            np.exp(ker, out=ker)
            sums[:, part:part + batch] += rolled @ ker.reshape(len(ker), -1).T
    with np.errstate(divide="ignore"):
        out = top[which] + np.log(sums[cols // step, which])
    redo = ~(out >= top[which] - _RING_FLOOR)
    if redo.any():
        lam = tilt.ravel()[idx[redo]] + power * q1
        out[redo] = _log_level(pair, power, np.zeros(lam.size), lam, scheme)
    return out


def _kink_matters(poly, power: float, c: float, beta, gamma, v,
                  tol: Tolerance) -> np.ndarray:
    """Whether the metric kink at 0 can move log B of a v*-centred point.

    Its log weight relative to the peak at v* is
    -E(v*) + power (log B0 - log |P(v*)| + log1p |v*|), with
    E(z) = Re(beta z) + Re(gamma z^2) - c |z|^2 the exponent's quadratic
    part and B0 = sum |p_k| c^(-k/2) a bound on |P| near 0.  It matters
    above log(tol.rel_tol) - _KINK_MARGIN, so always where P(v*) = 0.
    """
    coeffs = np.asarray(poly)
    b0 = np.sum(np.abs(coeffs) * c ** (-0.5 * np.arange(coeffs.size)))
    peak = np.real(beta * v + gamma * v * v) - c * np.abs(v) ** 2
    # np.polyval, not _POLY: row counts on _POLY then see samples only.
    with np.errstate(divide="ignore", invalid="ignore"):
        at_v = np.log(np.abs(np.polyval(coeffs[::-1], v)))
        kink = -peak + power * (np.log(b0) - at_v + np.log1p(np.abs(v)))
    return kink > math.log(tol.rel_tol) - _KINK_MARGIN


def _first_level(base, tol: Tolerance):
    """``base`` if its radial rule integrates r e^(-c r^2) over [0, R] to
    ``tol.rel_tol``, else ``base.refined(1)``."""
    r = base.radial_nodes
    exact = -math.expm1(-base.decay * base.radius ** 2) / (2.0 * base.decay)
    got = float(np.dot(base.radial_weights, np.exp(-base.decay * r * r)))
    return base if abs(got - exact) <= tol.rel_tol * exact else base.refined(1)


def berezin_log_profile(pair: SymbolPair, power: float, points,
                        tol: Tolerance | None = None) -> np.ndarray:
    """log B(w) at each point of ``points``, to ``tol.rel_tol`` log-accuracy.

    ``tol`` defaults to ``PROFILE_TOL``.  Each point is integrated about
    the centre of the module's one rule.  Each centre kind (v* and the
    origin) runs the levels of one scheme sized for its worst point, from
    ``_BASE_NODES`` per axis or twice that (``_first_level``), and
    ``tol.max_refinements`` counts doublings from that first level.  A
    point stops, keeping that level's value, once its log value is finite
    at both of its last two levels and they differ by at most
    ``tol.rel_tol``, or is finite at neither; only the points that need a
    deeper level pay for it.  Raises DivergentTail
    when the shifted integral diverges and NonConvergence, carrying the
    latest log value of every point (NaN where no level ran), when the
    levels run out (``tol.max_refinements`` or the sample budget) first.
    A 2-D ``points`` is read a ring per row (see the module); the result
    is flat either way.
    """
    pts = np.asarray(points, dtype=complex)
    w = pts.ravel()
    tol = tol or PROFILE_TOL
    c, growth = _decay_and_growth(pair, power)
    weight = pair.weight_symbol
    a, b = pair.psi.a, pair.psi.b
    q0, q1, q2 = weight.expo
    cap = int(math.ceil(power * weight.degree)) + 8

    def scheme(linear: float):
        return build_scheme(c, tol, growth, linear_bound=linear,
                            poly_degree_cap=cap, radial_count=_BASE_NODES,
                            angular_count=_BASE_NODES)

    # v* solves c conj(v) = beta / 2 + gamma v; the divergence margin
    # keeps |r| = |gamma| / c below 1.  Divided through by c, the formula
    # holds no c^2 to overflow or underflow.
    beta = 2.0 * c * a * np.conj(w) + power * q1
    gamma = power * q2
    r = gamma / c
    v = ((np.conj(r) * beta + np.conj(beta))
         / (2.0 * c * (1.0 - abs(r) ** 2)))
    star = scheme(0.0)
    origin = pair.has_metric_factor & (np.abs(v) <= star.radius)
    if origin.any():
        origin[origin] = _kink_matters(weight.poly, power, c, beta[origin],
                                       gamma, v[origin], tol)
    v[origin] = 0.0
    # The tilt is beta about 0 and vanishes at v*.
    lam = np.where(origin, beta, 0.0)
    # Origin points on the rows w_r0 e^(2 pi i j / J) of a 2-D input take
    # the ring route.
    ring = np.zeros(w.size, dtype=bool)
    if pts.ndim == 2 and origin.any():
        spin = np.exp(2j * np.pi * np.arange(pts.shape[1]) / pts.shape[1])
        on = np.abs(pts - pts[:, :1] * spin) <= 1e-12 * np.abs(pts[:, :1])
        ring = origin & np.repeat(on.all(axis=1), pts.shape[1])
    d = np.conj(a) * w - v
    log_pref = (c * ((abs(a) ** 2 - 1.0) * np.abs(w) ** 2 - np.abs(d) ** 2
                     + 2.0 * np.real(b * np.conj(w)))
                + power * np.real(q0 + v * (q1 + q2 * v)))

    logs = np.full(w.size, np.nan)
    stopped = True
    for active in (np.flatnonzero(~origin), np.flatnonzero(origin)):
        if not active.size:
            continue
        linear = float(np.max(np.abs(lam[active])))
        base = _first_level(scheme(linear) if linear else star, tol)
        for level, sch in enumerate(base.levels(tol.max_refinements)):
            on = ring[active]
            if on.any():
                cur, rest = np.empty(active.size), active[~on]
                cur[on] = _ring_level(pair, power, pts, active[on], sch)
                if rest.size:
                    cur[~on] = _log_level(pair, power, v[rest], lam[rest], sch)
            else:
                cur = _log_level(pair, power, v[active], lam[active], sch)
            prev = logs[active]
            logs[active] = cur
            if level:
                finite = np.isfinite(cur)
                with np.errstate(invalid="ignore"):
                    done = np.where(finite & np.isfinite(prev),
                                    np.abs(cur - prev) <= tol.rel_tol,
                                    finite == np.isfinite(prev))
                active = active[~done]
                if not active.size:
                    break
        stopped = stopped and not active.size
    if not stopped:
        raise NonConvergence("transform levels ran out before log agreement",
                             value=logs + log_pref)
    return logs + log_pref


def berezin_at(pair: SymbolPair, power: float, w: complex,
               tol: Tolerance | None = None) -> float:
    """B(w) at one point to ``tol.rel_tol`` in log value; +inf on overflow."""
    logb = berezin_log_profile(pair, power, [w], tol=tol or Tolerance())[0]
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

    @property
    def ring_maxima(self) -> np.ndarray:
        return np.max(self.values, axis=1)

    @property
    def sup(self) -> float:
        return float(np.max(self.values))

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
                    tol: Tolerance | None = None) -> BerezinProfile:
    """Evaluate the transform over the grid; a divergent one is +inf."""
    grid = grid or GridSpec()
    pts = grid.points(pair.alpha)
    try:
        logb = berezin_log_profile(pair, power, pts, tol=tol)
    except DivergentTail:
        logb = np.full(pts.size, np.inf)
    with np.errstate(over="ignore"):
        values = np.exp(logb).reshape(pts.shape)
    return BerezinProfile(pair=pair, power=power, radii=grid.radii(pair.alpha),
                          angles=grid.angles(), values=values)


def _segment_nodes(lo: float, hi: float, radial: int = 24,
                   angular: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """Polar nodes on lo < |w| < hi, a ring per row, and flat area weights."""
    x, gw = _leggauss(radial)
    r = 0.5 * (hi - lo) * (x + 1.0) + lo
    wr = 0.5 * (hi - lo) * gw * r * (2.0 * np.pi / angular)
    phases = np.exp(2j * np.pi * np.arange(angular) / angular)
    pts = np.multiply.outer(r, phases)
    wts = np.repeat(wr, angular)
    return pts, wts


# Annuli evaluated inside the current ``_shared_annuli`` scope, keyed by
# (pair, power, k); None outside any scope.
_ANNULI: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "fockops_annuli", default=None)


@contextlib.contextmanager
def _shared_annuli():
    """Evaluate each annulus and tail exponent once inside the scope.

    B on an annulus does not depend on the exponent s_exp.  The store
    ends with the scope, so the next scope evaluates its annuli afresh.
    """
    token = _ANNULI.set({})
    try:
        yield
    finally:
        _ANNULI.reset(token)


def _far_scale(pair: SymbolPair) -> float:
    """A radius past which B follows its far-field law.

    The largest of the Gaussian width 1 / sqrt(alpha), the Cauchy bound
    1 + max |p_k / p_n| on the roots of the weight polynomial P, and 1 (the
    kink of the metric factor 1 / (1 + |z|)) when the weight has one.
    """
    coeffs = np.abs(np.asarray(pair.weight_symbol.poly))
    roots = 1.0 + np.max(coeffs[:-1]) / coeffs[-1] if coeffs.size > 1 else 0.0
    kink = 1.0 if pair.has_metric_factor else 0.0
    return max(1.0 / math.sqrt(pair.alpha), float(roots), kink)


def _tail_exponent(pair: SymbolPair, power: float,
                   tol: Tolerance | None = None) -> dict:
    """The exponent kappa of B's far field, with the rings behind it.

    log B is evaluated on rings of radius 10^2, 10^3 and 10^4 times
    ``_far_scale`` at the default grid's angles.  When the per-decade
    slopes of the ring maxima agree within ``_TAIL_BAND * power``, B grows
    like |w|^kappa and kappa is the nearest multiple of power (for V_g
    with the identity map, power (deg g - 2)); a slope farther than that
    band from every multiple gives NaN.  Slopes that disagree mean
    exponential growth or decay, kappa = +-inf by the outer slope's sign.
    Levels that run out give NaN, and a weight whose Gaussian growth
    reaches the decay (DivergentTail) +inf, each with a note.  Inside a
    ``_shared_annuli`` scope the first result for (pair, power) is reused,
    whatever ``tol`` later calls pass.
    """
    store = _ANNULI.get()
    key = (pair, power, "tail")
    if store is not None and key in store:
        return store[key]
    radii = np.array([1e2, 1e3, 1e4]) * _far_scale(pair)
    points = np.multiply.outer(radii, np.exp(1j * GridSpec().angles()))
    out = {"radii": radii.tolist(), "kappa": math.nan}
    try:
        logs = berezin_log_profile(pair, power, points, tol=tol)
    except DivergentTail as exc:
        out.update(kappa=math.inf, note=str(exc))
    except NonConvergence as exc:
        out["note"] = str(exc)
    else:
        maxima = logs.reshape(points.shape).max(axis=1)
        inner, outer = np.diff(maxima) / math.log(10.0)
        band = _TAIL_BAND * power
        if abs(outer - inner) <= band:  # False for NaN
            snapped = power * round(outer / power)
            if abs(outer - snapped) <= band:
                out["kappa"] = float(snapped)
        elif math.isfinite(inner + outer) and outer:
            out["kappa"] = math.copysign(math.inf, outer)
        out.update(log_maxima=maxima.tolist(),
                   slopes=[float(inner), float(outer)])
    if store is not None:
        store[key] = out
    return out


def _annulus(pair: SymbolPair, power: float,
             k: int) -> tuple[np.ndarray, np.ndarray]:
    """(area weights, log B at the nodes) of annulus k of the march.

    Annulus 0 is the disk |w| < r_edge with r_edge = 6 / sqrt(c); annulus
    k >= 1 spans r_edge 2^(k-1) < |w| < r_edge 2^k.  Inside a
    ``_shared_annuli`` scope the result is stored and reused;
    NonConvergence is not stored.
    """
    store = _ANNULI.get()
    key = (pair, power, k)
    if store is not None and key in store:
        return store[key]
    c, _ = _decay_and_growth(pair, power)
    r_edge = 6.0 / math.sqrt(c)
    # The inner disk holds most of a convergent value, so it gets the dense
    # rule.  An outer annulus runs coarse: under a power law the closing
    # annulus's sum, scaled by the exact tail ratio, carries the whole tail
    # and so decides the value to about the closing annulus's accuracy.
    if k == 0:
        pts, wts = _segment_nodes(0.0, r_edge, radial=24, angular=32)
    else:
        pts, wts = _segment_nodes(r_edge * (2.0 ** (k - 1)),
                                  r_edge * (2.0 ** k), radial=12, angular=24)
    logb = berezin_log_profile(pair, power, pts, tol=_ANNULUS_TOL)
    if store is not None:
        store[key] = wts, logb
    return wts, logb


def berezin_power_integral(pair: SymbolPair, power: float,
                           s_exp: float) -> tuple[float, str]:
    """integral of B(w)^s_exp dm(w), marched over doubling annuli.

    Returns (value, status) with status one of "converged", "diverged",
    "inconclusive".  Divergence is data here: the value is +inf and no
    exception escapes.  B^s_exp grows like |w|^(s_exp kappa) with kappa
    from ``_tail_exponent``, so the integral converges exactly when
    s_exp kappa + 2 < 0; a diverging or unknown exponent marches no
    annulus.  A converging one marches until an annulus adds at most
    ``_MARCH_REL`` of the sum.  Under a power law (kappa finite) the
    march closes after annulus 3, one more per doubling
    of ``_far_scale`` past the Gaussian width 1 / sqrt(alpha), with the
    geometric tail of ratio 2^(s_exp kappa + 2), the exact ratio of
    consecutive annuli of |w|^(s_exp kappa).  Inside a ``_shared_annuli``
    scope, as in ``classify_berezin``, the integrals of one (pair, power)
    evaluate kappa and each annulus once, whatever their exponents;
    outside one every call evaluates its own.
    """
    if not (math.isfinite(s_exp) and s_exp > 0):
        raise ValueError("s_exp must be positive")
    if power <= 0:
        raise ValueError("power must be positive")
    if pair.weight_symbol.is_zero:
        return 0.0, "converged"
    exponent = s_exp * _tail_exponent(pair, power)["kappa"] + 2.0
    if math.isnan(exponent):
        return math.nan, "inconclusive"
    if exponent >= 0:
        return math.inf, "diverged"
    ratio = 2.0 ** exponent  # 0 for exponential decay: no closing tail
    # Annulus 3 starts at 24 / sqrt(c), 24 sqrt(2 / power) Gaussian widths
    # out, where a power-law B^s_exp has settled to within a few percent of
    # its tail ratio; each doubling of _far_scale past that width closes
    # one annulus later.
    spread = _far_scale(pair) * math.sqrt(pair.alpha)
    closing = 3 + max(0, math.ceil(math.log2(spread) - 1e-9))

    total = 0.0
    for k in range(_MAX_ANNULI + 1):
        try:
            wts, logb = _annulus(pair, power, k)
        except NonConvergence:
            return total, "inconclusive"
        with np.errstate(over="ignore"):
            seg = float(np.sum(wts * np.exp(s_exp * logb)))
        if not math.isfinite(seg):
            return math.nan, "inconclusive"
        if k and seg <= _MARCH_REL * total:
            return total + seg, "converged"
        total += seg
        if ratio and k >= closing:
            return total + seg * ratio / (1.0 - ratio), "converged"
    return total, "inconclusive"


def hilbert_schmidt_integral(pair: SymbolPair) -> float:
    """integral of W(z)^2 exp(alpha (|psi(z)|^2 - |z|^2)) dm(z); +inf verdict.

    With alpha' = alpha (1 - |a|^2) and w0 = alpha conj(a) b / alpha', the
    exponent is alpha' (2 Re(z conj(w0)) - |z|^2 - |w0|^2) + alpha |b|^2
    + alpha' |w0|^2, so the integral is exp(alpha |b|^2 + alpha' |w0|^2)
    B(w0): B is the power-2 transform of the same kind and symbol under the
    identity map at alpha', evaluated at ``Tolerance()``.  Its
    NonConvergence passes through; |a| >= 1 and a divergent B give +inf.
    """
    if pair.weight_symbol.is_zero:
        return 0.0
    a, b = pair.psi.a, pair.psi.b
    decay = pair.alpha * (1.0 - abs(a) ** 2)
    if decay <= 0:
        return math.inf
    w0 = pair.alpha * np.conj(a) * b / decay
    flat = replace(pair, psi=AffineMap(1.0), alpha=decay)
    try:
        logb = berezin_log_profile(flat, 2.0, [w0], tol=Tolerance())[0]
    except DivergentTail:
        return math.inf
    with np.errstate(over="ignore"):
        return float(np.exp(logb + pair.alpha * abs(b) ** 2
                            + decay * abs(w0) ** 2))
