"""Adaptive quadrature for Gaussian-weighted integrals over the complex plane.

Everything here computes integrals of the shape

    I(F) = integral over C of F(z) exp(-c |z|^2) dm(z),    c > 0,

for smooth F of at most sub-Gaussian growth.  The rule is a polar tensor
product: mapped Gauss-Legendre nodes in the radius on [0, R] and a uniform
angular grid (the trapezoidal rule, which is spectrally accurate for
periodic integrands).  The truncation radius R comes from an explicit tail
bound, and refinement doubles both node counts until two successive values
agree to tolerance.  Every integrator of the package takes its levels from
``QuadratureScheme.levels`` and evaluates about ``_CHUNK`` samples at once.

Conventions
-----------
* Integrands are sampled in bulk: ``F`` receives a complex ndarray and must
  return an array of the same shape.
* ``radial_weights`` on a scheme are *bare*: they contain the polar Jacobian
  r and the Gauss-Legendre weight but not the Gaussian factor.  ``integrate``
  folds exp(-c r^2) in itself; callers that build the whole exponent in one
  piece (to avoid overflow) use the bare weights directly.
* A growth bound g means |F(z)| <= C (1 + |z|)^k exp(g |z|^2 + L |z|).  The
  truncation radius is the smallest R at which that envelope times the
  Gaussian drops below the absolute tolerance.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivergentTail, InvalidIntegrand, NonConvergence

__all__ = [
    "Tolerance",
    "QuadratureScheme",
    "IntegralResult",
    "build_scheme",
    "tail_radius",
    "gaussian_integral",
]

# Refinement stops before a level with more samples than this (2048^2).
_SAMPLE_BUDGET = 1 << 22

# Samples evaluated at once, so that a chunk's temporaries stay in cache.
# At 1 << 14 a float64 temporary is exactly 128 KiB, glibc's default mmap
# threshold, so each one becomes an mmap/munmap pair with fresh page
# faults unless an earlier large free has raised the threshold; at 1 << 13
# they come from the heap whatever ran before.
_CHUNK = 1 << 13


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True)
class Tolerance:
    """Convergence targets for adaptive refinement.

    ``rel_tol`` and ``abs_tol`` enter through the stopping rule
    |I_k - I_{k-1}| <= max(rel_tol * |I_k|, abs_tol), or for a transform
    point |log B_k - log B_{k-1}| <= rel_tol; ``max_refinements`` caps the
    number of doublings.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_refinements: int = 10

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if not (0.0 < self.abs_tol < 1.0):
            raise ValueError(f"abs_tol must lie in (0, 1), got {self.abs_tol}")
        if (not isinstance(self.max_refinements, numbers.Integral)
                or self.max_refinements < 0):
            raise ValueError("max_refinements must be a non-negative "
                             f"integer, got {self.max_refinements!r}")


@dataclass(frozen=True, eq=False)
class QuadratureScheme:
    """One level of the polar product rule on the disk |z| <= radius.

    ``radial_nodes`` are strictly increasing in (0, radius) and
    ``radial_weights`` are bare (Jacobian and map factor only, no Gaussian),
    so a full integral reads

        sum_i radial_weights[i] exp(-decay r_i^2) (2 pi / M)
              sum_j F(r_i e^{i theta_j0}).
    """

    radial_nodes: np.ndarray
    radial_weights: np.ndarray
    angular_count: int
    radius: float
    decay: float

    def angular_nodes(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.angular_count) / self.angular_count

    def complex_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened nodes z and matching bare weights (area measure)."""
        phases = np.exp(1j * self.angular_nodes())
        z = np.multiply.outer(self.radial_nodes, phases).ravel()
        w_ang = 2.0 * np.pi / self.angular_count
        w = np.repeat(self.radial_weights * w_ang, self.angular_count)
        return z, w

    def integrate(self, integrand) -> complex:
        """Single-level value of integral F(z) exp(-decay |z|^2) dm(z)."""
        phases = np.exp(1j * self.angular_nodes())
        folded = self.radial_weights * np.exp(
            -self.decay * self.radial_nodes ** 2)
        total = 0.0 + 0.0j
        # Chunk over radii, about _CHUNK samples at a time.
        step = max(1, _CHUNK // self.angular_count)
        for lo in range(0, self.radial_nodes.size, step):
            hi = lo + step
            z = np.multiply.outer(self.radial_nodes[lo:hi], phases)
            vals = np.asarray(integrand(z))
            if not np.all(np.isfinite(vals)):
                raise InvalidIntegrand(
                    "integrand produced a non-finite sample inside |z| <= "
                    f"{self.radius:.3g}")
            total += np.sum(folded[lo:hi] * vals.mean(axis=1))
        return complex(2.0 * np.pi * total)

    def refined(self, doublings: int = 1) -> QuadratureScheme:
        """Same radius and decay, node counts doubled ``doublings`` times."""
        factor = 1 << doublings
        return _scheme_at(self.decay, self.radius,
                          self.radial_nodes.size * factor,
                          self.angular_count * factor)

    def levels(self, max_refinements: int):
        """This scheme, then up to ``max_refinements`` doublings of it.

        Stops before the first level above ``_SAMPLE_BUDGET`` samples,
        without building its Gauss-Legendre table.
        """
        samples = self.radial_nodes.size * self.angular_count
        for doublings in range(max_refinements + 1):
            if samples << (2 * doublings) > _SAMPLE_BUDGET:
                return
            yield self.refined(doublings) if doublings else self


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    error: float
    refinements: int
    error_history: tuple[float, ...]


def _scheme_at(decay: float, radius: float, n_radial: int,
               n_angular: int) -> QuadratureScheme:
    x, w = _leggauss(n_radial)
    r = 0.5 * radius * (x + 1.0)
    return QuadratureScheme(radial_nodes=r,
                            radial_weights=0.5 * radius * w * r,
                            angular_count=n_angular, radius=radius,
                            decay=decay)


def tail_radius(decay: float, abs_tol: float, growth_bound: float = 0.0,
                linear_bound: float = 0.0, poly_degree_cap: int = 64) -> float:
    """Smallest radius at which the truncated tail drops below ``abs_tol``.

    Solves exp((g - c) R^2 + L R) (1 + R)^k <= abs_tol for R by doubling
    followed by bisection.  Raises :class:`DivergentTail` when g >= c, in
    which case no radius works.
    """
    if decay <= 0.0:
        raise ValueError("decay must be positive")
    if growth_bound >= decay:
        raise DivergentTail(
            f"growth bound {growth_bound:.6g} meets or exceeds the Gaussian "
            f"decay {decay:.6g}")
    if linear_bound < 0.0:
        raise ValueError("linear_bound must be non-negative")

    gap = decay - growth_bound
    log_target = math.log(abs_tol)

    def log_tail(radius: float) -> float:
        return (-gap * radius * radius + linear_bound * radius
                + poly_degree_cap * math.log1p(radius) - log_target)

    hi = max(1.0, 1.0 / math.sqrt(gap))
    for _ in range(200):
        if log_tail(hi) <= 0.0:
            break
        hi *= 2.0
    else:  # pragma: no cover - unreachable for finite inputs
        raise DivergentTail("tail bound cannot be met at any finite radius")
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if log_tail(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return max(hi, 1.0 / math.sqrt(decay))


def build_scheme(decay: float, tol: Tolerance | None = None,
                 growth_bound: float = 0.0, *, linear_bound: float = 0.0,
                 poly_degree_cap: int = 64, radial_count: int = 64,
                 angular_count: int = 64) -> QuadratureScheme:
    """Construct the base-level scheme for a given Gaussian decay.

    Parameters
    ----------
    decay : float
        The positive constant c in exp(-c |z|^2).
    tol : Tolerance, optional
        The truncation radius is set from ``tol.abs_tol``.
    growth_bound, linear_bound : float
        Quadratic and linear exponent bounds on the integrand, see the
        module docstring.
    poly_degree_cap : int
        Polynomial envelope allowance (1 + R)^k in the tail bound.
    radial_count, angular_count : int
        Base node counts before refinement.  The angular count must be
        even and at least 4 so conjugate-symmetric integrands are sampled
        symmetrically.
    """
    tol = tol or Tolerance()
    if angular_count < 4 or angular_count % 2:
        raise ValueError("angular_count must be even and at least 4")
    if radial_count < 2:
        raise ValueError("radial_count must be at least 2")
    radius = tail_radius(decay, tol.abs_tol, growth_bound, linear_bound,
                         poly_degree_cap)
    return _scheme_at(decay, radius, radial_count, angular_count)


def gaussian_integral(integrand, decay: float, tol: Tolerance | None = None,
                      *, growth_bound: float = 0.0, linear_bound: float = 0.0,
                      poly_degree_cap: int = 64) -> IntegralResult:
    """Adaptive value of integral F(z) exp(-c |z|^2) dm(z).

    Runs the levels of a freshly built base scheme (64 x 64 nodes, see
    ``QuadratureScheme.levels``) until two successive values agree within
    tolerance, and returns the last value together with the achieved
    error estimate.  Raises :class:`NonConvergence` when the refinement
    cap or the sample budget ends the levels first, and
    :class:`DivergentTail` when no truncation radius exists.
    """
    tol = tol or Tolerance()
    scheme = build_scheme(decay, tol, growth_bound, linear_bound=linear_bound,
                          poly_degree_cap=poly_degree_cap)
    value = None
    history: list[float] = []
    for level, sch in enumerate(scheme.levels(tol.max_refinements)):
        new_value = sch.integrate(integrand)
        if value is not None:
            err = abs(new_value - value)
            history.append(err)
            if err <= max(tol.rel_tol * abs(new_value), tol.abs_tol):
                return IntegralResult(value=new_value, error=err,
                                      refinements=level,
                                      error_history=tuple(history))
        value = new_value
    error = history[-1] if history else math.inf
    raise NonConvergence(f"no convergence after {len(history)} refinements "
                         f"(last error {error:.3g})", value=value, error=error)
