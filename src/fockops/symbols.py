"""Symbol algebra: polynomials times a quadratic-exponential factor, and affine maps."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegreeCap

__all__ = [
    "AffineMap",
    "Symbol",
    "SymbolPair",
    "MAX_DEGREE",
    "PARSE_DEGREE_CAP",
    "weight_at",
]

# Hard cap on polynomial degree in symbol arithmetic; composition with the
# basis monomials never needs more than a few hundred.
MAX_DEGREE = 4096

# Inducing symbols supplied by users are capped much lower: the quadrature
# tail bounds budget for polynomial envelopes up to this degree.
PARSE_DEGREE_CAP = 64

_P = np.polynomial.polynomial


def _as_coeffs(seq) -> tuple[complex, ...]:
    arr = np.atleast_1d(np.asarray(seq, dtype=complex))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("coefficients must form a non-empty 1-d sequence")
    if arr.size - 1 > MAX_DEGREE:
        raise DegreeCap(f"degree {arr.size - 1} exceeds cap {MAX_DEGREE}")
    last = arr.size
    while last > 1 and arr[last - 1] == 0:
        last -= 1
    return tuple(arr[:last])


@dataclass(frozen=True)
class AffineMap:
    """The map z -> a z + b."""

    a: complex
    b: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))

    def __call__(self, z):
        return self.a * np.asarray(z) + self.b

    @property
    def is_identity(self) -> bool:
        return self.a == 1 and self.b == 0


@dataclass(frozen=True)
class Symbol:
    """An entire function P(z) exp(q0 + q1 z + q2 z^2) with polynomial P.

    ``poly`` holds the coefficients of P lowest-degree first; ``expo`` holds
    (q0, q1, q2).  The class is closed under differentiation, products and
    composition with affine maps, which is all the operator symbols need.
    """

    poly: tuple[complex, ...]
    expo: tuple[complex, complex, complex] = (0j, 0j, 0j)

    def __post_init__(self):
        object.__setattr__(self, "poly", _as_coeffs(self.poly))
        q = tuple(complex(c) for c in self.expo)
        if len(q) != 3:
            raise ValueError("expo must hold exactly (q0, q1, q2)")
        object.__setattr__(self, "expo", q)

    @classmethod
    def polynomial(cls, coeffs) -> Symbol:
        return cls(poly=_as_coeffs(coeffs))

    @classmethod
    def exponential(cls, q0=0j, q1=0j, q2=0j) -> Symbol:
        return cls(poly=(1 + 0j,), expo=(q0, q1, q2))

    @classmethod
    def one(cls) -> Symbol:
        return cls(poly=(1 + 0j,))

    @property
    def degree(self) -> int:
        return len(self.poly) - 1

    @property
    def is_zero(self) -> bool:
        return self.poly == (0j,)

    @property
    def is_polynomial(self) -> bool:
        return self.expo == (0j, 0j, 0j)

    @property
    def gaussian_growth(self) -> float:
        """|q2|: the quadratic-exponent magnitude governing tail growth."""
        return abs(self.expo[2])

    @property
    def linear_growth(self) -> float:
        return abs(self.expo[1])

    def exponent_at(self, z):
        q0, q1, q2 = self.expo
        z = np.asarray(z)
        return q0 + z * (q1 + q2 * z)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        vals = _P.polyval(z, np.asarray(self.poly))
        if self.is_polynomial:
            return vals
        return vals * np.exp(self.exponent_at(z))

    def log_abs(self, z) -> np.ndarray:
        """log |self(z)| elementwise; -inf at zeros of P."""
        z = np.asarray(z, dtype=complex)
        vals = np.abs(_P.polyval(z, np.asarray(self.poly)))
        with np.errstate(divide="ignore"):
            out = np.log(vals)
        return out + np.real(self.exponent_at(z))

    def derivative(self) -> Symbol:
        q0, q1, q2 = self.expo
        dp = _P.polyder(np.asarray(self.poly))
        if dp.size == 0:
            dp = np.zeros(1, dtype=complex)
        if self.is_polynomial:
            return Symbol(poly=dp)
        # (P e^q)' = (P' + P q') e^q with q' = q1 + 2 q2 z.
        chain = _P.polymul(np.asarray(self.poly), np.array([q1, 2 * q2]))
        return Symbol(poly=_P.polyadd(dp, chain), expo=self.expo)

    def compose_affine(self, phi: AffineMap) -> Symbol:
        a, b = phi.a, phi.b
        coeffs = np.asarray(self.poly)
        if a == 0:
            composed = np.array([_P.polyval(b, coeffs)])
        elif b == 0 and np.count_nonzero(coeffs) <= 1:
            # P is a monomial c z^n: exact scaling, no convolution.
            composed = coeffs * a ** np.arange(coeffs.size)
        else:
            # Horner in polynomial arithmetic; intermediate coefficients
            # stay below (|a| + |b|)^deg, safe for degrees into the hundreds.
            composed = np.array([coeffs[-1]])
            lin = np.array([b, a])
            for c in coeffs[-2::-1]:
                composed = _P.polymul(composed, lin)
                composed[0] += c
        q0, q1, q2 = self.expo
        expo = (q0 + q1 * b + q2 * b * b,
                q1 * a + 2 * q2 * a * b,
                q2 * a * a)
        return Symbol(poly=composed, expo=expo)

    def __mul__(self, other):
        if isinstance(other, Symbol):
            if len(self.poly) + len(other.poly) - 2 > MAX_DEGREE:
                raise DegreeCap("product degree exceeds cap")
            poly = _P.polymul(np.asarray(self.poly), np.asarray(other.poly))
            expo = tuple(p + q for p, q in zip(self.expo, other.expo))
            return Symbol(poly=poly, expo=expo)
        scalar = complex(other)
        return Symbol(poly=tuple(scalar * c for c in self.poly),
                      expo=self.expo)

    __rmul__ = __mul__

    def series(self, length: int) -> np.ndarray:
        """First ``length`` Taylor coefficients of self about 0."""
        if length <= 0:
            raise ValueError("length must be positive")
        if self.is_polynomial:
            out = np.zeros(length, dtype=complex)
            upto = min(length, len(self.poly))
            out[:upto] = self.poly[:upto]
            return out
        q0, q1, q2 = self.expo
        # E = e^{q}: E' = q' E gives m e_m = q1 e_{m-1} + 2 q2 e_{m-2}.
        exp_series = np.zeros(length, dtype=complex)
        exp_series[0] = np.exp(q0)
        for m in range(1, length):
            val = q1 * exp_series[m - 1]
            if m >= 2:
                val += 2 * q2 * exp_series[m - 2]
            exp_series[m] = val / m
        full = _P.polymul(np.asarray(self.poly), exp_series)[:length]
        out = np.zeros(length, dtype=complex)
        out[:full.size] = full
        return out


@dataclass(frozen=True)
class SymbolPair:
    """An operator specification: its kind, inducing symbols, and alpha.

    kind "volterra" is the integral operator f -> int_0^z f(psi(t)) g'(t) dt
    with ``symbol`` = g; kind "weighted" is f -> u (f o psi) with ``symbol``
    = u.  The induced weight is |g'(z)| / (1 + |z|) respectively |u(z)|.
    """

    kind: str
    symbol: Symbol
    psi: AffineMap
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in ("volterra", "weighted"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if not (self.alpha > 0):
            raise ValueError("alpha must be positive")

    @classmethod
    def volterra(cls, g: Symbol, psi: AffineMap | None = None,
                 alpha: float = 1.0) -> SymbolPair:
        return cls(kind="volterra", symbol=g,
                   psi=psi if psi is not None else AffineMap(1.0), alpha=alpha)

    @classmethod
    def weighted(cls, u: Symbol, psi: AffineMap | None = None,
                 alpha: float = 1.0) -> SymbolPair:
        return cls(kind="weighted", symbol=u,
                   psi=psi if psi is not None else AffineMap(1.0), alpha=alpha)

    @cached_property
    def weight_symbol(self) -> Symbol:
        """The entire factor of the weight: g' for volterra, u for weighted."""
        if self.kind == "volterra":
            return self.symbol.derivative()
        return self.symbol

    @property
    def has_metric_factor(self) -> bool:
        """Whether the weight carries the extra 1 / (1 + |z|) factor."""
        return self.kind == "volterra"


def weight_at(pair: SymbolPair, z) -> np.ndarray:
    """The induced weight |g'(z)| / (1 + |z|) or |u(z)|, elementwise."""
    z = np.asarray(z, dtype=complex)
    mag = np.abs(pair.weight_symbol(z))
    if pair.has_metric_factor:
        return mag / (1.0 + np.abs(z))
    return mag
