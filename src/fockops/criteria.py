"""Boundedness, compactness, and Schatten classification with cross-checks."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .berezin import (GridSpec, _shared_annuli, _tail_exponent,
                      berezin_power_integral, berezin_profile,
                      hilbert_schmidt_integral)
from .errors import NonConvergence
from .operator_rep import build_matrix, spectral_summary
from .quadrature import Tolerance
from .symbols import Symbol, SymbolPair

__all__ = [
    "Verdict",
    "Classification",
    "classify_berezin",
    "schatten_membership",
    "oracle_classify",
    "random_volterra_family",
    "consistency_report",
    "ConsistencyReport",
]


class Verdict(enum.Enum):
    YES = "yes"
    NO = "no"
    INCONCLUSIVE = "inconclusive"


@dataclass
class Classification:
    """Verdicts plus numeric estimates and the evidence behind them."""

    bounded: Verdict
    compact: Verdict
    schatten: dict = field(default_factory=dict)
    norm_estimate: float = math.nan
    essential_norm_estimate: float = math.nan
    source: str = "berezin"
    evidence: dict = field(default_factory=dict)


def _zero_operator(schatten_orders, source: str,
                   evidence: dict) -> Classification:
    """The zero operator: in every class, with norm and essential norm 0."""
    return Classification(bounded=Verdict.YES, compact=Verdict.YES,
                          schatten={float(t): Verdict.YES
                                    for t in schatten_orders},
                          norm_estimate=0.0, essential_norm_estimate=0.0,
                          source=source, evidence=evidence)


def _classify_sup(pair: SymbolPair, q: float, grid: GridSpec | None,
                  tol: Tolerance | None, tail: dict) -> Classification:
    """Bounded iff B stays bounded, compact iff B vanishes at infinity.

    Both follow from the far-field exponent kappa of ``_tail_exponent``:
    bounded iff kappa <= 0, compact iff kappa < 0.  Only a bounded pair
    evaluates the sup profile, over the grid with its radius doubled: the
    norm estimate is the larger of its sup and the far rings' maxima, the
    essential norm's the farthest ring's maximum, each to the power 1/q.
    """
    kappa = tail["kappa"]
    ev: dict = {"mode": "sup", "tail": tail}
    if math.isnan(kappa):
        return Classification(bounded=Verdict.INCONCLUSIVE,
                              compact=Verdict.INCONCLUSIVE, evidence=ev)
    if kappa > 0:
        return Classification(bounded=Verdict.NO, compact=Verdict.NO,
                              norm_estimate=math.inf,
                              essential_norm_estimate=math.inf, evidence=ev)
    grid = grid or GridSpec()
    wide = replace(grid, w_max=2.0 * grid.resolve_w_max(pair.alpha))
    profile = berezin_profile(pair, q, grid=wide, tol=tol)
    ev.update(radii=profile.radii.tolist(),
              ring_maxima=profile.ring_maxima.tolist())
    logs = tail["log_maxima"]
    with np.errstate(divide="ignore", over="ignore"):
        log_sup = max(float(np.log(profile.sup)), *logs)
        norm, ess = np.exp(np.array([log_sup, logs[-1]]) / q)
    return Classification(bounded=Verdict.YES,
                          compact=Verdict.YES if kappa < 0 else Verdict.NO,
                          norm_estimate=float(norm),
                          essential_norm_estimate=float(ess), evidence=ev)


def _integral_verdict(value: float, status: str, root: float):
    """(verdict, estimate) of a power integral: YES with value^(1 / root)
    when it converged, NO with +inf when it diverged, else INCONCLUSIVE."""
    if status == "converged":
        return Verdict.YES, value ** (1.0 / root) if value > 0 else 0.0
    if status == "diverged":
        return Verdict.NO, math.inf
    return Verdict.INCONCLUSIVE, math.nan


def _classify_integral(pair: SymbolPair, p: float, q: float,
                       tail: dict) -> Classification:
    s = p / (p - q)
    value, status = berezin_power_integral(pair, q, s)
    verdict, norm = _integral_verdict(value, status, s * q)
    return Classification(
        bounded=verdict, compact=verdict, norm_estimate=norm,
        essential_norm_estimate=0.0 if verdict is Verdict.YES else norm,
        evidence={"mode": "integral", "s": s, "value": value,
                  "status": status, "tail": tail})


def schatten_membership(pair: SymbolPair, order: float):
    """Verdict and norm estimate for the order-t class, p = q = 2 source.

    Membership reduces to finiteness of the integral of B^{t/2}; the
    estimate returned is the integral's value to the power 1/t.  The
    order must be finite and positive.  A standalone call marches its own
    annuli; inside ``classify_berezin`` the orders share them.
    """
    if not (math.isfinite(order) and order > 0):
        raise ValueError("order must be positive")
    value, status = berezin_power_integral(pair, 2.0, 0.5 * order)
    return (*_integral_verdict(value, status, order), status)


def classify_berezin(pair: SymbolPair, p: float, q: float,
                     grid: GridSpec | None = None,
                     tol: Tolerance | None = None,
                     schatten_orders=()) -> Classification:
    """Classify boundedness and compactness from the transform alone.

    For p <= q whether the transform stays bounded or vanishes at
    infinity decides; for p > q finiteness of the s-th power integral (s
    the conjugate exponent of p/q) decides both at once.  Every verdict
    derives from B's far-field exponent kappa, read first, once per call.
    Schatten verdicts are attached when p = q = 2 and orders are given;
    the orders share kappa and each power-integral annulus, so extra
    orders cost only their sums.  ``tol`` is that of kappa's rings and the
    sup profile, ``berezin.PROFILE_TOL`` by default.  p, q and the orders
    must be finite and positive.
    """
    if not (math.isfinite(p) and math.isfinite(q) and p > 0 and q > 0):
        raise ValueError("exponents must be positive")
    schatten_orders = tuple(map(float, schatten_orders))
    if not all(math.isfinite(t) and t > 0 for t in schatten_orders):
        raise ValueError("order must be positive")
    if pair.weight_symbol.is_zero:
        return _zero_operator(schatten_orders, "berezin", {"mode": "zero"})

    with _shared_annuli():
        tail = _tail_exponent(pair, q, tol)
        if p <= q:
            cls = _classify_sup(pair, q, grid, tol, tail)
        else:
            cls = _classify_integral(pair, p, q, tail)

        if schatten_orders and p == 2.0 and q == 2.0:
            details = {}
            for t in schatten_orders:
                verdict, est, status = schatten_membership(pair, t)
                cls.schatten[t] = verdict
                details[t] = {"estimate": est, "status": status}
            cls.evidence["schatten"] = details
    return cls


# Boundary bands inside which the closed-form families refuse to answer,
# because the numeric side cannot be expected to resolve the edge.
_SCALE_BAND = 1e-3
_EXPONENT_BAND = 0.05


def _oracle_volterra_identity(pair: SymbolPair, p: float, q: float,
                              schatten_orders) -> Classification | None:
    g = pair.symbol
    deg = g.derivative().degree if not g.derivative().is_zero else -1
    if deg < 0:  # constant g, zero operator
        return _zero_operator(schatten_orders, "oracle", {"family": "zero"})
    ev = {"family": "polynomial-symbol, identity map", "degree": deg + 1}
    if p <= q:
        bounded = Verdict.YES if deg + 1 <= 2 else Verdict.NO
        compact = Verdict.YES if deg + 1 <= 1 else Verdict.NO
    else:
        edge = q * (p + 2.0) - 2.0 * p
        if abs(edge) < _EXPONENT_BAND * 2.0 * p:
            return None
        ok = deg + 1 <= 1 and edge > 0
        bounded = compact = Verdict.YES if ok else Verdict.NO
    cls = Classification(bounded=bounded, compact=compact, source="oracle",
                         evidence=ev)
    if p == 2.0 and q == 2.0:
        for t in schatten_orders:
            member = deg + 1 <= 1 and float(t) > 2.0
            cls.schatten[float(t)] = Verdict.YES if member else Verdict.NO
    return cls


def _oracle_weighted(pair: SymbolPair, p: float, q: float,
                     schatten_orders) -> Classification | None:
    u = pair.symbol
    a_mod = abs(pair.psi.a)
    if u.is_polynomial and u.degree == 0:
        if u.poly[0] == 0:
            return _zero_operator(schatten_orders, "oracle",
                                  {"family": "zero"})
        if abs(a_mod - 1.0) < _SCALE_BAND and a_mod != 1.0:
            return None
        ev = {"family": "constant weight, affine map", "a_mod": a_mod}
        contracting = a_mod < 1.0
        if p <= q:
            bounded_ok = contracting or (a_mod == 1.0 and pair.psi.b == 0)
        else:
            bounded_ok = contracting
        bounded = Verdict.YES if bounded_ok else Verdict.NO
        compact = Verdict.YES if contracting else Verdict.NO
        cls = Classification(bounded=bounded, compact=compact,
                             source="oracle", evidence=ev)
        if p == 2.0 and q == 2.0:
            for t in schatten_orders:
                cls.schatten[float(t)] = (Verdict.YES if contracting
                                          else Verdict.NO)
        return cls
    if not u.is_polynomial and u.poly == (1 + 0j,):
        # Gaussian-type weight: the quadratic-exponent margin decides
        # every Schatten class at once, and membership implies the rest.
        margin = pair.alpha * (1.0 - a_mod ** 2) - 2.0 * u.gaussian_growth
        if a_mod < 1.0 and abs(margin) < _SCALE_BAND * pair.alpha:
            return None
        member = a_mod < 1.0 and margin > 0
        ev = {"family": "gaussian weight, affine map", "margin": margin}
        if p == 2.0 and q == 2.0 and schatten_orders:
            verdict = Verdict.YES if member else Verdict.NO
            if member:
                cls = Classification(bounded=Verdict.YES,
                                     compact=Verdict.YES,
                                     source="oracle", evidence=ev)
            else:
                cls = Classification(bounded=Verdict.INCONCLUSIVE,
                                     compact=Verdict.INCONCLUSIVE,
                                     source="oracle", evidence=ev)
            cls.schatten = {float(t): verdict for t in schatten_orders}
            return cls
        return None
    return None


def _oracle_volterra_scaling(pair: SymbolPair, p: float,
                             q: float) -> Classification | None:
    g = pair.symbol
    beta = abs(pair.psi.a)
    if pair.psi.b != 0 or beta >= 1.0 or g.is_polynomial:
        return None
    gamma = 2.0 * g.gaussian_growth / pair.alpha
    if gamma + beta ** 2 < 1.0 - _SCALE_BAND:
        ev = {"family": "gaussian symbol, contracting map",
              "gamma": gamma, "beta": beta}
        return Classification(bounded=Verdict.YES,
                              compact=Verdict.INCONCLUSIVE,
                              source="oracle", evidence=ev)
    return None


def oracle_classify(pair: SymbolPair, p: float, q: float,
                    schatten_orders=()) -> Classification | None:
    """Closed-form verdicts for the symbol families that admit them.

    Returns None outside the supported families or inside the boundary
    bands where a numeric comparison would be meaningless.
    """
    if pair.kind == "volterra":
        if pair.symbol.is_polynomial and pair.psi.is_identity:
            return _oracle_volterra_identity(pair, p, q, schatten_orders)
        return _oracle_volterra_scaling(pair, p, q)
    return _oracle_weighted(pair, p, q, schatten_orders)


def random_volterra_family(count: int, seed: int = 1729,
                           degree_max: int = 5, alpha: float = 1.0,
                           lead_floor: float = 0.05) -> list:
    """Random polynomial symbols with the identity map, degrees 1..max.

    Coefficients are uniform on the unit disk; the leading one is redrawn
    until its modulus clears the floor, so the degree (and with it the
    closed-form verdict) is numerically unambiguous.  The floor must lie in
    [0, 1), below the largest modulus a draw can have.
    """
    if not 0.0 <= lead_floor < 1.0:
        raise ValueError(f"lead_floor must lie in [0, 1), got {lead_floor}")
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        deg = int(rng.integers(1, degree_max + 1))
        coeffs = np.empty(deg + 1, dtype=complex)
        for k in range(deg + 1):
            while True:
                c = math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                if k < deg or abs(c) >= lead_floor:
                    break
            coeffs[k] = c
        pairs.append(SymbolPair.volterra(Symbol.polynomial(coeffs),
                                         alpha=alpha))
    return pairs


@dataclass
class ConsistencyReport:
    comparisons: int
    agreements: int
    mismatches: list
    spectral_disagreements: list
    op_norm_ratios: list
    hs_ratios: list
    entries: list

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _verdicts_disagree(lhs: Verdict, rhs: Verdict) -> bool:
    definite = (Verdict.YES, Verdict.NO)
    return lhs in definite and rhs in definite and lhs is not rhs


def consistency_report(pairs, p: float, q: float, size: int = 128,
                       schatten_orders=(1.0, 2.0, 4.0)) -> ConsistencyReport:
    """Cross-validate transform verdicts against oracles and spectra.

    Every definite disagreement with a closed-form verdict is a mismatch;
    spectral partial sums only vote when their convergence flag is set.
    Norm ratios are collected for the equivalence-band regression; a pair
    whose direct HS integral fails to converge or overflows adds none.  A
    pair whose matrix overflows (NonConvergence) keeps its transform
    verdicts, with ``"spectral": None`` and the message in its entry, and
    casts no spectral vote and adds no ratio.
    """
    mismatches, spectral_dis = [], []
    op_ratios, hs_ratios, entries = [], [], []
    comparisons = agreements = 0
    want_schatten = p == 2.0 and q == 2.0
    orders = tuple(schatten_orders) if want_schatten else ()
    for i, pair in enumerate(pairs):
        cls = classify_berezin(pair, p, q, schatten_orders=orders)
        orc = oracle_classify(pair, p, q, schatten_orders=orders)
        entry = {"index": i, "classified": cls, "oracle": orc}
        entries.append(entry)
        if orc is not None:
            for attr in ("bounded", "compact"):
                lhs, rhs = getattr(cls, attr), getattr(orc, attr)
                if rhs is Verdict.INCONCLUSIVE:
                    continue
                comparisons += 1
                if lhs is rhs:
                    agreements += 1
                if _verdicts_disagree(lhs, rhs):
                    mismatches.append((i, attr, lhs, rhs))
            for t, rhs in orc.schatten.items():
                lhs = cls.schatten.get(t)
                if lhs is None or rhs is Verdict.INCONCLUSIVE:
                    continue
                comparisons += 1
                if lhs is rhs:
                    agreements += 1
                if _verdicts_disagree(lhs, rhs):
                    mismatches.append((i, f"schatten[{t}]", lhs, rhs))
        if want_schatten:
            try:
                summary = spectral_summary(build_matrix(pair, size), orders)
            except NonConvergence as exc:
                entry.update(spectral=None, spectral_note=str(exc))
                continue
            entry["spectral"] = summary
            for t, partial in summary.schatten.items():
                lhs = cls.schatten.get(t)
                if lhs is None or lhs is Verdict.INCONCLUSIVE:
                    continue
                spectral_says = (Verdict.YES if partial.converged
                                 else Verdict.NO)
                if lhs is not spectral_says:
                    spectral_dis.append((i, t, lhs, spectral_says))
            if (cls.bounded is Verdict.YES
                    and math.isfinite(cls.norm_estimate)
                    and cls.norm_estimate > 0):
                op_ratios.append(summary.op_norm / cls.norm_estimate)
            try:
                direct = hilbert_schmidt_integral(pair)
            except NonConvergence:
                direct = math.nan
            hs_partial = summary.schatten.get(2.0)
            if math.isfinite(direct) and summary.hs_norm > 0 \
                    and hs_partial is not None and hs_partial.converged:
                hs_ratios.append(direct / summary.hs_norm ** 2)
    return ConsistencyReport(comparisons=comparisons, agreements=agreements,
                             mismatches=mismatches,
                             spectral_disagreements=spectral_dis,
                             op_norm_ratios=op_ratios, hs_ratios=hs_ratios,
                             entries=entries)
