"""Verdict gates over seeded random Volterra families at several alphas.

A definite verdict that contradicts the closed-form oracle, or that an
exact symmetry of the operator changes, fails its gate; INCONCLUSIVE is
allowed and counted.  Every classification a gate draws must also respect
the verdict lattice (``oracles.lattice_breaks``).  Each gate prints one
summary line to the real terminal, so a run shows the INCONCLUSIVE counts
even under capture.
"""

import numpy as np
import pytest

from fockops.criteria import (Verdict, classify_berezin, oracle_classify,
                              random_volterra_family)
from fockops.symbols import Symbol, SymbolPair
from oracles import lattice_breaks

SEEDS = (1, 2, 3, 4, 5)
ALPHAS = (0.5, 1.0, 2.0)
DEGREE_MAX = (2, 3, 5)
PAIRS_PER_FAMILY = 8
SCHATTEN_ORDERS = (1.5, 1.9, 2.05, 2.1, 2.2, 2.5, 3.0, 4.0)
DEFINITE = (Verdict.YES, Verdict.NO)


def _disagree(lhs: Verdict, rhs: Verdict) -> bool:
    return lhs in DEFINITE and rhs in DEFINITE and lhs is not rhs


def _summary(capsys, name: str, checked: int, wrong: list,
             inconclusive: int):
    with capsys.disabled():
        print(f"GATE {name}: {checked} verdicts, {len(wrong)} wrong, "
              f"{inconclusive} inconclusive", flush=True)


@pytest.fixture(scope="module")
def sup_classified():
    """(seed, alpha, degree_max, pair, classify_berezin(pair, 2, 2)) for
    every pair of the seeded families: 5 x 3 x 3 x 8 = 360 pairs."""
    return [(seed, alpha, dmax, pair, classify_berezin(pair, 2.0, 2.0))
            for seed in SEEDS for alpha in ALPHAS for dmax in DEGREE_MAX
            for pair in random_volterra_family(PAIRS_PER_FAMILY, seed=seed,
                                               degree_max=dmax, alpha=alpha)]


def test_sup_verdicts_match_the_oracle(capsys, sup_classified):
    wrong, broken, inconclusive, checked = [], [], 0, 0
    for seed, alpha, dmax, pair, cls in sup_classified:
        broken += [(seed, alpha, dmax, b) for b in lattice_breaks(cls)]
        orc = oracle_classify(pair, 2.0, 2.0)
        for attr in ("bounded", "compact"):
            lhs, rhs = getattr(cls, attr), getattr(orc, attr)
            checked += 1
            inconclusive += lhs is Verdict.INCONCLUSIVE
            if _disagree(lhs, rhs):
                wrong.append((seed, alpha, dmax, pair.symbol.degree, attr))
    _summary(capsys, "sup vs oracle", checked, wrong, inconclusive)
    assert checked == 720
    assert wrong == []
    assert broken == []


def test_schatten_verdicts_match_the_oracle(capsys):
    wrong, broken, inconclusive, checked = [], [], 0, 0
    for alpha in ALPHAS:
        pairs = [SymbolPair.volterra(Symbol.polynomial([0.0, 1.0]),
                                     alpha=alpha)]
        for seed in (1, 2):
            pairs += random_volterra_family(8, seed=seed, degree_max=3,
                                            alpha=alpha)
        for i, pair in enumerate(pairs):
            cls = classify_berezin(pair, 2.0, 2.0,
                                   schatten_orders=SCHATTEN_ORDERS)
            broken += [(alpha, i, b) for b in lattice_breaks(cls)]
            orc = oracle_classify(pair, 2.0, 2.0,
                                  schatten_orders=SCHATTEN_ORDERS)
            for t in SCHATTEN_ORDERS:
                checked += 1
                inconclusive += cls.schatten[t] is Verdict.INCONCLUSIVE
                if _disagree(cls.schatten[t], orc.schatten[t]):
                    wrong.append((alpha, i, t))
    _summary(capsys, "schatten vs oracle", checked, wrong, inconclusive)
    assert checked == 3 * 17 * len(SCHATTEN_ORDERS)
    assert wrong == []
    assert broken == []


LARGE_ALPHAS = (1e6, 1e8, 1e12, 1e16)
LARGE_ALPHA_ORDERS = (1.5, 2.5, 3.0, 4.0)


def test_schatten_verdicts_hold_at_large_alpha(capsys):
    # The degree-1 pairs march the power integral out to |w| ~ 1e4, where
    # the far rings read kappa, however small 1 / sqrt(alpha) is.
    wrong, broken, inconclusive, checked = [], [], 0, 0
    for alpha in LARGE_ALPHAS:
        pairs = random_volterra_family(3, seed=2, degree_max=2, alpha=alpha)
        assert sorted(pair.symbol.degree for pair in pairs) == [1, 1, 2]
        for i, pair in enumerate(pairs):
            cls = classify_berezin(pair, 2.0, 2.0,
                                   schatten_orders=LARGE_ALPHA_ORDERS)
            broken += [(alpha, i, b) for b in lattice_breaks(cls)]
            orc = oracle_classify(pair, 2.0, 2.0,
                                  schatten_orders=LARGE_ALPHA_ORDERS)
            for t in LARGE_ALPHA_ORDERS:
                checked += 1
                inconclusive += cls.schatten[t] is Verdict.INCONCLUSIVE
                if _disagree(cls.schatten[t], orc.schatten[t]):
                    wrong.append((alpha, i, t))
    _summary(capsys, "schatten at large alpha", checked, wrong, inconclusive)
    assert checked == 4 * 3 * len(LARGE_ALPHA_ORDERS)
    assert wrong == []
    assert inconclusive == 0
    assert broken == []


def _conjugated(pair: SymbolPair) -> SymbolPair:
    """conj(g(conj z)): |g'| reflected in the real axis, B(conj w)."""
    coeffs = np.conj(np.asarray(pair.symbol.poly))
    return SymbolPair.volterra(Symbol.polynomial(list(coeffs)),
                               alpha=pair.alpha)


def _dilated(pair: SymbolPair, t: float) -> SymbolPair:
    """g(z / t) at alpha / t^2, unitarily equivalent to V_g at alpha."""
    coeffs = np.asarray(pair.symbol.poly)
    scaled = coeffs / t ** np.arange(coeffs.size)
    return SymbolPair.volterra(Symbol.polynomial(list(scaled)),
                               alpha=pair.alpha / t ** 2)


@pytest.mark.parametrize("relation", [
    _conjugated,
    lambda pair: _dilated(pair, 0.5),
    lambda pair: _dilated(pair, 2.0),
], ids=["conjugation", "dilation t=0.5", "dilation t=2"])
def test_symmetric_pairs_share_their_verdicts(capsys, request,
                                              sup_classified, relation):
    # the degree_max = 5 families hold every degree from 1 to 5
    wrong, broken, inconclusive, checked = [], [], 0, 0
    for seed, alpha, dmax, pair, cls in sup_classified:
        if dmax != 5:
            continue
        image = classify_berezin(relation(pair), 2.0, 2.0)
        broken += [(seed, alpha, b) for b in lattice_breaks(image)]
        for attr in ("bounded", "compact"):
            lhs, rhs = getattr(cls, attr), getattr(image, attr)
            checked += 1
            inconclusive += Verdict.INCONCLUSIVE in (lhs, rhs)
            if _disagree(lhs, rhs):
                wrong.append((seed, alpha, pair.symbol.degree, attr))
    _summary(capsys, f"{request.node.callspec.id} symmetry", checked, wrong,
             inconclusive)
    assert checked == 2 * len(SEEDS) * len(ALPHAS) * PAIRS_PER_FAMILY
    assert wrong == []
    assert broken == []
