"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single PASS/FAIL line to the real terminal so a full
run leaves an auditable scoreboard even under output capture.
"""

import math

import numpy as np
import pytest

from fockops.bands import EQUIV_BAND
from fockops.berezin import berezin_at, berezin_profile, \
    hilbert_schmidt_integral
from fockops.criteria import (Verdict, classify_berezin, oracle_classify,
                              random_volterra_family, schatten_membership)
from fockops.operator_rep import (build_matrix, kernel_image_norm,
                                  singular_values, spectral_summary,
                                  toeplitz_crosscheck)
from fockops.quadrature import gaussian_integral
from fockops.symbols import AffineMap, Symbol, SymbolPair
from oracles import kernel_coefficients, lattice_breaks

ONE = Symbol.polynomial([1.0])
Z = Symbol.polynomial([0.0, 1.0])
Z2 = Symbol.polynomial([0.0, 0.0, 1.0])

# normalised-ratio envelope measured when the band was frozen; a fresh
# run drifting beyond twice this envelope is a regression even if it
# stays inside EQUIV_BAND
RATIO_REF_LO = 1.0
RATIO_REF_HI = 1.76


@pytest.fixture
def report(capsys):
    def _report(number, label, ok):
        with capsys.disabled():
            print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}",
                  flush=True)
        assert ok, f"criterion {number} ({label})"
    return _report


@pytest.fixture(scope="module")
def family_results():
    family = random_volterra_family(50, seed=1729)
    return [(pair,
             classify_berezin(pair, 2.0, 2.0, schatten_orders=(1.0, 2.0, 4.0)),
             oracle_classify(pair, 2.0, 2.0))
            for pair in family]


def test_criterion_1_quadrature_invariance(report):
    ok = True
    base = gaussian_integral(lambda z: np.ones(z.shape), 1.0)
    ok &= abs(base.value - np.pi) <= 1e-10 * np.pi
    for shift in (0.5, 1.0 + 0.5j, -2.0, 2.5j):
        def shifted(z, a=shift):
            return np.exp(2.0 * (np.conj(a) * z).real - abs(a) ** 2)
        moved = gaussian_integral(shifted, 1.0, linear_bound=2 * abs(shift))
        ok &= abs(moved.value - np.pi) <= 1e-10 * np.pi
    report(1, "gaussian quadrature mass and translation invariance", ok)


def test_criterion_2_flat_transform_profile(report):
    pair = SymbolPair.weighted(ONE, AffineMap(1.0))
    profile = berezin_profile(pair, 2.0)
    deviation = np.max(np.abs(profile.values - np.pi)) / np.pi
    report(2, "identity-symbol transform is flat on the whole grid",
           bool(deviation <= 1e-8))


def test_criterion_3_random_family_agreement(report, family_results):
    agree = sum(cls.bounded is orc.bounded and cls.compact is orc.compact
                for _, cls, orc in family_results)
    report(3, f"berezin verdicts match the closed-form oracle ({agree}/50)",
           agree == 50)


def test_criterion_4_monomial_singular_values(report):
    ok = True
    for alpha in (0.5, 1.0, 2.0):
        op = build_matrix(SymbolPair.volterra(Z, alpha=alpha), 256)
        sv = np.sort(singular_values(op))[::-1]
        want = 1.0 / np.sqrt(alpha * np.arange(1, 256))
        ok &= bool(np.max(np.abs(sv[:254] - want[:254]) / want[:254]) <= 1e-8)
    report(4, "volterra monomial singular values at three weights", ok)


def test_criterion_5_schatten_tail_flags(report):
    ok = True
    values = {}
    for size in (64, 128, 256):
        summary = spectral_summary(
            build_matrix(SymbolPair.volterra(Z), size), orders=(2.0, 3.0))
        ok &= not summary.schatten[2.0].converged
        values[size] = summary.schatten[3.0].value
    ok &= spectral_summary(
        build_matrix(SymbolPair.volterra(Z), 256),
        orders=(3.0,)).schatten[3.0].converged
    ok &= abs(values[256] - values[128]) / values[256] <= 0.02
    report(5, "square-order sum flagged divergent, cubic order settles", ok)


def test_criterion_6_diagonal_weighted_operator(report):
    op = build_matrix(SymbolPair.weighted(ONE, AffineMap(0.5)), 64)
    diag = np.diagonal(op.entries)
    ok = bool(np.max(np.abs(diag - 0.5 ** np.arange(64))) <= 1e-12)
    ok &= bool(np.max(np.abs(op.entries - np.diag(diag))) == 0.0)
    summary = spectral_summary(op, orders=(1.0,))
    ok &= abs(summary.schatten[1.0].value - 2.0) <= 0.01 * 2.0
    report(6, "contraction operator is diagonal with trace norm 2", ok)


def test_criterion_7_hilbert_schmidt_two_routes(report):
    ok = True
    for a in (0.3, 0.5, 0.7):
        pair = SymbolPair.weighted(ONE, AffineMap(a))
        exact = 1.0 / (1.0 - a * a)
        summary = spectral_summary(build_matrix(pair, 128), orders=(2.0,))
        ok &= abs(summary.hs_norm ** 2 - exact) <= 0.01 * exact
        # the direct integral carries the pi/alpha normalisation constant
        direct = hilbert_schmidt_integral(pair)
        ok &= abs(direct - np.pi * exact) <= 0.01 * np.pi * exact
    report(7, "spectral and integral Hilbert-Schmidt routes agree", ok)


def test_criterion_8_gram_crosscheck(report):
    ok = True
    for g in (Z, Z2):
        deviation = toeplitz_crosscheck(SymbolPair.volterra(g), 32)
        ok &= deviation < 1e-6
    report(8, "frame and quadrature Gram routes coincide", ok)


def test_criterion_9_integral_regime(report):
    ok = True
    finite = classify_berezin(SymbolPair.weighted(ONE, AffineMap(0.5)),
                              4.0, 2.0).norm_estimate
    ok &= abs(finite - (np.pi ** 3 / 1.5) ** 0.25) <= 1e-4 * finite
    ok &= classify_berezin(SymbolPair.weighted(ONE, AffineMap(1.0)),
                           4.0, 2.0).norm_estimate == math.inf
    for a, member in ((0.5, Verdict.YES), (0.9, Verdict.YES),
                      (1.0, Verdict.NO)):
        cls = classify_berezin(SymbolPair.weighted(ONE, AffineMap(a)),
                               4.0, 2.0)
        ok &= cls.bounded is member and cls.compact is member
    report(9, "source exponent above target: integral criterion", ok)


def test_criterion_10_norm_equivalence_bands(report):
    ok = True
    ratios = []
    ws = [r * np.exp(1j * np.pi * k / 5)
          for k, r in enumerate(np.geomspace(1 / EQUIV_BAND, EQUIV_BAND, 10))]
    for pair in (SymbolPair.volterra(Z),
                 SymbolPair.weighted(ONE, AffineMap(0.5))):
        op = build_matrix(pair, 96)
        for w in ws:
            image = op.entries @ kernel_coefficients(w, pair.alpha, 96)
            ratios.append(np.linalg.norm(image)
                          / kernel_image_norm(pair, w, 2.0))
    for pair in (SymbolPair.volterra(Z), SymbolPair.volterra(Z2),
                 SymbolPair.weighted(ONE, AffineMap(0.5)),
                 SymbolPair.weighted(ONE, AffineMap(0.7j))):
        op_norm = singular_values(build_matrix(pair, 128))[0]
        sup = berezin_profile(pair, 2.0).values.max()
        ratios.append(op_norm / math.sqrt(sup / np.pi))
    ratios = np.array(ratios)
    ok &= bool(np.all((ratios >= 1 / EQUIV_BAND) & (ratios <= EQUIV_BAND)))
    ok &= bool(np.all((ratios >= RATIO_REF_LO / 2)
                      & (ratios <= RATIO_REF_HI * 2)))
    report(10, "matrix and transform norms sit in the frozen bands", ok)


def test_criterion_11_verdict_lattice(report, family_results):
    ok = True
    for _, cls, _ in family_results:
        ok &= lattice_breaks(cls) == []
    orders = (1.0, 2.0, 3.0, 4.0)
    verdicts = [schatten_membership(SymbolPair.volterra(Z), t)[0]
                for t in orders]
    for lo, hi in zip(verdicts, verdicts[1:]):
        if lo is Verdict.YES:
            ok &= hi is not Verdict.NO
    report(11, "verdict lattice holds across the family", ok)
