import math

import numpy as np
import pytest

from fockops import berezin, criteria
from fockops.berezin import GridSpec
from fockops.criteria import (
    Verdict,
    classify_berezin,
    consistency_report,
    oracle_classify,
    random_volterra_family,
    schatten_membership,
)
from fockops.errors import NonConvergence
from fockops.symbols import AffineMap, Symbol, SymbolPair

ONE = Symbol.polynomial([1.0])
Z = Symbol.polynomial([0.0, 1.0])
Z2 = Symbol.polynomial([0.0, 0.0, 1.0])


@pytest.fixture
def profile_calls(monkeypatch):
    """Pairs whose sup profile a classify evaluated."""
    calls = []
    original = criteria.berezin_profile

    def spy(pair, power, **kwargs):
        calls.append(pair)
        return original(pair, power, **kwargs)

    monkeypatch.setattr(criteria, "berezin_profile", spy)
    return calls


class TestClassifySupremum:
    def test_monomial_volterra_is_compact(self):
        cls = classify_berezin(SymbolPair.volterra(Z), 2.0, 2.0)
        assert cls.bounded is Verdict.YES
        assert cls.compact is Verdict.YES
        assert 0 < cls.norm_estimate < math.inf
        assert cls.essential_norm_estimate < cls.norm_estimate

    def test_low_degree_with_constant_term_is_bounded_not_compact(self):
        pair = SymbolPair.volterra(Symbol.polynomial([1.0, 3.0, 1.0]))
        cls = classify_berezin(pair, 2.0, 2.0)
        assert cls.bounded is Verdict.YES
        assert cls.compact is Verdict.NO

    def test_cubic_volterra_is_unbounded(self):
        pair = SymbolPair.volterra(Symbol.polynomial([0.0, 0.0, 0.0, 1.0]))
        cls = classify_berezin(pair, 2.0, 2.0)
        assert cls.bounded is Verdict.NO
        assert cls.compact is Verdict.NO

    def test_zero_weight_gives_zero_norms(self):
        cls = classify_berezin(SymbolPair.volterra(ONE), 2.0, 2.0,
                               schatten_orders=(2.0,))
        assert cls.bounded is Verdict.YES
        assert cls.compact is Verdict.YES
        assert cls.norm_estimate == 0.0
        assert cls.schatten[2.0] is Verdict.YES

    @pytest.mark.parametrize("a,bounded,compact", [
        (0.5, Verdict.YES, Verdict.YES),
        (1.0, Verdict.YES, Verdict.NO),
        (1.2, Verdict.NO, Verdict.NO),
    ])
    def test_weighted_composition_scaling(self, a, bounded, compact):
        cls = classify_berezin(SymbolPair.weighted(ONE, AffineMap(a)), 2.0, 2.0)
        assert cls.bounded is bounded
        assert cls.compact is compact

    def test_unit_modulus_with_shift_is_unbounded(self):
        pair = SymbolPair.weighted(ONE, AffineMap(1.0, 0.5))
        cls = classify_berezin(pair, 2.0, 2.0)
        assert cls.bounded is Verdict.NO
        assert cls.compact is Verdict.NO

    def test_smaller_source_exponent(self):
        assert classify_berezin(SymbolPair.volterra(Z), 2.0, 4.0).compact \
            is Verdict.YES
        cls = classify_berezin(SymbolPair.volterra(Z2), 2.0, 4.0)
        assert cls.bounded is Verdict.YES
        assert cls.compact is Verdict.NO

    @pytest.mark.parametrize("grid", [GridSpec(radial_count=3),
                                      GridSpec(radial_count=5),
                                      GridSpec(w_max=0.1)])
    def test_coarse_grid_still_classifies(self, grid):
        # The verdicts come from the far rings, not from the grid, so even
        # a grid this coarse gives the oracle's.
        pair = SymbolPair.volterra(Z)
        cls = classify_berezin(pair, 2.0, 2.0, grid=grid)
        orc = oracle_classify(pair, 2.0, 2.0)
        assert (cls.bounded, cls.compact) == (orc.bounded, orc.compact)
        assert 0 < cls.essential_norm_estimate < cls.norm_estimate < math.inf

    def test_evidence_records_the_ring_data(self):
        cls = classify_berezin(SymbolPair.volterra(Z), 2.0, 2.0)
        assert "ring_maxima" in cls.evidence
        tail = cls.evidence["tail"]
        np.testing.assert_allclose(tail["radii"], [1e2, 1e3, 1e4])
        assert len(tail["log_maxima"]) == 3
        # B ~ pi |w|^-2 for g = z: two slopes near -2, kappa exactly -2
        np.testing.assert_allclose(tail["slopes"], -2.0, atol=0.02)
        assert tail["kappa"] == -2.0
        np.testing.assert_allclose(cls.essential_norm_estimate,
                                   math.exp(tail["log_maxima"][-1] / 2.0))
        assert cls.source == "berezin"

    @pytest.mark.parametrize("pair,kappa", [
        (SymbolPair.volterra(Symbol.polynomial([1.0, 3.0, 1.0])), 0.0),
        (SymbolPair.volterra(Symbol.polynomial([0.0, 0.0, 0.0, 1.0])), 2.0),
        (SymbolPair.weighted(ONE, AffineMap(1.0)), 0.0),
        (SymbolPair.weighted(Z, AffineMap(1j)), 2.0),
        (SymbolPair.weighted(ONE, AffineMap(0.5)), -math.inf),
        (SymbolPair.weighted(ONE, AffineMap(1.0, 0.5)), math.inf),
    ])
    def test_tail_exponent_of_each_growth_kind(self, pair, kappa):
        assert berezin._tail_exponent(pair, 2.0)["kappa"] == kappa

    @pytest.mark.parametrize("coeffs,alpha,scale", [
        ([0.0, 5000.0, 1.0], 0.5, 2501.0), ([0.0, 5000.0, 1.0], 2.0, 2501.0),
        ([0.0, 0.0, 1.0], 1e6, 1.0), ([0.0, 1.0], 1e6, 1.0)])
    def test_far_rings_lie_past_the_roots_and_the_metric_kink(
            self, coeffs, alpha, scale):
        # g' = 2z + 5000 has its root at -2500 (Cauchy bound 2501), and
        # 1 / (1 + |z|) bends at |z| = 1: rings at 10^2 / sqrt(alpha) would
        # read B before either settles into its power law.
        pair = SymbolPair.volterra(Symbol.polynomial(coeffs), alpha=alpha)
        cls = classify_berezin(pair, 2.0, 2.0)
        orc = oracle_classify(pair, 2.0, 2.0)
        assert (cls.bounded, cls.compact) == (orc.bounded, orc.compact)
        np.testing.assert_allclose(cls.evidence["tail"]["radii"],
                                   np.array([1e2, 1e3, 1e4]) * scale)

    def test_a_slope_between_multiples_of_q_is_inconclusive(
            self, monkeypatch, profile_calls):
        # B = |w| grows with slope 1, q / 2 away from 0 and from q = 2
        monkeypatch.setattr(berezin, "berezin_log_profile",
                            lambda pair, power, points, tol=None:
                            np.log(np.abs(points)))
        cls = classify_berezin(SymbolPair.volterra(Z), 2.0, 2.0,
                               schatten_orders=(4.0,))
        assert cls.evidence["tail"]["slopes"] == pytest.approx([1.0, 1.0])
        assert math.isnan(cls.evidence["tail"]["kappa"])
        assert cls.bounded is cls.compact is Verdict.INCONCLUSIVE
        assert cls.schatten[4.0] is Verdict.INCONCLUSIVE
        assert profile_calls == []

    def test_far_rings_that_do_not_settle_are_inconclusive(self,
                                                          monkeypatch):
        original = berezin.berezin_log_profile

        def unsettled(pair, power, points, tol=None):
            if np.max(np.abs(points)) >= 100.0:
                raise NonConvergence("levels ran out")
            return original(pair, power, points, tol=tol)

        monkeypatch.setattr(berezin, "berezin_log_profile", unsettled)
        cls = classify_berezin(SymbolPair.volterra(Z), 2.0, 2.0)
        assert "levels ran out" in cls.evidence["tail"]["note"]
        assert cls.bounded is cls.compact is Verdict.INCONCLUSIVE

    @pytest.mark.parametrize("p,q", [(math.nan, 2.0), (math.inf, 2.0),
                                     (2.0, math.nan), (2.0, math.inf),
                                     (0.0, 2.0), (2.0, -1.0)])
    def test_exponents_must_be_finite_and_positive(self, p, q):
        with pytest.raises(ValueError, match="exponents"):
            classify_berezin(SymbolPair.volterra(Z), p, q)


class TestClassifyIntegral:
    def test_contraction_above_target_exponent(self):
        pair = SymbolPair.weighted(ONE, AffineMap(0.5))
        cls = classify_berezin(pair, 4.0, 2.0)
        assert cls.bounded is Verdict.YES
        assert cls.compact is Verdict.YES
        np.testing.assert_allclose(cls.norm_estimate,
                                   (np.pi ** 3 / 1.5) ** 0.25, rtol=1e-5)
        assert cls.essential_norm_estimate == 0.0

    def test_weight_growth_reaching_the_decay_above_target_exponent(self):
        # The transform integral diverges at every w: kappa = +inf.
        pair = SymbolPair.weighted(Symbol.exponential(q2=0.6), AffineMap(1.0))
        cls = classify_berezin(pair, 4.0, 2.0)
        assert cls.bounded is cls.compact is Verdict.NO
        assert cls.evidence["tail"]["kappa"] == math.inf
        assert "diverges" in cls.evidence["tail"]["note"]

    def test_identity_above_target_exponent(self):
        cls = classify_berezin(SymbolPair.weighted(ONE, AffineMap(1.0)),
                               4.0, 2.0)
        assert cls.bounded is Verdict.NO
        assert cls.compact is Verdict.NO
        assert cls.norm_estimate == math.inf


class TestSchatten:
    def test_membership_split_for_the_monomial(self):
        pair = SymbolPair.volterra(Z)
        verdict, estimate, status = schatten_membership(pair, 4.0)
        assert verdict is Verdict.YES
        assert status == "converged"
        assert 0 < estimate < math.inf
        verdict, estimate, status = schatten_membership(pair, 1.0)
        assert verdict is Verdict.NO
        assert estimate == math.inf

    @pytest.mark.parametrize("order", [math.nan, math.inf, 0.0, -1.0])
    def test_order_must_be_finite_and_positive(self, order):
        with pytest.raises(ValueError, match="order"):
            schatten_membership(SymbolPair.volterra(Z), order)

    # the zero operator and p, q != 2 never reach schatten_membership
    @pytest.mark.parametrize("order", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("symbol,p,q", [(ONE, 2.0, 2.0), (Z, 4.0, 2.0),
                                            (Z, 2.0, 4.0)])
    def test_classify_checks_orders_on_every_path(self, symbol, p, q, order):
        with pytest.raises(ValueError, match="order"):
            classify_berezin(SymbolPair.volterra(symbol), p, q,
                             schatten_orders=(2.0, order))

    def test_orders_attach_only_on_the_hilbert_space_diagonal(self):
        pair = SymbolPair.volterra(Z)
        on = classify_berezin(pair, 2.0, 2.0, schatten_orders=(4.0,))
        off = classify_berezin(pair, 4.0, 2.0, schatten_orders=(4.0,))
        assert on.schatten[4.0] is Verdict.YES
        assert off.schatten == {}


class TestSharedAnnuli:
    # orders that march for g = z: S_t needs t > 2 there
    ORDERS = (3.0, 4.0)

    @pytest.fixture
    def annulus_calls(self, monkeypatch):
        """Node sets of every power-integral annulus evaluated."""
        calls = []
        original = berezin.berezin_log_profile

        def spy(pair, power, points, tol=None, **kwargs):
            if tol is berezin._ANNULUS_TOL:
                calls.append(np.asarray(points).tobytes())
            return original(pair, power, points, tol=tol, **kwargs)

        monkeypatch.setattr(berezin, "berezin_log_profile", spy)
        return calls

    @pytest.mark.parametrize("pair", [
        SymbolPair.volterra(Z),
        SymbolPair.weighted(Symbol.polynomial([0.9 - 0.3j]),
                            AffineMap(0.5 + 0.2j, 0.4 - 0.7j)),
    ])
    def test_one_call_evaluates_each_annulus_once(self, pair, annulus_calls):
        cls = classify_berezin(pair, 2.0, 2.0, schatten_orders=self.ORDERS)
        shared = list(annulus_calls)
        assert shared
        assert len(set(shared)) == len(shared)
        for t in self.ORDERS:
            verdict, estimate, status = schatten_membership(pair, t)
            assert cls.schatten[t] == verdict
            assert cls.evidence["schatten"][t] == {"estimate": estimate,
                                                  "status": status}
        # standalone calls each march their own annuli
        assert len(annulus_calls) - len(shared) > len(shared)

    def test_the_share_ends_with_the_call(self, annulus_calls):
        pair = SymbolPair.volterra(Z)
        classify_berezin(pair, 2.0, 2.0, schatten_orders=self.ORDERS)
        first = list(annulus_calls)
        assert berezin._ANNULI.get() is None
        classify_berezin(pair, 2.0, 2.0, schatten_orders=self.ORDERS)
        assert annulus_calls[len(first):] == first
        assert berezin._ANNULI.get() is None


class TestSupProfileOnlyForBoundedPairs:
    @pytest.mark.parametrize("pair", [
        SymbolPair.volterra(Symbol.polynomial([0.0, 0.0, 0.0, 1.0])),
        SymbolPair.weighted(Symbol.exponential(0.0, 0.0, 0.6),
                            AffineMap(1.0)),
    ])
    def test_an_unbounded_pair_skips_it(self, profile_calls, pair):
        cls = classify_berezin(pair, 2.0, 2.0)
        assert cls.evidence["tail"]["kappa"] > 0
        assert cls.bounded is cls.compact is Verdict.NO
        assert cls.norm_estimate == cls.essential_norm_estimate == math.inf
        assert profile_calls == []
        assert "ring_maxima" not in cls.evidence

    @pytest.mark.parametrize("pair", [
        SymbolPair.volterra(Z),
        SymbolPair.weighted(ONE, AffineMap(0.5)),
    ])
    def test_a_bounded_pair_evaluates_it_once(self, profile_calls, pair):
        cls = classify_berezin(pair, 2.0, 2.0)
        assert cls.bounded is Verdict.YES
        assert profile_calls == [pair]
        assert len(cls.evidence["ring_maxima"]) == GridSpec().radial_count


class TestOracles:
    def test_polynomial_families(self):
        orc = oracle_classify(SymbolPair.volterra(Z), 2.0, 2.0)
        assert (orc.bounded, orc.compact) == (Verdict.YES, Verdict.YES)
        orc = oracle_classify(SymbolPair.volterra(Z2), 2.0, 2.0)
        assert (orc.bounded, orc.compact) == (Verdict.YES, Verdict.NO)

    def test_near_boundary_returns_no_oracle(self):
        pair = SymbolPair.weighted(ONE, AffineMap(0.9995))
        assert oracle_classify(pair, 2.0, 2.0) is None

    def test_degenerate_integral_exponent_returns_no_oracle(self):
        # q (p + 2) = 2 p exactly at p = 2, q = 1: too close to call
        assert oracle_classify(SymbolPair.volterra(Z), 2.0, 1.0) is None

    def test_exponential_volterra_family_is_cautious_about_compactness(self):
        g = Symbol.exponential(0.0, 0.0, 0.1)
        orc = oracle_classify(SymbolPair.volterra(g, psi=AffineMap(0.3)),
                              2.0, 2.0)
        assert orc.bounded is Verdict.YES
        assert orc.compact is Verdict.INCONCLUSIVE

    def test_exponential_weight_family_speaks_only_to_schatten_runs(self):
        g = Symbol.exponential(0.0, 0.0, 0.1)
        pair = SymbolPair.weighted(g, AffineMap(0.5))
        assert oracle_classify(pair, 2.0, 2.0) is None
        orc = oracle_classify(pair, 2.0, 2.0, schatten_orders=(2.0,))
        assert orc.schatten[2.0] is Verdict.YES


class TestRandomFamily:
    def test_deterministic_for_a_seed(self):
        first = random_volterra_family(8, seed=99)
        second = random_volterra_family(8, seed=99)
        assert [p.symbol.poly for p in first] == [p.symbol.poly for p in second]

    def test_respects_degree_and_lead_floor(self):
        family = random_volterra_family(30, seed=5, degree_max=4,
                                        lead_floor=0.1)
        assert len(family) == 30
        for pair in family:
            assert 1 <= pair.symbol.degree <= 4
            assert abs(pair.symbol.poly[-1]) >= 0.1
            assert pair.kind == "volterra"

    def test_different_seeds_differ(self):
        lhs = random_volterra_family(4, seed=1)
        rhs = random_volterra_family(4, seed=2)
        assert [p.symbol.poly for p in lhs] != [p.symbol.poly for p in rhs]

    def test_unreachable_lead_floor_raises(self):
        # draws have modulus below 1, so this floor would redraw forever
        with pytest.raises(ValueError, match="lead_floor"):
            random_volterra_family(1, lead_floor=1.0)


class TestConsistencyReport:
    def test_mixed_family_agrees_end_to_end(self):
        pairs = [SymbolPair.volterra(Z),
                 SymbolPair.volterra(Z2),
                 SymbolPair.weighted(ONE, AffineMap(0.5))]
        report = consistency_report(pairs, 2.0, 2.0, size=48,
                                    schatten_orders=(2.0, 4.0))
        assert report.ok
        assert report.comparisons > 0
        assert report.agreements == report.comparisons
        assert not report.mismatches
        assert not report.spectral_disagreements
        assert len(report.entries) == 3
        assert report.op_norm_ratios
        # the direct integral carries the pi/alpha normalisation constant
        np.testing.assert_allclose(report.hs_ratios, np.pi, rtol=0.02)

    def test_overflowing_hs_integral_leaves_the_report_whole(self):
        # The direct HS integrand exceeds the float range inside its disk;
        # summed in log space it gives pi / sqrt(0.9975^2 - 0.96^2).
        pair = SymbolPair.weighted(Symbol.exponential(q2=0.48),
                                   AffineMap(0.05))
        np.testing.assert_allclose(berezin.hilbert_schmidt_integral(pair),
                                   math.pi / math.sqrt(0.9975 ** 2
                                                       - 0.96 ** 2),
                                   rtol=1e-12)
        report = consistency_report([pair], 2.0, 2.0, size=32)
        cls = report.entries[0]["classified"]
        assert (cls.bounded, cls.compact) == (Verdict.YES, Verdict.YES)
        assert set(cls.schatten.values()) == {Verdict.YES}
        assert len(report.hs_ratios) == 1

    def test_overflowing_matrix_leaves_the_other_pairs(self):
        # The Weyl pair's matrix entries overflow at N = 256.
        contraction = SymbolPair.weighted(ONE, AffineMap(0.5, 0.2))
        weyl = SymbolPair.weighted(Symbol.exponential(q0=-0.5, q1=1.0),
                                   AffineMap(1.0, -1.0))
        alone = consistency_report([contraction], 2.0, 2.0, size=256)
        report = consistency_report([contraction, weyl], 2.0, 2.0,
                                    size=256)
        assert report.ok
        first, second = report.entries
        assert first["spectral"] is not None
        assert second["spectral"] is None
        assert "overflow" in second["spectral_note"]
        # the Weyl pair's transform verdicts stay, its votes and ratios go
        assert second["classified"].bounded is Verdict.YES
        assert report.op_norm_ratios == alone.op_norm_ratios
        assert report.hs_ratios == alone.hs_ratios
