"""The traced run must compute what the plain run computes, and see every call.

Run with ``PYTHONPATH=src python -m pytest perfbench`` from the repository
root.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import fockops as fk
import tracer
import workloads


@pytest.fixture
def installed():
    t = tracer.Tracer().install()
    try:
        yield t
    finally:
        t.uninstall()


def _small_ops():
    family = fk.random_volterra_family(3, seed=7, degree_max=5)
    const = fk.SymbolPair.weighted(fk.Symbol.polynomial([0.9 - 0.3j]),
                                   fk.AffineMap(0.5 + 0.2j, 0.4 - 0.7j))
    gauss = fk.SymbolPair.weighted(fk.Symbol.exponential(q2=0.1j),
                                   fk.AffineMap(0.6, 0.3))
    ops = [workloads.Op("classify", workloads._classify_op(p))
           for p in family]
    ops.append(workloads.Op("sweep", workloads._sweep_op(const)))
    for w in (0.3, 2.0 - 1.0j, 9.0j):
        ops.append(workloads._at_op("volterra", family[0], w))
        ops.append(workloads._at_op("weighted_const", const, w))
        ops.append(workloads._at_op("weighted_gauss", gauss, w))
    for q2 in (0.2, 0.49):
        symbol = fk.Symbol.exponential(q2=q2 * 1j)
        ops.append(workloads._norm_op("fock_norm", symbol, q2))
        ops.append(workloads._norm_op("derivative_functional", symbol, q2))
    return ops


def test_every_binding_site_is_wrapped(installed):
    import fockops.cli
    import fockops.criteria
    import fockops.fock_core
    import fockops.operator_rep
    assert tracer.unwrapped_bindings() == []
    for fn in (fockops.criteria.berezin_power_integral,
               fockops.operator_rep.berezin_at,
               fockops.berezin.build_scheme,
               fockops.fock_core.gaussian_integral,
               fockops.cli.classify_berezin, fockops.cli.fock_norm,
               fockops.cli.spectral_summary, fk.berezin_at):
        assert hasattr(fn, "__wrapped__"), fn.__name__


def test_uninstall_restores_the_originals():
    t = tracer.Tracer().install()
    t.uninstall()
    assert not hasattr(fk.classify_berezin, "__wrapped__")
    assert not hasattr(fk.QuadratureScheme.integrate, "__wrapped__")
    assert tracer.unwrapped_bindings() != []


def test_traced_outputs_match_plain():
    ops = _small_ops()
    plain = [op.run() for op in ops]
    t = tracer.Tracer().install()
    try:
        traced = [op.run() for op in ops]
    finally:
        t.uninstall()
    for op, p, q in zip(ops, plain, traced):
        assert repr(p.signature) == repr(q.signature), op.label
        assert (p.failure, p.known) == (q.failure, q.known), op.label
    # the edge |q2| = 0.49 reproduces the documented norm overflow
    assert [o.failure for o in plain[-2:]] == ["InvalidIntegrand"] * 2
    assert all(o.known for o in plain[-2:])
    assert all(o.failure is None for o in plain[:-2])

    c = t.counts
    assert c["criteria.classify_berezin.calls"] == 4
    assert c["berezin.at.calls"] == 9
    assert c["fock_core.fock_norm.calls"] == 2
    assert c["operator_rep.singular_values.n3"] == 128 ** 3 + 64 ** 3
    assert c["quadrature.invalid_integrand"] == 2
    assert c["berezin.power_integral.annuli"] > 0
    for name, value in t.layer_metrics().items():
        assert value >= 0.0, name
        if name.endswith(".self_s"):
            assert value < 60.0, name


def test_closed_form_references_match_fockops():
    pair = fk.SymbolPair.weighted(fk.Symbol.polynomial([1.3j]),
                                  fk.AffineMap(0.4 - 0.5j, -0.8 + 0.2j),
                                  alpha=0.5)
    for w in (0.0, 1.5 + 0.5j, -3.0j):
        logb = fk.berezin.berezin_log_profile(pair, 2.0, [w])[0]
        ref = workloads._log_const_weight_transform(pair, w)
        assert abs(logb - ref) <= 1e-12 * max(1.0, abs(ref))
    for q2 in (0.1, 0.3):
        norm = fk.fock_norm(fk.Symbol.exponential(q2=q2 * np.exp(0.3j)),
                            2.0, 1.0)
        assert math.isclose(norm, (1.0 - 4.0 * q2 ** 2) ** -0.25,
                            rel_tol=1e-12)


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        tracer.PER_LAYER


def test_a_run_is_a_fixed_op_list(tmp_path):
    cycles = workloads.cycles_for("family_sup", 25)
    first, _ = workloads.build("family_sup", 3, tmp_path, tmp_path, 25)
    again, _ = workloads.build("family_sup", 3, tmp_path, tmp_path, 25)
    assert len(first) == 15 * cycles
    assert [op.label for op in first] == [op.label for op in again]
    longer, _ = workloads.build("family_sup", 3, tmp_path, tmp_path, 100)
    assert len(longer) == 15 * workloads.cycles_for("family_sup", 100)


def test_a_turned_copy_has_the_turned_weight():
    pair = fk.random_volterra_family(5, seed=4)[-1]
    turned = workloads._turned(pair, 0.5, np.random.default_rng(0))
    _, phi = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, 2)
    w = np.array([0.3, 1.0 - 2.0j, 4.0j])
    assert turned.alpha == 0.5
    np.testing.assert_allclose(fk.weight_at(turned, w * np.exp(-1j * phi)),
                               fk.weight_at(pair, w), rtol=1e-12)
