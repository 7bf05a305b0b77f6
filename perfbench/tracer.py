"""Per-layer counters for the traced benchmark run.

``Tracer.install`` wraps the public functions of each fockops module at
every module attribute that binds them.  The package imports with
``from .x import y``, so one function is bound under several modules
(``fockops.criteria.berezin_power_integral``, ``fockops.cli.fock_norm``,
...); a wrapper installed only where a function is defined would miss
every call made through the other names.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the wrapped calls made inside it, because the layers nest:
``berezin_log_profile`` runs inside ``berezin_power_integral``, inside
``schatten_membership``, inside ``classify_berezin``.  Quadrature levels
(``QuadratureScheme.complex_nodes`` / ``integrate``) are counted, not
timed, and belong to the innermost span that runs a refinement loop.

The wrappers only observe: arguments, results and exceptions pass through
unchanged, so a traced run computes exactly what a plain run computes.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import defaultdict

import numpy as np

# span name -> (fockops submodule, function defined there)
SPANS = {
    "quadrature.build_scheme": ("quadrature", "build_scheme"),
    "quadrature.gaussian_integral": ("quadrature", "gaussian_integral"),
    "berezin.log_profile": ("berezin", "berezin_log_profile"),
    "berezin.power_integral": ("berezin", "berezin_power_integral"),
    "berezin.at": ("berezin", "berezin_at"),
    "berezin.profile": ("berezin", "berezin_profile"),
    "berezin.hs_integral": ("berezin", "hilbert_schmidt_integral"),
    "fock_core.fock_norm": ("fock_core", "fock_norm"),
    "fock_core.derivative_functional": ("fock_core",
                                        "derivative_functional"),
    "operator_rep.build_matrix": ("operator_rep", "build_matrix"),
    "operator_rep.singular_values": ("operator_rep", "singular_values"),
    "operator_rep.spectral_summary": ("operator_rep", "spectral_summary"),
    "criteria.classify_berezin": ("criteria", "classify_berezin"),
    "criteria.schatten_membership": ("criteria", "schatten_membership"),
    "criteria.oracle_classify": ("criteria", "oracle_classify"),
}

# Spans that run a refinement loop.  berezin.at owns the levels of its
# origin-centred direct route; on the smooth route the levels land in its
# berezin.log_profile child.
INTEGRATORS = {"quadrature.gaussian_integral", "berezin.log_profile",
               "berezin.at"}

# Exceptions counted once each, at the wrapped function they first escape.
ERRORS = {"NonConvergence": "quadrature.nonconvergence",
          "DivergentTail": "quadrature.divergent_tail",
          "InvalidIntegrand": "quadrature.invalid_integrand"}

# Every per-layer metric with its unit.  Counters a run never touches
# read 0.
PER_LAYER = {
    "quadrature.levels": "count",
    "quadrature.samples": "count",
    "quadrature.final_level_share": "frac",
    "quadrature.build_scheme.calls": "count",
    "quadrature.build_scheme.self_s": "s",
    "quadrature.gaussian_integral.calls": "count",
    "quadrature.gaussian_integral.self_s": "s",
    "quadrature.gaussian_integral.refinements": "count",
    "quadrature.nonconvergence": "count",
    "quadrature.divergent_tail": "count",
    "quadrature.invalid_integrand": "count",
    "berezin.log_profile.calls": "count",
    "berezin.log_profile.self_s": "s",
    "berezin.log_profile.points": "count",
    "berezin.log_profile.point_samples": "count",
    "berezin.power_integral.calls": "count",
    "berezin.power_integral.self_s": "s",
    "berezin.power_integral.annuli": "count",
    "berezin.power_integral.converged": "count",
    "berezin.power_integral.diverged": "count",
    "berezin.power_integral.inconclusive": "count",
    "berezin.at.calls": "count",
    "berezin.at.self_s": "s",
    "berezin.at.failed": "count",
    "berezin.profile.calls": "count",
    "berezin.profile.self_s": "s",
    "berezin.hs_integral.calls": "count",
    "berezin.hs_integral.self_s": "s",
    "fock_core.fock_norm.calls": "count",
    "fock_core.fock_norm.self_s": "s",
    "fock_core.derivative_functional.calls": "count",
    "fock_core.derivative_functional.self_s": "s",
    "operator_rep.build_matrix.calls": "count",
    "operator_rep.build_matrix.self_s": "s",
    "operator_rep.singular_values.calls": "count",
    "operator_rep.singular_values.self_s": "s",
    "operator_rep.singular_values.n3": "count",
    "operator_rep.spectral_summary.self_s": "s",
    "criteria.classify_berezin.calls": "count",
    "criteria.classify_berezin.self_s": "s",
    "criteria.schatten_membership.calls": "count",
    "criteria.schatten_membership.self_s": "s",
    "criteria.oracle_classify.self_s": "s",
    "criteria.verdicts.yes": "count",
    "criteria.verdicts.no": "count",
    "criteria.verdicts.inconclusive": "count",
    "criteria.wrong_verdicts": "count",
    "cli.hit_s.p50": "s",
    "cli.miss_s.p50": "s",
    "cli.cache.hits": "count",
    "cli.cache.misses": "count",
    "cli.exit_other": "count",
    "proc.sys_s": "s",
    "proc.minflt": "count",
    "trace.overhead_frac": "frac",
}

# Which end-to-end metric each layer should move, and on which workload.
# Printed with every traced run so the numbers carry their reading.
LAYER_MAP = {
    "quadrature": "ops_per_s, peak_rss_mb on family_sup and sweep_spectra;"
                  " ok_frac on point_probe",
    "berezin.log_profile": "ops_per_s on family_sup and sweep_spectra",
    "berezin.power_integral": "ops_per_s on sweep_spectra only (no change"
                              " predicted on family_sup)",
    "berezin.at": "op_s.tail and ok_frac on point_probe",
    "fock_core": "ops_per_s, op_s.p50 and ok_frac on point_probe",
    "operator_rep": "ops_per_s on sweep_spectra only",
    "criteria": "ok_frac on family_sup and sweep_spectra",
    "cli": "op_s.p50 on cli_cold",
    "proc": "peak_rss_mb and ops_per_s on family_sup",
    "symbols": "no metric of its own: shows in operator_rep.build_matrix"
               " and setup_s",
}


class _Frame:
    __slots__ = ("name", "start", "child_s", "child_exc", "levels",
                 "last_level", "points")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0
        self.child_exc = None  # what a wrapped child last raised
        self.levels = 0
        self.last_level = 0
        self.points = 0


def _fockops_modules():
    import fockops
    names = sorted(m.name for m in pkgutil.iter_modules(fockops.__path__))
    return fockops, {n: importlib.import_module(f"fockops.{n}")
                     for n in names}


def unwrapped_bindings():
    """(module, attribute) pairs that still bind an unwrapped span target."""
    package, modules = _fockops_modules()
    targets = {}
    for mod, attr in SPANS.values():
        fn = getattr(modules[mod], attr)
        fn = getattr(fn, "__wrapped__", fn)
        targets[id(fn)] = fn
    found = []
    for module in (package, *modules.values()):
        for key, value in vars(module).items():
            if targets.get(id(value)) is value:
                found.append((module.__name__, key))
    return found


class Tracer:
    """Span stack and counters; install() wraps, uninstall() restores."""

    def __init__(self):
        self.counts = defaultdict(float)
        self._stack: list[_Frame] = []
        self._undo: list = []

    # -- installation -------------------------------------------------

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        package, modules = _fockops_modules()
        wrappers = {}
        for name, (mod, attr) in SPANS.items():
            fn = getattr(modules[mod], attr)
            if hasattr(fn, "__wrapped__"):
                raise RuntimeError(f"{mod}.{attr} is already wrapped")
            wrappers[id(fn)] = (fn, self._span(name, fn))
        for module in (package, *modules.values()):
            for key, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
                    self._undo.append((module, key, value))
        scheme_cls = modules["quadrature"].QuadratureScheme
        for meth in ("complex_nodes", "integrate"):
            orig = scheme_cls.__dict__[meth]
            setattr(scheme_cls, meth, self._level(orig))
            self._undo.append((scheme_cls, meth, orig))
        return self

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- wrappers ------------------------------------------------------

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(name)
            self._open(frame, args, kwargs)
            self._stack.append(frame)
            frame.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(frame, None, exc)
                raise
            self._close(frame, result, None)
            return result
        return wrapper

    def _level(self, method):
        @functools.wraps(method)
        def wrapper(scheme, *args, **kwargs):
            samples = scheme.radial_nodes.size * scheme.angular_count
            self.counts["quadrature.levels"] += 1
            self.counts["quadrature.samples"] += samples
            owner = next((f for f in reversed(self._stack)
                          if f.name in INTEGRATORS), None)
            if owner is None:
                # a lone level outside any refinement loop is final
                self.counts["quadrature.final_samples"] += samples
            else:
                owner.levels += 1
                owner.last_level = samples
                if owner.name == "berezin.log_profile":
                    self.counts["berezin.log_profile.point_samples"] += (
                        owner.points * samples)
            return method(scheme, *args, **kwargs)
        return wrapper

    # -- span bookkeeping ----------------------------------------------

    def _open(self, frame, args, kwargs):
        c = self.counts
        if frame.name == "berezin.log_profile":
            points = args[2] if len(args) > 2 else kwargs["points"]
            frame.points = int(np.size(points))
            c["berezin.log_profile.points"] += frame.points
            if self._stack and self._stack[-1].name == \
                    "berezin.power_integral":
                c["berezin.power_integral.annuli"] += 1
        elif frame.name == "operator_rep.singular_values":
            matrix = args[0] if args else kwargs["matrix"]
            rows, cols = np.shape(getattr(matrix, "entries", matrix))
            c["operator_rep.singular_values.n3"] += rows * cols * min(
                rows, cols)

    def _close(self, frame, result, exc):
        duration = time.perf_counter() - frame.start
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += duration
            if exc is not None:
                self._stack[-1].child_exc = exc
        c = self.counts
        c[f"{frame.name}.calls"] += 1
        c[f"{frame.name}.self_s"] += duration - frame.child_s
        if frame.name == "quadrature.gaussian_integral" and frame.levels:
            c["quadrature.gaussian_integral.refinements"] += frame.levels - 1
        if exc is None:
            c["quadrature.final_samples"] += frame.last_level
            if frame.name == "berezin.power_integral":
                c[f"berezin.power_integral.{result[1]}"] += 1
            elif frame.name == "criteria.classify_berezin":
                for verdict in (result.bounded, result.compact,
                                *result.schatten.values()):
                    c[f"criteria.verdicts.{verdict.value}"] += 1
            return
        if frame.name == "berezin.at":
            c["berezin.at.failed"] += 1
        key = ERRORS.get(type(exc).__name__)
        if key is not None and exc is not frame.child_exc:
            c[key] += 1

    # -- results -------------------------------------------------------

    def merge(self, counts: dict):
        """Add counters recorded elsewhere (a traced CLI child)."""
        for key, value in counts.items():
            self.counts[key] += value

    def layer_metrics(self) -> dict:
        """Span and quadrature metrics; run.py adds cli, proc and trace."""
        c = self.counts
        out = {name: float(c.get(name, 0.0)) for name in PER_LAYER}
        samples = c.get("quadrature.samples", 0.0)
        out["quadrature.final_level_share"] = (
            c.get("quadrature.final_samples", 0.0) / samples
            if samples else 0.0)
        return out
