"""Config validation and command runners, imported by ``cli`` on a miss.

Config fields are table entries ``name: (parser, default)``, the parser
carrying type and range; ``_COMMANDS`` drives validation and dispatch.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import SCHEMA
from .berezin import PROFILE_TOL, GridSpec, berezin_profile
from .criteria import (Verdict, classify_berezin, consistency_report,
                       random_volterra_family)
from .errors import ConfigError, DivergentTail
from .fock_core import derivative_functional, fock_norm
from .operator_rep import build_matrix, spectral_summary, toeplitz_crosscheck
from .quadrature import Tolerance
from .symbols import PARSE_DEGREE_CAP, AffineMap, Symbol, SymbolPair

# Largest truncation size: a `schatten` run at N = 2048 peaks near 360 MB
# and takes about 8 s (2 vCPU, BLAS on one thread).
_SIZE_CAP = 2048
_FINITE = sys.float_info.max


def _fail(where: str, message: str):
    raise ConfigError(f"{where}: {message}")


# Leaf parsers: parse(node, where) returns the value or raises ConfigError
# naming the field path ``where``.

def _num(lo=-math.inf, hi=math.inf, open_lo=False, integer=False):
    """A finite float, or an int, in [lo, hi], or (lo, hi] if open_lo."""
    kind = "an integer" if integer else "a finite number"
    span = (("(" if open_lo or lo == -math.inf else "[") + f"{lo:g}, {hi:g}"
            + (")" if hi == math.inf else "]"))

    def parse(node, where):
        if isinstance(node, bool) or not isinstance(
                node, int if integer else (int, float)):
            _fail(where, f"expected {kind}")
        # NaN fails every comparison; ints too large for a float fail too
        if (not max(lo, -_FINITE) <= node <= min(hi, _FINITE)
                or (open_lo and node == lo)):
            _fail(where, f"expected {kind} in {span}")
        return node if integer else float(node)
    return parse


def _choice(*options):
    def parse(node, where):
        if not isinstance(node, str) or node not in options:
            _fail(where, f"expected one of {', '.join(map(repr, options))}")
        return node
    return parse


def _array(item, min_len=0, max_len=math.inf):
    """An array of ``min_len`` to ``max_len`` items, parsed into a tuple."""
    def parse(node, where):
        if not isinstance(node, list) or not min_len <= len(node) <= max_len:
            _fail(where, f"expected an array of {min_len} to {max_len:g} "
                         "items")
        return tuple(item(x, f"{where}[{i}]") for i, x in enumerate(node))
    return parse


_REAL = _num()
_POSITIVE = _num(0, open_lo=True)
_RE_IM = _array(_REAL, 2, 2)


def _complex(node, where: str) -> complex:
    """A number or a [re, im] pair."""
    if isinstance(node, list):
        return complex(*_RE_IM(node, where))
    return complex(_REAL(node, where), 0.0)


def _object(fields: dict, required=(), build=dict):
    """An object of ``fields``, name -> (parser, default), passed to build.

    An absent field takes its default, or is left out if that is None."""
    def parse(node, where):
        here = where or "config"
        if not isinstance(node, dict):
            _fail(here, "expected an object")
        unknown = sorted(set(node) - set(fields))
        if unknown:
            _fail(here, f"unknown field(s): {', '.join(unknown)}")
        missing = sorted(set(required) - set(node))
        if missing:
            _fail(here, f"missing field(s): {', '.join(missing)}")
        values = {name: parser(node.get(name, default),
                               f"{where}.{name}" if where else name)
                  for name, (parser, default) in fields.items()
                  if name in node or default is not None}
        try:
            return build(**values)
        except ValueError as exc:
            _fail(here, str(exc))
    return parse


_COEFFICIENTS = _array(_complex, 1, PARSE_DEGREE_CAP + 1)
_EXPONENTIAL = _object(
    {"prefactor": (_COEFFICIENTS, [1.0]),
     "exponent": (_array(_complex, 1, 3), None)},
    ("exponent",),
    lambda prefactor, exponent: Symbol(
        poly=prefactor, expo=exponent + (0j,) * (3 - len(exponent))))


def _symbol(node, where: str) -> Symbol:
    """Coefficients, lowest degree first, or {prefactor, exponent}."""
    if isinstance(node, dict):
        return _EXPONENTIAL(node, where)
    return Symbol.polynomial(_COEFFICIENTS(node, where))


# Shared field tables.

_SCHEMA = {"schema": (_choice(SCHEMA), None)}
_MAP = _object({"a": (_complex, None), "b": (_complex, 0.0)}, ("a",),
               AffineMap)
_PAIR = {**_SCHEMA,
         "kind": (_choice("volterra", "weighted"), None),
         "symbol": (_symbol, None),
         "map": (_MAP, None),
         "alpha": (_POSITIVE, 1.0)}
# Count caps bound the work a valid config can ask for: a 256 x 256
# berezin profile of g = z takes about 2.5 s on 2 vCPUs.  max_refinements
# needs none: the sample budget ends refinement by the 2048 x 2048 level.
_GRID = _object({"w_max": (_POSITIVE, None),
                 "radial_count": (_num(2, 256, integer=True), None),
                 "angular_count": (_num(4, 256, integer=True), None),
                 "r_min": (_num(0), None)}, build=GridSpec)
_TOLERANCE = {"rel_tol": (_num(0, 1, open_lo=True), None),
              "abs_tol": (_num(0, 1, open_lo=True), None),
              "max_refinements": (_num(1, integer=True), None)}
# Each pair redraws its leading coefficient ~1 / (1 - lead_floor^2) times.
_FAMILY = _object({"count": (_num(1, 200, integer=True), 50),
                   "seed": (_num(0, integer=True), 1729),
                   "degree_max": (_num(1, PARSE_DEGREE_CAP, integer=True), 5),
                   "alpha": (_POSITIVE, 1.0),
                   "lead_floor": (_num(0, 0.99), 0.05)})
_ORDERS = _array(_POSITIVE)


def _pair(cfg: dict) -> SymbolPair:
    psi = cfg.get("map")
    if cfg["kind"] == "weighted":
        if psi is None:
            _fail("map", "required for the weighted kind")
        return SymbolPair.weighted(cfg["symbol"], psi, alpha=cfg["alpha"])
    return SymbolPair.volterra(cfg["symbol"], psi, alpha=cfg["alpha"])


def _jsonable(value):
    if isinstance(value, Verdict):
        return value.value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return _jsonable(value.tolist())
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)  # "nan", "inf" or "-inf"
    return value


def _dump_json(payload: dict) -> bytes:
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2,
                      allow_nan=False)
    return (text + "\n").encode()


def _csv_bytes(rows) -> bytes:
    return ("\n".join(",".join(str(c) for c in row) for row in rows)
            + "\n").encode()


# Command runners take the parsed config and the --seed override and
# return (artifacts, exit_code); the primary artifact is the first entry
# and lands at --out.

def _run_berezin(cfg: dict, seed):
    power = cfg.get("power", cfg.get("q"))
    if power is None:
        _fail("power", "required (or give q)")
    profile = berezin_profile(_pair(cfg), power, grid=cfg.get("grid"),
                              tol=cfg.get("tolerance"))
    return {"profile.csv": _csv_bytes(profile.csv_rows())}, 0


def _run_norm(cfg: dict, seed):
    symbol, p, alpha = cfg["symbol"], cfg["p"], cfg["alpha"]
    tol = cfg.get("tolerance")
    try:
        norm = fock_norm(symbol, p, alpha, tol=tol)
    except DivergentTail:
        norm = math.inf
    try:
        functional = derivative_functional(symbol, p, alpha, tol=tol)
    except DivergentTail:
        functional = math.inf
    payload = {"schema": SCHEMA, "command": "norm", "p": p, "alpha": alpha,
               "norm": norm, "derivative_functional": functional}
    return {"result.json": _dump_json(payload)}, 0


def _classification_payload(cls) -> dict:
    return {"bounded": cls.bounded, "compact": cls.compact,
            "schatten": {f"{t:g}": v for t, v in sorted(cls.schatten.items())},
            "norm_estimate": cls.norm_estimate,
            "essential_norm_estimate": cls.essential_norm_estimate,
            "source": cls.source}


def _run_classify(cfg: dict, seed):
    pair, p, q = _pair(cfg), cfg["p"], cfg["q"]
    cls = classify_berezin(pair, p, q, grid=cfg.get("grid"),
                           tol=cfg.get("tolerance"),
                           schatten_orders=cfg["orders"])
    payload = {"schema": SCHEMA, "command": "classify", "p": p, "q": q,
               "alpha": pair.alpha, **_classification_payload(cls),
               "evidence": cls.evidence}
    verdicts = [cls.bounded, cls.compact, *cls.schatten.values()]
    code = 3 if Verdict.INCONCLUSIVE in verdicts else 0
    return {"result.json": _dump_json(payload)}, code


def _run_schatten(cfg: dict, seed):
    pair, size = _pair(cfg), cfg["size"]
    summary = spectral_summary(build_matrix(pair, size), cfg["orders"])
    payload = {
        "schema": SCHEMA, "command": "schatten", "size": size,
        "alpha": pair.alpha,
        "op_norm": summary.op_norm,
        "op_norm_converged": summary.op_norm_converged,
        "hs_norm": summary.hs_norm,
        "ess_norm_proxy": summary.ess_norm_proxy,
        "ess_proxy_converged": summary.ess_proxy_converged,
        "schatten": {f"{t:g}": {"value": part.value,
                                "tail_fraction": part.tail_fraction,
                                "converged": part.converged}
                     for t, part in sorted(summary.schatten.items())},
    }
    singular = [("k", "sigma")] + [(k, repr(float(s)))
                                   for k, s in enumerate(summary.singular)]
    return {"result.json": _dump_json(payload),
            "singular.csv": _csv_bytes(singular)}, 0


def _run_sweep(cfg: dict, seed):
    if ("pairs" in cfg) == ("family" in cfg):
        _fail("config", "needs exactly one of 'family' or 'pairs'")
    if "pairs" in cfg:
        pairs, family, seed = cfg["pairs"], {"pairs": len(cfg["pairs"])}, None
    else:
        seed = cfg["family"]["seed"] if seed is None else seed
        family = dict(cfg["family"], seed=seed)
        pairs = random_volterra_family(**family)
    p, q, size, orders = cfg["p"], cfg["q"], cfg["size"], cfg["orders"]
    report = consistency_report(pairs, p, q, size=size,
                                schatten_orders=orders)
    entries = []
    for entry in report.entries:
        cls = entry["classified"]
        row = {"index": entry["index"], **_classification_payload(cls)}
        if entry["oracle"] is not None:
            row["oracle"] = _classification_payload(entry["oracle"])
        entries.append(row)
    payload = {
        "schema": SCHEMA, "command": "sweep", "p": p, "q": q, "size": size,
        "orders": orders, "family": family, "seed": seed,
        "comparisons": report.comparisons, "agreements": report.agreements,
        "mismatches": report.mismatches,
        "spectral_disagreements": report.spectral_disagreements,
        "op_norm_ratios": report.op_norm_ratios,
        "hs_ratios": report.hs_ratios,
        "entries": entries,
    }
    return {"result.json": _dump_json(payload)}, (0 if report.ok else 4)


def _run_crosscheck(cfg: dict, seed):
    pair, size = _pair(cfg), cfg["size"]
    try:
        deviation = toeplitz_crosscheck(pair, size)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {"schema": SCHEMA, "command": "crosscheck", "size": size,
               "alpha": pair.alpha, "deviation": deviation}
    return {"result.json": _dump_json(payload)}, 0


# Tolerance fields left out keep PROFILE_TOL's (norm: Tolerance()'s).
_TRANSFORM = {"grid": (_GRID, None),
              "tolerance": (_object(_TOLERANCE, build=functools.partial(
                  dataclasses.replace, PROFILE_TOL)), None)}
_PAIR_REQUIRED = ("kind", "symbol")

# name -> (runner, fields, required fields); help text is in cli._HELP
_COMMANDS = {
    "berezin": (_run_berezin,
                {**_PAIR, "power": (_POSITIVE, None), "q": (_POSITIVE, None),
                 **_TRANSFORM}, _PAIR_REQUIRED),
    "norm": (_run_norm,
             {**_SCHEMA, "symbol": _PAIR["symbol"], "p": (_POSITIVE, None),
              "alpha": _PAIR["alpha"],
              "tolerance": (_object(_TOLERANCE, build=Tolerance), None)},
             ("symbol", "p")),
    "classify": (_run_classify,
                 {**_PAIR, "p": (_POSITIVE, None), "q": (_POSITIVE, None),
                  **_TRANSFORM, "orders": (_ORDERS, [])},
                 _PAIR_REQUIRED + ("p", "q")),
    "schatten": (_run_schatten,
                 {**_PAIR, "size": (_num(2, _SIZE_CAP, integer=True), 128),
                  "orders": (_ORDERS, [1, 2, 3, 4])}, _PAIR_REQUIRED),
    "sweep": (_run_sweep,
              {**_SCHEMA, "family": (_FAMILY, None),
               "pairs": (_array(_object(_PAIR, _PAIR_REQUIRED,
                                        lambda **cfg: _pair(cfg)), 1), None),
               "p": (_POSITIVE, 2.0), "q": (_POSITIVE, 2.0),
               "size": (_num(2, _SIZE_CAP, integer=True), 128),
               "orders": (_ORDERS, [1, 2, 4])}, ()),
    "crosscheck": (_run_crosscheck,
                   {**_PAIR,
                    "size": (_num(4, _SIZE_CAP, integer=True), 32)},
                   _PAIR_REQUIRED),
}


def execute(command: str, data, seed) -> tuple[dict, int]:
    """Validate ``data`` against the command's fields and run it."""
    runner, fields, required = _COMMANDS[command]
    return runner(_object(fields, required)(data, ""), seed)
