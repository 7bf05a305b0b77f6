"""Config-driven batch front-end emitting JSON and CSV artifacts."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .berezin import GridSpec, berezin_profile
from .criteria import (Verdict, classify_berezin, consistency_report,
                       random_volterra_family)
from .errors import (ConfigError, DegreeCap, DivergentTail, InvalidIntegrand,
                     NonConvergence)
from .fock_core import derivative_functional, fock_norm
from .operator_rep import build_matrix, spectral_summary, toeplitz_crosscheck
from .quadrature import Tolerance
from .symbols import PARSE_DEGREE_CAP, AffineMap, Symbol, SymbolPair

SCHEMA = "v1"

_COMMANDS = ("berezin", "norm", "classify", "schatten", "sweep", "crosscheck")


def _fail(where: str, message: str):
    raise ConfigError(f"{where}: {message}")


def _number(node, where: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        _fail(where, "expected a number")
    value = float(node)
    if not math.isfinite(value):
        _fail(where, "expected a finite number")
    return value


def _positive(node, where: str) -> float:
    value = _number(node, where)
    if value <= 0:
        _fail(where, "must be positive")
    return value


def _integer(node, where: str, minimum: int = 0) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        _fail(where, "expected an integer")
    if node < minimum:
        _fail(where, f"expected an integer >= {minimum}")
    return node


def _complex_number(node, where: str) -> complex:
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return complex(float(node), 0.0)
    if isinstance(node, list) and len(node) == 2:
        return complex(_number(node[0], where), _number(node[1], where))
    _fail(where, "expected a number or a [re, im] pair")


def _check_keys(node, where: str, allowed, required=()):
    if not isinstance(node, dict):
        _fail(where, "expected an object")
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        _fail(where, f"unknown field(s): {', '.join(unknown)}")
    missing = sorted(set(required) - set(node))
    if missing:
        _fail(where, f"missing field(s): {', '.join(missing)}")


def _coefficients(node, where: str) -> tuple:
    if not isinstance(node, list) or not node:
        _fail(where, "expected a non-empty coefficient array, "
                     "lowest degree first")
    if len(node) - 1 > PARSE_DEGREE_CAP:
        _fail(where, f"degree {len(node) - 1} above the cap "
                     f"{PARSE_DEGREE_CAP}")
    return tuple(_complex_number(c, f"{where}[{i}]")
                 for i, c in enumerate(node))


def _symbol(node, where: str) -> Symbol:
    if isinstance(node, list):
        return Symbol.polynomial(_coefficients(node, where))
    if isinstance(node, dict):
        _check_keys(node, where, ("prefactor", "exponent"), ("exponent",))
        expo = node["exponent"]
        if not isinstance(expo, list) or not 1 <= len(expo) <= 3:
            _fail(f"{where}.exponent", "expected 1 to 3 coefficients")
        q = [_complex_number(c, f"{where}.exponent[{i}]")
             for i, c in enumerate(expo)]
        q += [0j] * (3 - len(q))
        pre = _coefficients(node.get("prefactor", [1.0]),
                            f"{where}.prefactor")
        return Symbol(poly=pre, expo=tuple(q))
    _fail(where, "expected a coefficient array or a "
                 "{prefactor, exponent} object")


def _affine_map(node, where: str) -> AffineMap:
    _check_keys(node, where, ("a", "b"), ("a",))
    return AffineMap(a=_complex_number(node["a"], f"{where}.a"),
                     b=_complex_number(node.get("b", 0.0), f"{where}.b"))


def _grid(node, where: str) -> GridSpec:
    _check_keys(node, where,
                ("w_max", "radial_count", "angular_count", "r_min"))
    kwargs = {}
    if "w_max" in node:
        kwargs["w_max"] = _number(node["w_max"], f"{where}.w_max")
    if "radial_count" in node:
        kwargs["radial_count"] = _integer(node["radial_count"],
                                          f"{where}.radial_count", 2)
    if "angular_count" in node:
        kwargs["angular_count"] = _integer(node["angular_count"],
                                           f"{where}.angular_count", 4)
    if "r_min" in node:
        kwargs["r_min"] = _number(node["r_min"], f"{where}.r_min")
    return GridSpec(**kwargs)


def _tolerance(node, where: str) -> Tolerance:
    _check_keys(node, where, ("rel_tol", "abs_tol", "max_refinements"))
    kwargs = {}
    if "rel_tol" in node:
        kwargs["rel_tol"] = _number(node["rel_tol"], f"{where}.rel_tol")
    if "abs_tol" in node:
        kwargs["abs_tol"] = _number(node["abs_tol"], f"{where}.abs_tol")
    if "max_refinements" in node:
        kwargs["max_refinements"] = _integer(node["max_refinements"],
                                             f"{where}.max_refinements", 1)
    try:
        return Tolerance(**kwargs)
    except ValueError as exc:
        _fail(where, str(exc))


def _alpha(data: dict) -> float:
    return _positive(data.get("alpha", 1.0), "alpha")


def _pair(data: dict) -> SymbolPair:
    kind = data.get("kind")
    if kind not in ("volterra", "weighted"):
        _fail("kind", "expected 'volterra' or 'weighted'")
    symbol = _symbol(data.get("symbol"), "symbol")
    alpha = _alpha(data)
    if kind == "weighted":
        if "map" not in data:
            _fail("map", "required for the weighted kind")
        return SymbolPair.weighted(symbol, _affine_map(data["map"], "map"),
                                   alpha=alpha)
    psi = _affine_map(data["map"], "map") if "map" in data else None
    return SymbolPair.volterra(symbol, psi, alpha=alpha)


def _exponent(data: dict, key: str, default=None) -> float:
    if key not in data:
        if default is None:
            _fail(key, "required")
        return default
    return _positive(data[key], key)


def _orders(data: dict, default: list) -> tuple:
    node = data.get("orders", default)
    if not isinstance(node, list):
        _fail("orders", "expected an array of numbers")
    return tuple(_positive(t, f"orders[{i}]") for i, t in enumerate(node))


def _check_schema(data: dict):
    if "schema" in data and data["schema"] != SCHEMA:
        _fail("schema", f"unsupported version {data['schema']!r}")


def _jsonable(value):
    if isinstance(value, Verdict):
        return value.value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if value == math.inf:
            return "inf"
        if value == -math.inf:
            return "-inf"
    return value


def _dump_json(payload: dict) -> bytes:
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2,
                      allow_nan=False)
    return (text + "\n").encode()


def _csv_bytes(rows) -> bytes:
    return ("\n".join(",".join(str(c) for c in row) for row in rows)
            + "\n").encode()


# Command runners return (artifacts, exit_code); the primary artifact is
# the first entry and lands at --out.

_PAIR_KEYS = ("schema", "kind", "symbol", "map", "alpha")


def _run_berezin(data: dict):
    _check_keys(data, "config",
                _PAIR_KEYS + ("power", "q", "grid", "tolerance"))
    pair = _pair(data)
    power = _exponent(data, "power", _exponent(data, "q", math.nan))
    if math.isnan(power):
        _fail("power", "required (or give q)")
    grid = _grid(data["grid"], "grid") if "grid" in data else None
    tol = _tolerance(data["tolerance"], "tolerance") \
        if "tolerance" in data else None
    profile = berezin_profile(pair, power, grid=grid, tol=tol)
    return {"profile.csv": _csv_bytes(profile.csv_rows())}, 0


def _run_norm(data: dict):
    _check_keys(data, "config", ("schema", "symbol", "p", "alpha",
                                 "tolerance"))
    symbol = _symbol(data.get("symbol"), "symbol")
    p = _exponent(data, "p")
    alpha = _alpha(data)
    tol = _tolerance(data["tolerance"], "tolerance") \
        if "tolerance" in data else None
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


def _run_classify(data: dict):
    _check_keys(data, "config",
                _PAIR_KEYS + ("p", "q", "grid", "tolerance", "orders"))
    pair = _pair(data)
    p = _exponent(data, "p")
    q = _exponent(data, "q")
    orders = _orders(data, [])
    grid = _grid(data["grid"], "grid") if "grid" in data else None
    tol = _tolerance(data["tolerance"], "tolerance") \
        if "tolerance" in data else None
    cls = classify_berezin(pair, p, q, grid=grid, tol=tol,
                           schatten_orders=orders)
    payload = {"schema": SCHEMA, "command": "classify", "p": p, "q": q,
               "alpha": pair.alpha, **_classification_payload(cls),
               "evidence": cls.evidence}
    verdicts = [cls.bounded, cls.compact, *cls.schatten.values()]
    code = 3 if Verdict.INCONCLUSIVE in verdicts else 0
    return {"result.json": _dump_json(payload)}, code


def _run_schatten(data: dict):
    _check_keys(data, "config", _PAIR_KEYS + ("size", "orders"))
    pair = _pair(data)
    size = _integer(data.get("size", 128), "size", 2)
    orders = _orders(data, [1, 2, 3, 4])
    summary = spectral_summary(build_matrix(pair, size), orders)
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


def _run_sweep(data: dict, seed_override=None):
    _check_keys(data, "config",
                ("schema", "family", "pairs", "p", "q", "size", "orders"),
                ())
    p = _exponent(data, "p", 2.0)
    q = _exponent(data, "q", 2.0)
    size = _integer(data.get("size", 128), "size", 2)
    orders = _orders(data, [1, 2, 4])
    seed = None
    if "pairs" in data:
        if not isinstance(data["pairs"], list) or not data["pairs"]:
            _fail("pairs", "expected a non-empty array of pair objects")
        pairs = []
        for i, node in enumerate(data["pairs"]):
            _check_keys(node, f"pairs[{i}]", _PAIR_KEYS, ("kind", "symbol"))
            pairs.append(_pair(node))
        family = {"pairs": len(pairs)}
    elif "family" in data:
        node = data["family"]
        _check_keys(node, "family",
                    ("count", "seed", "degree_max", "alpha", "lead_floor"))
        count = _integer(node.get("count", 50), "family.count", 1)
        seed = _integer(node.get("seed", 1729), "family.seed")
        if seed_override is not None:
            seed = seed_override
        degree_max = _integer(node.get("degree_max", 5),
                              "family.degree_max", 1)
        alpha = _number(node.get("alpha", 1.0), "family.alpha")
        floor = _number(node.get("lead_floor", 0.05), "family.lead_floor")
        try:
            pairs = random_volterra_family(count, seed=seed,
                                           degree_max=degree_max,
                                           alpha=alpha, lead_floor=floor)
        except ValueError as exc:
            _fail("family", str(exc))
        family = {"count": count, "seed": seed, "degree_max": degree_max,
                  "alpha": alpha, "lead_floor": floor}
    else:
        _fail("config", "needs either 'family' or 'pairs'")
    report = consistency_report(pairs, p, q, size=size,
                                schatten_orders=orders)
    entries = []
    for entry in report.entries:
        cls = entry["classified"]
        row = {"index": entry["index"], **_classification_payload(cls)}
        if entry["oracle"] is not None:
            row["oracle"] = _classification_payload(entry["oracle"])
        if "conflicts" in cls.evidence:
            row["conflicts"] = cls.evidence["conflicts"]
        entries.append(row)
    payload = {
        "schema": SCHEMA, "command": "sweep", "p": p, "q": q, "size": size,
        "orders": list(orders), "family": family, "seed": seed,
        "comparisons": report.comparisons, "agreements": report.agreements,
        "mismatches": [[i, what, lhs, rhs]
                       for i, what, lhs, rhs in report.mismatches],
        "lattice_conflicts": report.lattice_conflicts,
        "spectral_disagreements": [[i, t, lhs, rhs] for i, t, lhs, rhs
                                   in report.spectral_disagreements],
        "op_norm_ratios": report.op_norm_ratios,
        "hs_ratios": report.hs_ratios,
        "entries": entries,
    }
    return {"result.json": _dump_json(payload)}, (0 if report.ok else 4)


def _run_crosscheck(data: dict):
    _check_keys(data, "config", _PAIR_KEYS + ("size",))
    pair = _pair(data)
    size = _integer(data.get("size", 32), "size", 4)
    try:
        deviation = toeplitz_crosscheck(pair, size)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {"schema": SCHEMA, "command": "crosscheck", "size": size,
               "alpha": pair.alpha, "deviation": deviation}
    return {"result.json": _dump_json(payload)}, 0


_RUNNERS = {
    "berezin": _run_berezin,
    "norm": _run_norm,
    "classify": _run_classify,
    "schatten": _run_schatten,
    "crosscheck": _run_crosscheck,
}


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: command, validated config, io options."""

    command: str
    data: dict
    out: Path | None = None
    cache_dir: Path | None = None
    use_cache: bool = True
    seed: int | None = None


def _cache_key(config: RunConfig) -> str:
    payload = {"schema": SCHEMA, "command": config.command,
               "config": config.data}
    if config.seed is not None:
        payload["seed"] = config.seed
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _atomic_write(path: Path, blob: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cache_load(config: RunConfig, key: str):
    meta_path = config.cache_dir / f"{key}.meta.json"
    try:
        meta = json.loads(meta_path.read_bytes())
        artifacts = {}
        for name in meta["artifacts"]:
            artifacts[name] = (config.cache_dir / f"{key}.{name}").read_bytes()
        return artifacts, int(meta["exit"])
    except (OSError, KeyError, ValueError):
        return None


def _cache_store(config: RunConfig, key: str, artifacts: dict, code: int):
    for name, blob in artifacts.items():
        _atomic_write(config.cache_dir / f"{key}.{name}", blob)
    meta = {"artifacts": sorted(artifacts), "exit": code}
    _atomic_write(config.cache_dir / f"{key}.meta.json", _dump_json(meta))


def _emit(config: RunConfig, artifacts: dict):
    names = list(artifacts)
    primary = names[0]
    if config.out is None:
        sys.stdout.write(artifacts[primary].decode())
        return
    _atomic_write(config.out, artifacts[primary])
    for name in names[1:]:
        # secondary artifacts land next to the primary one
        side = config.out.with_name(config.out.stem + "." + name)
        _atomic_write(side, artifacts[name])


def run(config: RunConfig) -> int:
    """Execute one command, honouring the artifact cache."""
    if config.command not in _COMMANDS:
        raise ConfigError(f"unknown command {config.command!r}")
    _check_schema(config.data)
    key = _cache_key(config)
    if config.use_cache and config.cache_dir is not None:
        cached = _cache_load(config, key)
        if cached is not None:
            artifacts, code = cached
            print(f"cache hit {key[:16]}", file=sys.stderr)
            _emit(config, artifacts)
            return code
    if config.command == "sweep":
        artifacts, code = _run_sweep(config.data, seed_override=config.seed)
    else:
        artifacts, code = _RUNNERS[config.command](config.data)
    if config.use_cache and config.cache_dir is not None:
        _cache_store(config, key, artifacts, code)
    _emit(config, artifacts)
    return code


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockops",
        description="Transform-based classification of integral-type and "
                    "weighted composition operators on Fock spaces.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "berezin": "evaluate the transform on a ring grid, emit CSV",
        "norm": "space norm and derivative functional of one symbol",
        "classify": "boundedness/compactness verdicts from the transform",
        "schatten": "truncated-matrix spectral summary",
        "sweep": "consistency report over a symbol family",
        "crosscheck": "two-route Gram matrix deviation",
    }
    for name in _COMMANDS:
        cmd = sub.add_parser(name, help=helps[name])
        cmd.add_argument("--config", required=True, type=Path,
                         help="JSON config file")
        cmd.add_argument("--out", type=Path, default=None,
                         help="primary artifact path (default: stdout)")
        cmd.add_argument("--cache", type=Path, default=None,
                         help="cache directory")
        cmd.add_argument("--no-cache", action="store_true",
                         help="bypass the cache for this run")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the family seed (sweep)")
    return parser


def entrypoint(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        raw = json.loads(args.config.read_text())
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: not valid JSON ({exc})", file=sys.stderr)
        return 2
    config = RunConfig(command=args.command, data=raw, out=args.out,
                       cache_dir=args.cache,
                       use_cache=not args.no_cache, seed=args.seed)
    try:
        return run(config)
    except (ConfigError, DegreeCap) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergence, DivergentTail, InvalidIntegrand) as exc:
        print(f"computation did not settle: {exc}", file=sys.stderr)
        return 3


def main():  # pragma: no cover
    sys.exit(entrypoint())


if __name__ == "__main__":  # pragma: no cover
    main()
