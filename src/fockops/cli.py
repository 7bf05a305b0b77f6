"""Config-driven batch front-end emitting JSON and CSV artifacts.

Holds what a cache hit needs and imports no numerics; a miss
imports ``commands`` (field tables and runners) and with it the numerics.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from . import SCHEMA, __version__
from .errors import (ConfigError, DegreeCap, DivergentTail, InvalidIntegrand,
                     NonConvergence)

# name -> help; ``commands._COMMANDS`` holds each one's fields and runner.
_HELP = {
    "berezin": "evaluate the transform on a ring grid, emit CSV",
    "norm": "space norm and derivative functional of one symbol",
    "classify": "boundedness/compactness verdicts from the transform",
    "schatten": "truncated-matrix spectral summary",
    "sweep": "consistency report over a symbol family",
    "crosscheck": "two-route Gram matrix deviation",
}


def __getattr__(name: str):
    # cli.classify_berezin etc. resolve to the bindings the runners call
    from . import commands
    return getattr(commands, name)


@functools.lru_cache(maxsize=1)
def _code_fingerprint() -> str:
    """Hash of the package version and the bytes of its sources."""
    digest = hashlib.sha256(__version__.encode())
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cache_key(command: str, data, seed) -> str:
    payload = {"schema": SCHEMA, "command": command, "config": data,
               "code": _code_fingerprint()}
    if seed is not None:
        payload["seed"] = seed
    try:
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except RecursionError:
        raise ConfigError("config: nested too deeply") from None
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


def _cache_load(cache: Path, key: str):
    try:
        meta = json.loads((cache / f"{key}.meta.json").read_bytes())
        artifacts = {name: (cache / f"{key}.{name}").read_bytes()
                     for name in meta["artifacts"]}
        return artifacts, int(meta["exit"])
    except (OSError, KeyError, ValueError):
        return None


def _cache_store(cache: Path, key: str, artifacts: dict, code: int):
    for name, blob in artifacts.items():
        _atomic_write(cache / f"{key}.{name}", blob)
    meta = {"artifacts": sorted(artifacts), "exit": code}
    _atomic_write(cache / f"{key}.meta.json",
                  (json.dumps(meta, sort_keys=True, indent=2) + "\n").encode())


def _emit(out: Path | None, artifacts: dict):
    primary, *secondary = artifacts
    if out is None:
        sys.stdout.write(artifacts[primary].decode())
        return
    _atomic_write(out, artifacts[primary])
    for name in secondary:
        # secondary artifacts land next to the primary one
        _atomic_write(out.with_name(out.stem + "." + name), artifacts[name])


def run(command: str, data, out: Path | None = None,
        cache: Path | None = None, seed: int | None = None) -> int:
    """Execute ``command`` on the raw config ``data``; return the exit code.

    Artifacts are replayed from, or stored in, the ``cache`` directory under
    a hash of the command, raw config, seed and code.  Only a run that
    passed validation and finished is stored, and any change to the sources
    changes the hash, so a hit replays without validating ``data`` or
    importing the numerics.  A miss imports ``commands``, which validates
    ``data`` against the command's fields and runs it.
    """
    if command not in _HELP:
        raise ConfigError(f"unknown command {command!r}")
    key = _cache_key(command, data, seed)
    cached = _cache_load(cache, key) if cache is not None else None
    if cached is not None:
        print(f"cache hit {key[:16]}", file=sys.stderr)
        artifacts, code = cached
    else:
        from .commands import execute
        artifacts, code = execute(command, data, seed)
        if cache is not None:
            _cache_store(cache, key, artifacts, code)
    _emit(out, artifacts)
    return code


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockops",
        description="Transform-based classification of integral-type and "
                    "weighted composition operators on Fock spaces.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _HELP.items():
        cmd = sub.add_parser(name, help=help_text)
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
    except RecursionError:
        print("config error: config: nested too deeply", file=sys.stderr)
        return 2
    try:
        return run(args.command, raw, out=args.out,
                   cache=None if args.no_cache else args.cache,
                   seed=args.seed)
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
