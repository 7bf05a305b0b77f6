"""The fockops benchmark: one workload per process, a closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload family_sup --seed 1 \
        --seconds 25 --trace 0

Workloads: family_sup, sweep_spectra, point_probe, cli_cold (see
workloads.WHY).  The next op starts only when the previous one returned
and nothing runs in parallel; BLAS is pinned to BLAS_THREADS threads.
A run is a fixed list of ops, whole cycles of the workload sized from
``--seconds`` (workloads.CYCLE_S): the seed alone decides which ops run,
so two runs with one seed attempt the same ops and fail the same ones.

``--trace 0`` is the plain run and reports the end-to-end metrics.
``--trace 1`` installs the per-layer wrappers (tracer.py), runs the loop
and reports the per-layer metrics; it then replays the ops of the loop's
first quarter without and with the wrappers, to measure the tracing
overhead and to check that all three runs gave identical outputs.

The output is a human-readable report followed by one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The command exits 2 without a result when the working directory holds no
fockops sources.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

WORKLOADS = ("family_sup", "sweep_spectra", "point_probe", "cli_cold")
BLAS_THREADS = 1
SETUP_PROBES = 3   # fresh-process set-ups before the loop, and again after
TAIL_BEYOND = 10


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up, print it and exit")
    return parser


def _setup(workload: str, seed: int, seconds: float, root: Path,
           run_dir: Path):
    """Import fockops and generate the inputs, timed: one setup_s sample."""
    start = time.perf_counter()
    import fockops  # noqa: F401  (timed: the first import in this process)
    import workloads
    ops, cli = workloads.build(workload, seed, run_dir, root, seconds)
    return time.perf_counter() - start, ops, cli


def _setup_probes(args) -> list:
    """SETUP_PROBES set-ups, each timed in a fresh process."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           repr(args.seconds), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, timeout=120,
                              check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def _loop(ops):
    """Run every op once, in order: (records, wall time of the loop).

    The op list and everything set up before it are frozen out of the
    garbage collector, so its collections scan only what the ops make.
    """
    gc.collect()
    gc.freeze()
    records = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        outcome = op.run()
        records.append((op, time.perf_counter() - t0, outcome))
    return records, time.perf_counter() - start


def _tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it, never below the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - TAIL_BEYOND, n // 2 + 1)
    return ordered[k - 1], 100.0 * k / n, n - k


def _rusage(children: bool):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who)


def _machine(root: Path) -> dict:
    import numpy
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "numpy": numpy.__version__,
            "python": platform.python_version(), "src_lines": src_lines}


def _failures(records) -> dict:
    counts = Counter((o.failure, o.known) for _, _, o in records
                     if o.failure is not None)
    return {f"{kind} ({'known' if known else 'UNEXPECTED'})": n
            for (kind, known), n in sorted(counts.items())}


def _end_to_end(records, wall, setup, cli) -> tuple[dict, list]:
    latencies = [lat for _, lat, _ in records]
    ok = sum(o.failure is None for _, _, o in records)
    tail, pct, beyond = _tail(latencies)
    rss_kb = _rusage(cli is not None).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ok / wall, "1/s"),
        "op_s.p50": (statistics.median(latencies), "s"),
        "op_s.tail": (tail, "s"),
        "ok_frac": (ok / len(records), "frac"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    notes = [
        f"setup_s: median of {len(setup)} set-ups "
        f"({', '.join(f'{s:.3f}' for s in setup)})",
        f"ops_per_s: {ok} ok of {len(records)} attempted in {wall:.2f} s",
        f"op_s.tail: p{pct:.1f}, {beyond} samples beyond, "
        f"{len(records)} samples",
        f"ok_frac: fail_frac = {1.0 - ok / len(records):.4f}",
        "peak_rss_mb: ru_maxrss of the "
        + ("largest CLI child" if cli is not None else "workload process"),
    ]
    return metrics, notes


def _per_layer(tracer, records, traced_wall, plain_wall, ru0, ru1) -> dict:
    from tracer import PER_LAYER
    out = tracer.layer_metrics()
    cli = [o.info for _, _, o in records if "phase" in o.info]
    lat = {phase: [r[1] for r in records if r[2].info.get("phase") == phase]
           for phase in ("hit", "miss")}
    out["cli.hit_s.p50"] = statistics.median(lat["hit"]) if lat["hit"] else 0.0
    out["cli.miss_s.p50"] = (statistics.median(lat["miss"])
                             if lat["miss"] else 0.0)
    out["cli.cache.hits"] = float(sum(i["cache_hit"] for i in cli))
    out["cli.cache.misses"] = float(sum(not i["cache_hit"] for i in cli))
    out["cli.exit_other"] = float(sum(i["exit"] not in (0, 2, 3, 4)
                                      for i in cli))
    out["criteria.wrong_verdicts"] = float(sum(
        o.failure == "WrongVerdict" for _, _, o in records))
    out["proc.sys_s"] = sum(b.ru_stime - a.ru_stime for a, b in zip(ru0, ru1))
    out["proc.minflt"] = float(sum(b.ru_minflt - a.ru_minflt
                                   for a, b in zip(ru0, ru1)))
    out["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    return {name: (out[name], unit) for name, unit in PER_LAYER.items()}


def _replay(records, tracer=None):
    """Run the ops of ``records`` again, in order; (outcomes, wall)."""
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        outcomes = [op.run() for op, _, _ in records]
        return outcomes, time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()


def _traced(ops, cli):
    """Traced loop, then a plain and a traced replay of the same ops.

    The loop gives the per-layer counters.  The two replays cover the ops
    of the loop's first quarter; both run past the loop's first-touch costs
    (leggauss tables, page faults), so their ratio is the tracing
    overhead.  Returns (records, per-layer metrics, labels of the ops
    whose outputs differed between the traced and the plain runs).
    """
    from tracer import Tracer
    tracer = Tracer().install()
    if cli is not None:
        cli.tracer = tracer
    ru0 = (_rusage(False), _rusage(True))
    try:
        records, wall = _loop(ops)
    finally:
        ru1 = (_rusage(False), _rusage(True))
        tracer.uninstall()
        if cli is not None:
            cli.tracer = None
    # replay the ops that took the first quarter of the loop, twice
    budget, prefix = wall / 4.0, []
    for record in records:
        if prefix and budget <= 0.0:
            break
        prefix.append(record)
        budget -= record[1]
    plain, plain_wall = _replay(prefix)
    # a scratch tracer: the replay must not add to the loop's counters
    scratch = Tracer()
    if cli is not None:
        cli.tracer = scratch
    try:
        traced, traced_wall = _replay(prefix, scratch)
    finally:
        if cli is not None:
            cli.tracer = None
    differ = [op.label for (op, _, o), p, t in zip(prefix, plain, traced)
              if not repr(o.signature) == repr(p.signature)
              == repr(t.signature)]
    metrics = _per_layer(tracer, records, traced_wall, plain_wall, ru0, ru1)
    return records, metrics, differ


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "fockops" / "__init__.py").is_file():
        print(f"perfbench: no fockops sources under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = str(src)
    sys.path.insert(0, str(src))
    warnings.simplefilter("ignore", RuntimeWarning)

    run_dir = root / ".bench_build" / f"perfbench-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        first, ops, cli = _setup(args.workload, args.seed, args.seconds,
                                 root, run_dir)
        import fockops
        if not Path(fockops.__file__).resolve().is_relative_to(src):
            print(f"perfbench: imported fockops from {fockops.__file__}, "
                  f"not from {src}", file=sys.stderr)
            return 2
        if args.setup_probe:
            print(repr(first))
            return 0
        return _report(args, root, ops, cli, first)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _report(args, root, ops, cli, first_setup: float) -> int:
    import workloads
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"why: {workloads.WHY[args.workload]}")
    print(f"machine: {json.dumps(_machine(root))}")
    print(f"loop: closed, 1 client, next op after the previous returns; "
          f"{len(ops)} ops, {workloads.cycles_for(args.workload, args.seconds)}"
          " cycles")
    if cli is None:
        # warm-up, untimed and uncounted: numpy's lazy imports and first
        # touches happen once per process, not once per op.  A CLI op is a
        # fresh process that pays them every time.
        ops[0].run()
    differ = []
    if args.trace:
        from tracer import LAYER_MAP
        records, metrics, differ = _traced(ops, cli)
        for layer, target in LAYER_MAP.items():
            print(f"layer {layer} -> {target}")
    else:
        # set-ups timed on both sides of the loop, so that their median
        # does not hang on the machine's speed in one moment
        before = _setup_probes(args)
        records, wall = _loop(ops)
        setup = [first_setup, *before, *_setup_probes(args)]
        metrics, notes = _end_to_end(records, wall, setup, cli)
        for note in notes:
            print(f"note {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    failures = _failures(records)
    print(f"failures: {json.dumps(failures)}")
    unexpected = [(op.label, o.failure, o.info) for op, _, o in records
                  if o.failure is not None and not o.known]
    for label, failure, info in unexpected[:10]:
        print(f"UNEXPECTED {failure}: {label} {info}")
    for label in differ[:10]:
        print(f"TRACED OUTPUT DIFFERS: {label}")
    result = {
        "correct": not unexpected and not differ,
        "attempted": len(records),
        "failed": sum(o.failure is not None for _, _, o in records),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
