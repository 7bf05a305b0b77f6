"""The four benchmark workloads: inputs from a seed, one callable per op.

Every op returns an ``Outcome``.  An op fails when an exception escapes
it, when a definite verdict contradicts ``oracle_classify``, when a value
misses its closed-form reference, or when a CLI run exits outside
{0, 2, 3, 4} or prints a traceback.  Failures that match a defect already
documented for the program are marked ``known``; any other failure makes
the run report ``correct: false``.  Known failures still count in
``failed`` and ``ok_frac``.

Composition is fixed per workload and the seed only draws the inputs
inside each stratum (coefficients, phases, maps), so that two seeds ask
for the same mix of work.  fockops calls go through the package object at
call time, which is what lets the traced run see them.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fockops as fk
from fockops.bands import SUBHARMONIC_LOWER

# Why each workload exists; the same text is in BENCHMARK.json.
WHY = {
    "family_sup": "sup-profile classify of seeded turns of the acceptance"
                  " family over alpha 0.5/1/2: batched berezin_log_profile"
                  " route, skips the power integral, operator_rep and cli",
    "sweep_spectra": "consistency_report with orders (1,2,4), N=128 over"
                     " volterra and weighted pairs: annulus power-integral"
                     " march, SVD and matrix build",
    "point_probe": "one berezin_at, fock_norm or derivative_functional per"
                   " op out to |w|=1e3/sqrt(alpha): scheme set-up and"
                   " direct-route refinement, no batching",
    "cli_cold": "one fockops CLI process per op, each config once as a"
                " cache miss then as a hit: import, validation and cache"
                " I/O cost",
}

ALPHAS = (0.5, 1.0, 2.0)

# Documented defects (ROADMAP open items 2, 3 and 5).  A failure that
# matches one is counted but does not make the run incorrect.
#  - wrong definite sup verdicts at alpha = 0.5 (ring-ratio classifier);
#  - NonConvergence of berezin_at far out: the probe radii rungs at
#    |w| sqrt(alpha) of 95 to 114 converge today, the next ones at 208 and
#    beyond do not;
KNOWN_NONCONVERGENCE_SCALED_RADIUS = 150.0
#  - InvalidIntegrand from the space norms of exp(q2 z^2) for |q2| from:
KNOWN_INVALID_Q2 = 0.45
#  - CLI tracebacks, see _KNOWN_CLI_DEFECTS.


@dataclass
class Outcome:
    failure: str | None = None   # failure type; None when the op succeeded
    known: bool = False          # the failure matches a documented defect
    signature: tuple = ()        # verdicts and values, compared across runs
    info: dict = field(default_factory=dict)


@dataclass
class Op:
    """One workload item.  ``known_exc(exc)`` says whether an escaping
    exception is a documented defect."""

    label: str
    call: object
    known_exc: object = None

    def run(self) -> Outcome:
        try:
            return self.call()
        except Exception as exc:
            known = bool(self.known_exc and self.known_exc(exc))
            return Outcome(failure=type(exc).__name__, known=known,
                           signature=("raised", type(exc).__name__))


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _sub_seed(seed: int, *stream: int) -> int:
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def _unit(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


def _wrong_verdicts(cls, orc) -> list:
    """Attributes where both sides are definite and disagree."""
    definite = (fk.Verdict.YES, fk.Verdict.NO)
    out = [attr for attr in ("bounded", "compact")
           if getattr(cls, attr) in definite
           and getattr(orc, attr) in definite
           and getattr(cls, attr) is not getattr(orc, attr)]
    for t, rhs in orc.schatten.items():
        lhs = cls.schatten.get(t)
        if lhs in definite and rhs in definite and lhs is not rhs:
            out.append(f"schatten[{t:g}]")
    return out


def _verdict_tuple(cls) -> tuple:
    return (cls.bounded.value, cls.compact.value,
            tuple((t, v.value) for t, v in sorted(cls.schatten.items())),
            cls.norm_estimate, cls.essential_norm_estimate)


# -- family_sup ---------------------------------------------------------

def _by_degree(family_seed: int, per_degree: int,
               degree_max: int = 5) -> dict:
    """random_volterra_family(seed=family_seed) pairs sorted into degree
    strata, at least ``per_degree`` in each.  A larger draw extends a
    smaller one."""
    count = 2 * degree_max * per_degree
    while True:
        pool = fk.random_volterra_family(count, seed=family_seed,
                                         degree_max=degree_max)
        strata = {d: [] for d in range(1, degree_max + 1)}
        for pair in pool:
            strata[pair.symbol.degree].append(pair)
        if min(len(bucket) for bucket in strata.values()) >= per_degree:
            return strata
        count *= 2


# The polynomials of the acceptance family: random_volterra_family at its
# default seed, as the test suite draws it.
FAMILY_SEED = 1729


def _turned(pair, alpha: float, rng):
    """e^{i theta} g(e^{i phi} z) at ``alpha``, theta and phi from ``rng``.

    |g'| of the result is |g'| turned by -phi, so its transform is the
    transform turned, and its verdicts are those of g.
    """
    coeffs = np.asarray(pair.symbol.poly)
    theta, phi = rng.uniform(0.0, 2.0 * np.pi, 2)
    turned = coeffs * np.exp(1j * (theta + phi * np.arange(coeffs.size)))
    return fk.SymbolPair.volterra(fk.Symbol.polynomial(list(turned)),
                                  alpha=alpha)


def _family_sup(seed: int, cycles: int) -> list:
    """Cycles of 15 ops: each alpha with one polynomial of each degree.

    Cycle k takes the k-th polynomial of each degree of the acceptance
    family, and the seed turns each op's copy by its own random phase and
    rotation.  The work of classify follows the polynomial, and between
    polynomials of one degree it varies fourfold and more: once the zero
    of g' nearest the origin passes about 0.5 the sup profile needs its
    deepest level (1.1 s against 0.3 s), and past about 1.2 at alpha =
    0.5 it takes 5 s.  Pairs drawn afresh for every seed moved ops_per_s
    by a fifth between seeds; a turned copy costs what the original costs,
    and fockops still sees other numbers for every seed.
    """
    rng = _rng(seed, 1)
    strata = _by_degree(FAMILY_SEED, cycles)
    ops = []
    for k in range(cycles):
        for alpha in ALPHAS:
            for degree in range(1, 6):
                pair = _turned(strata[degree][k], alpha, rng)
                ops.append(Op(f"family_sup a={alpha:g} deg={degree} #{k}",
                              _classify_op(pair)))
    return ops


def _classify_op(pair):
    def call():
        cls = fk.classify_berezin(pair, 2.0, 2.0)
        orc = fk.oracle_classify(pair, 2.0, 2.0)
        wrong = _wrong_verdicts(cls, orc) if orc is not None else []
        sig = _verdict_tuple(cls)
        if wrong:
            return Outcome(failure="WrongVerdict", known=pair.alpha == 0.5,
                           signature=sig, info={"wrong": wrong})
        return Outcome(signature=sig)
    return call


# -- sweep_spectra -------------------------------------------------------

SWEEP_ORDERS = (1.0, 2.0, 4.0)
SWEEP_SIZE = 128


def _sweep_pairs(rng, k: int, poly: list) -> list:
    """Cycle k: nine pairs at alpha = 1.

    The two given polynomial volterra pairs, a volterra Gaussian symbol
    under a contracting map, and six weighted pairs: constant and Gaussian
    weights under contracting maps with b != 0, a constant weight with
    b = 0, a constant weight under a rotation.

    The moduli of the maps, shifts and exponents step with k and the seed
    draws their phases: the cost of a pair follows the moduli, so every
    seed gets the same cost mix.  The weighted pairs cost about half a
    volterra pair, and two of each three ops being weighted keeps
    op_s.p50 inside one cost cluster instead of on the edge between two.
    """

    def step(*values):
        return values[k % len(values)] * _unit(rng)

    def contracting():
        return fk.AffineMap(step(0.3, 0.5, 0.7), step(0.2, 1.0, 0.6))

    def const():
        return fk.Symbol.polynomial([step(0.5, 1.0, 1.5)])

    def gauss():
        return fk.Symbol.exponential(q2=step(0.02, 0.06, 0.1))

    weighted = fk.SymbolPair.weighted
    return [
        poly[0],
        weighted(const(), contracting()),
        weighted(gauss(), contracting()),
        fk.SymbolPair.volterra(fk.Symbol.exponential(q2=step(0.05, 0.1,
                                                             0.15)),
                               fk.AffineMap(step(0.3, 0.5, 0.7))),
        weighted(const(), fk.AffineMap(_unit(rng))),
        weighted(const(), contracting()),
        poly[1],
        weighted(gauss(), contracting()),
        weighted(const(), fk.AffineMap(step(0.3, 0.5, 0.7))),
    ]


def _sweep_spectra(seed: int, cycles: int) -> list:
    """Each cycle holds a degree-1 pair from random_volterra_family and a
    monomial c z^d, d = 2..5 in turn, with a seeded coefficient c.

    A degree >= 2 symbol with seeded lower-order terms sometimes needs
    the 192^2 profile level, whose temporaries set the peak RSS (420 MB
    against 357 MB); with one or two such pairs per run, peak_rss_mb would
    follow the seed.  A monomial converges one level earlier for every
    coefficient.  Random degree >= 2 polynomials run in family_sup.
    """
    rng = _rng(seed, 2)
    ones = _by_degree(_sub_seed(seed, 20), cycles)[1]
    ops = []
    for k in range(cycles):
        coeffs = [0.0] * (2 + k % 4) + [rng.uniform(0.5, 1.5) * _unit(rng)]
        poly = [ones[k % len(ones)],
                fk.SymbolPair.volterra(fk.Symbol.polynomial(coeffs))]
        for j, pair in enumerate(_sweep_pairs(rng, k, poly)):
            ops.append(Op(f"sweep_spectra {pair.kind} #{j}", _sweep_op(pair)))
    return ops


def _sweep_op(pair):
    def call():
        report = fk.consistency_report([pair], 2.0, 2.0, size=SWEEP_SIZE,
                                       schatten_orders=SWEEP_ORDERS)
        entry = report.entries[0]
        summary = entry["spectral"]
        sig = (_verdict_tuple(entry["classified"]), summary.op_norm,
               summary.hs_norm, tuple(report.hs_ratios))
        if report.mismatches:
            return Outcome(failure="WrongVerdict", signature=sig,
                           info={"wrong": [m[1] for m in report.mismatches]})
        return Outcome(signature=sig)
    return call


# -- point_probe ---------------------------------------------------------

PROBE_RADII = 12
PROBE_Q2 = (0.1, 0.2, 0.3, 0.4, 0.45, 0.47, 0.49)
_PROBE_KINDS = ("volterra", "weighted_const", "weighted_gauss")


def _log_const_weight_transform(pair, w: complex) -> float:
    """log B(w) for a constant weight u0 under psi(z) = a z + b, power 2:

        |u0|^q (pi / c) exp(c ((|a|^2 - 1) |w|^2 + 2 Re(b conj(w)))),

    with c = q alpha / 2.
    """
    q = 2.0
    c = 0.5 * q * pair.alpha
    a, b = pair.psi.a, pair.psi.b
    u0 = abs(pair.symbol.poly[0])
    return (q * math.log(u0) + math.log(math.pi / c)
            + c * ((abs(a) ** 2 - 1.0) * abs(w) ** 2
                   + 2.0 * (b * np.conj(w)).real))


def _at_op(kind: str, pair, w: complex):
    def known(exc):
        return (isinstance(exc, fk.NonConvergence)
                and abs(w) * math.sqrt(pair.alpha)
                >= KNOWN_NONCONVERGENCE_SCALED_RADIUS)

    def call():
        value = fk.berezin_at(pair, 2.0, w)
        sig = ("at", value)
        if kind == "weighted_const":
            ref = _log_const_weight_transform(pair, w)
            if value < sys.float_info.min:
                # underflowed to a subnormal or to 0: compare values
                expected = math.exp(ref)
                ok = abs(value - expected) <= 1e-9 * expected + 1e-322
            else:
                ok = (math.isfinite(value) and abs(math.log(value) - ref)
                      <= 1e-9 * max(1.0, abs(ref)))
            return Outcome(signature=sig) if ok else Outcome(
                failure="ValueMismatch", signature=sig,
                info={"value": value, "log_ref": ref})
        if kind == "volterra":
            lower = (SUBHARMONIC_LOWER * math.pi / pair.alpha
                     * float(fk.weight_at(pair, w)) ** 2)
            ok = value >= lower
        else:
            ok = value >= 0.0 and not math.isnan(value)
        return Outcome(signature=sig) if ok else Outcome(
            failure="ValueMismatch", signature=sig, info={"value": value})
    return Op(f"point_probe {kind} a={pair.alpha:g} |w|={abs(w):.3g}",
              call, known)


def _norm_op(fn_name: str, symbol, q2: float):
    def known(exc):
        return isinstance(exc, fk.InvalidIntegrand) and q2 >= KNOWN_INVALID_Q2

    gaussian = symbol.poly == (1 + 0j,)

    def call():
        value = getattr(fk, fn_name)(symbol, 2.0, 1.0)
        sig = (fn_name, value)
        if fn_name == "fock_norm" and gaussian:
            ref = (1.0 - 4.0 * q2 ** 2) ** -0.25
            ok = abs(value - ref) <= 1e-8 * ref
        else:
            ok = math.isfinite(value) and value > 0.0
        return Outcome(signature=sig) if ok else Outcome(
            failure="ValueMismatch", signature=sig, info={"value": value})
    return Op(f"point_probe {fn_name} |q2|={q2:g}", call, known)


def _probe_strata() -> list:
    """One cycle of strata, the same order for every seed.

    The cost of a point follows its radius rung, and the costly rungs are
    a minority.  Each cost class (a rung, or one |q2| of the norms) is
    spread evenly over the cycle, so any stretch of a few dozen ops holds
    the same mix of cheap and costly points, such as the stretch that the
    traced run replays to measure its overhead.
    """
    classes = {}
    for alpha in ALPHAS:
        for i in range(PROBE_RADII):
            for kind in _PROBE_KINDS:
                classes.setdefault(("rung", i), []).append(
                    ("at", kind, alpha, i))
    for q2 in PROBE_Q2:
        for gaussian in (True, False):
            for fn in ("fock_norm", "derivative_functional"):
                classes.setdefault(("norm", q2), []).append(
                    ("norm", fn, gaussian, q2))
    keyed = []
    for c, members in enumerate(classes.values()):
        # scrambled offsets also mix cheap and costly rungs at short range
        offset = (7 * c % len(classes)) / len(classes)
        keyed += [((j + offset) / len(members), stratum)
                  for j, stratum in enumerate(members)]
    return [stratum for _, stratum in sorted(keyed)]


def _point_probe(seed: int, cycles: int) -> list:
    rng = _rng(seed, 3)
    strata = _probe_strata()
    pools = {alpha: iter(fk.random_volterra_family(
        PROBE_RADII * cycles, seed=_sub_seed(seed, 3, i), degree_max=3,
        alpha=alpha)) for i, alpha in enumerate(ALPHAS)}
    ops = []
    for _ in range(cycles):
        for stratum in strata:
            if stratum[0] == "norm":
                _, fn, gaussian, q2 = stratum
                prefactor = [1.0] if gaussian else [
                    rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
                    for _ in range(int(rng.integers(2, 4)))]
                symbol = fk.Symbol(poly=prefactor,
                                   expo=(0, 0, q2 * _unit(rng)))
                ops.append(_norm_op(fn, symbol, q2))
                continue
            _, kind, alpha, i = stratum
            radius = np.geomspace(0.25, 1e3 / math.sqrt(alpha),
                                  PROBE_RADII)[i]
            w = radius * _unit(rng)
            if kind == "volterra":
                pair = next(pools[alpha])
            else:
                psi = fk.AffineMap(rng.uniform(0.2, 0.9) * _unit(rng),
                                   rng.uniform(0.1, 2.0) * _unit(rng))
                if kind == "weighted_const":
                    u = fk.Symbol.polynomial([rng.uniform(0.5, 2.0)
                                              * _unit(rng)])
                else:
                    u = fk.Symbol.exponential(
                        q2=rng.uniform(0.05, 0.2) * alpha * _unit(rng))
                pair = fk.SymbolPair.weighted(u, psi, alpha=alpha)
            ops.append(_at_op(kind, pair, w))
    return ops


# -- cli_cold ------------------------------------------------------------

def _cplx(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _cli_configs(rng) -> list:
    """(command, config name, config) for one cycle, small sizes.

    Symbols have degree 2 or 3.  A classify reaches the deepest profile
    level (253 MB against 89 MB, on the small grid) exactly when the zero
    of g' lies far from the origin (0.8 and beyond; 0.3 and below stays
    shallow), so the two classify configs of a cycle place that zero
    one far and one near: the largest child's RSS and the mix of costs
    do not follow the seed.

    op_s.tail is the 11th costliest op of a run.  The misses of the far
    classify and of sweep, two per cycle, are the costliest; the two
    crosscheck misses of a cycle come next, so that at 4 cycles the tail
    sits inside a cluster of 8 like ops.  With one crosscheck per cycle
    it sat on the edge between those misses and the cheaper misses of the
    near classify, and moved by a fifth between runs.
    """

    def poly():
        return [_cplx(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                for _ in range(int(rng.integers(3, 5)))]

    def gaussian_symbol(lo, hi):
        return {"prefactor": [_cplx(complex(rng.uniform(-1, 1),
                                            rng.uniform(-1, 1)))
                              for _ in range(int(rng.integers(1, 3)))],
                "exponent": [0.0, 0.0, _cplx(rng.uniform(lo, hi)
                                             * _unit(rng))]}

    contracting = {"a": _cplx(rng.uniform(0.3, 0.8) * _unit(rng)),
                   "b": _cplx(rng.uniform(0.1, 1.0) * _unit(rng))}
    const = [_cplx(rng.uniform(0.5, 1.5) * _unit(rng))]
    small_grid = {"radial_count": 6, "angular_count": 4}

    def classify(lo, hi):
        # g = c0 + c1 z + c2 z^2 with the zero of g' at z0, |z0| in [lo, hi]
        c2 = rng.uniform(0.4, 1.0) * _unit(rng)
        z0 = rng.uniform(lo, hi) * _unit(rng)
        c0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return {"kind": "volterra", "symbol": [_cplx(c0),
                                               _cplx(-2.0 * c2 * z0),
                                               _cplx(c2)],
                "p": 2.0, "q": 2.0,
                "grid": {"radial_count": 12, "angular_count": 8}}

    return [
        ("berezin", "berezin", {"kind": "volterra", "symbol": poly(),
                                "power": 2.0, "grid": small_grid}),
        ("norm", "norm", {"symbol": gaussian_symbol(0.05, 0.4), "p": 2.0}),
        ("classify", "classify", classify(0.8, 1.5)),
        # r_min = 0 passes validation and escapes as a ValueError
        # traceback (ROADMAP item 5)
        ("berezin", "berezin_rmin0", {"kind": "volterra", "symbol": poly(),
                                      "power": 2.0,
                                      "grid": {**small_grid, "r_min": 0}}),
        ("schatten", "schatten", {"kind": "weighted", "symbol": const,
                                  "map": contracting, "size": 32}),
        # |q2| at the top of the range: the norm integrand overflows
        # before its Gaussian factor is folded in (ROADMAP item 2)
        ("norm", "norm_edge", {"symbol": gaussian_symbol(0.47, 0.49),
                               "p": 2.0}),
        ("sweep", "sweep", {"pairs": [{"kind": "weighted", "symbol": const,
                                       "map": contracting}],
                            "size": 16, "orders": [2.0]}),
        ("crosscheck", "crosscheck", {"kind": "volterra", "symbol": poly(),
                                      "size": 8}),
        ("classify", "classify2", classify(0.05, 0.3)),
        ("crosscheck", "crosscheck2", {"kind": "volterra",
                                       "symbol": poly(), "size": 8}),
    ]


# Configs that reproduce a documented CLI defect, with the exception
# their traceback names.
_KNOWN_CLI_DEFECTS = {"norm_edge": "InvalidIntegrand",
                      "berezin_rmin0": "ValueError"}


class CliContext:
    """Where the CLI children run, and the tracer whose counters they feed."""

    def __init__(self, root: Path, run_dir: Path):
        self.root = root
        self.run_dir = run_dir
        self.tracer = None
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.env = env

    def run(self, command: str, config: Path, cache: Path):
        args = [command, "--config", str(config), "--cache", str(cache)]
        counters = None
        if self.tracer is None:
            cmd = [sys.executable, "-m", "fockops.cli", *args]
        else:
            fd, name = tempfile.mkstemp(dir=self.run_dir, suffix=".json")
            os.close(fd)
            counters = Path(name)
            child = Path(__file__).with_name("cli_child.py")
            cmd = [sys.executable, str(child), str(counters), *args]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                  capture_output=True, timeout=150)
        finally:
            if counters is not None:
                if counters.stat().st_size:
                    self.tracer.merge(json.loads(counters.read_text()))
                counters.unlink()
        return proc


class _CliConfig:
    """One config run twice: a miss into a fresh cache, then a hit."""

    def __init__(self, ctx: CliContext, command: str, name: str, path: Path):
        self.ctx = ctx
        self.command = command
        self.name = name
        self.path = path
        self.cache = None
        self.miss_out = None

    def _check(self, phase: str, proc) -> Outcome:
        stderr = proc.stderr.decode(errors="replace")
        hit = "cache hit" in stderr
        info = {"phase": phase, "exit": proc.returncode, "cache_hit": hit}
        sig = (self.name, phase, proc.returncode, hit, proc.stdout)
        if "Traceback" in stderr or proc.returncode not in (0, 2, 3, 4):
            defect = _KNOWN_CLI_DEFECTS.get(self.name)
            known = defect is not None and defect in stderr
            kind = "Traceback" if "Traceback" in stderr else "ExitCode"
            return Outcome(failure=kind, known=known, signature=sig,
                           info=info)
        if proc.returncode == 2:
            # every generated config is valid
            return Outcome(failure="ConfigRejected", signature=sig, info=info)
        if (proc.stdout or proc.returncode != 3) and not _parses(
                self.command, proc.stdout):
            return Outcome(failure="BadArtifact", signature=sig, info=info)
        if phase == "miss":
            # only a run that emitted its artifact is cached
            self.miss_out = proc.stdout or None
            if hit:
                return Outcome(failure="StaleCache", signature=sig, info=info)
        elif self.miss_out is not None and (
                not hit or proc.stdout != self.miss_out):
            return Outcome(failure="CacheMismatch", signature=sig, info=info)
        return Outcome(signature=sig, info=info)

    def miss(self) -> Outcome:
        self.cache = Path(tempfile.mkdtemp(dir=self.ctx.run_dir,
                                           prefix="cache-"))
        self.miss_out = None
        return self._check("miss", self.ctx.run(self.command, self.path,
                                                self.cache))

    def hit(self) -> Outcome:
        outcome = self._check("hit", self.ctx.run(self.command, self.path,
                                                  self.cache))
        shutil.rmtree(self.cache, ignore_errors=True)
        return outcome


def _parses(command: str, stdout: bytes) -> bool:
    text = stdout.decode(errors="replace")
    if command == "berezin":
        return text.startswith("w_re,w_im,value\n")
    try:
        return isinstance(json.loads(text), dict)
    except ValueError:
        return False


def _cli_cold(seed: int, run_dir: Path, root: Path, cycles: int):
    rng = _rng(seed, 4)
    ctx = CliContext(root, run_dir)
    cfg_dir = run_dir / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for k in range(cycles):
        for command, name, data in _cli_configs(rng):
            path = cfg_dir / f"{k:03d}-{name}.json"
            path.write_text(json.dumps(data))
            cfg = _CliConfig(ctx, command, name, path)
            ops.append(Op(f"cli_cold {name} miss", cfg.miss))
            ops.append(Op(f"cli_cold {name} hit", cfg.hit))
    return ops, ctx


# Seconds one cycle of each workload takes on the reference machine
# (2 vCPU, BLAS 1 thread), and what the first cycle of a process takes
# beyond that: point_probe's farthest points build Gauss-Legendre tables
# of thousands of nodes, about 11 s, which later cycles find cached.  A
# run holds a whole number of cycles sized from --seconds with these, so
# the ops of a run, and with them ``attempted`` and ``failed``, depend on
# the seed only.
CYCLE_S = {"family_sup": 9.0, "sweep_spectra": 13.5, "point_probe": 9.0,
           "cli_cold": 6.2}
FIRST_CYCLE_EXTRA_S = {"point_probe": 11.0}


def cycles_for(name: str, seconds: float) -> int:
    extra = FIRST_CYCLE_EXTRA_S.get(name, 0.0)
    return max(1, round((seconds - extra) / CYCLE_S[name]))


def build(name: str, seed: int, run_dir: Path, root: Path, seconds: float):
    """(ops, cli context or None) for one workload: a fixed op list."""
    cycles = cycles_for(name, seconds)
    if name == "family_sup":
        return _family_sup(seed, cycles), None
    if name == "sweep_spectra":
        return _sweep_spectra(seed, cycles), None
    if name == "point_probe":
        return _point_probe(seed, cycles), None
    if name == "cli_cold":
        return _cli_cold(seed, run_dir, root, cycles)
    raise ValueError(f"unknown workload {name!r}")
