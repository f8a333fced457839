"""Traced run of the numrad benchmark: per-layer numbers.

The traced run has three parts, all on inputs generated from the seed:

1. Each operation of the workload's first round runs untraced, then again
   with counting wrappers on ``numpy.linalg.{svd,eigh,eigvalsh}`` and a span
   around it.  This gives the eigensolver counts per operation and
   ``trace_overhead_s``.  The wrappers add a cost to every eigensolver call,
   so they are installed only here and no end-to-end number comes from this
   run.
2. Probes time each module's public functions directly (median of repeats).
3. Spans around ``bounds.minimize_over_t``, ``campaign.compare_all``, the
   pointwise checks and ``optimize.golden_max`` (as the calling modules see
   them) give the shares.

Spans are (name, start, end, parent) records kept in memory and written
with the run's results.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from functools import wraps

import numpy as np
from click.testing import CliRunner

import numrad
from numrad import (CATALOG_IDS, T_DEPENDENT_IDS, aluthge, compare_all,
                    frac_power, parse_matrix, polar,
                    radius_oracle, radius_sweep, serialize_matrix,
                    spectral_radius, svd, weight_params)
from numrad import campaign, pointwise
from numrad.cli import main as cli_main
from numrad.reference import SHIFT_234, run_reference_checks

from bench_workloads import (ORACLE_TRIALS, Op, Tally, derived_seed,
                             fuzz_configs, ginibre, round_builder)

PROBE_STREAM = 1_000_003  # keeps probe inputs apart from workload inputs
COUNTED = ("svd", "eigh", "eigvalsh")

# Public single-bound evaluators, by catalog id.
BOUND_EVALUATORS = {
    "classic": numrad.classic_envelope,
    "kitt-sum": numrad.kittaneh_sum,
    "kitt-square": numrad.kittaneh_square,
    "kitt-mixed": numrad.kittaneh_mixed,
    "integral": numrad.integral_bound,
    "integral-refined": numrad.integral_refined,
    "yamazaki": numrad.yamazaki,
    "aluthge-t": numrad.aluthge_weighted,
    "aluthge-half": numrad.aluthge_half,
    "weighted-power": numrad.weighted_power,
    "weighted-r": numrad.weighted_R,
    "product": numrad.product_bound,
    "fourth-power": numrad.fourth_power,
    "schwarz-radius": numrad.schwarz_radius,
}
# Pointwise checks as the campaign names them.
POINTWISE_FUNCS = {
    "kato": "kato", "mccarthy": "mccarthy",
    "schwarz-covariance": "schwarz_covariance",
    "schwarz-self": "schwarz_self", "cs-refinement": "cs_refinement",
    "amer": "amer_bound", "log-convexity": "log_convexity",
    "log-convexity-midpoint": "log_convexity_midpoint",
}


class Tracer:
    """In-memory spans: [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def durations(self, name: str) -> list:
        found = [end - start for n, start, end, _ in self.spans if n == name]
        if not found:
            # A layer metric whose call is gone must be redefined, not read
            # as zero.
            raise LookupError(f"no span named {name!r}")
        return found

    def total(self, prefix: str) -> float:
        found = [end - start for n, start, end, _ in self.spans
                 if n.startswith(prefix)]
        if not found:
            raise LookupError(f"no span named {prefix!r}...")
        return sum(found)

    def child_share(self, child: str, parent: str) -> float:
        """Median over ``parent`` spans of the share their ``child`` spans
        take."""
        self.durations(child)  # raises when no child span was recorded
        shares = []
        for index, (name, start, end, _) in enumerate(self.spans):
            if name == parent:
                inner = sum(e - s for n, s, e, p in self.spans
                            if p == index and n == child)
                shares.append(inner / (end - start))
        return statistics.median(shares)

    @contextmanager
    def timing(self, owner, attr: str, name):
        """Record a span around every call of ``owner.attr``.

        ``name`` is the span name, or a function of the call's first
        argument that returns it, or None for a call that gets no span.
        """
        original = getattr(owner, attr)

        @wraps(original)
        def timed(*args, **kwargs):
            span_name = name(args[0]) if callable(name) else name
            if span_name is None:
                return original(*args, **kwargs)
            with self.span(span_name):
                return original(*args, **kwargs)

        setattr(owner, attr, timed)
        try:
            yield
        finally:
            setattr(owner, attr, original)


@contextmanager
def counting_linalg(counts: Counter):
    """Count numpy.linalg.{svd,eigh,eigvalsh} calls and eigvalsh matrices."""
    originals = {name: getattr(np.linalg, name) for name in COUNTED}

    def wrap(name, fn):
        @wraps(fn)
        def counted(a, *args, **kwargs):
            counts[name] += 1
            if name == "eigvalsh":
                counts["eigvalsh_matrices"] += math.prod(np.shape(a)[:-2])
            return fn(a, *args, **kwargs)
        return counted

    for name, fn in originals.items():
        setattr(np.linalg, name, wrap(name, fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(np.linalg, name, fn)


def median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def rotation_stack(a, grid: int = 720) -> np.ndarray:
    """The (grid, n, n) stack of Re(e^{i theta} A) that the sweep solves."""
    phases = np.exp(2j * np.pi * np.arange(grid) / grid)
    return (phases[:, None, None] * a
            + np.conj(phases)[:, None, None] * a.conj().T) / 2


# ---------------------------------------------------------------------------
# part 1: the workload's first round, untraced and traced

def traced_round(workload: str, seed: int, tally: Tally, tracer: Tracer):
    # Each operation runs untraced and then traced, back to back, so that
    # the host's drift in speed between the two stays small.
    ops = round_builder(workload)(seed, 0)
    counts = Counter()
    overhead = 0.0
    for op in ops:
        untraced, _ = tally.run(op)
        with counting_linalg(counts), tracer.span(f"op:{op.label}"):
            traced, _ = tally.run(op)
        overhead += traced - untraced
    values = {f"matrix.{k}_calls": counts[k] / len(ops) for k in COUNTED}
    values["matrix.eigvalsh_matrices"] = counts["eigvalsh_matrices"] / len(ops)
    values["trace_overhead_s"] = overhead
    return values


# ---------------------------------------------------------------------------
# part 2 and 3: layer probes

def probe_matrix(g: dict) -> dict:
    out = {}
    for n in (3, 8, 32):
        out[f"matrix.svd_s.n{n}"] = median_time(lambda: svd(g[n]), 51)
        stack = rotation_stack(g[n])
        out[f"matrix.eigvalsh720_s.n{n}"] = median_time(
            lambda: np.linalg.eigvalsh(stack), 7)
    psd = g[8].conj().T @ g[8]
    out["matrix.frac_power_s.n8"] = median_time(
        lambda: frac_power(psd, 0.5), 51)
    out["matrix.spectral_radius_s.n8"] = median_time(
        lambda: spectral_radius(g[8]), 51)
    return out


def probe_radius(g: dict, seed: int, tracer: Tracer) -> dict:
    out = {}
    for n in (3, 8, 32):
        out[f"radius.sweep_s.n{n}"] = median_time(
            lambda: radius_sweep(g[n]), 7)
    out["radius.sweep_coarse_s.n8"] = median_time(
        lambda: radius_sweep(g[8], 240, refine=False), 21)
    out["radius.oracle_s.n6"] = median_time(
        lambda: radius_oracle(g[6], ORACLE_TRIALS, seed), 3)
    # Shares come from spans inside the same sweeps, so that the host's
    # drift in speed between two probes does not move them.
    with tracer.timing(numrad.radius, "golden_max", "optimize.golden_max"):
        for _ in range(7):
            with tracer.span("probe:radius_sweep n8"):
                radius_sweep(g[8])
    # Only the 720-stack gets a span: the refinement's ~40 single-matrix
    # calls per sweep stay in the sweep's time, without a span's cost.
    with tracer.timing(np.linalg, "eigvalsh", lambda a: (
            "matrix.eigvalsh720" if np.shape(a)[:-2] == (720,) else None)):
        for _ in range(5):
            with tracer.span("probe:radius_sweep n32"):
                radius_sweep(g[32])
    out["optimize.refine_share.n8"] = tracer.child_share(
        "optimize.golden_max", "probe:radius_sweep n8")
    out["radius.sweep_kernel_share.n32"] = tracer.child_share(
        "matrix.eigvalsh720", "probe:radius_sweep n32")
    return out


def probe_bounds(g: dict, tracer: Tracer) -> dict:
    out = {}
    half = weight_params(0.5)
    for bid in CATALOG_IDS:
        fn = BOUND_EVALUATORS[bid]
        args = (g[8], half) if bid in T_DEPENDENT_IDS else (g[8],)
        out[f"bounds.eval_s.{bid}"] = median_time(lambda: fn(*args), 5)
    # The minimisations are timed inside one report, so that their share
    # of it is not moved by the host's drift in speed.
    with tracer.timing(numrad.bounds, "minimize_over_t",
                       lambda bid: f"bounds.minimize_over_t:{bid}"):
        with tracer.span("bounds.compare_all SHIFT_234"):
            compare_all(SHIFT_234)
    for bid in sorted(T_DEPENDENT_IDS):
        out[f"bounds.minimize_s.{bid}"] = sum(
            tracer.durations(f"bounds.minimize_over_t:{bid}"))
    report_s = tracer.total("bounds.compare_all SHIFT_234")
    out["bounds.aluthge_t_share"] = (out["bounds.minimize_s.aluthge-t"]
                                     / report_s)
    return out


def probe_pointwise_polar(g: dict, seed: int) -> dict:
    rng = np.random.default_rng([seed, PROBE_STREAM, 0])
    a = g[8]
    b, c, d = (ginibre(seed, PROBE_STREAM, 8, k, n=8) for k in (1, 2, 3))
    x, y = (rng.standard_normal(8) + 1j * rng.standard_normal(8)
            for _ in range(2))
    p = polar(a).positive
    q = polar(a.conj().T).positive
    args = {"kato": (a, x, y, 0.3), "mccarthy": (a.conj().T @ a, x, 1.7),
            "schwarz-covariance": (a, b, x), "schwarz-self": (a, x),
            "cs-refinement": (a, b, x), "amer": (a, b, c, d),
            "log-convexity": (p, q, 0.4),
            "log-convexity-midpoint": (p, q, 0.2, 0.7)}
    out = {}
    for name, func in POINTWISE_FUNCS.items():
        fn = getattr(pointwise, func)
        out[f"pointwise.check_s.{name}"] = median_time(
            lambda: fn(*args[name]), 21)
    out["polar.polar_s.n8"] = median_time(lambda: polar(a), 51)
    out["polar.aluthge_s.n8"] = median_time(lambda: aluthge(a, 0.3), 51)
    return out


def probe_campaign(seed: int, tally: Tally, tracer: Tracer) -> dict:
    """Timed one-trial campaigns with spans on compare_all and pointwise."""
    with ExitStack() as stack:
        stack.enter_context(tracer.timing(campaign, "compare_all",
                                          "campaign.compare_all"))
        for func in POINTWISE_FUNCS.values():
            stack.enter_context(tracer.timing(pointwise, func,
                                              f"pointwise.{func}"))
        for round_index in (0, 1):
            for _, ens, dim, config in fuzz_configs(
                    derived_seed(seed, PROBE_STREAM), round_index):
                op = Op("probe", f"probe trial {ens} n={dim}",
                        campaign.run_campaign, (config,), _no_violation)
                with tracer.span(f"campaign.trial n{dim}"):
                    tally.run(op)
    trials = tracer.total("campaign.trial")
    out = {f"campaign.trial_s.n{n}":
           statistics.median(tracer.durations(f"campaign.trial n{n}"))
           for n in (3, 8)}
    out["campaign.compare_all_share"] = (
        tracer.total("campaign.compare_all") / trials)
    out["campaign.pointwise_share"] = tracer.total("pointwise.") / trials
    return out


def _no_violation(result) -> list:
    return [] if result[1] == 0 else [f"violation row: {result[0][-1]}"]


def probe_io_cli(g: dict, seed: int, tally: Tally, out_dir) -> dict:
    out = {}
    doc = serialize_matrix(g[32])
    out["matrixio.serialize_s.n32"] = median_time(
        lambda: serialize_matrix(g[32]), 21)
    out["matrixio.parse_s.n32"] = median_time(lambda: parse_matrix(doc), 21)
    tally.record("matrixio round trip",
                 [] if np.array_equal(parse_matrix(doc), g[32])
                 else ["parse(serialize(A)) != A"])

    matrix_path = out_dir / "cli_matrix.json"
    matrix_path.write_bytes(serialize_matrix(SHIFT_234))
    runner = CliRunner()
    commands = {
        "cli.bounds_s": ["bounds", str(matrix_path), "--bound", "kitt-sum",
                         "--format", "json"],
        "cli.fuzz_s": ["fuzz", "--ensemble", "ginibre", "--dim", "3",
                       "--trials", "2", "--seed", str(seed),
                       "--output", str(out_dir / "cli_fuzz.csv")],
    }
    for metric, argv in commands.items():
        codes = []
        out[metric] = median_time(
            lambda: codes.append(runner.invoke(cli_main, argv).exit_code), 3)
        tally.record(metric, [f"exit codes {codes}"] if any(codes) else [])
    # The example-2 figure is a known failure; only the time is taken here.
    out["reference.checks_s"] = median_time(run_reference_checks, 3)
    return out


def run_trace(workload: str, seed: int, out_dir):
    """Return (tally, values, units, spans) of the traced run."""
    tally = Tally()
    tracer = Tracer()
    values = traced_round(workload, seed, tally, tracer)
    g = {n: ginibre(seed, PROBE_STREAM, n, n=n) for n in (3, 6, 8, 32)}
    values.update(probe_matrix(g))
    values.update(probe_radius(g, seed, tracer))
    values.update(probe_bounds(g, tracer))
    values.update(probe_pointwise_polar(g, seed))
    values.update(probe_campaign(seed, tally, tracer))
    values.update(probe_io_cli(g, seed, tally, out_dir))
    units = {k: unit_of(k) for k in values}
    return tally, values, units, tracer.spans


def unit_of(name: str) -> str:
    if name.endswith(("_calls", "_matrices")):
        return "count"
    if "share" in name:
        return "ratio"
    return "s"
