"""Workloads of the numrad benchmark: seeded inputs, operations and checks.

A workload is a list of operations repeated in rounds by one closed-loop
client.  Every operation is ``fn(*args)`` on inputs generated here from the
seed, so the program under test only ever sees the generated inputs.  Each
operation carries a check that returns the list of problems found in its
result; an empty list means the result is correct.

Each operation fills a timing slot: ``small`` (the 3x3 reports, n=3
trials, the n=6 sweeps), ``large`` (the 8x8 report, n=8 trials, the n=32
sweep) or ``oracle`` (``radius_oracle`` at n=6).
"""

from __future__ import annotations

import csv
import json
import math
import time
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from numrad import compare_all, radius_oracle, radius_sweep, run_campaign
from numrad.campaign import CampaignConfig
from numrad.ensembles import ENSEMBLES
from numrad.reference import SHIFT_234, SHIFT_342

WORKLOADS = ("report", "fuzz", "radius")
DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REPORT_REFERENCE = REFERENCE_DIR / "report_seed0.json"
FUZZ_REFERENCE = REFERENCE_DIR / "fuzz_seed0.csv"

# Output contracts (Tier-1 values).
SLACK_TOL = 1e-7        # a bound may sit this far below omega
REFERENCE_RTOL = 1e-9   # agreement with values recorded at the baseline
ORACLE_OVER_TOL = 1e-6  # the oracle may exceed the sweep by this much
ORACLE_RTOL = 1e-3      # oracle and sweep agree to this relative distance
ENVELOPE_RTOL = 1e-9    # ||A||/2 <= omega <= ||A||, relative slack

FUZZ_DIMS = (3, 8)
RADIUS_DIMS = (6, 32)
# A 6x6 sweep takes about 7 ms: 16 a round give it hundreds of samples a run.
RADIUS_SMALL_SWEEPS = 16
ORACLE_TRIALS = 10**4


@dataclass(frozen=True)
class Op:
    """One timed operation: ``fn(*args)``, then ``check(result)``."""

    slot: str
    label: str
    fn: Callable
    args: tuple
    check: Callable[[object], list]

    def run(self):
        return self.fn(*self.args)


class Tally:
    """Operations attempted and failed, with the first few problems.

    Operations are timed with ``clock``, which returns seconds.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label: str, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)}")

    def run(self, op):
        """Run one operation, check it, return (seconds, result or None)."""
        t0 = self.clock()
        try:
            result = op.run()
        except Exception:  # a failed operation is counted, the run goes on
            elapsed = self.clock() - t0
            self.record(op.label, [traceback.format_exc(limit=3)])
            return elapsed, None
        elapsed = self.clock() - t0
        self.record(op.label, op.check(result))
        return elapsed, result


def ginibre(seed: int, *stream: int, n: int) -> np.ndarray:
    """Seeded complex Ginibre matrix, independent of numrad's samplers."""
    rng = np.random.default_rng([seed, *stream])
    return (rng.standard_normal((n, n))
            + 1j * rng.standard_normal((n, n))) / math.sqrt(2)


def derived_seed(seed: int, *stream: int) -> int:
    """A 32-bit seed for the program, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def _rel_close(got: float, want: float, rtol: float = REFERENCE_RTOL) -> bool:
    return abs(got - want) <= rtol * max(abs(want), 1e-300)


# ---------------------------------------------------------------------------
# report: the full catalog on the worked examples and an 8x8

def load_report_reference() -> dict:
    return json.loads(REPORT_REFERENCE.read_text(encoding="utf-8"))


def check_report(report, reference: dict | None) -> list:
    """Every bound finite and >= omega - SLACK_TOL; values match the record.

    t* is not compared: it ties on flat objectives.
    """
    problems = []
    omega = report.omega.value
    if not math.isfinite(omega):
        problems.append(f"omega is {omega}")
    for bv in report.bounds:
        if not math.isfinite(bv.value):
            problems.append(f"{bv.id} is {bv.value}")
        elif bv.value < omega - SLACK_TOL:
            problems.append(f"{bv.id} = {bv.value!r} below omega {omega!r}")
    if reference is not None:
        if not _rel_close(omega, reference["omega"]):
            problems.append(f"omega {omega!r} != recorded "
                            f"{reference['omega']!r}")
        got = {bv.id: bv.value for bv in report.bounds}
        for bid, want in reference["bounds"].items():
            if bid not in got or not _rel_close(got[bid], want):
                problems.append(f"{bid} {got.get(bid)!r} != recorded {want!r}")
    return problems


def report_inputs(seed: int, round_index: int) -> list:
    """(slot, name, matrix) of one round of the report workload.

    The two worked examples are the same every round; the 8x8 is fresh, so
    a cache keyed on the input cannot serve it.  The 8x8 runs between the
    two 3x3s, so that their mean spans the round.
    """
    return [("small", "SHIFT_234", SHIFT_234),
            ("large", "ginibre8", ginibre(seed, 8, round_index, n=8)),
            ("small", "SHIFT_342", SHIFT_342)]


def report_round(seed: int, round_index: int, reference: dict) -> list:
    recorded = seed == DEFAULT_SEED and round_index == 0
    ops = []
    for slot, name, a in report_inputs(seed, round_index):
        ref = (reference.get(name)
               if name.startswith("SHIFT") or recorded else None)
        ops.append(Op(slot, f"compare_all {name}", compare_all, (a,),
                      partial(check_report, reference=ref)))
    return ops


# ---------------------------------------------------------------------------
# fuzz: one-trial campaigns, round-robin over ensembles and dimensions

def load_fuzz_reference() -> dict:
    """Recorded rows keyed by (round, ensemble, dim)."""
    with FUZZ_REFERENCE.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {(int(rec[0]), rec[1], int(rec[2])): ",".join(rec[3:])
                for rec in reader}


def _cells_close(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    if want.lstrip("-").isdigit():  # trial index and trial seed
        return False
    if math.isnan(w):
        return math.isnan(g)
    return _rel_close(g, w)


def check_fuzz(result, reference_row: str | None) -> list:
    """No violation rows; cells match the recorded row when there is one."""
    lines, violations = result
    row = lines[-1]
    problems = []
    if violations or row.rsplit(",", 1)[1]:
        problems.append(f"violation row: {row}")
    if reference_row is not None:
        got, want = row.split(","), reference_row.split(",")
        if len(got) != len(want) or not all(map(_cells_close, got, want)):
            problems.append(f"row {row} != recorded {reference_row}")
    return problems


def fuzz_configs(seed: int, round_index: int) -> list:
    """(round, ensemble, dim, config) of a round; `numrad fuzz` grids."""
    return [(round_index, ens, dim,
             CampaignConfig(ensemble=ens, dim=dim, trials=1,
                            seed=derived_seed(seed, round_index, k, dim)))
            for k, ens in enumerate(ENSEMBLES) for dim in FUZZ_DIMS]


def fuzz_round(seed: int, round_index: int, reference: dict) -> list:
    ops = []
    for *ident, config in fuzz_configs(seed, round_index):
        ref = reference.get(tuple(ident)) if seed == DEFAULT_SEED else None
        ops.append(Op("small" if config.dim == FUZZ_DIMS[0] else "large",
                      f"trial {config.ensemble} n={config.dim}",
                      run_campaign, (config,),
                      partial(check_fuzz, reference_row=ref)))
    return ops


# ---------------------------------------------------------------------------
# radius: the sweep alone at two sizes, and the sampling oracle

def check_sweep(estimate, norm_a: float) -> list:
    """omega lies in the envelope [||A||/2, ||A||]."""
    w = estimate.value
    slack = ENVELOPE_RTOL * norm_a
    if not (math.isfinite(w) and norm_a / 2 - slack <= w <= norm_a + slack):
        return [f"omega {w!r} outside [{norm_a / 2!r}, {norm_a!r}]"]
    return []


def check_oracle(estimate, a) -> list:
    """The oracle is at most the sweep + 1e-6 and within 1e-3 relative."""
    sweep = radius_sweep(a).value
    got = estimate.value
    problems = []
    if got > sweep + ORACLE_OVER_TOL:
        problems.append(f"oracle {got!r} above sweep {sweep!r}")
    if abs(got - sweep) > ORACLE_RTOL * sweep:
        problems.append(f"oracle {got!r} not within {ORACLE_RTOL} of "
                        f"sweep {sweep!r}")
    return problems


def _sweep_op(slot: str, a: np.ndarray) -> Op:
    return Op(slot, f"radius_sweep n={a.shape[0]}", radius_sweep, (a,),
              partial(check_sweep, norm_a=float(np.linalg.norm(a, 2))))


def radius_round(seed: int, round_index: int, _reference=None) -> list:
    """RADIUS_SMALL_SWEEPS sweeps of fresh n=6 matrices, half before and
    half after the n=32 sweep, then the oracle on the first n=6 matrix."""
    small_n, large_n = RADIUS_DIMS
    smalls = [ginibre(seed, round_index, small_n, k, n=small_n)
              for k in range(RADIUS_SMALL_SWEEPS)]
    large = ginibre(seed, round_index, large_n, n=large_n)
    half = RADIUS_SMALL_SWEEPS // 2
    ops = ([_sweep_op("small", a) for a in smalls[:half]]
           + [_sweep_op("large", large)]
           + [_sweep_op("small", a) for a in smalls[half:]])
    ops.append(Op("oracle", f"radius_oracle n={small_n}", radius_oracle,
                  (smalls[0], ORACLE_TRIALS, derived_seed(seed, round_index)),
                  partial(check_oracle, a=smalls[0])))
    return ops


# ---------------------------------------------------------------------------

_ROUNDS = {"report": (report_round, load_report_reference),
           "fuzz": (fuzz_round, load_fuzz_reference),
           "radius": (radius_round, dict)}


def round_builder(workload: str) -> Callable[[int, int], list]:
    """Return ``ops(seed, round_index)`` for a workload, references loaded."""
    make, load = _ROUNDS[workload]
    reference = load()
    return lambda seed, round_index: make(seed, round_index, reference)


def build_inputs(workload: str, seed: int) -> list:
    """Arguments of the first round's operations (what set-up builds)."""
    make, _ = _ROUNDS[workload]
    return [op.args for op in make(seed, 0, {})]
