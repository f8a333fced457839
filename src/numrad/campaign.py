"""Seeded fuzz campaigns: soundness of every bound plus the pointwise suite.

One CSV row per trial.  Trials are seeded independently through
splitmix64, so output is byte-identical for a fixed config regardless of
how trials are scheduled.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import pointwise
from .bounds import CATALOG_IDS, compare_all
from .ensembles import sample, trial_rng
from .polar import T_MIN, _Spectral
from .radius import check_count, splitmix64

TOL_SLACK = 1e-7       # bound soundness vs the sweep omega
# Amer's lhs is an eigenvalue of the non-normal AB + CD, whose rounding
# grows with the eigenvalue's condition number.
TOL_AMER = 1e-5

CSV_COLUMNS = ("trial", "seed", "omega") + CATALOG_IDS + ("min_slack",
                                                          "violations")


@dataclass(frozen=True)
class CampaignConfig:
    ensemble: str
    dim: int
    trials: int
    seed: int
    t_grid: int = 9
    theta_grid: int = 240

    def __post_init__(self):
        check_count("trials", self.trials, 1)
        check_count("dim", self.dim, 1)
        check_count("t_grid", self.t_grid, 1)
        check_count("theta_grid", self.theta_grid, 8)


@dataclass(frozen=True)
class TrialRecord:
    """The outcome of one trial: one CSV row before rendering."""

    index: int
    seed: int
    omega: float
    values: tuple  # one per CATALOG_IDS entry
    min_slack: float
    violations: tuple  # names of the violated bounds and checks


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _row(record: TrialRecord) -> str:
    """The CSV row of a trial (no trailing newline)."""
    cells = [str(record.index), str(record.seed), _fmt(record.omega)]
    cells += [_fmt(v) for v in record.values]
    cells += [_fmt(record.min_slack), ";".join(record.violations)]
    return ",".join(cells)


def _pointwise_violations(a, rng) -> list[str]:
    n = a.shape[0]
    tol = pointwise.TOL_PT
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b, c, d = (sample("ginibre", n, rng) for _ in range(3))
    t = rng.uniform(T_MIN, 1 - T_MIN)
    r = rng.uniform(0.05, 3.0)
    s, u = sorted(rng.uniform(0.05, 1.0, size=2))
    core = _Spectral(a)
    p, q = core.xpow(1.0), core.ypow(1.0)
    checks = [
        ("kato", pointwise.kato(core, x, y, t), tol),
        ("mccarthy", pointwise.mccarthy(a.conj().T @ a, x, r), tol),
        ("schwarz-covariance", pointwise.schwarz_covariance(a, b, x), tol),
        ("schwarz-self", pointwise.schwarz_self(a, x), tol),
        ("cs-refinement", pointwise.cs_refinement(a, b, x), tol),
        ("amer", pointwise.amer_bound(a, b, c, d), TOL_AMER),
        ("log-convexity", pointwise.log_convexity(p, q, t), tol),
        ("log-convexity-midpoint",
         pointwise.log_convexity_midpoint(p, q, s, u), tol),
    ]
    return [name for name, chk, ctol in checks if chk.margin < -ctol]


def run_trial(config: CampaignConfig, index: int) -> TrialRecord:
    """Run one trial: every bound's soundness, then the pointwise suite."""
    rng = trial_rng(config.seed, index)
    a = sample(config.ensemble, config.dim, rng)
    report = compare_all(a, t_grid=config.t_grid,
                         theta_grid=config.theta_grid, refine=False)
    by_id = {bv.id: bv for bv in report.bounds}
    violations = [bid for bid in CATALOG_IDS
                  if report.slacks.get(bid, 0.0) < -TOL_SLACK
                  or not np.isfinite(by_id[bid].value)]
    violations += _pointwise_violations(a, rng)
    finite = [s for s in report.slacks.values() if np.isfinite(s)]
    return TrialRecord(
        index=index, seed=splitmix64(config.seed, index),
        omega=report.omega.value,
        values=tuple(by_id[bid].value for bid in CATALOG_IDS),
        min_slack=min(finite) if finite else float("nan"),
        violations=tuple(violations))


def run_campaign(config: CampaignConfig, jobs: int = 1):
    """Run all trials; returns (csv_lines, violation_count).

    csv_lines includes the header row.  Aggregation preserves trial
    order, so output is deterministic for a fixed config.
    """
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(partial(run_trial, config),
                                    range(config.trials), chunksize=4))
    else:
        records = [run_trial(config, i) for i in range(config.trials)]
    violation_count = sum(1 for r in records if r.violations)
    return ([",".join(CSV_COLUMNS)] + [_row(r) for r in records],
            violation_count)
