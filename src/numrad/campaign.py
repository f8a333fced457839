"""Seeded fuzz campaigns: soundness of every bound plus the pointwise suite.

One CSV row per trial.  Trial i is seeded by splitmix64(seed, i) alone,
so its row depends only on (config, i), and the CSV is byte-identical for
a fixed config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pointwise
from .bounds import CATALOG_IDS, T_GRID_MIN, compare_all
from .ensembles import ENSEMBLES, sample, trial_rng
from .polar import T_MIN, _Spectral
from .radius import THETA_GRID_MIN, check_count, check_integer, splitmix64

TOL_SLACK = 1e-7       # bound soundness vs the sweep omega, relative to it
# Amer's rhs is an upper end (no sweep error can fail it); its lhs, an
# eigenvalue of the non-normal AB + CD, rounds with its condition number.
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
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}; the "
                             f"ensembles are {', '.join(ENSEMBLES)}")
        check_integer("seed", self.seed)
        check_count("trials", self.trials, 1)
        check_count("dim", self.dim, 1)
        check_count("t_grid", self.t_grid, T_GRID_MIN)
        check_count("theta_grid", self.theta_grid, THETA_GRID_MIN)


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


def _pointwise_violations(core: _Spectral, rng) -> list[str]:
    a = core.a
    n = a.shape[0]
    tol = pointwise.TOL_PT
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b, c, d = (sample("ginibre", n, rng) for _ in range(3))
    t = rng.uniform(T_MIN, 1 - T_MIN)
    r = rng.uniform(0.05, 3.0)
    s, u = sorted(rng.uniform(0.05, 1.0, size=2))
    p, q = core.eigen(), core.eigen(adjoint=True)
    checks = [
        ("kato", pointwise.kato(core, x, y, t), tol),
        ("mccarthy", pointwise.mccarthy(core.eigen(2.0), x, r), tol),
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
    """Run one trial on one SVD of A: every bound, then the pointwise suite."""
    rng = trial_rng(config.seed, index)
    core = _Spectral(sample(config.ensemble, config.dim, rng))
    report = compare_all(core, t_grid=config.t_grid,
                         theta_grid=config.theta_grid, refine=False)
    by_id = {bv.id: bv for bv in report.bounds}
    floor = -TOL_SLACK * report.omega.value
    violations = [bid for bid in CATALOG_IDS
                  if report.slacks.get(bid, 0.0) < floor
                  or not np.isfinite(by_id[bid].value)]
    violations += _pointwise_violations(core, rng)
    return TrialRecord(
        index=index, seed=splitmix64(config.seed, index),
        omega=report.omega.value,
        values=tuple(by_id[bid].value for bid in CATALOG_IDS),
        min_slack=min(report.slacks.values(), default=float("nan")),
        violations=tuple(violations))


def run_campaign(config: CampaignConfig):
    """Run all trials in order; returns (csv_lines, violation_count).

    csv_lines includes the header row.  Each row depends only on (config,
    trial index), so output is deterministic for a fixed config.
    """
    records = [run_trial(config, i) for i in range(config.trials)]
    violation_count = sum(1 for r in records if r.violations)
    return ([",".join(CSV_COLUMNS)] + [_row(r) for r in records],
            violation_count)
