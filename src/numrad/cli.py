"""Command-line interface: bound reports, radius, regressions, fuzzing."""

from __future__ import annotations

import json
import math
import sys

import click

from .bounds import CATALOG_IDS, DEFAULT_T_GRID, T_GRID_MIN, compare_all
from .campaign import TOL_SLACK, CampaignConfig, run_campaign
from .ensembles import ENSEMBLES
from .errors import NumradError, ParseError
from .matrixio import parse_matrix
from .radius import (DEFAULT_GRID, THETA_GRID_MIN, radius_oracle,
                     radius_sweep)
from .reference import run_reference_checks


# The smallest grids that minimize_over_t and radius_sweep accept.
T_GRID = click.IntRange(min=T_GRID_MIN)
THETA_GRID = click.IntRange(min=THETA_GRID_MIN)


def _load(path: str):
    try:
        with open(path, "rb") as fh:
            return parse_matrix(fh.read())
    except ParseError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


def _fmt(x: float) -> str:
    return format(x, ".10g")


@click.group()
def main():
    """Numerical radius bounds toolkit."""


@main.command()
@click.argument("matrix_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--bound", "bound_id", default="all",
              type=click.Choice(("all",) + CATALOG_IDS),
              help="Single bound to evaluate, or 'all'.")
@click.option("--t-grid", default=DEFAULT_T_GRID, show_default=True,
              type=T_GRID, help="Grid size for t-optimization.")
@click.option("--theta-grid", default=DEFAULT_GRID, show_default=True,
              type=THETA_GRID, help="Angle grid size for the radius sweep.")
@click.option("--format", "fmt", default="table", show_default=True,
              type=click.Choice(["json", "csv", "table"]))
@click.option("--tol-slack", default=TOL_SLACK, show_default=True,
              help="Slack tolerance used to flag violations.")
def bounds(matrix_path, bound_id, t_grid, theta_grid, fmt, tol_slack):
    """Evaluate upper bounds on the numerical radius of a matrix."""
    a = _load(matrix_path)
    wanted = CATALOG_IDS if bound_id == "all" else (bound_id,)
    report = compare_all(a, t_grid=t_grid, theta_grid=theta_grid, ids=wanted)
    rows = report.bounds
    computed = [bv for bv in rows if math.isfinite(bv.value)]
    if fmt == "json":
        doc = {
            "omega": {"value": report.omega.value,
                      "theta_star": report.omega.theta_star,
                      "grid_points": report.omega.grid_points},
            "bounds": [{"id": bv.id, "t": bv.t_used, "value": bv.value,
                        "slack": report.slacks.get(bv.id),
                        "detail": bv.detail}
                       for bv in rows],
        }
        click.echo(json.dumps(doc, indent=2))
    elif fmt == "csv":
        click.echo("id,t,value,slack")
        for bv in rows:
            t = "" if bv.t_used is None else _fmt(bv.t_used)
            slack = report.slacks.get(bv.id)
            click.echo(f"{bv.id},{t},{_fmt(bv.value)},"
                       f"{'' if slack is None else _fmt(slack)}")
    else:
        click.echo(f"omega = {_fmt(report.omega.value)} "
                   f"(theta* = {_fmt(report.omega.theta_star)})")
        click.echo(f"{'bound':<18}{'t':>10}{'value':>16}{'slack':>14}")
        for bv in rows:
            t = "" if bv.t_used is None else f"{bv.t_used:.4f}"
            slack = report.slacks.get(bv.id)
            flag = " *" if slack is not None and slack < -tol_slack else ""
            click.echo(f"{bv.id:<18}{t:>10}{_fmt(bv.value):>16}"
                       f"{'' if slack is None else _fmt(slack):>14}{flag}")
    if not computed:
        sys.exit(2)


@main.command()
@click.argument("matrix_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--theta-grid", default=DEFAULT_GRID, show_default=True,
              type=THETA_GRID)
@click.option("--oracle-trials", default=0, show_default=True,
              type=click.IntRange(min=0),
              help="Also run the sampling oracle with this many trials.")
@click.option("--seed", default=0, envvar="NUMRAD_SEED", show_default=True)
def radius(matrix_path, theta_grid, oracle_trials, seed):
    """Compute the numerical radius by angle sweep."""
    a = _load(matrix_path)
    est = radius_sweep(a, grid_points=theta_grid)
    click.echo(f"omega = {_fmt(est.value)}")
    click.echo(f"theta_star = {_fmt(est.theta_star)}")
    click.echo(f"refine_width = {est.refine_width:.3e}")
    if oracle_trials > 0:
        orc = radius_oracle(a, oracle_trials, seed)
        click.echo(f"oracle = {_fmt(orc.value)} "
                   f"({orc.trials} trials, seed {orc.seed})")


@main.command(name="reproduce-examples")
def reproduce_examples():
    """Re-derive the built-in regression figures and report pass/fail."""
    checks = run_reference_checks()
    for chk in checks:
        click.echo(chk.line())
    if not all(chk.passed for chk in checks):
        sys.exit(1)


@main.command()
@click.option("--ensemble", required=True, type=click.Choice(ENSEMBLES))
@click.option("--dim", required=True, type=click.IntRange(min=1))
@click.option("--trials", required=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, envvar="NUMRAD_SEED", show_default=True)
@click.option("--jobs", default=1, show_default=True,
              type=click.IntRange(min=1))
@click.option("--t-grid", default=CampaignConfig.t_grid, show_default=True,
              type=T_GRID)
@click.option("--theta-grid", default=CampaignConfig.theta_grid,
              show_default=True, type=THETA_GRID)
@click.option("--output", type=click.File("w", lazy=False), default=None,
              help="Write the CSV report here instead of stdout.")
def fuzz(ensemble, dim, trials, seed, jobs, t_grid, theta_grid, output):
    """Run a seeded soundness campaign; exit 1 if any violation row exists."""
    try:
        config = CampaignConfig(ensemble=ensemble, dim=dim, trials=trials,
                                seed=seed, t_grid=t_grid,
                                theta_grid=theta_grid)
        lines, violations = run_campaign(config, jobs=jobs)
    except NumradError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    text = "\n".join(lines) + "\n"
    click.echo(text, file=output, nl=False)
    if violations:
        click.echo(f"{violations} violation row(s)", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
