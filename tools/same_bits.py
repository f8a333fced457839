"""Digests of numrad's outputs, to show that a change keeps their bits.

Prints one line per output: a label and the first 8 hex digits of the
sha256 of the output's text.  The outputs are:

- repr(compare_all(a, t_grid, theta_grid, refine)) on SHIFT_234,
  SHIFT_342, five ensembles at n = 2, 5 and 8, a 4x4 Ginibre G at extreme
  scales, and edge inputs, at four settings; after each digest, a line
  that starts with "values" and digests omega and each bound's (id,
  t_used, value), details left out, a line that starts with
  "evaluations" and gives the number of scalar evaluations of every
  weighted bound in that report, a line that starts with "angles"
  and gives the number of theta-grid angles that report solved (the rows
  of every radius._top stack: grid stages and lower ends), and a
  line that starts with "steps" and gives the number of single-matrix
  steps of the theta-refinements (the radius._lambda_max_rotated calls of
  Brent's method and the radius._newton_step calls of Newton's);
- repr of radius_sweep(a, theta_grid, refine) and of pruned_sweep at the
  same settings, on the same matrices;
- the CSV of run_campaign (20 trials, seed 7) on each ensemble at dim 3
  and 6, as `numrad fuzz --output` writes it;
- numrad bounds in json, table and csv on SHIFT_234, in json on SHIFT_342
  and on an 8x8 Ginibre, numrad radius --oracle-trials 100 on the same
  three, and numrad reproduce-examples; a command that fails stops the
  script with an AssertionError.

Run as a script, it also stops at a RuntimeWarning from any numrad module
(an overflow or invalid value that numrad's error state should have
silenced), which it turns into an error.

The digests depend on the numpy and BLAS builds, so none is pinned here.
Run the script on two checkouts on one host and diff what it prints:

    PYTHONPATH=src python tools/same_bits.py > after.txt

Moved bits show in the digest lines, moved values alone in the "values"
lines, and moved work in the "evaluations", "angles" and "steps" lines:
`grep ^values` compares values, `grep '^evaluations\|^angles\|^steps'`
compares work, and `grep -v '^evaluations\|^angles\|^steps'` leaves the
digests.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import warnings

import numpy as np
from click.testing import CliRunner

from numrad import bounds, radius
from numrad.campaign import CampaignConfig, run_campaign
from numrad.cli import main
from numrad.ensembles import ENSEMBLES, ginibre, sample
from numrad.matrixio import serialize_matrix
from numrad.radius import pruned_sweep, radius_sweep
from numrad.reference import SHIFT_234, SHIFT_342

# (t_grid, theta_grid, refine) of the compare_all reports
SETTINGS = [(1001, 720, True), (9, 240, False), (101, 360, True),
            (201, 17, True)]
SCALES = (1e-200, 1e-150, 1e150, 3e153, 6e153, 1e155)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def matrices() -> dict:
    rng = np.random.default_rng(2026)
    mats = {"SHIFT_234": SHIFT_234, "SHIFT_342": SHIFT_342}
    for ens in ENSEMBLES:
        for n in (2, 5, 8):
            mats[f"{ens}-{n}"] = sample(ens, n, rng)
    g = ginibre(np.random.default_rng(4), 4)
    for scale in SCALES:
        mats[f"G*{scale:g}"] = scale * g
    h = ginibre(np.random.default_rng(611), 5)
    mats["jordan"] = np.array([[0, 1], [0, 0]], dtype=complex)
    mats["zero"] = np.zeros((3, 3), dtype=complex)
    mats["1x1"] = np.array([[2 - 1j]])
    mats["rank-two"] = h[:, :2] @ h[:2, :]
    return mats


def count_scalar_evaluations() -> dict:
    """Count, per weighted bound, its evaluations, by wrapping its catalog
    entry."""
    counts = dict.fromkeys(sorted(bounds.T_DEPENDENT_IDS), 0)
    for bid in counts:
        fn, t_dependent = bounds._BOUNDS[bid]

        def counted(ctx, t, fn=fn, bid=bid):
            counts[bid] += 1
            return fn(ctx, t)
        bounds._BOUNDS[bid] = (counted, t_dependent)
    return counts


def count_angles() -> list:
    """Count the theta-grid angles solved, by wrapping radius._top; the
    count is the list's one item."""
    angles = [0]
    top = radius._top

    def counted(a, phases):
        angles[0] += int(np.prod(a.shape[:-2])) * phases.size
        return top(a, phases)
    radius._top = counted
    return angles


def count_steps() -> list:
    """Count the single-matrix steps of the theta-refinements, by wrapping
    radius._lambda_max_rotated (Brent's method) and radius._newton_step;
    the count is the list's one item."""
    steps = [0]
    for name in ("_lambda_max_rotated", "_newton_step"):
        def counted(a, theta, *args, step=getattr(radius, name)):
            steps[0] += 1
            return step(a, theta, *args)
        setattr(radius, name, counted)
    return steps


def reports() -> None:
    counts = count_scalar_evaluations()
    angles = count_angles()
    steps = count_steps()
    for name, a in matrices().items():
        for t_grid, theta_grid, refine in SETTINGS:
            for bid in counts:
                counts[bid] = 0
            angles[0] = steps[0] = 0
            report = bounds.compare_all(a, t_grid, theta_grid, refine)
            evals = " ".join(f"{bid}={k}" for bid, k in counts.items())
            label = f"{name} {t_grid}/{theta_grid}/{'on' if refine else 'off'}"
            values = sorted((bv.id, bv.t_used, bv.value)
                            for bv in report.bounds)
            print(f"compare_all {label} {digest(repr(report))}")
            print(f"values compare_all {label} "
                  f"{digest(repr((report.omega.value, values)))}")
            print(f"evaluations compare_all {label} {evals}")
            print(f"angles compare_all {label} {angles[0]}")
            print(f"steps compare_all {label} {steps[0]}")


def sweeps() -> None:
    for name, a in matrices().items():
        for _, theta_grid, refine in SETTINGS:
            on = "on" if refine else "off"
            for sweep in (radius_sweep, pruned_sweep):
                est = sweep(a, theta_grid, refine)
                print(f"{sweep.__name__} {name} {theta_grid}/{on} "
                      f"{digest(repr(est))}")


def campaigns() -> None:
    for ens in ENSEMBLES:
        for dim in (3, 6):
            lines, _ = run_campaign(CampaignConfig(ens, dim, 20, 7))
            csv = "".join(line + "\n" for line in lines)
            print(f"campaign {ens}-{dim} {digest(csv)}")


def cli() -> None:
    runner = CliRunner()

    def run(*args) -> str:
        # a crash of a command fails the script, not only its digest
        out = runner.invoke(main, args)
        assert out.exit_code == 0 and out.exception is None, (args, out)
        return out.output

    with tempfile.TemporaryDirectory() as tmp:
        inputs = [("SHIFT_234", SHIFT_234, ("json", "table", "csv")),
                  ("SHIFT_342", SHIFT_342, ("json",)),
                  ("ginibre-8", ginibre(np.random.default_rng(2026), 8),
                   ("json",))]
        for name, a, fmts in inputs:
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "wb") as fh:
                fh.write(serialize_matrix(a))
            for fmt in fmts:
                out = run("bounds", path, "--format", fmt)
                print(f"numrad bounds {name} {fmt} {digest(out)}")
            out = run("radius", path, "--oracle-trials", "100")
            print(f"numrad radius {name} {digest(out)}")
    out = run("reproduce-examples")
    print(f"numrad reproduce-examples {digest(out)}")


if __name__ == "__main__":
    warnings.filterwarnings("error", category=RuntimeWarning,
                            module=r"numrad(\.|$)")
    reports()
    sweeps()
    campaigns()
    cli()
