import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import numrad
from numrad import (CATALOG_IDS, DimensionMismatch, DomainError, NonFinite,
                    ParseError, bounds, campaign, parse_matrix, reference,
                    serialize_matrix)
from numrad.campaign import (CSV_COLUMNS, TOL_SLACK, CampaignConfig,
                             run_campaign, run_trial)
from numrad.cli import main
from numrad.ensembles import sample
from numrad.radius import pruned_sweep

from conftest import EXAMPLE1, ginibre


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def example1_path(tmp_path):
    path = tmp_path / "example1.json"
    path.write_bytes(serialize_matrix(EXAMPLE1))
    return str(path)


def test_parse_json_round_trip(rng):
    a = ginibre(rng, 5)
    assert np.array_equal(parse_matrix(serialize_matrix(a)), a)


def test_serialize_round_trips_every_finite_entry():
    # parse_matrix accepts entries that matrix.fits would reject
    a = np.array([[1.7976931348623157e308 - 5e-324j]])
    assert np.array_equal(parse_matrix(serialize_matrix(a)), a)


@pytest.mark.parametrize("m, match", [
    (np.ones((2, 3)), "square"), (np.ones(3), "square"),
    (np.zeros((0, 0)), "nonempty"), (np.array([[1, np.nan], [0, 1]]),
                                     "non-finite"),
    (np.array([[complex(0, np.inf)]]), "non-finite")])
def test_serialize_rejects_what_parse_would_not_read_back(m, match):
    with pytest.raises(DomainError, match=match):
        serialize_matrix(m)


def test_parse_csv():
    out = parse_matrix("0, 2, 0\n0, 0, 3\n4, 0, 0\n")
    assert np.array_equal(out, EXAMPLE1)
    # blank lines are skipped
    out = parse_matrix("0, 2, 0\n\n  \n0, 0, 3\n4, 0, 0\n\n")
    assert np.array_equal(out, EXAMPLE1)


def test_parse_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_matrix("{not json")
    with pytest.raises(ParseError, match="missing required field"):
        parse_matrix('{"n": 2}')
    with pytest.raises(DimensionMismatch):
        parse_matrix('{"n": 2, "data": [[[1, 0], [0, 0]]]}')
    with pytest.raises(DimensionMismatch, match="line 2"):
        parse_matrix("1, 2\n3\n")
    with pytest.raises(ParseError, match="not a number"):
        parse_matrix("1, x\n3, 4\n")
    with pytest.raises(ParseError, match="not finite"):
        parse_matrix('{"n": 1, "data": [[[NaN, 0]]]}')
    with pytest.raises(ParseError):
        parse_matrix("")
    with pytest.raises(ParseError, match="'n' must be a positive integer"):
        parse_matrix('{"n": true, "data": [[[1, 0]]]}')
    with pytest.raises(ParseError, match="must be an"):
        parse_matrix('{"n": 1, "data": [[[true, false]]]}')
    with pytest.raises(ParseError, match="not finite"):
        parse_matrix('{"n": 1, "data": [[[1%s, 0]]]}' % ("0" * 400))
    # over the int digit limit, where Python has one (3.10.7 and later)
    with pytest.raises(ParseError, match="invalid JSON|not finite"):
        parse_matrix('{"n": 1, "data": [[[1%s, 0]]]}' % ("0" * 5000))
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_matrix('{"n": 1, "data": %s}' % ("[" * 10**5 + "]" * 10**5))
    with pytest.raises(ParseError, match="not UTF-8"):
        parse_matrix(b"1, 2\n3, \xff\n")
    with pytest.raises(DimensionMismatch, match="row 1 must have 2 entries"):
        parse_matrix('{"n": 2, "data": [[[1, 0], [0, 0]], [[1, 0]]]}')
    for cell in ("inf", "nan"):
        with pytest.raises(ParseError, match="line 2, field 1: value is not "
                                             "finite"):
            parse_matrix(f"1, 2\n{cell}, 4\n")


@pytest.mark.parametrize("encode", [str, str.encode], ids=["str", "bytes"])
def test_parse_matrix_drops_a_utf8_byte_order_mark(encode):
    json_doc = serialize_matrix(EXAMPLE1).decode()
    for doc in (json_doc, "0, 2, 0\n0, 0, 3\n4, 0, 0\n"):
        assert np.array_equal(parse_matrix(encode("\ufeff" + doc)), EXAMPLE1)


def test_cli_bounds_table(runner, example1_path):
    result = runner.invoke(main, ["bounds", example1_path])
    assert result.exit_code == 0
    assert "omega = 3.037" in result.output
    for bid in CATALOG_IDS:
        assert bid in result.output


def test_cli_bounds_json_sound(runner, example1_path):
    result = runner.invoke(main, ["bounds", example1_path, "--format", "json",
                                  "--t-grid", "101"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["omega"]["value"] == pytest.approx(3.0373, abs=1e-3)
    assert len(doc["bounds"]) == len(CATALOG_IDS)
    assert all(b["slack"] >= -1e-7 for b in doc["bounds"])


DETAIL_KEYS = {
    "classic": {"lower"},
    "kitt-sum": set(),
    "kitt-square": {"inner"},
    "kitt-mixed": {"norm_a_squared"},
    "integral": {"inner"},
    "integral-refined": {"inner"},
    "yamazaki": {"omega_aluthge"},
    "aluthge-t": {"inner", "term_pow4", "term_norm", "term_mod", "term_sq",
                  "term_cross", "omega_aluthge", "omega_aluthge_sq"},
    "aluthge-half": {"inner", "term_pow4", "term_norm", "term_mod",
                     "term_sq", "term_cross", "omega_aluthge",
                     "omega_aluthge_sq"},
    "weighted-power": {"inner"},
    "weighted-r": {"inner"},
    "product": {"norm_t", "norm_one_minus_t"},
    "fourth-power": {"inner"},
    "schwarz-radius": {"inner", "omega_a_squared"},
}


def test_cli_bounds_json_detail_keys(runner, example1_path):
    # every detail value of a computed bound reaches the JSON as a number
    result = runner.invoke(main, ["bounds", example1_path, "--format", "json",
                                  "--t-grid", "21", "--theta-grid", "240"])
    assert result.exit_code == 0
    details = {b["id"]: b["detail"] for b in json.loads(result.output)["bounds"]}
    assert {bid: set(d) for bid, d in details.items()} == DETAIL_KEYS
    for detail in details.values():
        assert all(type(v) is float for v in detail.values())


def _flagged_rows(runner, path):
    """The ids of the rows that `numrad bounds` marks below omega."""
    result = runner.invoke(main, ["bounds", path, "--t-grid", "21",
                                  "--theta-grid", "240"])
    assert result.exit_code == 0
    rows = result.output.splitlines()[2:]
    assert len(rows) == len(CATALOG_IDS)
    return [row.split()[0] for row in rows if row.endswith(" *")]


def _below_omega(ctx, t):
    return ctx.sweep("a", 1.0, ctx.a) * (1 - 2 * TOL_SLACK), {}


def test_cli_bounds_json_writes_strict_json(runner, tmp_path):
    # at 1e300 the squared forms overflow: their error rows' values and
    # the infinite details are null, as JSON has no NaN or Infinity
    path = tmp_path / "huge.json"
    path.write_bytes(serialize_matrix(1e300 * np.eye(2, dtype=complex)))
    result = runner.invoke(main, ["bounds", str(path), "--format", "json",
                                  "--t-grid", "21", "--theta-grid", "240"])
    assert result.exit_code == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads(result.output, parse_constant=reject)
    rows = {b["id"]: b for b in doc["bounds"]}
    assert rows["classic"]["value"] == 1e300
    assert rows["product"]["value"] is None
    assert "error" in rows["product"]["detail"]
    assert rows["kitt-mixed"]["detail"]["norm_a_squared"] is None


def test_cli_bounds_table_flags_a_bound_below_omega(runner, example1_path,
                                                   monkeypatch):
    monkeypatch.setitem(bounds._BOUNDS, "kitt-sum", (_below_omega, False))
    assert _flagged_rows(runner, example1_path) == ["kitt-sum"]


def test_cli_bounds_table_marks_no_rounding_at_a_large_scale(runner,
                                                             tmp_path):
    # the mark compares the slack with omega's scale, so the rounding of
    # bounds equal to omega = 1e150 is not marked
    path = tmp_path / "large.json"
    path.write_bytes(serialize_matrix(1e150 * np.eye(2, dtype=complex)))
    assert _flagged_rows(runner, str(path)) == []


def test_cli_bounds_table_shows_why_a_bound_failed(runner, tmp_path):
    # at 1e150 every evaluation of schwarz-radius overflows: its row reads
    # nan, and is marked with the error
    path = tmp_path / "large.json"
    path.write_bytes(serialize_matrix(1e150 * np.eye(2, dtype=complex)))
    result = runner.invoke(main, ["bounds", str(path), "--t-grid", "21",
                                  "--theta-grid", "240"])
    assert result.exit_code == 0
    rows = {row.split()[0]: row for row in result.output.splitlines()[2:]}
    cells = rows.pop("schwarz-radius").split(maxsplit=3)
    assert cells[1:] == ["nan", "!", "schwarz-radius: all grid evaluations "
                         "overflowed (e.g. t=0.001)"]
    assert not any(" ! " in row for row in rows.values())


def test_cli_bounds_csv_sends_why_a_bound_failed_to_stderr(runner, tmp_path):
    # the CSV's columns are fixed: its row stays a bare nan, and the error
    # goes to stderr
    path = tmp_path / "large.json"
    path.write_bytes(serialize_matrix(1e150 * np.eye(2, dtype=complex)))
    result = runner.invoke(main, ["bounds", str(path), "--format", "csv",
                                  "--t-grid", "21", "--theta-grid", "240"])
    assert result.exit_code == 0
    header, *rows = result.stdout.splitlines()
    assert header == "id,t,value,slack" and len(rows) == len(CATALOG_IDS)
    assert rows[-1] == "schwarz-radius,,nan,"
    assert result.stderr == ("error: schwarz-radius: all grid evaluations "
                             "overflowed (e.g. t=0.001)\n")


def test_cli_bounds_exits_2_when_no_bound_is_finite(runner, tmp_path):
    # at 1e300 product's every evaluation overflows
    path = tmp_path / "huge.json"
    path.write_bytes(serialize_matrix(1e300 * np.eye(2, dtype=complex)))
    result = runner.invoke(main, ["bounds", str(path), "--bound", "product",
                                  "--format", "csv", "--t-grid", "21",
                                  "--theta-grid", "240"])
    assert result.exit_code == 2
    assert result.stdout.splitlines()[1] == "product,,nan,"
    assert result.stderr.startswith("error: product: ")


def test_cli_bounds_table_flags_a_bound_below_omega_at_a_small_scale(
        runner, tmp_path, monkeypatch):
    path = tmp_path / "small.json"
    path.write_bytes(serialize_matrix(1e-150 * EXAMPLE1))
    monkeypatch.setitem(bounds._BOUNDS, "kitt-sum", (_below_omega, False))
    # schwarz-radius, which underflows at this scale, may be marked too
    assert "kitt-sum" in _flagged_rows(runner, str(path))


def test_cli_bounds_table_columns_split_at_a_small_scale(runner, tmp_path):
    path = tmp_path / "tiny.json"
    path.write_bytes(serialize_matrix(
        1e-200 * ginibre(np.random.default_rng(4), 4)))
    result = runner.invoke(main, ["bounds", str(path)])
    assert result.exit_code == 0
    header, *rows = result.output.splitlines()[1:]
    assert header.split() == ["bound", "t", "value", "slack"]
    assert len(rows) == len(CATALOG_IDS)
    for row in rows:
        cells = row.split()
        if cells[-1] == "*":
            cells.pop()
        bid, *numbers = cells
        assert bid in CATALOG_IDS
        # t is printed for the weighted bounds only
        assert len(numbers) == (3 if bid in bounds.T_DEPENDENT_IDS else 2)
        value, slack = (float(x) for x in numbers[-2:])
        assert value >= 0 and np.isfinite(slack)


def test_cli_bounds_single(runner, example1_path):
    result = runner.invoke(main, ["bounds", example1_path,
                                  "--bound", "kitt-sum", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "id,t,value,slack"
    assert len(lines) == 2
    assert lines[1].startswith("kitt-sum,,3.5,")


def test_cli_bounds_bad_file(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "data": []}')
    result = runner.invoke(main, ["bounds", str(bad)])
    assert result.exit_code == 2
    bad.write_text('{"n": true, "data": [[[1, 0]]]}')
    result = runner.invoke(main, ["bounds", str(bad)])
    assert result.exit_code == 2
    assert "error: field 'n'" in result.output


@pytest.mark.parametrize("command", ["bounds", "radius"])
def test_cli_rejects_a_matrix_whose_norm_overflows(runner, tmp_path,
                                                   command):
    # the document parses, but its matrix does not fit (matrix.fits): an
    # error line and exit 2, as for a document that does not parse, not a
    # traceback and exit 1, which fuzz keeps for violation rows
    path = tmp_path / "huge.json"
    path.write_bytes(serialize_matrix([[1e308, 1e308], [0, 0]]))
    result = runner.invoke(main, [command, str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: matrix norm overflows")


def test_cli_radius(runner, example1_path):
    result = runner.invoke(main, ["radius", example1_path,
                                  "--oracle-trials", "50"],
                           env={"NUMRAD_SEED": "11"})
    assert result.exit_code == 0
    # pruned_sweep's estimate, refined by Newton steps: its refine_width
    # is the last step's length, and its omega lies within 1e-14 relative
    # of radius_sweep's
    est = pruned_sweep(EXAMPLE1)
    assert result.output.splitlines()[:3] == [
        f"omega = {est.value:.10g}", f"theta_star = {est.theta_star:.10g}",
        f"refine_width = {est.refine_width:.3e}"]
    assert est.value == pytest.approx(numrad.radius_sweep(EXAMPLE1).value,
                                      rel=1e-14)
    assert "omega = 3.037" in result.output
    assert "seed 11" in result.output
    result = runner.invoke(main, ["radius", example1_path,
                                  "--oracle-trials", "10", "--seed", "-1"])
    assert result.exit_code == 0
    assert "(10 trials, seed -1)" in result.output


def test_cli_fuzz_clean(runner, tmp_path):
    out = tmp_path / "report.csv"
    args = ["fuzz", "--ensemble", "ginibre", "--dim", "3", "--trials", "5",
            "--seed", "42", "--output", str(out)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 6
    assert all(line.endswith(",") or line.rsplit(",", 1)[1] == ""
               for line in lines[1:])


def test_cli_fuzz_bad_config(runner):
    result = runner.invoke(main, ["fuzz", "--ensemble", "ginibre",
                                  "--dim", "0", "--trials", "1"])
    assert result.exit_code == 2
    for option, value in (("--t-grid", "0"), ("--t-grid", "-3"),
                          ("--theta-grid", "4"), ("--jobs", "2"),
                          ("--dim", "0"), ("--trials", "0")):
        result = runner.invoke(main, ["fuzz", "--ensemble", "ginibre",
                                      "--dim", "3", "--trials", "1",
                                      option, value])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert option in result.output


def test_cli_fuzz_exits_1_on_a_violation_row(runner, monkeypatch):
    def unsound(ctx, t):
        return 0.5 * ctx.sweep("a", 1.0, ctx.a), {}

    monkeypatch.setitem(bounds._BOUNDS, "kitt-sum", (unsound, None))
    result = runner.invoke(main, ["fuzz", "--ensemble", "ginibre",
                                  "--dim", "3", "--trials", "2"])
    assert result.exit_code == 1
    assert result.stderr == "2 violation row(s)\n"
    assert len(result.stdout.splitlines()) == 3


def test_cli_fuzz_exits_2_on_a_numrad_error(runner, monkeypatch):
    def failing(*args, **kwargs):
        raise NonFinite("a trial overflowed")

    monkeypatch.setattr("numrad.cli.run_campaign", failing)
    result = runner.invoke(main, ["fuzz", "--ensemble", "ginibre",
                                  "--dim", "2", "--trials", "1"])
    assert result.exit_code == 2
    assert result.stderr == "error: a trial overflowed\n"
    assert result.stdout == ""


def test_cli_fuzz_lets_a_programming_error_propagate(runner, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a fault in the campaign")

    monkeypatch.setattr("numrad.cli.run_campaign", broken)
    result = runner.invoke(main, ["fuzz", "--ensemble", "ginibre",
                                  "--dim", "2", "--trials", "1"])
    assert result.exit_code == 1
    assert isinstance(result.exception, ValueError)


def test_cli_fuzz_rejects_an_unwritable_output_before_running(
        runner, tmp_path, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the campaign ran")

    monkeypatch.setattr("numrad.cli.run_campaign", no_run)
    for path in (tmp_path / "missing" / "report.csv", tmp_path):
        result = runner.invoke(main, ["fuzz", "--ensemble", "ginibre",
                                      "--dim", "2", "--trials", "1",
                                      "--output", str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "--output" in result.output
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command, option, value", [
    ("bounds", "--theta-grid", "4"),
    ("bounds", "--t-grid", "0"),
    ("bounds", "--t-grid", "-3"),
    ("radius", "--theta-grid", "4"),
    ("radius", "--oracle-trials", "-5"),
])
def test_cli_rejects_out_of_range_grids(runner, example1_path, command,
                                        option, value):
    result = runner.invoke(main, [command, example1_path, option, value])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert option in result.output


@pytest.mark.parametrize("field, value", [
    ("t_grid", 0), ("t_grid", -3), ("theta_grid", 4), ("theta_grid", 240.5)])
def test_campaign_config_rejects_out_of_range_grids(field, value):
    reason = "an integer" if isinstance(value, float) else "at least"
    with pytest.raises(ValueError, match=f"{field} must be {reason}"):
        CampaignConfig(ensemble="ginibre", dim=3, trials=1, seed=0,
                       **{field: value})


@pytest.mark.parametrize("field, value, match", [
    ("seed", 1.5, "seed must be an integer"),
    ("seed", True, "seed must be an integer"),
    ("seed", "0", "seed must be an integer"),
    ("ensemble", "nope", "unknown ensemble 'nope'")])
def test_campaign_config_rejects_a_bad_seed_or_ensemble(field, value, match):
    fields = {"ensemble": "ginibre", "dim": 3, "trials": 1, "seed": 0}
    with pytest.raises(ValueError, match=match):
        CampaignConfig(**{**fields, field: value})


def test_sample_rejects_an_unknown_ensemble():
    with pytest.raises(ValueError, match="unknown ensemble 'nope'"):
        sample("nope", 3, np.random.default_rng(0))


def test_campaign_config_takes_negative_and_numpy_seeds():
    want, _ = run_campaign(CampaignConfig("ginibre", 3, 1, -5))
    got, _ = run_campaign(CampaignConfig("ginibre", 3, 1, np.int64(-5)))
    assert got == want


def test_campaign_rows_do_not_depend_on_trial_order():
    config = CampaignConfig(ensemble="ginibre", dim=3, trials=6, seed=5)
    first, v1 = run_campaign(config)
    second, v2 = run_campaign(config)
    assert first == second and v1 == v2 == 0
    # trial i depends only on (config, i): run last to first, the trials
    # give the campaign's rows
    backwards = [run_trial(config, i) for i in reversed(range(config.trials))]
    assert [campaign._row(r) for r in reversed(backwards)] == first[1:]


def test_campaign_all_ensembles_sound():
    for ensemble in ("hermitian", "unitary-scaled", "nilpotent",
                     "weighted-cyclic-shift"):
        config = CampaignConfig(ensemble=ensemble, dim=4, trials=3, seed=17)
        _, violations = run_campaign(config)
        assert violations == 0


def test_campaign_counts_an_unsound_bound_in_every_row(monkeypatch):
    def unsound(ctx, t):
        return 0.5 * ctx.sweep("a", 1.0, ctx.a), {}

    monkeypatch.setitem(bounds._BOUNDS, "kitt-sum", (unsound, False))
    config = CampaignConfig(ensemble="ginibre", dim=3, trials=4, seed=5)
    lines, violations = run_campaign(config)
    assert violations == config.trials
    for row in lines[1:]:
        assert "kitt-sum" in row.rsplit(",", 1)[1].split(";")


def test_campaign_flags_a_bound_below_omega_relative_to_omega(monkeypatch):
    # a bound 2 * TOL_SLACK * omega below omega is flagged at every scale,
    # as numrad bounds flags it, also where omega < 1/2
    monkeypatch.setitem(bounds._BOUNDS, "kitt-sum", (_below_omega, False))
    config = CampaignConfig("unitary-scaled", 3, 20, 5)
    records = [run_trial(config, i) for i in range(config.trials)]
    assert min(r.omega for r in records) < 0.5
    assert all("kitt-sum" in r.violations for r in records)


def test_campaign_trial_builds_one_spectral_core(monkeypatch):
    # the report's context and the pointwise checks share the trial's core
    polar = importlib.import_module("numrad.polar")
    calls = []

    def counted(a):
        calls.append(a.shape)
        return svd(a)

    svd = polar._svd
    monkeypatch.setattr(polar, "_svd", counted)
    run_campaign(CampaignConfig(ensemble="ginibre", dim=3, trials=1,
                                seed=5))
    assert calls == [(3, 3)]


def test_campaign_trial_evaluates_each_bound_once_at_each_t(monkeypatch):
    # the report's evaluation at t* is minimize_over_t's, looked up
    calls = []
    for bid, (fn, scan) in bounds._BOUNDS.items():
        def counted(ctx, t, fn=fn, bid=bid):
            calls.append((bid, t))
            return fn(ctx, t)
        monkeypatch.setitem(bounds._BOUNDS, bid, (counted, scan))
    for ens in ("ginibre", "nilpotent", "hermitian"):
        for index in range(3):
            calls.clear()
            run_trial(CampaignConfig(ensemble=ens, dim=3, trials=3, seed=5),
                      index)
            assert {bid for bid, _ in calls} == set(CATALOG_IDS)
            assert len(calls) == len(set(calls)), calls


def test_campaign_trial_decomposes_no_power_base(monkeypatch):
    # mccarthy's A*A, and the P = |A| and Q = |A*| of log_convexity and
    # log_convexity_midpoint, come as HermitianEigens from the trial's one
    # SVD (each was decomposed by hermitian_eigen, five calls a trial)
    calls = []
    modules = [importlib.import_module(f"numrad.{name}")
               for name in ("matrix", "pointwise")]
    hermitian_eigen = modules[0].hermitian_eigen

    def counted(h):
        calls.append(np.shape(h))
        return hermitian_eigen(h)

    for module in modules:
        monkeypatch.setattr(module, "hermitian_eigen", counted, raising=False)
    run_campaign(CampaignConfig(ensemble="ginibre", dim=3, trials=1,
                                seed=5))
    assert calls == []


def test_campaign_trial_reaches_compare_all_through_the_module_global(
        monkeypatch):
    # perfbench's traced run times a trial's report through this global
    calls = []
    compare_all = campaign.compare_all

    def traced(*args, **kwargs):
        calls.append(args)
        return compare_all(*args, **kwargs)

    monkeypatch.setattr(campaign, "compare_all", traced)
    run_trial(CampaignConfig(ensemble="ginibre", dim=3, trials=1, seed=5), 0)
    assert len(calls) == 1


def test_cli_reproduce_examples(runner):
    result = runner.invoke(main, ["reproduce-examples"])
    lines = result.output.strip().splitlines()
    assert len(lines) == 7
    assert not any("FAIL" in line for line in lines)
    assert all(line.endswith("PASS") for line in lines)
    assert result.exit_code == 0


def test_cli_reproduce_examples_exits_1_when_a_figure_fails(runner,
                                                           monkeypatch):
    monkeypatch.setattr(reference, "kittaneh_sum",
                        lambda a: bounds.BoundValue("kitt-sum", None, 3.6))
    result = runner.invoke(main, ["reproduce-examples"])
    lines = result.output.strip().splitlines()
    assert len(lines) == 7 and result.exit_code == 1
    assert [line for line in lines if line.endswith("FAIL")] == [
        f"example{k}.kitt-sum = 3.600000 (target 3.5 ± 1e-09) FAIL"
        for k in (1, 2)]


def test_importing_numrad_loads_neither_the_process_pool_nor_click():
    # importing numrad loads no process pool, and only the console
    # script needs click
    src = os.path.dirname(os.path.dirname(numrad.__file__))
    code = ("import sys, numrad; "
            "print(sorted(m for m in ('concurrent.futures', 'click') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
