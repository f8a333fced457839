import importlib
import json

import numpy as np
import pytest
from click.testing import CliRunner

from numrad import (CATALOG_IDS, DimensionMismatch, ParseError,
                    bounds, parse_matrix, serialize_matrix)
from numrad.campaign import CSV_COLUMNS, CampaignConfig, run_campaign
from numrad.cli import main

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


def test_parse_csv():
    out = parse_matrix("0, 2, 0\n0, 0, 3\n4, 0, 0\n")
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
                  "term_cross"},
    "aluthge-half": {"inner", "omega_aluthge", "omega_aluthge_sq"},
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


def test_cli_radius(runner, example1_path):
    result = runner.invoke(main, ["radius", example1_path,
                                  "--oracle-trials", "50"],
                           env={"NUMRAD_SEED": "11"})
    assert result.exit_code == 0
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
                          ("--theta-grid", "4"), ("--jobs", "0"),
                          ("--jobs", "-3"), ("--dim", "0"),
                          ("--trials", "0")):
        result = runner.invoke(main, ["fuzz", "--ensemble", "ginibre",
                                      "--dim", "3", "--trials", "1",
                                      option, value])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert option in result.output


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


def test_campaign_deterministic_and_parallel_safe():
    config = CampaignConfig(ensemble="ginibre", dim=3, trials=6, seed=5)
    first, v1 = run_campaign(config)
    second, v2 = run_campaign(config)
    assert first == second and v1 == v2 == 0
    parallel, v3 = run_campaign(config, jobs=2)
    assert parallel == first and v3 == 0


def test_campaign_all_ensembles_sound():
    for ensemble in ("hermitian", "unitary-scaled", "nilpotent",
                     "weighted-cyclic-shift"):
        config = CampaignConfig(ensemble=ensemble, dim=4, trials=3, seed=17)
        _, violations = run_campaign(config)
        assert violations == 0


def test_campaign_counts_an_unsound_bound_in_every_row(monkeypatch):
    def unsound(ctx, t):
        return 0.5 * ctx.omega_estimate.value, {}

    monkeypatch.setitem(bounds._BOUNDS, "kitt-sum", (unsound, False))
    config = CampaignConfig(ensemble="ginibre", dim=3, trials=4, seed=5)
    lines, violations = run_campaign(config, jobs=1)
    assert violations == config.trials
    for row in lines[1:]:
        assert "kitt-sum" in row.rsplit(",", 1)[1].split(";")


def test_campaign_trial_builds_two_spectral_cores(monkeypatch):
    # one for the report's context, one for the pointwise checks, which
    # kato shares
    polar = importlib.import_module("numrad.polar")
    calls = []

    def counted(a):
        calls.append(a.shape)
        return svd(a)

    svd = polar.svd
    monkeypatch.setattr(polar, "svd", counted)
    run_campaign(CampaignConfig(ensemble="ginibre", dim=3, trials=1,
                                seed=5))
    assert calls == [(3, 3), (3, 3)]


def test_cli_reproduce_examples(runner):
    result = runner.invoke(main, ["reproduce-examples"])
    lines = result.output.strip().splitlines()
    assert len(lines) == 7
    assert not any("FAIL" in line for line in lines)
    assert all(line.endswith("PASS") for line in lines)
    assert result.exit_code == 0
