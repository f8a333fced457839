"""Tests of the benchmark itself: seeded inputs and output checks.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench_workloads as bw  # noqa: E402
from numrad import radius_sweep  # noqa: E402
from numrad.bounds import BoundReport, BoundValue  # noqa: E402
from numrad.radius import OracleEstimate, RadiusEstimate  # noqa: E402


def _same(x, y) -> bool:
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and np.array_equal(x, y)
    if isinstance(x, (tuple, list)):
        return (type(x) is type(y) and len(x) == len(y)
                and all(map(_same, x, y)))
    return x == y


@pytest.mark.parametrize("workload", bw.WORKLOADS)
def test_inputs_deterministic_per_seed(workload):
    first = bw.build_inputs(workload, 5)
    assert _same(first, bw.build_inputs(workload, 5))
    assert not _same(first, bw.build_inputs(workload, 6))


def test_rounds_draw_fresh_inputs():
    build = bw.round_builder("radius")
    assert not _same([op.args for op in build(5, 0)],
                     [op.args for op in build(5, 1)])


def _report_from(reference: dict) -> BoundReport:
    omega = RadiusEstimate(reference["omega"], 0.0, 720, 0.0)
    bounds = [BoundValue(bid, None, v)
              for bid, v in reference["bounds"].items()]
    return BoundReport(omega=omega, bounds=bounds, slacks={})


def _with_bound(report: BoundReport, bound_id: str, value: float):
    bounds = [BoundValue(bv.id, None, value if bv.id == bound_id else bv.value)
              for bv in report.bounds]
    return BoundReport(omega=report.omega, bounds=bounds, slacks={})


def test_report_check_accepts_recorded_values():
    for ref in bw.load_report_reference().values():
        assert bw.check_report(_report_from(ref), ref) == []


@pytest.mark.parametrize("corrupt", ["perturbed", "below-omega", "nan"])
def test_report_check_rejects_corrupted_bound(corrupt):
    ref = bw.load_report_reference()["SHIFT_234"]
    report = _report_from(ref)
    value = {"perturbed": ref["bounds"]["kitt-sum"] * (1 + 1e-8),
             "below-omega": ref["omega"] - 1e-6,
             "nan": math.nan}[corrupt]
    bad = _with_bound(report, "kitt-sum", value)
    assert bw.check_report(bad, ref)
    if corrupt != "perturbed":
        assert bw.check_report(bad, None)


def test_report_check_rejects_moved_omega():
    ref = bw.load_report_reference()["SHIFT_342"]
    report = _report_from(ref)
    moved = BoundReport(RadiusEstimate(ref["omega"] * (1 - 1e-8), 0.0, 720,
                                       0.0), report.bounds, {})
    assert bw.check_report(moved, ref)


def _fuzz_result(row: str, violations: int = 0):
    return (["header", row], violations)


def test_fuzz_check_rejects_corrupted_rows():
    ref = bw.load_fuzz_reference()[(0, "ginibre", 3)]
    assert bw.check_fuzz(_fuzz_result(ref), ref) == []
    cells = ref.split(",")
    violation = ",".join(cells[:-1] + ["kato"])
    assert bw.check_fuzz(_fuzz_result(violation, 1), None)
    assert bw.check_fuzz(_fuzz_result(violation, 1), ref)
    perturbed = cells.copy()
    perturbed[3] = repr(float(cells[3]) * (1 + 1e-8))  # a bound value
    assert bw.check_fuzz(_fuzz_result(",".join(perturbed)), ref)
    reseeded = cells.copy()
    reseeded[1] = str(int(cells[1]) + 1)  # trial seed
    assert bw.check_fuzz(_fuzz_result(",".join(reseeded)), ref)


def test_fuzz_round_matches_recorded_csv():
    tally = bw.Tally()
    for op in bw.round_builder("fuzz")(bw.DEFAULT_SEED, 0):
        tally.run(op)
    assert (tally.attempted, tally.failed) == (10, 0), tally.problems


def test_radius_checks_reject_corrupted_results():
    a = bw.ginibre(3, 0, n=4)
    sweep = radius_sweep(a).value
    norm = float(np.linalg.norm(a, 2))
    assert bw.check_oracle(OracleEstimate(sweep - 1e-5, 10, 0), a) == []
    assert bw.check_oracle(OracleEstimate(sweep + 1e-5, 10, 0), a)
    assert bw.check_oracle(OracleEstimate(sweep * (1 - 1e-2), 10, 0), a)
    assert bw.check_sweep(RadiusEstimate(sweep, 0.0, 720, 0.0), norm) == []
    assert bw.check_sweep(RadiusEstimate(norm * 1.01, 0.0, 720, 0.0), norm)
    assert bw.check_sweep(RadiusEstimate(norm * 0.49, 0.0, 720, 0.0), norm)


def test_tally_counts_raising_operation_as_failed():
    def boom():
        raise FloatingPointError("overflow")

    tally = bw.Tally()
    tally.run(bw.Op("small", "boom", boom, (), lambda _: []))
    tally.run(bw.Op("small", "ok", int, (), lambda _: []))
    assert (tally.attempted, tally.failed) == (2, 1)


def test_missing_span_fails_the_metric():
    import bench_layers

    tracer = bench_layers.Tracer()
    with tracer.span("parent"):
        pass
    with pytest.raises(LookupError):
        tracer.child_share("child", "parent")
    with pytest.raises(LookupError):
        tracer.total("child")


def test_interleaver_time_is_kept_out_of_the_clock():
    import signal
    import time

    import run

    def kernel():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.005:
            pass
        return time.perf_counter() - t0

    interleaver = run.Interleaver(kernel, [sys.executable, "-c", "pass"],
                                  setup_interval=0.2)
    with interleaver:
        wall0, clock0 = time.perf_counter(), interleaver.clock()
        while time.perf_counter() - wall0 < 0.5:
            pass
        wall, clock = (time.perf_counter() - wall0,
                       interleaver.clock() - clock0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(interleaver.calibration) > 5
    assert len(interleaver.setup) == len(interleaver.setup_baseline) >= 2
    # The handler's work, all of it inside the loop but the first set-up
    # sample, is what separates the wall time from the clock.
    assert wall - clock == pytest.approx(interleaver.paused, abs=0.01)
    assert clock < wall - 0.005 * len(interleaver.calibration)
