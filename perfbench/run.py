"""Seeded benchmark of numrad's report, fuzz and radius paths.

Run from the repository root:

    python3 perfbench/run.py --workload report --seed 0 --seconds 20 --trace 0

``--trace 0`` runs the workload as a closed loop with one client, in rounds,
until ``--seconds`` have passed (at least one round), and prints the
end-to-end metrics, scaled to a reference host speed.  ``--trace 1`` runs the traced pass and the layer probes
of ``bench_layers.py`` and prints the per-layer metrics.  Every result is
checked; each metric is printed by name with its unit, and the run is also
written to ``perfbench/out/``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

numrad is imported from ``src/`` of the checkout; without it the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# The matrices are at most 32x32: BLAS threads add noise and no speed.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
BLAS_THREADS = "1"
# The host's speed drifts by up to 1.7x over minutes, alike for every
# operation.  A timer signal interrupts the closed loop every
# CALIBRATION_PERIOD_S between two of the program's Python steps, and runs a
# fixed numpy kernel that measures that speed; the end-to-end metrics are
# scaled to a host on which one kernel run takes CALIBRATION_REF_S.  About
# SETUP_SAMPLES times per --seconds the timer takes a set-up sample instead,
# so that set-up sees the same drift as the operations.  The timer's work is
# kept out of the operations' times.
CALIBRATION_PERIOD_S = 0.025
CALIBRATION_REF_S = 0.0025
# Set-up (mostly Python start-up and imports) drifts unlike the kernel.  Each
# set-up sample is paired with a fresh process that only imports numpy, and
# set-up is scaled to a host on which that takes SETUP_REF_S.
SETUP_BASELINE_CODE = "import numpy"
SETUP_REF_S = 0.2
SETUP_SAMPLES = 12
# A report round takes about 35 s; fuzz and radius rounds about 1 s.
MIN_ROUNDS = 1
SETUP_TIMEOUT_S = 120
SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[3:]; "
              "import bench_workloads; "
              "bench_workloads.build_inputs(sys.argv[1], int(sys.argv[2]))")
WORKLOADS = ("report", "fuzz", "radius")

# What each timing slot is called in ISSUE terms, per workload.
SLOT_NAMES = {
    "report": {"small": "report_s.n3", "large": "report_s.n8",
               "ops_per_s": "reports_per_s"},
    "fuzz": {"small": "campaign_trial_s.n3", "large": "campaign_trial_s.n8",
             "ops_per_s": "fuzz_trials_per_s"},
    "radius": {"small": "radius_s.n6", "large": "radius_s.n32",
               "oracle": "oracle_s.n6", "ops_per_s": "radius_calls_per_s"},
}
PERCENTILES = (99, 95, 90, 75)


def summarize(samples: list) -> dict:
    """Mean, median, sample count, and the highest percentile with >= 10
    samples beyond it."""
    s = sorted(samples)
    out = {"median": statistics.median(s), "mean": statistics.fmean(s),
           "samples": len(s)}
    for p in PERCENTILES:
        if len(s) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = s[math.ceil(len(s) * p / 100) - 1]
            break
    return out


def setup_command(workload: str, seed: int) -> list:
    return [sys.executable, "-c", SETUP_CODE, workload, str(seed),
            str(SRC), str(BENCH_DIR)]


def spawn_seconds(cmd: list) -> float:
    """Wall seconds for a fresh process to run ``cmd``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    # wait() with a timeout polls in 50 ms steps; a watchdog does not.
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        returncode = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - t0
    if returncode:
        raise subprocess.CalledProcessError(returncode, cmd)
    return elapsed


def calibration_kernel():
    """A fixed numpy kernel with the mix of numrad's work, independent of it.

    One 240-angle stack of 6x6 Hermitian eigenvalue problems, 40 single
    ones from a Python loop, and the singular values of a 32x32.  Returns a
    function that runs it once and returns its wall seconds.
    """
    import numpy as np
    from bench_workloads import ginibre
    a, big = ginibre(0, 6, n=6), ginibre(0, 32, n=32)
    phases = np.exp(1j * np.linspace(0, np.pi, 240, endpoint=False))

    def run() -> float:
        t0 = time.perf_counter()
        stack = phases[:, None, None] * a
        np.linalg.eigvalsh((stack + stack.conj().swapaxes(-1, -2)) / 2)
        for phase in phases[:40]:
            z = phase * a
            np.linalg.eigvalsh((z + z.conj().T) / 2)
        np.linalg.svd(big, compute_uv=False)
        return time.perf_counter() - t0
    return run


class Interleaver:
    """Runs the calibration kernel and set-up samples from a timer signal.

    The handler runs in the main thread between two Python steps of the
    operation in progress, and ``clock`` leaves its time out.
    """

    def __init__(self, kernel, setup_cmd: list, setup_interval: float):
        self.kernel = kernel
        self.setup_cmd = setup_cmd
        self.setup_interval = setup_interval
        self.calibration = []
        self.setup = []
        self.setup_baseline = []
        self.paused = 0.0
        self.active = False
        self.last_setup = 0.0
        self.previous = None

    def clock(self) -> float:
        """Seconds, less the time spent in the handler."""
        while True:
            paused = self.paused
            now = time.perf_counter()
            if paused == self.paused:  # no handler ran in between
                return now - paused

    def _tick(self, _signum, _frame):
        if not self.active:
            return
        t0 = time.perf_counter()
        if t0 - self.last_setup >= self.setup_interval:
            self.sample_setup()
            self.last_setup = time.perf_counter()
        else:
            self.calibration.append(self.kernel())
        self.paused += time.perf_counter() - t0
        # One-shot and re-armed here, so that the handler never nests.
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S)

    def sample_setup(self):
        """One set-up sample and the numpy-only process next to it."""
        self.setup_baseline.append(spawn_seconds(
            [sys.executable, "-c", SETUP_BASELINE_CODE]))
        self.setup.append(spawn_seconds(self.setup_cmd))

    def __enter__(self):
        self.sample_setup()
        self.last_setup = time.perf_counter()
        self.active = True
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S)
        return self

    def __exit__(self, *_exc):
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


def warm_up(calibrate):
    """Load lazily initialised numpy and LAPACK paths before timing."""
    from numrad import compare_all, radius_oracle
    from numrad.reference import SHIFT_234
    compare_all(SHIFT_234, t_grid=3, theta_grid=16)
    radius_oracle(SHIFT_234, 8, 0)
    calibrate()


def run_workload(workload: str, seed: int, seconds: float):
    """Closed loop over rounds; returns (tally, metrics, named records)."""
    from bench_workloads import Tally, round_builder
    build = round_builder(workload)
    calibrate = calibration_kernel()
    warm_up(calibrate)
    interleaver = Interleaver(calibrate, setup_command(workload, seed),
                              seconds / SETUP_SAMPLES)
    tally = Tally(interleaver.clock)
    times = {}
    rounds = 0
    with interleaver:
        start = time.perf_counter()
        while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
            for op in build(seed, rounds):
                elapsed, _ = tally.run(op)
                times.setdefault(op.slot, []).append(elapsed)
            rounds += 1
    busy = sum(map(sum, times.values()))
    calibration, setup = interleaver.calibration, interleaver.setup
    setup_ratio = [s / b for s, b in zip(setup, interleaver.setup_baseline)]
    # The kernel's mean over the run follows the host's speed as the
    # operations saw it.
    scale = CALIBRATION_REF_S / statistics.fmean(calibration)
    # Seconds per operation is a mean: on a shared host the time of a short
    # operation is bimodal (core contended or not), and the median jumps
    # between the modes as their mix drifts while the mean moves smoothly.
    metrics = {"setup_s": (statistics.median(setup_ratio) * SETUP_REF_S,
                           "s"),
               "small_s": (statistics.fmean(times["small"]) * scale, "s"),
               "large_s": (statistics.fmean(times["large"]) * scale, "s"),
               "ops_per_s": (tally.attempted / busy / scale, "1/s")}
    names = SLOT_NAMES[workload]
    named = {"calibration_s": dict(summarize(calibration), unit="s",
                                   scale=scale),
             "setup_s": dict(summarize(setup), unit="s"),
             "setup_baseline_s": dict(summarize(interleaver.setup_baseline),
                                      unit="s"),
             names["ops_per_s"]: {"value": tally.attempted / busy,
                                  "unit": "1/s", "samples": tally.attempted},
             "rounds": rounds}
    for slot, samples in times.items():
        named[names[slot]] = dict(summarize(samples), unit="s")
    return tally, metrics, named


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    return {"seed": seed,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(),
            "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "numrad" / "__init__.py").is_file():
        print(f"error: numrad sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    OUT_DIR.mkdir(exist_ok=True)
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        from bench_layers import run_trace
        tally, values, units, spans = run_trace(args.workload, args.seed,
                                                 OUT_DIR)
        metrics = {k: (v, units[k]) for k, v in values.items()}
        named = {}
    else:
        tally, metrics, named = run_workload(args.workload, args.seed,
                                             args.seconds)
        spans = []
    failed_frac = tally.failed / tally.attempted
    named["failed_frac"] = {"value": failed_frac, "failed": tally.failed,
                            "attempted": tally.attempted}

    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    for name, rec in named.items():
        print(f"{args.workload}: {name} {json.dumps(rec, sort_keys=True)}")
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)

    result = {"correct": tally.failed == 0,
              "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"workload": args.workload, "env": env,
                               "seconds": args.seconds, "named": named,
                               "problems": tally.problems, "result": result,
                               "spans": spans}, indent=1) + "\n",
                   encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
