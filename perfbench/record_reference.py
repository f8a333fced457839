"""Record the values the benchmark checks its default-seed results against.

Run from the repository root, only when numrad's outputs are meant to
change:

    python3 perfbench/record_reference.py

It writes ``perfbench/reference/report_seed0.json`` (omega and every bound of
the report workload's three inputs) and ``perfbench/reference/fuzz_seed0.csv``
(the first FUZZ_ROUNDS rounds of the fuzz workload).
"""

import csv
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
FUZZ_ROUNDS = 32


def main():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]
    from numrad import compare_all, run_campaign
    from numrad.campaign import CSV_COLUMNS

    import bench_workloads as bw

    reference = {}
    for _, name, a in bw.report_inputs(bw.DEFAULT_SEED, 0):
        report = compare_all(a)
        reference[name] = {"omega": report.omega.value,
                           "bounds": {bv.id: bv.value for bv in report.bounds}}
    bw.REFERENCE_DIR.mkdir(exist_ok=True)
    bw.REPORT_REFERENCE.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")

    with bw.FUZZ_REFERENCE.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("round", "ensemble", "dim") + CSV_COLUMNS)
        for round_index in range(FUZZ_ROUNDS):
            configs = bw.fuzz_configs(bw.DEFAULT_SEED, round_index)
            for *ident, config in configs:
                lines, _ = run_campaign(config)
                writer.writerow(ident + lines[-1].split(","))


if __name__ == "__main__":
    main()
