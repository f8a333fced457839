"""Before/after pairs of perfbench runs on two checkouts.

    python tools/bench_pairs.py PARENT CHANGE --label LABEL --what TEXT

PARENT and CHANGE are two checkouts of the repository, such as the parent
commit and a change made with `git archive`.  For each workload, the
script runs `python3 perfbench/run.py --workload W --seed S --seconds T`
in each checkout, on that checkout's own `src/`, in --pairs pairs: the
parent first in even pairs and the change first in odd pairs, so that a
drift of the host's speed falls on both sides alike.  It writes
BENCH_<LABEL>.json in the current directory, with every run's result and,
per end-to-end metric of BENCHMARK.json, each side's median and quartiles,
the number of pairs in which the change is better (ties count for
neither) and the ratio of the medians.  A run that fails, or whose result
is not correct, stops the script.

It only runs perfbench and reads BENCHMARK.json; it changes neither.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("report", "fuzz", "radius")


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """The last line of one perfbench run in checkout, as a dict."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, check=True, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if result["correct"] is not True:
        raise SystemExit(f"{checkout}: {workload} is not correct: {result}")
    return result


def flatten(result: dict, metrics: list) -> dict:
    """One side of a pair, in the schema of the BENCH_*.json files."""
    side = {k: result[k] for k in ("correct", "attempted", "failed")}
    side.update((m["name"], result["metrics"][m["name"]]["value"])
                for m in metrics)
    return side


def summarize(pairs: list, metrics: list) -> dict:
    """Each side's median and quartiles, and the pairs the change wins."""
    out = {}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        sides = {s: [p[s][name] for p in pairs] for s in ("parent", "change")}
        row = {}
        for s, vals in sides.items():
            q1, med, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                           else vals * 3)
            row.update({f"{s}_median": med, f"{s}_q1": q1, f"{s}_q3": q3})
        row["change_better_pairs"] = sum(
            sign * (p["change"][name] - p["parent"][name]) < 0 for p in pairs)
        row["pairs"] = len(pairs)
        row["change_over_parent"] = row["change_median"] / row["parent_median"]
        out[name] = row
    return out


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--label", required=True)
    p.add_argument("--what", required=True,
                   help="what the change does, in one sentence")
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="a workload to run (repeatable; default: all)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    seconds = f"{args.seconds:g}"
    doc = {
        "label": args.label,
        "command": (f"python3 perfbench/run.py --workload <w> --seed "
                    f"{args.seed} --seconds {seconds}"),
        "host": {"nproc": os.cpu_count(), "blas_threads": 1,
                 "note": "times are scaled by perfbench's host-speed kernel"},
        "what": args.what,
        "workloads": {},
    }
    for workload in args.workload or WORKLOADS:
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"pair": i, "first": order[0]}
            for side in order:
                result = run_once(sides[side], workload, args.seed,
                                  args.seconds)
                pair[side] = flatten(result, metrics)
            pairs.append(pair)
            print(f"{workload} pair {i}: " + ", ".join(
                f"{m['name']} {pair['parent'][m['name']]:.4g} -> "
                f"{pair['change'][m['name']]:.4g}" for m in metrics),
                file=sys.stderr)
        doc["workloads"][f"{workload}-seed{args.seed}-{seconds}s"] = {
            "order": ("pairs alternate which side runs first: parent first "
                      "in even pairs, change first in odd pairs"),
            "summary": summarize(pairs, metrics),
            "pairs": pairs,
        }
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(path)


if __name__ == "__main__":
    main()
