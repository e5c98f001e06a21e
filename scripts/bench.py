#!/usr/bin/env python3
"""Run the benchmark's end-to-end workloads and write their summary as JSON.

Usage (from the repository root):

    python3 scripts/bench.py --seconds 1 --pairs 1
    python3 scripts/bench.py --parent PATH --out BENCH_<n>.json

Each run is `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`, started from the root of the checkout it measures, so every
side runs its own program and its own benchmark code.  Alone, the script
runs each workload of BENCHMARK.json --pairs times on this checkout, run i
at seed i.  With --parent (another checkout, such as a `git clone` of the
parent commit) it runs --pairs pairs per workload, parent and this
checkout at the same seed i in pair i, and alternates which side runs
first, so the machine's drift falls on both sides alike.

The summary (stdout, or --out) gives per workload and end-to-end metric
each side's median, quartiles and every run's value, and with --parent
the pairs this checkout won (ties count for neither side); plus the
commits, the seeds, the seconds per run and each run's correct / failed
tally.  Exits 1 when any run is not `correct`, and 2 when the benchmark
gives no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _commit(checkout):
    """The checked-out commit, marked "+dirty" when tracked files differ from it."""
    def git(*args):
        proc = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    if head is None:
        return None
    return head + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def _run(checkout, workload, seed, seconds):
    """One benchmark run; returns its JSON result line as a dict."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {workload} at seed {seed} in {checkout} gave no result: "
              f"{proc.stderr.strip()[-500:]}", file=sys.stderr)
        sys.exit(2)
    return json.loads(lines[-1])


def _side(values):
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="checkout to compare against, run in alternating pairs")
    parser.add_argument("--pairs", type=int, default=10, help="runs per side and workload")
    parser.add_argument("--seconds", type=float, help="seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--out", help="write the summary here instead of stdout")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    sides = {"change": ROOT}
    if args.parent:
        sides["parent"] = os.path.abspath(args.parent)
    seeds = list(range(1, args.pairs + 1))
    summary = {"commits": {side: _commit(path) for side, path in sides.items()},
               "seconds": seconds, "pairs": args.pairs, "seeds": seeds, "workloads": {}}
    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = {side: [] for side in sides}
        for i, seed in enumerate(seeds):
            order = list(sides) if i % 2 else list(sides)[::-1]
            for side in order:
                result = _run(sides[side], workload, seed, seconds)
                results[side].append(result)
                print(f"{workload} seed={seed} {side}: correct={result['correct']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
        entry = {"correct": {side: [r["correct"] for r in rs] for side, rs in results.items()},
                 "failed": {side: [r["failed"] for r in rs] for side, rs in results.items()},
                 "metrics": {}}
        all_correct &= all(r["correct"] for rs in results.values() for r in rs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in rs]
                      for side, rs in results.items()}
            row = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"]}
            row.update({side: _side(v) for side, v in values.items()})
            if "parent" in values:
                sign = 1.0 if metric["better"] == "higher" else -1.0
                row["change_wins"] = sum(sign * (c - p) > 0.0
                                         for c, p in zip(values["change"], values["parent"]))
                row["parent_wins"] = sum(sign * (p - c) > 0.0
                                         for c, p in zip(values["change"], values["parent"]))
            entry["metrics"][name] = row
        summary["workloads"][workload] = entry
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
