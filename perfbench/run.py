#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the mcpdist CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 55 --trace 0

A repetition runs the workload's fixed list of CLI invocations through
`mcpdist.cli.main` in one fresh child interpreter (perfbench/child.py),
so the analytic caches start cold as in a user's process.  Repetitions
run one after another (a closed loop with one caller) for about
--seconds, and at least twice.  Every output is checked
(workloads.py); repeated repetitions must reproduce the first one's bytes.

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians
over repetitions.  --trace 1 runs one untraced repetition and at least
two traced ones (tracing.py) and reports the per-layer metrics; the exact
counts must repeat across traced repetitions.  Either way the last line
of stdout is one JSON object: correct, attempted, failed, metrics.
`attempted` counts CLI invocations plus the self-test cases (perturbed
outputs the check must reject); `failed` counts the ones that went wrong,
so failed / attempted is the error rate.

All program code comes from src/ of the checkout this file lives in; the
run exits with status 2 and no result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

MIN_REPS = 2
MIN_TRACED_REPS = 2
MIN_SETUP_SAMPLES = 5
RUN_LIMIT_S = 150.0  # no repetition starts later than this into a run
CHILD_LIMIT_S = 175.0  # children still running this far into a run are killed

# Counts that must repeat exactly across traced repetitions at one seed.
EXACT_COUNTS = ("geometry.lens_calls", "quadrature.evals", "analytic.pmf_orders",
                "simulator.runs", "simulator.points")
# Workload parts whose invocations the traced run also times as a whole.
PARTS = ("curves", "sweep", "pmf_deep", "montecarlo")
# Per-layer metrics taken as the largest value over traced repetitions;
# integer counts come from the first one, times are medians.
MAXIMA = ("quadrature.err_max", "analytic.trunc_mass_max", "simulator.censored_fraction",
          "simulator.ks_ratio_max")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark at all."""


class Runner:
    """Spawns child repetitions and keeps the tallies of one run."""

    def __init__(self, workload, work_dir):
        self.workload = workload
        self.work_dir = work_dir
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.env.pop("MCPDIST_THREADS", None)
        self.outputs = [os.path.join(work_dir, f"out{i}.csv") for i in range(workload.n_outputs)]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_texts = None
        self.ref_err = 0.0
        self.setup_samples: list[float] = []
        self.walls = {False: [], True: []}  # repetition walls, untraced and traced
        self.spawns = 0

    def spawn(self, invocations, trace=False, speedup=None):
        """Run one child; returns (wall seconds, report or None)."""
        self.spawns += 1
        spec_path = os.path.join(self.work_dir, f"spec{self.spawns}.json")
        report_path = os.path.join(self.work_dir, f"report{self.spawns}.json")
        err_path = os.path.join(self.work_dir, f"stderr{self.spawns}.txt")
        with open(spec_path, "w") as fh:
            json.dump({"invocations": invocations, "trace": trace, "speedup": speedup}, fh)
        with open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, CHILD, spec_path, report_path], cwd=ROOT,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                proc.wait(timeout=max(1.0, self.started + CHILD_LIMIT_S - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            wall = time.perf_counter() - start
        report = None
        if proc.returncode == 0 and os.path.exists(report_path):
            with open(report_path) as fh:
                report = json.load(fh)
            if not os.path.realpath(report["module"]).startswith(os.path.realpath(SRC) + os.sep):
                raise SetupError(f"mcpdist was imported from {report['module']}, not from {SRC}")
            self.setup_samples.append(report["import_s"])
        else:
            with open(err_path) as fh:
                tail = fh.read().strip().splitlines()[-1:]
            self.problems.append(f"child exited with {proc.returncode}: {' '.join(tail)}")
        return wall, report

    def repetition(self, trace=False):
        """One checked repetition; returns (wall, report) or None if it broke."""
        for path in self.outputs:
            if os.path.exists(path):
                os.remove(path)
        wall, report = self.spawn(self.workload.invocations(self.outputs), trace=trace)
        self.walls[trace].append(wall)
        self.attempted += len(self.outputs)
        codes = report["codes"] if report else [None] * len(self.outputs)
        texts = [_read(path) for path in self.outputs]
        if self.first_texts is None:
            self._first_check(texts, codes)
        else:
            for i, (text, first, code) in enumerate(zip(texts, self.first_texts, codes)):
                if code != 0 or text != first:
                    self.failed += 1
                    self.problems.append(f"invocation {i}: exit {code} or output differs from the first repetition")
        return (wall, report) if report else None

    def _first_check(self, texts, codes):
        self.first_texts = texts
        problems, self.ref_err = self.workload.check(texts, codes)
        for i, errs in enumerate(problems):
            if errs:
                self.failed += 1
                self.problems.extend(f"invocation {i}: {e}" for e in errs)
        if any(problems):
            return
        for label, broken in self.workload.perturbations(texts):
            self.attempted += 1
            if not any(self.workload.check(broken, codes)[0]):
                self.failed += 1
                self.problems.append(f"self-test: the check accepted a perturbed output ({label})")

    def loop(self, seconds, min_reps, trace=False):
        """Repeat for about `seconds`, at least `min_reps` times."""
        started = time.monotonic()
        reps = []
        while time.monotonic() - self.started < RUN_LIMIT_S:
            rep = self.repetition(trace=trace)
            if rep is None:
                break
            reps.append(rep)
            elapsed = time.monotonic() - started
            typical = statistics.median(wall for wall, _ in reps)
            # Stop where the run ends closest to `seconds`.
            if len(reps) >= min_reps and elapsed + typical / 2 > seconds:
                break
        return reps

    def top_up_setup(self):
        while len(self.setup_samples) < MIN_SETUP_SAMPLES and time.monotonic() - self.started < RUN_LIMIT_S:
            self.spawn([])

    def bytes_out(self):
        return sum(len(t.encode()) for t in self.first_texts or ())


def _read(path):
    if not os.path.exists(path):
        return ""
    with open(path) as fh:
        return fh.read()


def end_to_end(runner, reps):
    walls = [wall for wall, _ in reps]
    units = runner.workload.units(runner.first_texts)
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(runner.setup_samples),
        "items_per_s": statistics.median(units / (wall - rep["import_s"]) for wall, rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for _, rep in reps),
    }


def per_layer(runner, plain, traced, speedup):
    layers = [rep["layers"] for _, rep in traced]
    metrics = {}
    for name, first in layers[0].items():
        values = [layer[name] for layer in layers]
        if name in MAXIMA:
            metrics[name] = max(values)
        elif isinstance(first, int):
            metrics[name] = first
        else:
            metrics[name] = statistics.median(values)
    for name in EXACT_COUNTS:
        values = [layer[name] for layer in layers]
        if len(set(values)) > 1:
            runner.failed += 1
            runner.problems.append(f"determinism: {name} differs across repetitions: {values}")
    for part in PARTS:
        metrics[f"part.{part}_s"] = statistics.median(
            sum(t for t, of in zip(rep["invocation_s"], runner.workload.part_of) if of == part)
            for _, rep in traced)
    metrics["analytic.ref_err_max"] = runner.ref_err
    metrics["cli.bytes_out"] = runner.bytes_out()
    metrics["simulator.speedup_2w"] = 0.0
    if speedup is not None:
        metrics["simulator.speedup_2w"] = speedup["t1"] / speedup["t2"]
    traced_wall = statistics.median(wall - rep["summary_s"] for wall, rep in traced)
    metrics["trace_overhead"] = traced_wall / statistics.median(wall for wall, _ in plain)
    return metrics


def measure_speedup(runner, config):
    runner.attempted += 1
    _, report = runner.spawn([], speedup=config)
    if report is None or not report["speedup"]["identical"]:
        runner.failed += 1
        runner.problems.append("speedup: 1- and 2-worker outputs differ or the child failed")
        return None
    return report["speedup"]


def run(args, spec):
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    work_dir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        runner = Runner(workload, work_dir)
        runner.spawn([])  # warm-up: byte-compile and page in the imports
        if not runner.setup_samples:
            raise SetupError("cannot import mcpdist.cli: " + "; ".join(runner.problems))
        runner.setup_samples.clear()
        metrics = {}
        if args.trace:
            plain = runner.loop(0.0, 1)
            traced = runner.loop(max(args.seconds - sum(w for w, _ in plain), 0.0), MIN_TRACED_REPS, trace=True)
            speedup = measure_speedup(runner, workload.speedup) if workload.speedup else None
            if plain and len(traced) >= MIN_TRACED_REPS:
                metrics = per_layer(runner, plain, traced, speedup)
            wanted = spec["per_layer"]
        else:
            reps = runner.loop(args.seconds, MIN_REPS)
            runner.top_up_setup()
            if reps:
                metrics = end_to_end(runner, reps)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        runner.failed = max(runner.failed, 1)
        runner.problems.append(f"no value for {', '.join(missing)}")
    return runner, workload, {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}


def _seed(text):
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be a nonnegative integer")
    return seed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=_seed, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(SRC, "mcpdist", "cli.py")):
            raise SetupError(f"no mcpdist sources under {SRC}")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise SetupError(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
        runner, workload, metrics = run(args, spec)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} seconds={args.seconds:g} "
          f"unit={workload.unit!r} inputs={json.dumps(workload.invocations(['OUT'] * workload.n_outputs))}")
    for problem in runner.problems:
        print(f"problem: {problem}")
    for traced, walls in runner.walls.items():
        if walls:
            print(f"{'traced' if traced else 'untraced'} repetition walls (s): {[round(w, 4) for w in walls]}")
    print(f"setup samples (s): {[round(s, 4) for s in runner.setup_samples]}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(f"error_rate = {runner.failed / max(runner.attempted, 1)!r} ({runner.failed} of {runner.attempted})")
    print(json.dumps({"correct": runner.failed == 0, "attempted": max(runner.attempted, 1),
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
