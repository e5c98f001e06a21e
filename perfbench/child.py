"""One repetition in a fresh interpreter: import mcpdist.cli, run a list of
CLI invocations through `mcpdist.cli.main`, and write a JSON report.

Usage: python3 child.py SPEC.json REPORT.json

SPEC holds {"invocations": [[arg, ...], ...], "trace": bool,
"speedup": null | {...}}.  The report gives the import time, each
invocation's exit code and duration, and the peak resident set size.
When traced, it also gives the per-layer summary and the time spent
building it (`summary_s`).  An empty invocation list measures set-up
alone.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import mcpdist.cli  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0


def _speedup(spec):
    """Time one simulate_kth_distances config at 1 and at 2 workers."""
    from mcpdist.analytic import McpParams
    from mcpdist.simulator import SimConfig, simulate_kth_distances

    cfg = SimConfig(McpParams(**spec["params"]), spec["radius"], spec["samples"], spec["seed"], spec["max_k"])
    times, outputs = {}, {}
    for workers in (1, 2):
        t = time.perf_counter()
        outputs[workers] = simulate_kth_distances(cfg, workers=workers)
        times[workers] = time.perf_counter() - t
    return {"t1": times[1], "t2": times[2], "identical": bool((outputs[1] == outputs[2]).all())}


def _run(argv):
    # argparse reports bad arguments by raising SystemExit.
    try:
        return mcpdist.cli.main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def main(spec_path, report_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    report = {
        "import_s": _IMPORT_S,
        "module": mcpdist.cli.__file__,
        "codes": [],
        "invocation_s": [],
    }
    for argv in spec["invocations"]:
        t = time.perf_counter()
        report["codes"].append(_run(argv))
        report["invocation_s"].append(time.perf_counter() - t)
    if spec.get("speedup"):
        report["speedup"] = _speedup(spec["speedup"])
    if tracer is not None:
        t = time.perf_counter()
        report["layers"] = tracer.summary()
        report["summary_s"] = time.perf_counter() - t
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(report_path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
