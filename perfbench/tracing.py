"""Span tracing of mcpdist's public functions, installed from outside.

`install` replaces every public function (and public method of a class)
defined in a layer module, at every binding in every loaded mcpdist
module, so calls made through a by-name import such as analytic's
`intersection_volume` are traced too.  Each call records one span
(name, parent, start, end) in flat arrays kept in memory; a few wrappers
also read counts off the return value.  `summary` derives the per-layer
numbers from the spans once the traced work is done.  A function that
no longer exists simply records no spans, so its metrics read zero.

Spans assume one thread: traced runs keep the simulator at one worker.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("geometry", "quadrature", "analytic", "simulator", "apps", "cli")

CDF_FUNCTIONS = (
    "analytic.cdf_contact",
    "analytic.cdf_nnd",
    "analytic.ppp_cdf_contact",
    "analytic.cdf_nnd_small_rd_limit",
)
PMF_FUNCTIONS = ("analytic.count_pmf", "analytic.palm_count_pmf")
SAMPLERS = ("simulator.sample_mcp", "simulator.sample_mcp_palm")
ECDF_KS = ("simulator.ks_distance", "simulator.EmpiricalCdf.from_distances")


def _integrate_hook(tracer, args, kwargs, result):
    tracer.add("quadrature.evals", getattr(result, "evaluations", 0))
    tracer.peak("quadrature.err_max", getattr(result, "abs_error_estimate", 0.0))


def _count_pmf_hook(tracer, args, kwargs, result):
    probs = getattr(result, "probs", ())
    tracer.add("analytic.pmf_orders", len(probs))
    # Only an adaptive truncation (no m_max) leaves a mass that is an error.
    if kwargs.get("m_max", args[2] if len(args) > 2 else None) is None:
        tracer.peak("analytic.trunc_mass_max", abs(getattr(result, "truncation_mass", 0.0)))


def _simulate_hook(tracer, args, kwargs, result):
    tracer.add("simulator.runs", len(result))


def _kth_hook(tracer, args, kwargs, result):
    tracer.add("simulator.points", len(args[0]))


def _validate_hook(tracer, args, kwargs, result):
    for row in result:
        tracer.peak("simulator.censored_fraction", row.censored_fraction)
        tracer.peak("simulator.ks_ratio_max", row.ks / row.threshold)


def _sweep_hook(tracer, args, kwargs, result):
    tracer.add("apps.rows", len(result))


HOOKS = {
    "quadrature.integrate": _integrate_hook,
    "analytic.count_pmf": _count_pmf_hook,
    "simulator.simulate_kth_distances": _simulate_hook,
    "simulator.kth_distances": _kth_hook,
    "simulator.validate_against_analytic": _validate_hook,
    "apps.sweep": _sweep_hook,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.totals: dict[str, float] = {}

    def add(self, key, amount):
        self.totals[key] = self.totals.get(key, 0) + amount

    def peak(self, key, value):
        self.totals[key] = max(self.totals.get(key, 0.0), float(value))

    def wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        clock = time.perf_counter
        span_name, span_parent, start, end, stack = (
            self.span_name, self.span_parent, self.start, self.end, self.stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict[str, float]:
        """Per-layer metrics for everything traced so far."""
        names = np.array(self.span_name, dtype=np.int32)
        parent = np.array(self.span_parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child_time

        def ids(selected):
            return np.array([i for i, n in enumerate(self.names) if n in selected], dtype=np.int32)

        def member(selected):
            return np.isin(names, ids(selected))

        def within(selected):
            # Spans with an ancestor in `selected`; parents precede children.
            flag = member(selected)
            while True:
                grown = flag.copy()
                grown[has_parent] |= flag[parent[has_parent]]
                if np.array_equal(grown, flag):
                    return grown
                flag = grown

        def outer_time(selected):
            # Inclusive time of the outermost spans among `selected`.
            mask = member(selected)
            top = mask.copy()
            top[has_parent] &= ~within(selected)[parent[has_parent]]
            return float(dur[top].sum())

        def layer_self(layer):
            return float(self_time[member({n for n in self.names if n.startswith(layer + ".")})].sum())

        def calls(selected):
            return int(member(selected).sum())

        in_quantile = within({"analytic.quantile_radius"})
        cdf_spans = member(set(CDF_FUNCTIONS))
        sim_s = outer_time({"simulator.simulate_kth_distances"})
        sample_s = outer_time(set(SAMPLERS))
        select_s = outer_time({"simulator.kth_distances"})
        t = self.totals
        return {
            "geometry.lens_calls": calls({"geometry.intersection_volume"}),
            "geometry.lens_s": outer_time({"geometry.intersection_volume"}),
            "quadrature.integrals": calls({"quadrature.integrate"}),
            "quadrature.evals": int(t.get("quadrature.evals", 0)),
            "quadrature.self_s": layer_self("quadrature"),
            "quadrature.err_max": t.get("quadrature.err_max", 0.0),
            "analytic.cdf_points": int((cdf_spans & ~in_quantile).sum()),
            "analytic.curve_s": outer_time({"analytic.distribution_curve"}),
            "analytic.quantile_s": outer_time({"analytic.quantile_radius"}),
            "analytic.quantile_cdf_evals": int((cdf_spans & in_quantile).sum()),
            "analytic.self_s": layer_self("analytic"),
            "analytic.pmf_calls": calls(set(PMF_FUNCTIONS)),
            "analytic.pmf_orders": int(t.get("analytic.pmf_orders", 0)),
            "analytic.pmf_self_s": float(self_time[member(set(PMF_FUNCTIONS))].sum()),
            "analytic.trunc_mass_max": t.get("analytic.trunc_mass_max", 0.0),
            "simulator.runs": int(t.get("simulator.runs", 0)),
            "simulator.points": int(t.get("simulator.points", 0)),
            "simulator.sim_s": sim_s,
            "simulator.sample_s": sample_s,
            "simulator.select_s": select_s,
            "simulator.rng_overhead_s": sim_s - sample_s - select_s,
            "simulator.ecdf_ks_s": outer_time(set(ECDF_KS)),
            "simulator.censored_fraction": t.get("simulator.censored_fraction", 0.0),
            "simulator.ks_ratio_max": t.get("simulator.ks_ratio_max", 0.0),
            "apps.rows": int(t.get("apps.rows", 0)),
            "apps.sweep_s": outer_time({"apps.sweep"}),
            "apps.self_s": layer_self("apps"),
            "cli.self_s": layer_self("cli"),
        }


def install(tracer: Tracer) -> None:
    """Trace every public function of the layer modules at every binding."""
    layer_modules = {f"mcpdist.{layer}" for layer in LAYERS}
    wrapped: dict[int, object] = {}

    def traced(fn, qualname):
        key = id(fn)
        if key not in wrapped:
            wrapped[key] = tracer.wrap(f"{fn.__module__[len('mcpdist.'):]}.{qualname}", fn)
        return wrapped[key]

    modules = [m for name, m in sorted(sys.modules.items()) if name == "mcpdist" or name.startswith("mcpdist.")]
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, types.FunctionType) and obj.__module__ in layer_modules:
                setattr(module, attr, traced(obj, obj.__name__))
            elif isinstance(obj, type) and obj.__module__ in layer_modules and module.__name__ == obj.__module__:
                for meth_name, meth in list(vars(obj).items()):
                    if meth_name.startswith("_"):
                        continue
                    if isinstance(meth, types.FunctionType):
                        setattr(obj, meth_name, traced(meth, f"{obj.__name__}.{meth_name}"))
                    elif isinstance(meth, classmethod):
                        setattr(obj, meth_name, classmethod(traced(meth.__func__, f"{obj.__name__}.{meth_name}")))
