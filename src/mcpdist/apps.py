"""Network metrics built on the distance distributions.

k-connectivity for macro-diversity (can a user reach at least k base
stations within range R?) and cache-hit probability for D2D networks
(does a typical device see at least k neighbors within range R?), with
cluster-radius sweeps at constant mean cluster size.  A sweep is one CDF
table: one row of parameters per cluster radius, every k at once.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from ._special import gammainc
from .analytic import CurveKind, McpParams, cdf_table
from .geometry import _campbell_count

__all__ = [
    "SweepMetric",
    "SweepRow",
    "SweepSpec",
    "cache_hit_probability",
    "connectivity_probability",
    "sweep",
]


class SweepMetric(str, Enum):
    CONNECTIVITY = "connectivity"
    CACHE_HIT = "cache_hit"


@dataclass(frozen=True)
class SweepSpec:
    """A cluster-radius sweep at fixed parent intensity and mean cluster size."""

    base: McpParams
    rd_grid: tuple[float, ...]
    connect_range: float
    k_values: tuple[int, ...]
    include_ppp_reference: bool = True

    def __post_init__(self):
        # cdf_table and _metric check the orders and the range.  rd is checked
        # here: under hold="lambda_d" a bad rd would be reported as a bad mbar.
        object.__setattr__(self, "rd_grid", tuple(float(r) for r in self.rd_grid))
        if not self.rd_grid or any(r <= 0.0 for r in self.rd_grid):
            raise ValueError("rd_grid must be nonempty and positive")
        if any(b >= a for b, a in zip(self.rd_grid, self.rd_grid[1:])):
            raise ValueError("rd_grid must be strictly increasing")


@dataclass(frozen=True)
class SweepRow:
    rd: float  # inf marks the PPP reference row
    k: int
    value: float


def connectivity_probability(R: float, k: int, p: McpParams) -> float:
    """Probability of reaching at least k stations within range R."""
    return float(_metric(SweepMetric.CONNECTIVITY, R, [k], [p])[0, 0])


def cache_hit_probability(R: float, k: int, p: McpParams) -> float:
    """Probability that a typical node sees at least k neighbors within R."""
    return float(_metric(SweepMetric.CACHE_HIT, R, [k], [p])[0, 0])


def _metric(metric: SweepMetric, R: float, ks, params: Sequence[McpParams]) -> np.ndarray:
    """The metric at range R, a len(ks) x len(params) array from one CDF table.

    Connectivity is the kth contact distance CDF, a cache hit the kth
    nearest-neighbor distance CDF of the typical node.
    """
    if not math.isfinite(R) or R <= 0.0:
        raise ValueError(f"range must be finite and positive, got {R!r}")
    kind = CurveKind.CONTACT if metric is SweepMetric.CONNECTIVITY else CurveKind.NND
    return cdf_table(kind, np.full(len(params), R), ks, params)


def sweep(spec: SweepSpec, metric: SweepMetric, hold: str = "mbar") -> list[SweepRow]:
    """Evaluate a metric across the cluster-radius grid.

    By default mbar is held fixed, so the daughter intensity rescales as
    mbar / (v_n rd^n) at every grid point; hold="lambda_d" instead keeps
    the base daughter intensity and lets mbar grow as mbar (rd / base.rd)^n.
    The whole grid is one CDF table call, one parameter row per grid
    point, for every k.  PPP reference rows (rd = inf, density
    lambda_p * mbar) are appended when requested, and rows come out sorted
    by (rd, k).
    """
    metric = SweepMetric(metric)
    if hold not in ("mbar", "lambda_d"):
        raise ValueError(f"hold must be 'mbar' or 'lambda_d', got {hold!r}")
    base = spec.base
    if hold == "mbar":
        params = [replace(base, rd=rd) for rd in spec.rd_grid]
    else:
        with np.errstate(over="ignore"):  # McpParams refuses an inf or 0 mbar
            growth = np.power(np.divide(spec.rd_grid, base.rd), base.n)
        params = [replace(base, rd=rd, mbar=float(base.mbar * g))
                  for rd, g in zip(spec.rd_grid, growth)]
    values = _metric(metric, spec.connect_range, spec.k_values, params)
    rows = [
        SweepRow(rd, k, float(v))
        for rd, column in zip(spec.rd_grid, values.T)
        for k, v in zip(spec.k_values, column)
    ]
    if spec.include_ppp_reference:
        # ppp_cdf_contact's P[Poisson(count) >= k], with lambda_p and mbar
        # apart: their product may overflow where the count does not.
        count = _campbell_count(spec.connect_range, base.n, base.lambda_p, base.mbar)
        rows += [SweepRow(math.inf, k, gammainc(k, count)) for k in spec.k_values]
    rows.sort(key=lambda row: (row.rd, row.k))
    return rows
