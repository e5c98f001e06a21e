"""Monte Carlo oracle: cluster-process sampling and empirical-CDF tooling.

Samples stationary and Palm-conditioned realizations, measures kth
distances from the origin, and compares empirical CDFs against the
analytic curves.  Every run draws from its own counter-based substream,
so results are identical for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import CurveKind, DistributionCurve, McpParams, distribution_curve, quantile_radius
from .geometry import unit_ball_volume

__all__ = [
    "CensoringError",
    "EmpiricalCdf",
    "SimConfig",
    "ValidationRow",
    "kth_distances",
    "ks_distance",
    "sample_mcp",
    "sample_mcp_palm",
    "sample_uniform_ball",
    "simulate_kth_distances",
    "validate_against_analytic",
    "write_raw_samples",
]

THREADS_ENV_VAR = "MCPDIST_THREADS"
# KS acceptance threshold: 1.5x the 95% DKW band.
KS_THRESHOLD_FACTOR = 1.5 * 1.36

_STATIONARY_STREAM = 0
_PALM_STREAM = 1


class CensoringError(RuntimeError):
    """Too many runs were censored for the empirical CDF to be trusted."""


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign: parameters, window, and run budget."""

    params: McpParams
    observation_radius: float
    samples: int
    seed: int
    max_k: int

    def __post_init__(self):
        if not math.isfinite(self.observation_radius) or self.observation_radius <= 0.0:
            raise ValueError("observation_radius must be finite and positive")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.max_k < 1:
            raise ValueError("max_k must be at least 1")


def _substream(seed: int, stream: int, run: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, run))
    return np.random.Generator(np.random.Philox(ss))


def sample_uniform_ball(n, radius, rng, size=None):
    """Uniform draw(s) in the n-ball of the given radius about the origin.

    Direction from a normalized Gaussian vector, radius from U^(1/n)
    scaling.  Returns shape (n,) for size None, else (size, n).
    """
    m = 1 if size is None else int(size)
    g = rng.standard_normal((m, n))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    np.divide(g, norms, out=g, where=norms > 0.0)
    radii = radius * rng.random(m) ** (1.0 / n)
    points = g * radii[:, np.newaxis]
    return points[0] if size is None else points


def sample_mcp(cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """One stationary realization: daughter points as an (N, n) array.

    Parents form a Poisson process in the ball of radius
    observation_radius + rd: any parent farther out cannot place a
    daughter inside the observation window.  Parents themselves are not
    points of the process.
    """
    p = cfg.params
    window = cfg.observation_radius + p.rd
    n_parents = rng.poisson(p.lambda_p * unit_ball_volume(p.n) * window**p.n)
    parents = sample_uniform_ball(p.n, window, rng, size=n_parents)
    counts = rng.poisson(p.mbar, size=n_parents)
    offsets = sample_uniform_ball(p.n, p.rd, rng, size=int(counts.sum()))
    return np.repeat(parents, counts, axis=0) + offsets


def sample_mcp_palm(cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """One reduced-Palm realization seen from a typical point at the origin.

    An independent stationary sample plus the typical point's own cluster:
    the cluster center sits at -u for u uniform in the cluster ball, and
    the Poisson(mbar) siblings are uniform around it.  The typical point
    itself is excluded.
    """
    p = cfg.params
    base = sample_mcp(cfg, rng)
    center = -sample_uniform_ball(p.n, p.rd, rng)
    n_siblings = rng.poisson(p.mbar)
    siblings = center + sample_uniform_ball(p.n, p.rd, rng, size=n_siblings)
    return np.vstack([base, siblings])


def kth_distances(sample: np.ndarray, max_k: int) -> np.ndarray:
    """Distances from the origin to the max_k closest points, inf-padded."""
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    out = np.full(max_k, np.inf)
    sample = np.asarray(sample, dtype=float)
    if sample.size == 0:
        return out
    d = np.sqrt((sample * sample).sum(axis=1))
    m = min(d.size, max_k)
    out[:m] = np.sort(np.partition(d, m - 1)[:m])
    return out


def _resolve_workers(workers: int | None) -> int:
    env = os.environ.get(THREADS_ENV_VAR)
    try:
        cap = int(env) if env else None
    except ValueError:
        cap = 0
    if cap is not None and cap < 1:
        raise ValueError(f"{THREADS_ENV_VAR} must be a positive integer, got {env!r}")
    requested = workers if workers is not None else (cap if cap is not None else 1)
    if cap is not None:
        requested = min(requested, cap)
    return max(1, requested)


def simulate_kth_distances(
    cfg: SimConfig, palm: bool = False, workers: int | None = None
) -> np.ndarray:
    """(samples, max_k) matrix of kth distances over independent runs.

    Row i depends only on (seed, i), so output is bit-identical for any
    worker count and for repeated calls.
    """
    stream = _PALM_STREAM if palm else _STATIONARY_STREAM
    sampler = sample_mcp_palm if palm else sample_mcp
    out = np.empty((cfg.samples, cfg.max_k))

    def block(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            rng = _substream(cfg.seed, stream, i)
            out[i] = kth_distances(sampler(cfg, rng), cfg.max_k)

    workers = min(_resolve_workers(workers), cfg.samples)
    if workers <= 1:
        block(0, cfg.samples)
    else:
        step = -(-cfg.samples // workers)
        bounds = [(lo, min(lo + step, cfg.samples)) for lo in range(0, cfg.samples, step)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(block, lo, hi) for lo, hi in bounds]:
                future.result()
    return out


# ---------------------------------------------------------------------------
# Empirical CDFs and Kolmogorov-Smirnov comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EmpiricalCdf:
    """Sorted in-window distances plus the count of censored runs."""

    sorted_samples: np.ndarray
    censored_count: int

    @property
    def total(self) -> int:
        return self.sorted_samples.size + self.censored_count

    @classmethod
    def from_distances(cls, distances: np.ndarray, observation_radius: float) -> "EmpiricalCdf":
        """Censor distances beyond the observation window (or missing)."""
        d = np.asarray(distances, dtype=float)
        kept = d[np.isfinite(d) & (d <= observation_radius)]
        return cls(np.sort(kept), int(d.size - kept.size))

    def evaluate(self, r):
        """F-hat(r) = (#samples <= r) / total, censored runs in the denominator."""
        idx = np.searchsorted(self.sorted_samples, r, side="right")
        return idx / self.total

    def censored_fraction(self) -> float:
        return self.censored_count / self.total


def ks_distance(
    ecdf: EmpiricalCdf, curve: DistributionCurve, censored_tolerance: float = 0.01
) -> float:
    """Sup-distance between the empirical CDF and a sampled curve.

    Both one-sided jumps are checked at every sample point; the curve is
    interpolated linearly between its nodes and treated as 0 below its
    first node, so step CDFs encoded via adjacent nodes compare exactly.
    """
    if ecdf.total == 0:
        raise ValueError("empirical CDF holds no runs")
    if ecdf.censored_fraction() > censored_tolerance:
        raise CensoringError(
            f"{ecdf.censored_count} of {ecdf.total} runs censored "
            f"({ecdf.censored_fraction():.2%} > {censored_tolerance:.2%}); "
            "enlarge the observation window"
        )
    x = ecdf.sorted_samples
    radii = curve.radii
    values = curve.values
    if x.size and (radii[0] > x[0] or radii[-1] < x[-1]):
        raise ValueError("curve does not cover the sample range")
    n = ecdf.total
    right = float(values[-1])
    f_hi = np.interp(x, radii, values, left=0.0, right=right)
    f_lo = np.interp(np.nextafter(x, -np.inf), radii, values, left=0.0, right=right)
    steps = np.arange(1, x.size + 1) / n
    d_plus = float(np.max(steps - f_hi, initial=0.0))
    d_minus = float(np.max(f_lo - (steps - 1.0 / n), initial=0.0))
    return max(d_plus, d_minus, 0.0)


# ---------------------------------------------------------------------------
# Validation harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationRow:
    kind: str  # "cd" or "nnd"
    k: int
    ks: float
    threshold: float
    censored_fraction: float

    @property
    def passed(self) -> bool:
        return self.ks <= self.threshold


def validate_against_analytic(
    p: McpParams,
    k_values: list[int],
    samples: int,
    seed: int,
    workers: int | None = None,
    r_max: float | None = None,
) -> list[ValidationRow]:
    """Run the simulator against the analytic CDFs for every requested k.

    Returns one row per (kind, k) with the KS distance and its DKW-based
    threshold.  Raises CensoringError if more than 1% of runs end beyond
    the observation window.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    k_values = sorted(set(int(k) for k in k_values))
    if not k_values or k_values[0] < 1:
        raise ValueError("k values must be positive integers")
    k_max = k_values[-1]
    threshold = KS_THRESHOLD_FACTOR / math.sqrt(samples)
    rows: list[ValidationRow] = []
    for palm, kind_name, curve_kind in (
        (False, "cd", CurveKind.CONTACT),
        (True, "nnd", CurveKind.NND),
    ):
        radius = r_max if r_max is not None else quantile_radius(curve_kind, k_max, p)
        cfg = SimConfig(p, radius, samples, seed, k_max)
        distances = simulate_kth_distances(cfg, palm=palm, workers=workers)
        for k in k_values:
            curve = distribution_curve(curve_kind, k, p, r_max=radius)
            ecdf = EmpiricalCdf.from_distances(distances[:, k - 1], radius)
            ks = ks_distance(ecdf, curve)
            rows.append(ValidationRow(kind_name, k, ks, threshold, ecdf.censored_fraction()))
    return rows


def write_raw_samples(stream, distances: np.ndarray, observation_radius: float) -> None:
    """Dump per-run kth distances as CSV: run,k,distance,censored."""
    stream.write("run,k,distance,censored\n")
    for run in range(distances.shape[0]):
        for k in range(1, distances.shape[1] + 1):
            d = distances[run, k - 1]
            if math.isfinite(d) and d <= observation_radius:
                stream.write(f"{run},{k},{d!r},0\n")
            else:
                stream.write(f"{run},{k},,1\n")
