"""Monte Carlo oracle: cluster-process sampling and empirical-CDF tooling.

Samples stationary and Palm-conditioned realizations, measures kth
distances from the origin, and compares empirical CDFs against the
analytic curves.  Runs are simulated in fixed blocks, each drawn in a few
vectorized calls from its own counter-based substream keyed by (seed,
stream, block).  The block size depends only on the parameters and the
window, so results are identical for any worker count, and a larger run
budget extends the same rows.

Every parent draws its distance from the origin and its daughter count.
When only the max_k nearest points of a run are wanted, a parent farther
than rd beyond the reach of the run's first max_k points cannot supply
one, so only the remaining parents draw a direction and daughter offsets.
The max_k nearest points keep their law, but the draws that follow the
thinning depend on max_k, so the rows do too.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import CurveKind, DistributionCurve, McpParams, distribution_curves, quantile_radius
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

# Fail-fast caps, checked before any sampling: the Campbell mean of the
# points one run draws, and the entries of the (samples, max_k) matrix.
MAX_MEAN_POINTS = 1_000_000
MAX_DISTANCES = 50_000_000

# A block holds about this many points in expectation, and at most this
# many runs; its selection table is split by runs beyond _TABLE_CELLS cells.
_BLOCK_POINTS = 2**14
_TABLE_CELLS = 4 * _BLOCK_POINTS

# Every sampled point lies within observation_radius + 2 rd of the origin;
# inside this range its squared distance is a normal double.
_REACH_RANGE = (1e-150, 1e150)

# Relative slack on the reach within which parents are kept.  A computed
# distance is off by at most a few (n + 4) ulps of the parent radius plus
# rd, about 1e-13 of it even at the largest n, so a wider reach only keeps
# parents whose points cannot be selected.
_KEEP_MARGIN = 1e-6

_STATIONARY_STREAM = 0
_PALM_STREAM = 1


class CensoringError(RuntimeError):
    """Too many runs were censored for the empirical CDF to be trusted."""


def _mean_counts(p: McpParams, observation_radius: float) -> tuple[float, float]:
    # Campbell means of the parents, lambda_p v_n (R + rd)^n, and of the
    # daughters, mbar times that, that one stationary run samples; formed
    # in logs so that a huge window gives inf rather than an OverflowError.
    log_parents = (math.log(p.lambda_p) + math.log(unit_ball_volume(p.n))
                   + p.n * math.log(observation_radius + p.rd))
    parents = math.exp(min(log_parents, 709.0))
    return parents, parents * p.mbar


def _check_budget(p: McpParams, observation_radius: float, samples: int, max_k: int) -> None:
    if samples * max_k > MAX_DISTANCES:
        raise ValueError(
            f"samples x max_k = {samples * max_k} exceeds the cap of {MAX_DISTANCES} distances"
        )
    parents, daughters = _mean_counts(p, observation_radius)
    # Parents, daughters and the Palm siblings are all drawn as points.
    mean = parents + daughters + p.mbar
    if mean > MAX_MEAN_POINTS:
        raise ValueError(
            f"one run would sample {mean:.3g} points on average (parents, daughters "
            f"and Palm siblings), above the cap of {MAX_MEAN_POINTS}"
        )


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
        reach = self.observation_radius + 2.0 * self.params.rd
        if not _REACH_RANGE[0] <= reach <= _REACH_RANGE[1]:
            raise ValueError(
                f"observation_radius + 2 rd = {reach!r} lies outside {_REACH_RANGE}, "
                "where squared distances would over- or underflow"
            )
        _check_budget(self.params, self.observation_radius, self.samples, self.max_k)

    def runs_per_block(self, palm: bool = False) -> int:
        """Runs simulated together: about _BLOCK_POINTS points per block.

        Points here are the daughters (plus the mbar siblings under Palm),
        or the parents where mbar < 1 makes those the more numerous draw.
        """
        mean = max(_mean_counts(self.params, self.observation_radius))
        if palm:
            mean += self.params.mbar
        return int(max(1.0, _BLOCK_POINTS // max(mean, 1.0)))


def _substream(seed: int, stream: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, block))
    return np.random.Generator(np.random.Philox(ss))


def _scale_directions(g: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Rescale each Gaussian row of g, in place, to length radii[i]."""
    norms = np.sqrt(np.einsum("ij,ij->i", g, g))
    g *= np.divide(radii, norms, out=np.zeros(radii.size), where=norms > 0.0)[:, np.newaxis]
    return g


def sample_uniform_ball(n, radius, rng, size=None):
    """Uniform draw(s) in the n-ball of the given radius about the origin.

    Direction from a normalized Gaussian vector, radius from U^(1/n)
    scaling.  Returns shape (n,) for size None, else (size, n).
    """
    m = 1 if size is None else int(size)
    g = rng.standard_normal((m, n))
    g = _scale_directions(g, radius * rng.random(m) ** (1.0 / n))
    return g[0] if size is None else g


def _kept_parents(owner, radii, counts, runs: int, rd: float, max_k: int) -> np.ndarray:
    """Mask of the parents that can place a point among their run's max_k nearest.

    owner, radii and counts give each parent's run, distance from the
    origin and daughter count.  Ranked by radius within its run, the first
    parents whose counts reach max_k hold max_k points within B = rho + rd
    of the origin, rho the radius of the last of them; a parent with
    rho - rd > B places every daughter beyond B, so it is dropped.  Runs
    with fewer than max_k points keep every parent, and a parent within rd
    of the origin (the Palm own cluster among them) is always kept.
    _KEEP_MARGIN widens B over the rounding of computed distances.
    """
    order = np.argsort(radii)
    # Run ids in the smallest unsigned type: numpy sorts 8- and 16-bit keys
    # stably by radix, several times faster than int64 keys.
    run_ids = owner.astype(np.min_scalar_type(runs))
    order = order[np.argsort(run_ids[order], kind="stable")]
    run = owner[order]
    per_run = np.bincount(run, minlength=runs)
    starts = np.cumsum(per_run) - per_run
    running = np.cumsum(counts[order])
    before = np.concatenate(([0], running))[starts]
    # Running counts only grow within a run, so the parents still short of
    # max_k come first and their number is the rank of the run's j*.
    short = np.bincount(run[running - before[run] < max_k], minlength=runs)
    reach = np.full(runs, np.inf)
    full = short < per_run
    reach[full] = radii[order[starts[full] + short[full]]] + rd
    return radii - rd <= reach[owner] * (1.0 + _KEEP_MARGIN)


def _sample_block(cfg: SimConfig, rng: np.random.Generator, runs: int, palm: bool,
                  max_k: int | None = None):
    """`runs` independent realizations as (points, counts).

    points is (N, n) with each run's points contiguous and in run order;
    counts[i] is the number of points of run i.

    Stationary: parents form a Poisson process in the ball of radius
    observation_radius + rd, since any parent farther out cannot place a
    daughter inside the observation window; parents themselves are not
    points of the process.  Palm adds, after each run's parents, the
    typical point's own cluster: the cluster center sits at -u for u
    uniform in the cluster ball, and the Poisson(mbar) siblings are
    uniform around it.  The typical point itself is excluded.

    Every parent's radius and daughter count is drawn first (the own
    cluster's |u| and sibling count last).  Given max_k, only the parents
    that _kept_parents keeps then draw a direction and daughter offsets,
    so each run holds its max_k nearest points but not all of its points;
    max_k None keeps every parent.
    """
    p = cfg.params
    n_parents = rng.poisson(_mean_counts(p, cfg.observation_radius)[0], size=runs)
    total = int(n_parents.sum())
    radii = (cfg.observation_radius + p.rd) * rng.random(total) ** (1.0 / p.n)
    daughters = rng.poisson(p.mbar, size=total)
    if palm:
        # Each run's own cluster goes in right after its last parent; its
        # center, |u| times a uniform direction, has the law of -u.
        ends = np.cumsum(n_parents)
        radii = np.insert(radii, ends, p.rd * rng.random(runs) ** (1.0 / p.n))
        daughters = np.insert(daughters, ends, rng.poisson(p.mbar, size=runs))
    owner = np.repeat(np.arange(runs), n_parents + 1 if palm else n_parents)
    if max_k is not None:
        keep = _kept_parents(owner, radii, daughters, runs, p.rd, max_k)
        owner, radii, daughters = owner[keep], radii[keep], daughters[keep]
    centers = _scale_directions(rng.standard_normal((radii.size, p.n)), radii)
    offsets = sample_uniform_ball(p.n, p.rd, rng, size=int(daughters.sum()))
    points = np.repeat(centers, daughters, axis=0) + offsets
    counts = np.bincount(owner, weights=daughters, minlength=runs).astype(np.int64)
    return points, counts


def sample_mcp(cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """One stationary realization: daughter points as an (N, n) array."""
    return _sample_block(cfg, rng, 1, palm=False)[0]


def sample_mcp_palm(cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """One reduced-Palm realization seen from a typical point at the origin."""
    return _sample_block(cfg, rng, 1, palm=True)[0]


def _select_block(points: np.ndarray, counts: np.ndarray, max_k: int) -> np.ndarray:
    """Sorted distances to the up to max_k closest points of every run.

    Returns (runs, width) with width = min(max_k, largest count); rows of
    runs with fewer points are inf-padded.  Squared distances are scattered
    into an inf-padded runs x largest-count table, partitioned and sorted
    along each row, and square-rooted last (sqrt is monotone, so this picks
    the same values).  Runs are split in halves while the table would
    exceed _TABLE_CELLS cells, so one crowded run cannot blow it up.
    """
    width = int(counts.max(initial=0))
    if counts.size > 1 and counts.size * width > _TABLE_CELLS:
        half = counts.size // 2
        cut = int(counts[:half].sum())
        parts = (_select_block(points[:cut], counts[:half], max_k),
                 _select_block(points[cut:], counts[half:], max_k))
        out = np.full((counts.size, max(part.shape[1] for part in parts)), np.inf)
        out[:half, : parts[0].shape[1]] = parts[0]
        out[half:, : parts[1].shape[1]] = parts[1]
        return out
    # Coordinates are summed in a fixed order, so a point's distance does
    # not depend on what else is in the block.
    d2 = np.zeros(points.shape[0])
    for column in points.T:
        d2 += column * column
    run = np.repeat(np.arange(counts.size), counts)
    starts = np.cumsum(counts) - counts
    table = np.full((counts.size, width), np.inf)
    table[run, np.arange(d2.size) - starts[run]] = d2
    if width > max_k:
        table = np.partition(table, max_k - 1, axis=1)[:, :max_k]
    table.sort(axis=1)
    return np.sqrt(table)


def kth_distances(sample: np.ndarray, max_k: int) -> np.ndarray:
    """Distances from the origin to the max_k closest points, inf-padded."""
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    sample = np.asarray(sample, dtype=float)
    row = _select_block(sample, np.array([len(sample)]), max_k)[0]
    out = np.full(max_k, np.inf)
    out[: row.size] = row
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

    Runs are simulated in blocks of cfg.runs_per_block(palm); block b
    draws from substream (seed, stream, b), and its last rows are dropped
    when samples ends inside it.  Every parent's radius and daughter count
    is drawn; directions and offsets only for the parents that can hold
    one of the run's max_k nearest points (see _kept_parents).  Row i
    therefore depends only on (params, window, seed, max_k, i): output is
    bit-identical for any worker count and for repeated calls, a larger
    samples extends the same rows, and a different max_k draws different
    rows of the same law.
    """
    stream = _PALM_STREAM if palm else _STATIONARY_STREAM
    block_runs = cfg.runs_per_block(palm)
    out = np.empty((cfg.samples, cfg.max_k))

    def block(b: int) -> None:
        lo = b * block_runs
        hi = min(lo + block_runs, cfg.samples)
        rng = _substream(cfg.seed, stream, b)
        points, counts = _sample_block(cfg, rng, block_runs, palm, cfg.max_k)
        rows = _select_block(points, counts, cfg.max_k)[: hi - lo]
        out[lo:hi, : rows.shape[1]] = rows
        out[lo:hi, rows.shape[1]:] = np.inf

    n_blocks = -(-cfg.samples // block_runs)
    # More threads than cores or blocks would only wait.
    workers = min(_resolve_workers(workers), n_blocks, os.cpu_count() or 1)
    if workers <= 1:
        for b in range(n_blocks):
            block(b)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(block, range(n_blocks)))
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
    dump=None,
) -> list[ValidationRow]:
    """Run the simulator against the analytic CDFs for every requested k.

    Returns one row per (kind, k) with the KS distance and its DKW-based
    threshold.  Raises CensoringError if more than 1% of runs end beyond
    the observation window.  The simulation caps are checked (at the
    smallest window the runs could have) before any curve is computed.
    If dump is a text stream, the stationary runs' kth distances are
    written to it with write_raw_samples.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    k_values = sorted(set(int(k) for k in k_values))
    if not k_values or k_values[0] < 1:
        raise ValueError("k values must be positive integers")
    k_max = k_values[-1]
    _check_budget(p, r_max if r_max is not None else 0.0, samples, k_max)
    threshold = KS_THRESHOLD_FACTOR / math.sqrt(samples)
    rows: list[ValidationRow] = []
    for palm, kind_name, curve_kind in (
        (False, "cd", CurveKind.CONTACT),
        (True, "nnd", CurveKind.NND),
    ):
        radius = r_max if r_max is not None else quantile_radius(curve_kind, k_max, p)
        cfg = SimConfig(p, radius, samples, seed, k_max)
        distances = simulate_kth_distances(cfg, palm=palm, workers=workers)
        if dump is not None and not palm:
            write_raw_samples(dump, distances, radius)
        for curve in distribution_curves(curve_kind, k_values, p, r_max=radius):
            ecdf = EmpiricalCdf.from_distances(distances[:, curve.k - 1], radius)
            ks = ks_distance(ecdf, curve)
            rows.append(ValidationRow(kind_name, curve.k, ks, threshold, ecdf.censored_fraction()))
    return rows


def write_raw_samples(stream, distances: np.ndarray, observation_radius: float) -> None:
    """Dump per-run kth distances as CSV: run,k,distance,censored."""
    stream.write("run,k,distance,censored\n")
    for run in range(distances.shape[0]):
        for k in range(1, distances.shape[1] + 1):
            d = distances[run, k - 1]
            if math.isfinite(d) and d <= observation_radius:
                stream.write(f"{run},{k},{float(d)!r},0\n")
            else:
                stream.write(f"{run},{k},,1\n")
