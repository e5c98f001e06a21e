"""Monte Carlo oracle: cluster-process sampling and empirical-CDF tooling.

Draws, for each run of a stationary or Palm-conditioned realization, the
distances from the origin to its max_k nearest points, and compares their
empirical CDFs against the analytic curves.  Runs are simulated in fixed
blocks, each drawn in a few vectorized calls from its own SFC64
substream keyed by (seed, stream, block).  SimConfig sizes the blocks,
and checks the MAX_MEAN_POINTS cap, from one estimate (not a bound) of
the points a run draws: kept parents, their daughters, Palm siblings.  A
wide window costs only what a run draws in it.  The estimate depends only
on the parameters, the window and max_k, so results are identical for
any worker count, and a larger run budget extends the same rows.

Each run draws its parents in order of distance from the origin, as the
gaps of a unit-rate Poisson process in the volume coordinate, in rounds,
and stops once no further parent can place a point among its max_k
nearest.  Only the kept parents draw daughter offsets, each about a
parent on the first axis of its own frame.  The max_k nearest distances
keep their law, but the draws depend on max_k, so the rows do too.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import (CurveKind, DistributionCurve, McpParams, _check_orders,
                       distribution_curves, quantile_radius)
from .geometry import unit_ball_volume

__all__ = [
    "CensoringError",
    "EmpiricalCdf",
    "SimConfig",
    "ValidationRow",
    "ks_distance",
    "simulate_kth_distances",
    "validate_against_analytic",
    "write_raw_samples",
]

THREADS_ENV_VAR = "MCPDIST_THREADS"
# KS acceptance threshold: 1.5x the 95% DKW band.
KS_THRESHOLD_FACTOR = 1.5 * 1.36
# Largest share of runs that may end outside the observation window.
MAX_CENSORED_FRACTION = 0.01

# Fail-fast caps, checked before any sampling: the estimated mean number of
# points one Palm run draws, and the entries of the (samples, max_k) matrix.
MAX_MEAN_POINTS = 1_000_000
MAX_DISTANCES = 50_000_000

# A block holds about this many points in expectation, and at most this
# many runs; its selection table is split by runs beyond _TABLE_CELLS cells.
_BLOCK_POINTS = 2**14
_TABLE_CELLS = 4 * _BLOCK_POINTS

# Every sampled point lies within observation_radius + 2 rd of the origin;
# inside this range its squared distance is a normal double.
_REACH_RANGE = (1e-150, 1e150)
# A parent's radius is formed from its share v / v_max of the window's
# mean parent count v_max (see _radial_parents); below this cap the share
# stays a normal double for any volume v above 1e-150.
_MAX_WINDOW_PARENTS = 1e150

# Relative slack on the reach within which parents are kept.  A computed
# distance is off by at most a few (n + 4) ulps of the parent radius plus
# rd, about 1e-13 of it even at the largest n, so a wider reach only keeps
# parents whose points cannot be selected.
_KEEP_MARGIN = 1e-6

_STATIONARY_STREAM = 0
_PALM_STREAM = 1


class CensoringError(RuntimeError):
    """Too many runs were censored for the empirical CDF to be trusted."""


def _parents_within(p: McpParams, radius: float) -> float:
    # Campbell mean lambda_p v_n radius^n of the parents within radius of
    # the origin, formed in logs so that a huge radius gives inf rather
    # than an OverflowError.
    log_parents = (math.log(p.lambda_p) + math.log(unit_ball_volume(p.n))
                   + p.n * math.log(radius))
    return math.exp(min(log_parents, 709.0))


def _drawn_parents(p: McpParams, observation_radius: float, max_k: int) -> float:
    """Estimated mean number of parents that one run keeps.

    Parents within rho hold max_k daughters on average, lambda_p mbar v_n
    rho^n = max_k, and those out to rho + 2 rd (up to the edge R + rd) are
    kept; see _radial_parents.  So is the parent that brings a run to
    max_k, with all its daughters: one per run while the window has one.
    """
    window = observation_radius + p.rd
    log_rho = (math.log(max_k) - math.log(p.mbar) - math.log(p.lambda_p)
               - math.log(unit_ball_volume(p.n))) / p.n
    edge = min(math.exp(min(log_rho, math.log(window))) + 2.0 * p.rd, window)
    return max(_parents_within(p, edge), min(1.0, _parents_within(p, window)))


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign: parameters, window, and run budget."""

    params: McpParams
    observation_radius: float
    samples: int
    seed: int
    max_k: int

    def __post_init__(self):
        # SeedSequence takes any nonnegative integer; anything else would
        # fail only once sampling starts, with a message that names no argument.
        seed = self.seed
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
        if not math.isfinite(self.observation_radius) or self.observation_radius <= 0.0:
            raise ValueError("observation_radius must be finite and positive")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.max_k < 1:
            raise ValueError("max_k must be at least 1")
        p = self.params
        reach = self.observation_radius + 2.0 * p.rd
        if not _REACH_RANGE[0] <= reach <= _REACH_RANGE[1]:
            raise ValueError(
                f"observation_radius + 2 rd = {reach!r} lies outside {_REACH_RANGE}, "
                "where squared distances would over- or underflow"
            )
        if _parents_within(p, self.observation_radius + p.rd) > _MAX_WINDOW_PARENTS:
            raise ValueError(f"the window holds more than {_MAX_WINDOW_PARENTS:.0e} parents on "
                             "average, where parent radii would lose precision")
        if self.samples * self.max_k > MAX_DISTANCES:
            raise ValueError(f"samples x max_k = {self.samples * self.max_k} exceeds the cap "
                             f"of {MAX_DISTANCES} distances")
        mean = self._mean_points(palm=True)
        if mean > MAX_MEAN_POINTS:
            raise ValueError(
                f"one run would draw {mean:.3g} points on average (kept parents, their "
                f"daughters and Palm siblings), above the cap of {MAX_MEAN_POINTS}"
            )

    def _mean_points(self, palm: bool) -> float:
        # The parents a run keeps and one more, the kept parents' daughters,
        # and under Palm the mbar siblings; see _drawn_parents.
        p = self.params
        mean = 1.0 + _drawn_parents(p, self.observation_radius, self.max_k) * (1.0 + p.mbar)
        return mean + p.mbar if palm else mean

    def runs_per_block(self, palm: bool = False) -> int:
        """Runs simulated together: about _BLOCK_POINTS drawn points per block."""
        return int(max(1.0, _BLOCK_POINTS // self._mean_points(palm)))


def _substream(seed: int, stream: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, block))
    return np.random.Generator(np.random.SFC64(ss))


def _uniform_ball(n: int, radius: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, n) uniform draws in the n-ball: Gaussian directions, U^(1/n) lengths."""
    g = rng.standard_normal((size, n))
    lengths = radius * rng.random(size) ** (1.0 / n)
    norms = np.sqrt(np.einsum("ij,ij->i", g, g))
    g *= np.divide(lengths, norms, out=np.zeros(size), where=norms > 0.0)[:, np.newaxis]
    return g


def _daughter_points(rng, n: int, rd: float, radii: np.ndarray, daughters: np.ndarray):
    """daughters[i] points uniform in the rd-ball about radii[i] e_1, parent by parent.

    A rotation taking a parent's direction to e_1 keeps its offsets' joint
    law, so the distances sqrt((rho + o_1)^2 + sum_{i>=2} o_i^2) keep theirs.
    """
    points = _uniform_ball(n, rd, rng, int(daughters.sum()))
    points[:, 0] += np.repeat(radii, daughters)
    return points


def _radial_parents(draw, runs: int, m: int, v_max: float, outer: float, n: int, rd: float,
                    max_k: int, own=None):
    """Each run's kept parents, drawn in order of distance from the origin.

    Ranked by distance, the parents of a Poisson process sit at volumes
    v = lambda_p v_n r^n that form a unit-rate Poisson process on the line,
    so draw(rows, m) gives, for each run in rows, the (len(rows), m) volume
    gaps and daughter counts of its next m parents outward.  Parents are
    kept only inside the window, v <= v_max, whose edge has radius outer.
    The first parent at which a run's running daughter count reaches max_k
    has radius rho; a parent with r - rd > rho + rd places every daughter
    beyond the run's max_k nearest points, so it is dropped, and
    _KEEP_MARGIN widens the reach rho + rd over the rounding of computed
    distances.  Runs with fewer than max_k points in the window keep every
    parent of the window (a rho found past the window edge keeps them all
    too, so counts past it need no mask).

    own is None or the Palm own clusters, (radii <= rd, counts) per run:
    each joins its run's running count at its radius and is always kept.

    Radii come out sorted, so the kept parents are a prefix of each run's
    parents, and a run is done once its last drawn parent is not kept.
    The first round draws m parents per run; the runs left draw rounds of
    ceil(sqrt(m)) parents, the spread of a Poisson count of mean m, then
    three times as many each round.  Returns the kept parents' (run,
    radius, daughter count), run by run, each run's own cluster first and
    then its parents outward.
    """
    reach = np.full(runs, np.inf)
    last = np.zeros(runs)  # volume of each run's last drawn parent
    total = np.zeros(runs, dtype=np.int64)  # daughters of its parents so far
    kept = np.full(runs, int(own is not None))
    # A window too small for double precision holds no parent.
    scale = max(v_max, np.finfo(float).tiny)
    step = math.ceil(math.sqrt(m))
    active = np.arange(runs)
    rounds = []
    while active.size:
        gaps, counts = draw(active, m)
        # Adding the last volume to the first gap, not to every cumulative
        # sum, gives the same bits as one cumulative sum over all rounds.
        gaps[:, 0] += last[active]
        v = np.cumsum(gaps, axis=1, out=gaps)
        radii = outer * (np.minimum(v, v_max) / scale) ** (1.0 / n)
        running = np.cumsum(counts, axis=1) + total[active, np.newaxis]
        if own is not None:
            own_r, own_c = own[0][active], own[1][active]
            running += own_c[:, np.newaxis] * (own_r[:, np.newaxis] <= radii)
        hit = running >= max_k
        rows, j = np.arange(active.size), hit.argmax(axis=1)
        rho = radii[rows, j]
        if own is not None:
            # Counts already at max_k before parent j came from the own
            # cluster, which joined between parent j - 1 and parent j.
            rho = np.where(running[rows, j] - counts[rows, j] >= max_k, own_r, rho)
        found = hit[:, -1] & np.isinf(reach[active])
        reach[active[found]] = rho[found] + rd
        total[active] += counts.sum(axis=1)
        keep = (v <= v_max) & (radii - rd <= (reach[active] * (1.0 + _KEEP_MARGIN))[:, np.newaxis])
        at, col = np.nonzero(keep)
        owner = active[at]
        rounds.append((owner, kept[owner] + col, radii[keep], counts[keep]))
        kept[active] += keep.sum(axis=1)
        last[active] = v[:, -1]
        active = active[keep[:, -1]]
        m, step = step, 3 * step
    starts = np.cumsum(kept) - kept
    radii = np.empty(int(kept.sum()))
    counts = np.empty(radii.size, dtype=np.int64)
    if own is not None:
        radii[starts], counts[starts] = own
    for owner, pos, r, c in rounds:
        radii[starts[owner] + pos] = r
        counts[starts[owner] + pos] = c
    return np.repeat(np.arange(runs), kept), radii, counts


def _sample_block(cfg: SimConfig, rng: np.random.Generator, palm: bool):
    """cfg.runs_per_block(palm) independent realizations as (points, counts).

    points is (N, n) with each run's points contiguous and in run order;
    counts[i] is the number of points of run i.  Points are in their
    parent's frame (_daughter_points): only their distances are meaningful.

    Stationary: parents form a Poisson process in the ball of radius
    observation_radius + rd, since any parent farther out cannot place a
    daughter inside the observation window; parents themselves are not
    points of the process.  Palm adds to each run the typical point's own
    cluster: the cluster center sits at -u for u uniform in the cluster
    ball, and the Poisson(mbar) siblings are uniform around it.  The
    typical point itself is excluded.

    Under Palm the own clusters' |u| and sibling counts are drawn first.
    Then each run draws its parents outward in rounds, a volume gap and a
    daughter count each, until no further parent can hold one of its
    max_k nearest points or the window ends (see _radial_parents); the
    first round draws about as many parents as a run keeps.  Only the kept
    parents, the own cluster as one more at radius |u|, then draw daughter
    offsets, so each run holds its max_k nearest points but not all of them.
    """
    p, runs, max_k = cfg.params, cfg.runs_per_block(palm), cfg.max_k
    own = (p.rd * rng.random(runs) ** (1.0 / p.n), rng.poisson(p.mbar, size=runs)) if palm else None

    def draw(rows, m):
        return rng.standard_exponential((rows.size, m)), rng.poisson(p.mbar, size=(rows.size, m))

    owner, radii, daughters = _radial_parents(
        draw, runs, math.ceil(_drawn_parents(p, cfg.observation_radius, max_k)) + 1,
        _parents_within(p, cfg.observation_radius + p.rd), cfg.observation_radius + p.rd,
        p.n, p.rd, max_k, own)
    counts = np.bincount(owner, weights=daughters, minlength=runs).astype(np.int64)
    return _daughter_points(rng, p.n, p.rd, radii, daughters), counts


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

    Runs are simulated in blocks of cfg.runs_per_block(palm), sized by
    the points a run draws; block b draws from substream (seed, stream, b),
    and its last rows are dropped when samples ends inside it.  Each run
    draws only the parents that can hold one of its max_k nearest points
    (see _radial_parents), so row i depends only on
    (params, window, seed, max_k, i): output is bit-identical for any
    worker count and for repeated calls, a larger samples extends the same
    rows, and a different max_k draws different rows of the same law.
    With workers None the thread count is MCPDIST_THREADS (default 1);
    when set, MCPDIST_THREADS also caps an explicit workers.
    """
    stream = _PALM_STREAM if palm else _STATIONARY_STREAM
    block_runs = cfg.runs_per_block(palm)
    out = np.full((cfg.samples, cfg.max_k), np.inf)

    def block(b: int) -> None:
        lo = b * block_runs
        hi = min(lo + block_runs, cfg.samples)
        rng = _substream(cfg.seed, stream, b)
        points, counts = _sample_block(cfg, rng, palm)
        rows = _select_block(points, counts, cfg.max_k)[: hi - lo]
        out[lo:hi, : rows.shape[1]] = rows

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


def ks_distance(ecdf: EmpiricalCdf, curve: DistributionCurve) -> float:
    """Sup-distance between the empirical CDF and a sampled curve.

    Both one-sided jumps are checked at every sample point; the curve is
    interpolated linearly between its nodes and treated as 0 below its
    first node, so step CDFs encoded via adjacent nodes compare exactly.
    Raises CensoringError if more than MAX_CENSORED_FRACTION of the runs
    are censored.
    """
    if ecdf.total == 0:
        raise ValueError("empirical CDF holds no runs")
    if ecdf.censored_fraction() > MAX_CENSORED_FRACTION:
        raise CensoringError(
            f"{ecdf.censored_count} of {ecdf.total} runs censored "
            f"({ecdf.censored_fraction():.2%} > {MAX_CENSORED_FRACTION:.2%}); "
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
    k_values: Sequence[int],
    samples: int,
    seed: int,
    r_max: float | None = None,
    dump: str | os.PathLike | None = None,
) -> list[ValidationRow]:
    """Run the simulator against the analytic CDFs for every requested k.

    Returns one row per (kind, k) with the KS distance and its DKW-based
    threshold, which assumes an exact reference: each kind's reference
    curves span its sampled distances, on a grid from 0 to the largest
    in-window one.  Raises CensoringError if more than 1% of runs end
    beyond the observation window.  The orders are checked (a range by its
    last order), then both windows (r_max, or each kind's CDF tail radius)
    and both SimConfigs, before any sampling.  If dump is a path, the
    stationary runs' kth distances are written there with
    write_raw_samples once both passes have their rows.  The simulations
    run on MCPDIST_THREADS worker threads (default 1).
    """
    _check_orders(k_values)
    k_values = sorted(set(int(k) for k in k_values))
    k_max = k_values[-1]
    configs = {
        kind: SimConfig(p, r_max if r_max is not None else quantile_radius(kind, k_max, p),
                        samples, seed, k_max)
        for kind in (CurveKind.CONTACT, CurveKind.NND)
    }
    threshold = KS_THRESHOLD_FACTOR / math.sqrt(samples)
    rows: list[ValidationRow] = []
    for kind, cfg in configs.items():
        palm = kind is CurveKind.NND
        radius = cfg.observation_radius
        distances = simulate_kth_distances(cfg, palm=palm)
        if dump is not None and not palm:
            stationary = distances
        # The reference curves end at the largest in-window sample, not at
        # the window edge, so their grid stays fine where the samples are.
        end = float(np.max(distances, where=distances <= radius, initial=0.0))
        for curve in distribution_curves(kind, k_values, p, r_max=end):
            ecdf = EmpiricalCdf.from_distances(distances[:, curve.k - 1], radius)
            ks = ks_distance(ecdf, curve)
            rows.append(ValidationRow("nnd" if palm else "cd", curve.k, ks, threshold,
                                      ecdf.censored_fraction()))
    if dump is not None:
        with open(dump, "w", newline="") as stream:
            write_raw_samples(stream, stationary, configs[CurveKind.CONTACT].observation_radius)
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
