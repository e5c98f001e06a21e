"""Monte Carlo oracle: cluster-process sampling and empirical-CDF tooling.

Draws, for each run, the distances from the origin to its max_k nearest
points, once stationary and once under Palm, and compares their
empirical CDFs against the analytic curves.  Each run draws its parents
in order of distance from the origin, in rounds, and stops at its own
running kth distance: only parents within rd of it draw daughters, each
drawn as its squared distance alone (see _daughter_distances).  The
max_k nearest distances keep their law, but the draws depend on max_k,
so the rows do too.  The run's Palm distances add the typical point's
own cluster to those points (the Palm law of a Poisson cluster
process).  Runs are simulated in fixed blocks, each from its own SFC64
substream keyed by (seed, block).  SimConfig sizes the blocks, and
checks the MAX_MEAN_POINTS cap, from the exact mean number of points a
run draws, an integral against the paper's kth contact CDF that depends
only on the parameters, the window and max_k: results are identical for
any worker count, and a larger run budget extends the same rows.  A wide
window costs only what a run draws.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .analytic import (_LENGTH_RANGE, _PMF_HARD_CAP, _U, CurveKind, DistributionCurve, McpParams,
                       _check_orders, _gl_weights, _is_integer, cdf_table, distribution_curves,
                       quantile_radius)
from .geometry import _campbell_count, _campbell_radius

__all__ = [
    "CensoringError",
    "EmpiricalCdf",
    "SimConfig",
    "ValidationReport",
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

# Fail-fast caps, checked before any sampling: the mean number of points
# one run draws, and the entries of each kind's (samples, max_k) matrix.
# The cap counts per kind: simulate_kth_distances returns both kinds, so its
# array may hold twice MAX_DISTANCES entries (800 MB of float64).
MAX_MEAN_POINTS = 1_000_000
MAX_DISTANCES = 50_000_000

# A block holds about this many points in expectation, and at most this
# many runs; its selection table is split by runs beyond _TABLE_CELLS cells.
_BLOCK_POINTS = 2**15
_TABLE_CELLS = 4 * _BLOCK_POINTS
# KS rows are compared this many samples at a time, so the temporaries
# stay small whatever the sample count.
_CHUNK = 2**13

# Every sampled point lies within observation_radius + 2 rd of the origin;
# inside analytic's _LENGTH_RANGE its squared distance is a normal double.
# A parent's radius is formed from its share v / v_max of the window's
# mean parent count v_max (see _nearest); below this cap the share
# stays a normal double for any volume v above 1e-150.
_MAX_WINDOW_PARENTS = 1e150

# Relative slack on the reach within which parents draw daughters.  A
# computed distance is off by at most a few (n + 4) ulps of the parent
# radius plus rd, about 1e-13 of it even at the largest n, so a wider reach
# only draws daughters that cannot be selected.
_KEEP_MARGIN = 1e-6

_MEAN_TAIL = 1e-15  # the mean parents per run integrate 1 - F down to this


class CensoringError(RuntimeError):
    """Too many runs were censored for the empirical CDF to be trusted."""


def _mean_parents(p: McpParams, observation_radius: float, max_k: int) -> float:
    """Mean number of parents that draw daughters in a run, its own cluster's not included.

    A parent at distance r <= R + rd draws them when r - rd < D_k, the
    run's kth distance, an event its own daughters cannot move, so by
    Campbell's theorem the mean is E[c min(D_k + rd, R + rd)^n], c =
    lambda_p v_n, with F the paper's kth contact CDF of D_k:

        c rd^n + integral_0^R n c (r + rd)^(n-1) (1 - F(r)) dr,

    by analytic's 64-node Gauss-Legendre rule on [0, end]: end is R, or the first
    r_k 2^j, j >= 0, where 1 - F is below _MEAN_TAIL; r_k holds max_k points on average (or is 0).
    """
    kind = CurveKind.CONTACT
    end = min(observation_radius, _campbell_radius(max_k, p.n, p.lambda_p, p.mbar))
    while 0.0 < end < observation_radius and (cdf_table(kind, [end], [max_k], p)[0, 0]
                                              < 1.0 - _MEAN_TAIL):
        end = min(2.0 * end, observation_radius)
    r = end * _U
    tail = 1.0 - cdf_table(kind, r, [max_k], p)[0]
    shells = p.n / (r + p.rd) * _campbell_count(r + p.rd, p.n, p.lambda_p)
    return float(_campbell_count(p.rd, p.n, p.lambda_p)
                 + 0.5 * end * np.sum(_gl_weights * shells * tail))


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign: parameters, window, run budget, seed and max_k."""

    params: McpParams
    observation_radius: float
    samples: int
    seed: int
    max_k: int
    # The mean points one run draws, its own cluster included.
    mean_points: float = field(init=False, repr=False, compare=False)
    # The mean parents within observation_radius + rd, beyond which none
    # can place a daughter inside the window.
    window_parents: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # SeedSequence takes any nonnegative integer, and the blocks a whole
        # number of runs; anything else would fail only once sampling
        # starts, with a message that names no argument.
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not math.isfinite(self.observation_radius) or self.observation_radius <= 0.0:
            raise ValueError("observation_radius must be finite and positive")
        if not _is_integer(self.samples) or self.samples < 1:
            raise ValueError(f"samples must be a positive integer, got {self.samples!r}")
        # The pricing (_mean_parents) reads the kth contact CDF at k = max_k.
        if not _is_integer(self.max_k) or not 1 <= self.max_k <= _PMF_HARD_CAP:
            raise ValueError(f"max_k must be an integer in 1..{_PMF_HARD_CAP}, "
                             f"got {self.max_k!r}")
        p = self.params
        reach = self.observation_radius + 2.0 * p.rd
        if reach > _LENGTH_RANGE[1]:
            raise ValueError(f"observation_radius + 2 rd = {reach!r} exceeds {_LENGTH_RANGE[1]!r}, "
                             "where squared distances would overflow")
        window_parents = _campbell_count(self.observation_radius + p.rd, p.n, p.lambda_p)
        if window_parents > _MAX_WINDOW_PARENTS:
            raise ValueError(f"the window holds more than {_MAX_WINDOW_PARENTS:.0e} parents on "
                             "average, where parent radii would lose precision")
        if self.samples * self.max_k > MAX_DISTANCES:
            raise ValueError(f"samples x max_k = {self.samples * self.max_k} exceeds the cap "
                             f"of {MAX_DISTANCES} distances per kind")
        # A run draws one volume gap past its last parent that draws
        # daughters, and a gap, a count and mbar daughters for each of them.
        # The parents within rd always draw: a floor that needs no CDF.  A
        # run then draws its own cluster, a radius and mbar siblings.  The
        # cap holds each part alone: a block never holds both at once.
        def points(parents):
            return 1.0 + parents * (1.0 + p.mbar)

        mean = points(_campbell_count(p.rd, p.n, p.lambda_p))
        if mean <= MAX_MEAN_POINTS:
            mean = points(_mean_parents(p, self.observation_radius, self.max_k))
        own = 1.0 + p.mbar
        if max(mean, own) > MAX_MEAN_POINTS:
            raise ValueError(
                f"one run would draw {max(mean, own):.3g} points on average (its parents and "
                f"their daughters, or its Palm siblings), above the cap of {MAX_MEAN_POINTS}"
            )
        object.__setattr__(self, "mean_points", mean + own)
        object.__setattr__(self, "window_parents", window_parents)

    def runs_per_block(self) -> int:
        """Runs simulated together: about _BLOCK_POINTS drawn points, own clusters included."""
        return int(max(1.0, _BLOCK_POINTS // self.mean_points))


def _substream(seed: int, block: int) -> np.random.Generator:
    # The key's fixed leading 0 keeps the rows of earlier releases' Palm configs.
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(0, block))
    return np.random.Generator(np.random.SFC64(ss))


class _Scratch:
    """One worker thread's arrays, reused by name across rounds and blocks.

    take(name, shape) returns the first prod(shape) entries of the named
    array as a view of that shape, replacing the array (its contents
    dropped) when it is too small.  A view holds until the next take of its
    name, so a caller's arrays never share a name with its callees'.
    """

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def take(self, name: str, shape) -> np.ndarray:
        size = math.prod(shape) if isinstance(shape, tuple) else shape
        array = self._arrays.get(name)
        if array is None or array.size < size:
            array = self._arrays[name] = np.empty(size)
        return array[:size].reshape(shape)


def _daughter_distances(rng, n: int, rd: float, radii: np.ndarray, counts: np.ndarray,
                        scratch: _Scratch):
    """Squared distances of counts[i] points uniform in the rd-ball about radii[i] e_1.

    An offset is L g / |g|, L = rd U^(1/n), g standard normal in n
    dimensions; the distance needs only g's first coordinate Z and
    S = chi^2_(n-1), drawn as 2 Gamma((n - 1) // 2) plus W^2 for one more
    normal W when n is even.  With q^2 = Z^2 + S it is formed elementwise
    as (rho + L Z / q)^2 + L^2 S / q^2, not as rho^2 + 2 rho L Z / q + L^2,
    which cancels near the origin; q = 0 leaves it at rho.

    In place: L, Z and S (W^2 alone at n = 2) are drawn into three of
    scratch's arrays of the draw's length, and W, then q, pass through a
    fourth; L becomes L / q and Z the squared distance, which is returned:
    a view of scratch, valid until its next draw.  Every draw and every
    elementwise operation is the one above.
    """
    size = int(counts.sum())
    length, z, rest, q = (scratch.take(name, size) for name in ("length", "normal", "rest", "root"))
    rng.random(out=length)
    length **= 1.0 / n
    length *= rd
    rng.standard_normal(out=z)
    shape = (n - 1) // 2
    if shape:
        rng.standard_gamma(shape, out=rest)
        rest *= 2.0
        if n % 2 == 0:
            rng.standard_normal(out=q)
            q *= q
            rest += q
    elif n == 2:
        rng.standard_normal(out=rest)
        rest *= rest
    else:
        rest.fill(0.0)
    np.multiply(z, z, out=q)
    q += rest
    np.sqrt(q, out=q)
    # q = 0 only where Z and S vanish (or Z^2 underflows): L / q is 0 there.
    if q.all():
        length /= q
    else:
        np.divide(length, q, out=length, where=q > 0.0)
        length[q == 0.0] = 0.0
    z *= length
    z += np.repeat(radii, counts)
    z *= z
    length *= length
    length *= rest
    z += length
    return z


def _nearest(gaps, clusters, runs: int, v_max: float, outer: float, n: int, rd: float,
             max_k: int, scratch: _Scratch):
    """Squared distances to each run's max_k nearest points, drawing parents outward.

    Ranked by distance, the parents of a Poisson process sit at volumes
    v = lambda_p v_n r^n that form a unit-rate Poisson process on the line:
    gaps(rows, m) gives the (len(rows), m) volume gaps of the next m
    parents of each run in rows; the window ends at v_max, radius outer.
    clusters(radii) gives the daughters' squared distances, parent by
    parent, and their counts.

    A run's reach is d_k, the kth of its running max_k smallest distances
    (inf while it has fewer): a parent with r - rd > d_k, and every parent
    after it, places each daughter beyond them (_KEEP_MARGIN covers
    rounding).  Each round draws as many parents per active run as it has
    drawn so far (one at first); those inside the window and the reach at
    the round's start draw clusters, merged in by _select_block, and a run
    is done at its first parent past either.  Returns the (runs, max_k)
    table, inf-padded, each row ascending (an array of scratch), and the
    daughters each run drew.
    """
    table = scratch.take("table", (runs, max_k))
    table.fill(np.inf)
    drawn = np.zeros(runs, dtype=np.int64)

    def merge(rows, owner, radii):
        d2, counts = clusters(radii)
        per_run = np.bincount(owner, weights=counts, minlength=rows.size).astype(np.int64)
        drawn[rows] += per_run
        got = per_run > 0  # only these rows can change
        rows = rows[got]
        merged = table[rows]
        table[rows] = _select_block(d2, per_run[got], merged, scratch, merged)

    last = np.zeros(runs)  # volume of each run's last drawn parent
    # A window too small for double precision holds no parent.
    scale = max(v_max, np.finfo(float).tiny)
    active, m, total = np.arange(runs), 1, 0
    while active.size:
        g = gaps(active, m)
        # Adding the last volume to the first gap, not to every cumulative
        # sum, gives the same bits as one cumulative sum over all rounds.
        g[:, 0] += last[active]
        v = np.cumsum(g, axis=1, out=g)
        radii = outer * (np.minimum(v, v_max) / scale) ** (1.0 / n)
        reach = np.sqrt(table[active, -1]) * (1.0 + _KEEP_MARGIN)
        keep = (v <= v_max) & (radii - rd <= reach[:, np.newaxis])
        merge(active, np.nonzero(keep)[0], radii[keep])
        last[active] = v[:, -1]
        active = active[keep[:, -1]]
        total += m
        m = total
    return table, drawn


def _sample_block(cfg: SimConfig, rng: np.random.Generator, out: np.ndarray, scratch: _Scratch):
    """Draw cfg.runs_per_block() independent runs (see _nearest), then their own clusters.

    Parents form a Poisson process in the ball of radius observation_radius
    + rd, since any parent farther out cannot place a daughter inside the
    observation window; parents are not points of the process.  Palm adds
    one cluster holding the typical point (excluded): its center sits at -u
    for u uniform in the cluster ball, with Poisson(mbar) siblings around
    it.  A Palm run's kth distance is at most its stationary run's, so its
    max_k nearest are the max_k smallest of that run's and its siblings.

    Writes the squared distances of the first len(out) runs into the
    (len(out), 2, max_k) array out, each row ascending as _select_block
    leaves it, the stationary one at [:, 0] and the Palm one at [:, 1];
    returns out and the daughters, siblings included, each run drew.
    """
    p, runs = cfg.params, cfg.runs_per_block()

    def clusters(radii):
        counts = rng.poisson(p.mbar, size=radii.size)
        return _daughter_distances(rng, p.n, p.rd, radii, counts, scratch), counts

    def gaps(rows, m):
        return rng.standard_exponential(out=scratch.take("gaps", (rows.size, m)))

    table, drawn = _nearest(gaps, clusters, runs, cfg.window_parents, cfg.observation_radius + p.rd,
                            p.n, p.rd, cfg.max_k, scratch)
    d2, siblings = clusters(p.rd * rng.random(runs) ** (1.0 / p.n))
    kept = len(out)
    out[:, 0] = table[:kept]
    _select_block(d2[: siblings[:kept].sum()], siblings[:kept], table[:kept], scratch, out[:, 1])
    return out, drawn + siblings


def _select_block(d2: np.ndarray, counts: np.ndarray, table: np.ndarray, scratch: _Scratch,
                  out: np.ndarray) -> np.ndarray:
    """Merge d2, counts[i] new squared distances of run i, run by run, into table.

    Each row of the (runs, max_k) table holds a run's max_k smallest so
    far, inf-padded, its largest last, and so does out, which is filled in
    ascending order and returned; out may be table, which is read before
    out is written, and is otherwise left as it is.  The new values
    go beside the old rows in scratch's inf-padded runs x (max_k + largest
    count) work table, sorted in place along each row: as fast as a
    partition at max_k - 1 on rows of a few dozen, and no later sort is
    needed.  Runs are split in halves while that table would exceed
    _TABLE_CELLS cells, so one crowded run cannot blow it up; each half
    fills its rows of out.
    """
    runs, max_k = table.shape
    new = int(counts.max(initial=0))
    if runs > 1 and runs * (max_k + new) > _TABLE_CELLS:
        half = runs // 2
        cut = int(counts[:half].sum())
        _select_block(d2[:cut], counts[:half], table[:half], scratch, out[:half])
        _select_block(d2[cut:], counts[half:], table[half:], scratch, out[half:])
        return out
    width = max_k + new
    work = scratch.take("work", (runs, width))
    work.fill(np.inf)
    work[:, :max_k] = table
    # Flat index of each run's first new value, less its start in d2.
    offset = np.arange(runs) * width + max_k - (np.cumsum(counts) - counts)
    work.reshape(-1)[np.arange(d2.size) + np.repeat(offset, counts)] = d2
    work.sort(axis=1)
    out[...] = work[:, :max_k]
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


def simulate_kth_distances(cfg: SimConfig, workers: int | None = None) -> np.ndarray:
    """(samples, 2, max_k) kth distances of independent runs: [:, 0] stationary, [:, 1] Palm.

    Row i holds run i's contact distances, then the nearest-neighbour ones
    of the typical point its own cluster adds (see _sample_block), each
    ascending and inf-padded.  Block b, of cfg.runs_per_block() runs, draws
    from substream (seed, b), and its last rows are dropped when samples
    ends inside it.  A run draws only the parents that can hold one of its
    max_k nearest points (see _nearest), so row i depends only on (params,
    window, seed, max_k, i): output is bit-identical for any worker count
    and for repeated calls, a larger samples extends the same rows, and a
    different max_k draws different rows of the same law.  With workers
    None the thread count is MCPDIST_THREADS (default 1); when set, it also
    caps an explicit workers.  The array holds 2 x samples x max_k
    doubles: SimConfig caps samples x max_k at MAX_DISTANCES per kind.
    """
    block_runs = cfg.runs_per_block()
    out = np.empty((cfg.samples, 2, cfg.max_k))
    # Each worker thread's _Scratch, reused by all of its blocks.
    local = threading.local()

    def block(b: int) -> None:
        if not hasattr(local, "scratch"):
            local.scratch = _Scratch()
        part = out[b * block_runs : (b + 1) * block_runs]
        _sample_block(cfg, _substream(cfg.seed, b), part, local.scratch)
        np.sqrt(part, out=part)

    n_blocks = -(-cfg.samples // block_runs)
    # More threads than cores or blocks would only wait.
    workers = min(_resolve_workers(workers), n_blocks, os.cpu_count() or 1)
    if workers <= 1:
        for b in range(n_blocks):
            block(b)
    else:
        from concurrent.futures import ThreadPoolExecutor

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
    The samples go through _CHUNK at a time: np.interp has no out argument,
    so its arrays, the step heights and the points just below the samples
    are chunk-sized temporaries, whatever the sample count.
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
    d_plus = d_minus = 0.0
    for lo in range(0, x.size, _CHUNK):
        part = x[lo : lo + _CHUNK]
        steps = np.arange(lo + 1, lo + part.size + 1) / n
        f = np.interp(part, radii, values, left=0.0, right=right)
        d_plus = max(d_plus, float(np.max(np.subtract(steps, f, out=f))))
        f = np.interp(np.nextafter(part, -np.inf), radii, values, left=0.0, right=right)
        steps -= 1.0 / n
        d_minus = max(d_minus, float(np.max(np.subtract(f, steps, out=f))))
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


class ValidationReport(list):
    """A validation run's ValidationRows, one per (kind, k), with the (samples,
    2, max_k) kth distances they came from (see simulate_kth_distances) and
    their window radius."""

    def __init__(self, rows, distances: np.ndarray, observation_radius: float):
        super().__init__(rows)
        self.distances, self.observation_radius = distances, observation_radius


def validate_against_analytic(
    p: McpParams,
    k_values: Sequence[int],
    samples: int,
    seed: int,
    r_max: float | None = None,
) -> ValidationReport:
    """Run the simulator against the analytic CDFs for every requested k.

    Returns one row per (kind, k) with the KS distance and its DKW-based
    threshold, which assumes an exact reference: each kind's reference
    curves span its sampled distances, on a grid from 0 to the largest
    in-window one.  The report also holds the simulated kth distances.
    Raises CensoringError if more than 1% of runs end beyond the
    observation window.  The orders, the window (r_max, or the kth contact
    CDF's tail radius) and the point cap are checked before any sampling.
    One simulation on MCPDIST_THREADS threads (default 1) yields both kinds.
    """
    _check_orders(k_values)
    k_values = sorted(set(int(k) for k in k_values))
    k_max = k_values[-1]
    # A run's Palm kth distance never exceeds its stationary one, so the
    # contact CDF's tail radius is the larger and covers both kinds.
    radius = r_max if r_max is not None else quantile_radius(CurveKind.CONTACT, k_max, p)
    cfg = SimConfig(p, radius, samples, seed, k_max)
    threshold = KS_THRESHOLD_FACTOR / math.sqrt(samples)
    rows: list[ValidationRow] = []
    simulated = simulate_kth_distances(cfg)
    # One sorted column, reused by every k of both kinds.
    column = np.empty(samples)
    for name, kind, distances in zip(("cd", "nnd"), (CurveKind.CONTACT, CurveKind.NND),
                                     simulated.swapaxes(0, 1)):
        # The reference curves end at the largest in-window sample, not at
        # the window edge, so their grid stays fine where the samples are.
        # Rows ascend: that is a row's last entry, or for a censored row
        # (last entry beyond the window, or inf) one of its others.
        last = distances[:, -1]
        inside = last <= radius
        censored = distances[~inside]
        end = float(np.max(last, where=inside, initial=0.0))
        end = float(np.max(censored, where=censored <= radius, initial=end))
        for curve in distribution_curves(kind, k_values, p, r_max=end):
            # Censored runs (beyond the window, or inf) sort past the kept ones.
            column[:] = distances[:, curve.k - 1]
            column.sort()
            kept = int(np.searchsorted(column, radius, side="right"))
            ecdf = EmpiricalCdf(column[:kept], samples - kept)
            ks = ks_distance(ecdf, curve)
            rows.append(ValidationRow(name, curve.k, ks, threshold, ecdf.censored_fraction()))
    return ValidationReport(rows, simulated, radius)


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
