"""Count PGF/PMF machinery and kth contact / nearest-neighbor CDFs.

The count N of cluster-process points inside a ball of radius r has a
probability generating function exp(g(s)), with g a one-dimensional
integral over the lens volume between the probe ball and the cluster
ball.  Taylor coefficients h_k of g at s = 0 yield the PMF of N through
the exp power-series recurrence, run on p_m / p_0 with a log-space scale
so that it stays finite where p_0 underflows.  Each kth distance CDF is a
partial sum 1 - sum_{m<k} of one count PMF: N's for contact distances; for
nearest neighbors the reduced-Palm count's, N convolved with the
intra-cluster weights q_j, or in the small-rd limit with Poisson(mbar) ones.

Everything runs on a vector of radii, one row per radius, and each row
may carry its own parameters (lambda_p, mbar, rd; n is shared): the
lens kernel is one radii x nodes matrix, g(0), h_k and q_j are sums along
its rows, and one recurrence forms every row's PMF.  A CDF table for a
whole radius grid, or a whole cluster-radius sweep, and all orders is one
such pass per chunk of rows; the curves for every k come from one table.
A single radius is the one-row case, and its value is bit-identical to
the table entry.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._special import gammainc, lgam, log_factorials
from .geometry import _campbell_count, _campbell_radius, lens_share, unit_ball_volume

__all__ = [
    "CurveKind",
    "DistributionCurve",
    "McpParams",
    "PmfVector",
    "cdf_contact",
    "cdf_nnd",
    "cdf_nnd_small_rd_limit",
    "cdf_table",
    "count_pmf",
    "distribution_curve",
    "distribution_curves",
    "h_coefficient",
    "log_pgf_count",
    "palm_count_pmf",
    "pgf_count",
    "pgf_count_palm",
    "ppp_cdf_contact",
    "q_weight",
    "quantile_radius",
]

# Fixed rule for every lens integral: Gauss-Legendre nodes on [0, 1] pushed
# through the smoothstep u -> 3u^2 - 2u^3.  Its zero slope at both ends
# turns the (x - a)^((n+1)/2) behaviour of the lens at the containment and
# disjointness breakpoints into integer powers of u, so the rule converges
# as for a smooth integrand.  The 64-node rule is numpy's leggauss(64),
# written out (its upper half; the rule is symmetric) so that the import
# does not load numpy.polynomial.
_NODES = 64
_GL_HALF_NODES = np.array([
    0.02435029266342443, 0.07299312178779904, 0.12146281929612054, 0.16964442042399283,
    0.21742364374000708, 0.2646871622087674, 0.31132287199021097, 0.3572201583376681,
    0.4022701579639916, 0.4463660172534641, 0.48940314570705296, 0.5312794640198946,
    0.571895646202634, 0.6111553551723933, 0.6489654712546573, 0.6852363130542333,
    0.7198818501716109, 0.7528199072605319, 0.7839723589433414, 0.8132653151227975,
    0.8406292962525803, 0.8659993981540928, 0.8893154459951141, 0.9105221370785028,
    0.9295691721319396, 0.9464113748584028, 0.9610087996520538, 0.973326827789911,
    0.983336253884626, 0.9910133714767443, 0.9963401167719552, 0.9993050417357722
])
_GL_HALF_WEIGHTS = np.array([
    0.048690957009139814, 0.04857546744150351, 0.048344762234802996, 0.04799938859645842,
    0.04754016571483042, 0.046968182816210076, 0.04628479658131447, 0.045491627927418184,
    0.044590558163756566, 0.04358372452932355, 0.04247351512365361, 0.041262563242623576,
    0.039953741132720544, 0.03855015317861564, 0.03705512854024009, 0.0354722132568823,
    0.033805161837141794, 0.032057928354851495, 0.030234657072402554, 0.028339672614259535,
    0.02637746971505491, 0.0243527025687112, 0.02227017380838297, 0.020134823153530088,
    0.017951715775697284, 0.01572603047602503, 0.01346304789671786, 0.011168139460131028,
    0.008846759826363397, 0.006504457968978502, 0.004147033260564499, 0.00178328072169414
])
_gl_nodes = np.concatenate((-_GL_HALF_NODES[::-1], _GL_HALF_NODES))
_gl_weights = np.concatenate((_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS))
_U = 0.5 * (_gl_nodes + 1.0)
_SMOOTHSTEP = _U * _U * (3.0 - 2.0 * _U)
_SMOOTHSTEP_WEIGHTS = 3.0 * _gl_weights * _U * (1.0 - _U)
# Poisson-type sums over the nodes are formed this many orders at a time.
_ORDER_BLOCK = 64
# A CDF table takes its radii in chunks whose working set stays within
# _CHUNK_CELLS doubles: the kernel keeps about _KERNEL_ARRAYS node-length
# arrays per radius alive, the Poisson sums about two per order of a block.
_CHUNK_CELLS = 2**17
_KERNEL_ARRAYS = 24

# The PMF recurrence divides its running terms back to 1 once one exceeds
# this, accumulating the factor in log space.
_RESCALE_AT = 1e200
# Adaptive truncation: stop once terms stay below _TAIL_RATIO * max for
# _TAIL_RUN consecutive orders.
_TAIL_RATIO = 1e-14
_TAIL_RUN = 5
_PMF_HARD_CAP = 4096
# log of the smallest positive double
_LOG_DOUBLE_MIN = math.log(5e-324)

_CURVE_TAIL = 1e-4
_CURVE_POINTS = 512

# The last n whose unit-ball volume v_n is a normal double (435; v_n falls from n = 5 on).
_MAX_DIMENSION = bisect.bisect_left(range(1, 1001), True,
                                    key=lambda n: unit_ball_volume(n) < np.finfo(float).tiny)
# Lengths whose squares are normal doubles: rd, and a simulated run's reach.
_LENGTH_RANGE = (1e-150, 1e150)


@dataclass(frozen=True)
class McpParams:
    """Parameters of an n-dimensional Matern cluster process.

    lambda_p: parent intensity (points per unit n-volume)
    mbar:     mean number of daughters per cluster
    rd:       radius of the cluster ball, in [1e-150, 1e150]
    n:        spatial dimension, 1..435 (where v_n is a normal double)
    """

    lambda_p: float
    mbar: float
    rd: float
    n: int = 2

    def __post_init__(self):
        _check_dimension(self.n)
        for name in ("lambda_p", "mbar", "rd"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not _LENGTH_RANGE[0] <= self.rd <= _LENGTH_RANGE[1]:
            raise ValueError(f"rd must lie in [1e-150, 1e+150], got {self.rd!r}")


@dataclass(frozen=True, eq=False)
class PmfVector:
    """PMF values for orders 0..m_max plus the mass beyond the truncation."""

    probs: np.ndarray
    truncation_mass: float


class CurveKind(str, Enum):
    CONTACT = "contact_cd"
    NND = "nnd"
    NND_SMALL_RD_LIMIT = "nnd_small_rd_limit"


@dataclass(frozen=True, eq=False)
class DistributionCurve:
    """A CDF sampled on an ascending radius grid."""

    radii: np.ndarray
    values: np.ndarray
    kind: CurveKind
    k: int
    params: McpParams

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)
        if radii.ndim != 1 or radii.shape != values.shape or radii.size == 0:
            raise ValueError("radii and values must be matching 1-D arrays")
        if not (np.isfinite(radii).all() and np.isfinite(values).all()):
            raise ValueError("radii and CDF values must be finite")
        if np.any(np.diff(radii) <= 0.0):
            raise ValueError("radii must be strictly increasing")
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise ValueError("CDF values must lie in [0, 1]")
        if np.any(np.diff(values) < -1e-9):
            raise ValueError("CDF values must be nondecreasing")


# ---------------------------------------------------------------------------
# Lens kernel: every PGF quantity of a radius grid from one pass over the nodes
# ---------------------------------------------------------------------------


def _radial_rule(inner: np.ndarray, outer: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integrals against n x^(n-1) / outer^n on [0, outer].

    One row per entry of the columns `inner` and `outer`.  The lens is
    constant for x <= inner, so that piece is the single node x = 0
    carrying its exact mass (inner / outer)^n; the mapped rule covers
    [inner, outer].
    """
    x = inner + (outer - inner) * _SMOOTHSTEP
    w = n * (x / outer) ** (n - 1) * (outer - inner) / outer * _SMOOTHSTEP_WEIGHTS
    lead = (inner / outer) ** n
    return np.concatenate([np.zeros_like(lead), x], axis=1), np.concatenate([lead, w], axis=1)


class _Kernel:
    """t = mbar A(r, rd, x) / (v_n rd^n) on fixed nodes, with quadrature weights.

    t, a cluster's mean daughter count in the probe ball, is mbar times the
    lens's share of the cluster ball.  One row per radius, each with its own
    parameters: p is one McpParams for every row or a sequence of one per
    radius (see _row_params), and its lambda_p, mbar and rd enter as columns.
    The stationary pair integrates over the window [0, r + rd] with weights
    lambda_p n v_n x^(n-1) dx, the Palm pair over the typical point's
    cluster-center offset [0, rd] with weights n y^(n-1) / rd^n dy.  Each
    pair's lens is evaluated in one call over every row, the Palm one only
    when _palm is first read.  Each PGF quantity is a weighted sum over the
    nodes of a row: g(s) and the Palm factor here, h_k and q_j by
    _poisson_sums on (t, w) and _palm.  Those sums are numpy sums along
    contiguous rows, never matrix products, so a row's value does not
    depend on the other rows.
    """

    def __init__(self, radii, p: McpParams | Sequence[McpParams]):
        r = np.asarray(radii, dtype=float)
        _check_radius(r)
        r = r[:, np.newaxis]
        rows = r.shape[0]
        params = _row_params(p, rows)
        n = params[0].n
        columns = np.array([[q.lambda_p, q.mbar, q.rd] for q in params])
        lambda_p, mbar, rd = np.hsplit(columns, 3)
        self._lens_args = r, mbar, rd, n
        x, w = _radial_rule(np.abs(r - rd), r + rd, n)
        self.t = self._lens(x)
        clusters = _campbell_count(r + rd, n, lambda_p)
        if not np.isfinite(clusters).all():
            window = float((r + rd)[~np.isfinite(clusters)][0])
            raise ValueError(f"the expected number of clusters within r + rd = {window!r} of the "
                             "origin exceeds the double range")
        self.w = clusters * w

    def _lens(self, x: np.ndarray) -> np.ndarray:
        """mbar A(r, rd, x) / (v_n rd^n) per row at its nodes x."""
        r, mbar, rd, n = self._lens_args
        # Rounding can leave a cap sum a hair below zero; an r whose square
        # overflows leaves it non-finite.
        t = mbar * np.maximum(lens_share(r, rd, x, n), 0.0)
        bad = ~np.isfinite(t).all(axis=1)
        if bad.any():
            raise ValueError(f"the lens at r={float(r[bad][0, 0])!r} in n={n} dimensions "
                             "leaves the double range")
        return t

    @functools.cached_property
    def _palm(self) -> tuple[np.ndarray, np.ndarray]:
        """The Palm pair (t, w) over [0, rd], built on first use."""
        r, _, rd, n = self._lens_args
        x, w = _radial_rule(np.minimum(np.abs(r - rd), rd), rd, n)
        return self._lens(x), w

    def log_pgf(self, s: float) -> np.ndarray:
        """g(s) per row, as an expm1 sum free of cancellation against the window mass."""
        return (np.expm1((s - 1.0) * self.t) * self.w).sum(axis=-1)

    def palm_factor(self, s: float) -> np.ndarray:
        """E[s^(own-cluster count)] per row: the Palm PGF divided by the stationary one."""
        t, w = self._palm
        return (np.exp((s - 1.0) * t) * w).sum(axis=-1)


def _row_params(p: McpParams | Sequence[McpParams], rows: int) -> np.ndarray:
    """One McpParams per row: p for every row, or a sequence of one per row sharing n."""
    params = np.asarray(p, dtype=object)
    if params.ndim > 1 or params.size not in (1, rows):
        raise ValueError(f"need one McpParams or one per radius ({rows}), got {params.size}")
    if len({q.n for q in params.flat}) > 1:
        raise ValueError("every parameter row must have the same dimension n")
    return np.broadcast_to(params, (rows,))


def _poisson_sums(t: np.ndarray, w: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Per row, sum over nodes of w t^k e^(-t) / k! for orders k = lo, lo+1, ...

    k! is folded into the exponent so large orders cannot overflow.  Orders
    go in blocks of _ORDER_BLOCK up to hi - 1, but past the largest t the
    terms fall with k, so once a block is all zero every higher order is
    zero too: the result stops there, and the orders it omits are zero.
    """
    t, w = t[:, np.newaxis, :], w[:, np.newaxis, :]
    with np.errstate(divide="ignore"):
        log_t = np.log(t)
    blocks = [np.zeros((t.shape[0], 0))]
    # With one block there is nothing to stop early.
    t_max = t.max() if hi - lo > _ORDER_BLOCK else math.inf
    for start in range(lo, hi, _ORDER_BLOCK):
        k = np.arange(start, min(start + _ORDER_BLOCK, hi))
        with np.errstate(invalid="ignore"):
            power = k[:, np.newaxis] * log_t
        if start == 0:
            power[:, 0] = 0.0  # t^0 = 1, also at t = 0
        log_factorial = _log_factorials(k)[:, np.newaxis]
        blocks.append((np.exp(power - t - log_factorial) * w).sum(axis=-1))
        if start > t_max and not blocks[-1].any():
            break
    return blocks[-1] if len(blocks) == 2 else np.concatenate(blocks, axis=1)


def _log_factorials(k: np.ndarray) -> np.ndarray:
    """log k! for a rising run of orders k; only single-order calls go past the PMF cap.

    The table read is only as long as k needs, so low orders do not pay
    for the whole table.
    """
    if k[-1] <= _PMF_HARD_CAP:
        return log_factorials(int(k[-1]) + 1)[k]
    return np.array([lgam(j + 1.0) for j in k])


def _padded(orders: np.ndarray, width: int) -> np.ndarray:
    """Rows of orders, zero-padded on the right to `width` columns."""
    if orders.shape[1] == width:
        return orders
    out = np.zeros((orders.shape[0], width))
    out[:, : orders.shape[1]] = orders
    return out


# ---------------------------------------------------------------------------
# PGF of the in-ball count and its Taylor coefficients
# ---------------------------------------------------------------------------


def h_coefficient(r: float, k: int, p: McpParams) -> float:
    """kth Taylor coefficient h_k(r) of the log-PGF exponent at s = 0.

    For k >= 1 this is (lambda_p n v_n / k!) * integral over x in
    [0, r + rd] of (lambda_d A)^k e^(-lambda_d A) x^(n-1), with A the lens
    volume at center separation x and lambda_d = mbar / (v_n rd^n) the
    daughter intensity.  k = 0 drops the power factor entirely, giving the
    bare integral of e^(-lambda_d A) x^(n-1) times the same prefactor.
    """
    _check_weight_order(k)
    kernel = _Kernel([r], p)
    return float(_poisson_sums(kernel.t, kernel.w, k, k + 1)[0, 0])


def log_pgf_count(s: float, r: float, p: McpParams) -> float:
    """Exponent g(s) of the count PGF E[s^N] = exp(g(s)) for N in B(o, r).

    Evaluated as an expm1 integral, which is algebraically the h_0-style
    integral minus lambda_p v_n (r + rd)^n but free of the cancellation
    between those two terms when the window is much larger than r.
    """
    _check_pgf_args(s, r)
    return float(_Kernel([r], p).log_pgf(float(s))[0])


def pgf_count(s: float, r: float, p: McpParams) -> float:
    """PGF E[s^N] of the number of points in the ball of radius r."""
    return math.exp(log_pgf_count(s, r, p))


def pgf_count_palm(s: float, r: float, p: McpParams) -> float:
    """Count PGF under the reduced Palm distribution.

    The stationary PGF times the radial average of e^((s-1) lambda_d A)
    over the typical point's own cluster-center offset.
    """
    _check_pgf_args(s, r)
    if r <= 0.0 or s == 1.0:
        return 1.0
    kernel = _Kernel([r], p)
    return math.exp(kernel.log_pgf(s)[0]) * float(kernel.palm_factor(s)[0])


def _check_pgf_args(s: float, r: float) -> None:
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"PGF argument must lie in [0, 1], got {s!r}")
    _check_radius(r)


def _check_radius(r: float | np.ndarray) -> None:
    r = np.atleast_1d(np.asarray(r, dtype=float))
    bad = r[~(np.isfinite(r) & (r >= 0.0))]
    if bad.size:
        raise ValueError(f"radius must be finite and nonnegative, got {float(bad[0])!r}")


# ---------------------------------------------------------------------------
# PMF extraction
# ---------------------------------------------------------------------------


def count_pmf(r: float, p: McpParams, m_max: int | None = None) -> PmfVector:
    """PMF of the point count in B(o, r), orders 0..m_max.

    Formed by the power-series recurrence m p_m = sum_j j h_j p_(m-j) with
    p_0 = e^(g(0)).  With m_max None the vector is extended until five
    consecutive orders fall below 1e-14 of the running maximum; a ValueError
    reports an expected count, or a tail, that would need more than 4096
    orders.  The recurrence runs on p_m / p_0 with a log-space scale, so it
    stays finite even where p_0 underflows double precision.
    """
    return _pmf_vector(CurveKind.CONTACT, r, p, m_max)


def _pmf_vector(kind: CurveKind, r: float, p: McpParams, m_max: int | None) -> PmfVector:
    _check_radius(r)
    if m_max is not None and (not _is_integer(m_max) or not 0 <= m_max <= _PMF_HARD_CAP):
        raise ValueError(f"m_max must be an integer in 0..{_PMF_HARD_CAP}, got {m_max!r}")
    # Campbell: the expected count lambda_p mbar v_n r^n must sit below the order cap.
    if m_max is None and _campbell_count(r, p.n, p.lambda_p, p.mbar) >= _PMF_HARD_CAP:
        raise ValueError(f"the expected count at r={r!r} is at least {_PMF_HARD_CAP}, "
                         "beyond the adaptive PMF order cap; pass m_max")
    probs = _kind_pmf(kind, _Kernel([r], p), m_max)[0]
    # Rounding can carry the sum a hair past 1; no mass is negative.
    return PmfVector(probs, max(0.0, 1.0 - float(probs.sum())))


def _count_pmf(kernel: _Kernel, m_max: int | None) -> np.ndarray:
    """PMF rows of the in-ball count, one per kernel radius, orders 0..m.

    m is m_max, or with m_max None (one row only) the first order by which
    the tail has decayed.  A row's PMF does not depend on the other rows,
    nor, with m_max given, on m_max beyond its own orders.
    """
    log_p0 = kernel.log_pgf(0.0)
    top = _PMF_HARD_CAP if m_max is None else m_max
    # At least Poisson(-g(0)) clusters put points in the ball, so by the
    # Chernoff bound P[N <= top] <= exp(-L + top + top log(L / top)) with
    # L = -g(0) > top.  Below the smallest double every order is exactly 0,
    # and the recurrence, whose h_j reach L, could only overflow.
    lam = -log_p0
    live = ~(lam > top)
    if not live.all():
        crowded = ~live
        mean = lam[crowded]
        bound = top - mean
        if top:
            bound = bound + top * np.log(mean) - top * math.log(top)
        live[crowded] = bound >= _LOG_DOUBLE_MIN
        if not live.any():
            return np.zeros((lam.size, top + 1))
    t, w = kernel.t, kernel.w
    if not live.all():
        t, w, log_p0 = t[live], w[live], log_p0[live]
    h = _poisson_sums(t, w, 1, top + 1)
    if m_max is not None:
        # Every order's sum then spans the same h_j whatever the other rows.
        h = _padded(h, top)
    formed, level = _recurrence(np.arange(1, h.shape[1] + 1) * h, top, adaptive=m_max is None)
    with np.errstate(divide="ignore", under="ignore"):
        probs = np.exp(log_p0[:, np.newaxis] + level + np.log(formed))
    if probs.shape[0] == lam.size:
        return probs
    out = np.zeros((lam.size, probs.shape[1]))
    out[live] = probs
    return out


def _kind_pmf(kind: CurveKind, kernel: _Kernel, m_max: int | None) -> np.ndarray:
    """Rows of _count_pmf, for NND convolved with the reduced-Palm weights q_j.

    The small-rd limit takes Poisson(mbar) weights, formed whole in log space
    from the one node t = mbar of weight 1: every sibling on the typical point.
    One lag at a time, elementwise, so no order depends on the row length.
    """
    probs = _count_pmf(kernel, m_max)
    if kind is CurveKind.CONTACT:
        return probs
    mbar = kernel._lens_args[1]
    t, w = kernel._palm if kind is CurveKind.NND else (mbar, np.ones_like(mbar))
    width = probs.shape[1]
    weights = _poisson_sums(t, w, 0, width)
    out = np.zeros_like(probs)
    # A lag whose weights are all zero (or past the returned ones) would add zeros.
    lags = np.flatnonzero(weights.any(axis=0)).tolist()
    # Orders run along the first axis of each view.  One row steps through
    # 1-D views and scalar weights, as _recurrence does: the same products
    # and sums, without 2-D broadcasts.
    if len(out) == 1:
        row, step, weight = out[0], probs[0], weights[0].tolist()
    else:
        row, step, weight = out.T, probs.T, weights.T
    for j in lags:
        row[j:] += step[: width - j] * weight[j]
    return out


def _recurrence(jh: np.ndarray, top: int, adaptive: bool) -> tuple[np.ndarray, np.ndarray]:
    """r_m = p_m / p_0 from m r_m = sum_j jh_j r_(m-j), r_0 = 1, for every row.

    Returns (formed, level) with r_m = formed e^level, orders 0..top, or
    with adaptive (one row only) up to the first order after _TAIL_RUN
    consecutive orders below _TAIL_RATIO times the running peak.  A row's
    terms are divided back to 1 whenever one passes _RESCALE_AT, the
    factor going to its log scale; each order keeps the value and the
    scale it was formed with, so no later order changes it.
    """
    rows, width = jh.shape
    # back[:, top - m] = e^(-scale) r_m: orders run right to left, so the
    # min(m, width) orders below m form one contiguous window, nearest
    # first, and each row's term is one dot product of its own, whose
    # length does not depend on the other rows or on top.  A single row
    # steps through 1-D views and scalar terms: the same dot products,
    # without the per-call cost of 2-D gufuncs and reductions over one row.
    back = np.zeros((rows, top + 1))
    back[:, top] = 1.0
    formed = np.zeros((rows, top + 1))
    formed[:, 0] = 1.0
    # The log of each rescale factor, at the order that took it.
    jumps = np.zeros((rows, top + 1))
    if rows == 1:
        step_jh, step_back, step_formed, largest = jh[0], back[0], formed[0], float
    else:
        step_jh, step_back, step_formed, largest = jh, back, formed, np.max
    peak, below = 1.0, 0
    m = 0
    while m < top and (not adaptive or m < _TAIL_RUN or below < _TAIL_RUN):
        m += 1
        col = top - m
        j = min(m, width)
        term = np.vecdot(step_jh[..., :j], step_back[..., col + 1 : col + 1 + j]) / m
        step_back[..., col] = term
        if largest(term) > _RESCALE_AT:
            big = back[:, col] > _RESCALE_AT
            factor = back[big, col]
            back[big, col:] /= factor[:, np.newaxis]
            jumps[big, m] = np.log(factor)
            term = step_back[..., col]
            # The rescaled order is 1 in its new scale, above the old peak.
            peak = 1.0
        step_formed[..., m] = term
        if adaptive:
            value = float(term)
            peak = max(peak, value)
            below = below + 1 if value < _TAIL_RATIO * peak else 0
    if adaptive and below < _TAIL_RUN:
        raise ValueError(f"PMF tail did not decay within {_PMF_HARD_CAP} orders; "
                         "pass m_max (--m-max)")
    return formed[:, : m + 1], np.cumsum(jumps[:, : m + 1], axis=1)


# ---------------------------------------------------------------------------
# Contact distance CDF
# ---------------------------------------------------------------------------


def cdf_contact(r: float, k: int, p: McpParams) -> float:
    """CDF of the kth contact distance: P[at least k points within r]."""
    return _cdf_eval(CurveKind.CONTACT, r, k, p)


def ppp_cdf_contact(r: float, k: int, intensity: float, n: int) -> float:
    """kth contact distance CDF of a homogeneous Poisson process, n in 1..435."""
    _check_order(k)
    _check_dimension(n)
    if not math.isfinite(intensity) or intensity <= 0.0:
        raise ValueError(f"intensity must be finite and positive, got {intensity!r}")
    _check_radius(r)
    # P[Poisson(mean count) >= k] via the regularized lower incomplete gamma.
    return gammainc(k, _campbell_count(r, n, intensity))


# ---------------------------------------------------------------------------
# Reduced Palm: intra-cluster weights and nearest-neighbor CDF
# ---------------------------------------------------------------------------


def q_weight(r: float, j: int, p: McpParams) -> float:
    """Probability that exactly j cluster co-members lie within distance r.

    Radial average over the typical point's offset y in the cluster ball:
    (1/j!) integral of (lambda_d A)^j e^(-lambda_d A) n y^(n-1) / rd^n dy.
    """
    _check_weight_order(j)
    return float(_poisson_sums(*_Kernel([r], p)._palm, j, j + 1)[0, 0])


def palm_count_pmf(r: float, p: McpParams, m_max: int | None = None) -> PmfVector:
    """PMF of the in-ball count under the reduced Palm distribution.

    Discrete convolution of the stationary count PMF with the q weights.
    """
    return _pmf_vector(CurveKind.NND, r, p, m_max)


def cdf_nnd(r: float, k: int, p: McpParams) -> float:
    """CDF of the kth nearest-neighbor distance of the typical point.

    1 - sum_{m<k} P0[N = m], a partial sum of the Palm count PMF (palm_count_pmf).
    """
    return _cdf_eval(CurveKind.NND, r, k, p)


def cdf_nnd_small_rd_limit(r: float, k: int, p: McpParams) -> float:
    """Vanishing-cluster-radius limit of the kth nearest-neighbor CDF.

    The NND partial sum with the q weights replaced by the Poisson(mbar)
    weights e^(-mbar) mbar^j / j!: as rd -> 0 every cluster mate sits on the
    typical point.  The limit keeps its mass at r = 0 (co-located siblings),
    so r = 0 is deliberately not special-cased to zero.
    """
    return _cdf_eval(CurveKind.NND_SMALL_RD_LIMIT, r, k, p)


# ---------------------------------------------------------------------------
# Sampled curves
# ---------------------------------------------------------------------------


def cdf_table(kind: CurveKind, radii, ks, p: McpParams | Sequence[McpParams]) -> np.ndarray:
    """CDF values of one kind for every order in ks at every radius.

    p is one McpParams for every radius or a sequence of one per radius,
    all of the same n.  Returns a len(ks) x len(radii) array.  The radii
    go through the kernel in chunks whose working set stays within
    _CHUNK_CELLS doubles, one kernel pass and one PMF recurrence per chunk
    for all orders and parameter rows.  An entry does not depend on the
    other radii, parameters or orders, so it equals the one-radius,
    one-order call with that radius's McpParams bit for bit.  A non-finite
    value raises ValueError.
    """
    kind = CurveKind(kind)
    radii = np.asarray(radii, dtype=float)
    params = _row_params(p, radii.size)
    _check_orders(ks)
    table = np.zeros((len(ks), radii.size))
    top = max(ks) - 1
    # The contact and NND CDFs vanish at r <= 0; the small-rd limit keeps
    # its mass at r = 0 (co-located siblings).
    if kind is CurveKind.NND_SMALL_RD_LIMIT:
        rows = np.arange(radii.size)
    else:
        rows = np.flatnonzero(~(radii <= 0.0))
    chunk = max(1, _CHUNK_CELLS // _row_cells(top))
    for start in range(0, rows.size, chunk):
        idx = rows[start : start + chunk]
        probs = _kind_pmf(kind, _Kernel(radii[idx], params[idx]), top)
        table[:, idx] = [1.0 - probs[:, :k].sum(axis=1) for k in ks]
    if not np.isfinite(table).all():
        i, j = np.argwhere(~np.isfinite(table))[0]
        raise ValueError(f"the {kind.value} CDF for k={ks[i]} at r={float(radii[j])!r} "
                         "is not finite")
    return np.clip(table, 0.0, 1.0)


def _cdf_eval(kind: CurveKind, r: float, k: int, p: McpParams) -> float:
    """One CDF value: the one-radius, one-order table."""
    return float(cdf_table(kind, [r], [k], p)[0, 0])


def _row_cells(top: int) -> int:
    """Working-set doubles per radius of a CDF table up to order top + 1."""
    return (_NODES + 1) * (_KERNEL_ARRAYS + 2 * min(top + 1, _ORDER_BLOCK))


def quantile_radius(kind: CurveKind, k: int, p: McpParams) -> float:
    """Smallest r_k 2^j, j an integer, where the CDF reaches 1 - 1e-4 (r_k: k points on average)."""
    _check_order(k)
    r = _campbell_radius(k, p.n, p.lambda_p, p.mbar)
    if math.isinf(r):
        raise ValueError(f"the intensity lambda_p mbar v_n underflows, so the {kind.value} "
                         f"CDF has no finite 1 - {_CURVE_TAIL} quantile; pass an explicit grid end")
    if r == 0.0:
        raise ValueError(f"the radius whose ball holds k={k} points on average lies below every "
                         "positive double; pass an explicit grid end (--grid-max)")
    target = 1.0 - _CURVE_TAIL
    if _cdf_eval(kind, r, k, p) < target:
        for _ in range(200):
            r *= 2.0
            if _cdf_eval(kind, r, k, p) >= target:
                return r
        raise ValueError(f"the {kind.value} CDF for k={k} does not reach 1 - {_CURVE_TAIL} within "
                         f"200 doublings of the radius (last tried r={r!r})")
    for _ in range(200):
        if r <= 0.0 or _cdf_eval(kind, r / 2.0, k, p) < target:
            return r
        r /= 2.0
    return r


def distribution_curves(
    kind: CurveKind,
    ks,
    p: McpParams,
    r_max: float | None = None,
    num: int = _CURVE_POINTS,
) -> list[DistributionCurve]:
    """Sample the CDF of every order in ks on one uniform grid from 0 to r_max.

    With r_max None the grid extends to the radius found by quantile_radius
    for the largest order; r_max = 0 degenerates to the single point r = 0.
    All curves come from one CDF table: one kernel pass and one PMF
    recurrence per radius chunk for every order, each value equal to the
    pointwise CDF at its radius.  One curve per entry of ks, in that order.
    """
    kind = CurveKind(kind)
    ks = list(ks)
    _check_orders(ks)
    if r_max is None:
        r_max = quantile_radius(kind, max(ks), p)
    if not 0.0 <= r_max < math.inf:
        raise ValueError(f"r_max must be finite and nonnegative, got {r_max!r}")
    if num < 2:
        raise ValueError(f"grid needs at least 2 points, got {num!r}")
    if r_max == 0.0:
        grid = np.array([0.0])
    else:
        grid = np.linspace(0.0, float(r_max), num)
    table = cdf_table(kind, grid, ks, p)
    return [DistributionCurve(grid, values, kind, k, p) for k, values in zip(ks, table)]


def distribution_curve(
    kind: CurveKind,
    k: int,
    p: McpParams,
    r_max: float | None = None,
    num: int = _CURVE_POINTS,
) -> DistributionCurve:
    """Sample one order's CDF on a uniform grid: distribution_curves for [k]."""
    return distribution_curves(kind, [k], p, r_max, num)[0]


def _check_order(k: int) -> None:
    if not _is_integer(k) or not 1 <= k <= _PMF_HARD_CAP:
        raise ValueError(f"k must be an integer in 1..{_PMF_HARD_CAP}, got {k!r}")


def _check_weight_order(k) -> None:
    if not _is_integer(k) or k < 0:
        raise ValueError(f"order must be a nonnegative integer, got {k!r}")


def _check_orders(ks) -> None:
    if len(ks) == 0:
        raise ValueError("need at least one order k")
    if isinstance(ks, range):
        # A rising range ends at its largest order; a falling one starts there.
        _check_order(ks[-1])
    for k in ks:
        _check_order(k)


def _check_dimension(n) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= _MAX_DIMENSION:
        raise ValueError(f"dimension must be an integer in 1..{_MAX_DIMENSION}, got {n!r}")


def _is_integer(value) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)

