"""Count PGF/PMF machinery and kth contact / nearest-neighbor CDFs.

The count N of cluster-process points inside a ball of radius r has a
probability generating function exp(g(s)), with g a one-dimensional
integral over the lens volume between the probe ball and the cluster
ball.  Taylor coefficients h_k of g at s = 0 yield the PMF of N either
through the exp power-series recurrence (production path) or through the
Faa di Bruno partition sum (kept for cross-validation).  The kth contact
distance CDF is a partial PMF sum; nearest-neighbor distances follow by
convolving with the intra-cluster weights q_j under the reduced Palm
distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gammainc, gammainccinv, gammaln, xlogy

from .geometry import ball_volume, intersection_volume, unit_ball_volume

__all__ = [
    "CurveKind",
    "DistributionCurve",
    "McpParams",
    "PmfUnderflowError",
    "PmfVector",
    "cdf_contact",
    "cdf_nnd",
    "cdf_nnd_small_rd_limit",
    "corollary_contact_cdf",
    "corollary_nnd_cdf",
    "count_pmf",
    "count_pmf_partition",
    "distribution_curve",
    "enumerate_partitions",
    "h_coefficient",
    "log_pgf_count",
    "log_pgf_count_1d",
    "palm_count_pmf",
    "pgf_count",
    "pgf_count_1d",
    "pgf_count_palm",
    "ppp_cdf_contact",
    "q_weight",
    "quantile_radius",
]

# Fixed rule for every lens integral: Gauss-Legendre nodes on [0, 1] pushed
# through the smoothstep u -> 3u^2 - 2u^3.  Its zero slope at both ends
# turns the (x - a)^((n+1)/2) behaviour of the lens at the containment and
# disjointness breakpoints into integer powers of u, so the rule converges
# as for a smooth integrand.
_NODES = 64
_gl_nodes, _gl_weights = np.polynomial.legendre.leggauss(_NODES)
_U = 0.5 * (_gl_nodes + 1.0)
_SMOOTHSTEP = _U * _U * (3.0 - 2.0 * _U)
_SMOOTHSTEP_WEIGHTS = 3.0 * _gl_weights * _U * (1.0 - _U)
# Poisson-type sums over the nodes are formed this many orders at a time.
_ORDER_BLOCK = 64

# Below this log-probability P[N=0] is not representable in double precision.
_LOG_SPACE_CUTOFF = -700.0
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


class PmfUnderflowError(ArithmeticError):
    """The zero-count probability underflows double precision.

    Raised only when log_space=False was passed.
    """


@dataclass(frozen=True)
class McpParams:
    """Parameters of an n-dimensional Matern cluster process.

    lambda_p: parent intensity (points per unit n-volume)
    mbar:     mean number of daughters per cluster
    rd:       radius of the cluster ball
    n:        spatial dimension
    """

    lambda_p: float
    mbar: float
    rd: float
    n: int = 2

    def __post_init__(self):
        # Beyond n = 452 the unit-ball volume underflows double precision,
        # so the cluster-volume check below rejects every rd; the bound only
        # spares a huge n the O(n) volume recurrence.
        if not isinstance(self.n, int) or isinstance(self.n, bool) or not 1 <= self.n <= 1000:
            raise ValueError(f"dimension must be an integer in 1..1000, got {self.n!r}")
        for name in ("lambda_p", "mbar", "rd"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not 0.0 < ball_volume(self.rd, self.n) < math.inf or not 0.0 < self.lambda_d < math.inf:
            raise ValueError(
                f"rd={self.rd!r} in n={self.n} dimensions gives a cluster ball volume or "
                "daughter intensity outside the range of double precision"
            )

    @property
    def lambda_d(self) -> float:
        """Daughter intensity inside the cluster ball: mbar / (v_n rd^n)."""
        return self.mbar / ball_volume(self.rd, self.n)


@dataclass(frozen=True, eq=False)
class PmfVector:
    """PMF values for orders 0..m_max plus the mass beyond the truncation."""

    probs: np.ndarray
    truncation_mass: float


class CurveKind(str, Enum):
    CONTACT = "contact_cd"
    NND = "nnd"
    PPP_CONTACT = "ppp_cd"
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
        if np.any(np.diff(radii) <= 0.0):
            raise ValueError("radii must be strictly increasing")
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise ValueError("CDF values must lie in [0, 1]")
        if np.any(np.diff(values) < -1e-9):
            raise ValueError("CDF values must be nondecreasing")


# ---------------------------------------------------------------------------
# Lens kernel: every PGF quantity of one radius from one pass over the nodes
# ---------------------------------------------------------------------------


def _radial_rule(inner: float, outer: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integrals against n x^(n-1) / outer^n on [0, outer].

    The lens is constant for x <= inner, so that piece is the single node
    x = 0 carrying its exact mass (inner / outer)^n; the mapped rule covers
    [inner, outer].
    """
    x = inner + (outer - inner) * _SMOOTHSTEP
    w = n * (x / outer) ** (n - 1) * (outer - inner) / outer * _SMOOTHSTEP_WEIGHTS
    return np.append(0.0, x), np.append((inner / outer) ** n, w)


class _Kernel:
    """t = lambda_d A(r, rd, x) on fixed nodes, with quadrature weights.

    The stationary pair integrates over the window [0, r + rd] with weights
    lambda_p n v_n x^(n-1) dx, the Palm pair over the typical point's
    cluster-center offset [0, rd] with weights n y^(n-1) / rd^n dy.  The
    lens is evaluated once for both, and each PGF quantity is one weighted
    sum over the nodes.
    """

    def __init__(self, r: float, p: McpParams):
        _check_radius(r)
        n, rd = p.n, p.rd
        inner = abs(r - rd)
        x, w = _radial_rule(inner, r + rd, n)
        y, self.palm_w = _radial_rule(min(inner, rd), rd, n)
        lens = intersection_volume(r, rd, np.concatenate([x, y]), n)
        # Rounding can leave a cap sum a hair below zero.
        t = p.lambda_d * np.maximum(lens, 0.0)
        self.t, self.palm_t = t[: x.size], t[x.size :]
        clusters = p.lambda_p * ball_volume(r + rd, n)
        if not math.isfinite(clusters):
            raise ValueError(
                f"the expected number of clusters within r + rd = {r + rd!r} of the origin "
                "exceeds the double range"
            )
        self.w = clusters * w

    def log_pgf(self, s: float) -> float:
        """g(s), as an expm1 sum free of cancellation against the window mass."""
        return float(np.expm1((s - 1.0) * self.t) @ self.w)

    def palm_factor(self, s: float) -> float:
        """E[s^(own-cluster count)]: the Palm PGF divided by the stationary one."""
        return float(np.exp((s - 1.0) * self.palm_t) @ self.palm_w)

    def h(self, lo: int, hi: int) -> np.ndarray:
        """h_k for k = lo..hi-1."""
        sums = _poisson_sums(self.t, self.w, lo, hi)
        return np.pad(sums, (0, hi - lo - sums.size))

    def q(self, lo: int, hi: int) -> np.ndarray:
        """q_j for j = lo..hi-1."""
        sums = _poisson_sums(self.palm_t, self.palm_w, lo, hi)
        return np.pad(sums, (0, hi - lo - sums.size))


def _poisson_sums(t: np.ndarray, w: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """sum over nodes of w t^k e^(-t) / k! for orders k = lo, lo+1, ...

    k! is folded into the exponent so large orders cannot overflow.  Orders
    go in blocks up to hi - 1, but past the largest t the terms fall with
    k, so once a block is all zero every higher order is zero too: the
    result stops there, and the orders it omits are zero.
    """
    blocks = [np.zeros(0)]
    t_max = t.max()
    for start in range(lo, hi, _ORDER_BLOCK):
        k = np.arange(start, min(start + _ORDER_BLOCK, hi), dtype=float)[:, np.newaxis]
        blocks.append(np.exp(xlogy(k, t) - t - gammaln(k + 1.0)) @ w)
        if start > t_max and not blocks[-1].any():
            break
    return np.concatenate(blocks)


# ---------------------------------------------------------------------------
# PGF of the in-ball count and its Taylor coefficients
# ---------------------------------------------------------------------------


def h_coefficient(r: float, k: int, p: McpParams) -> float:
    """kth Taylor coefficient h_k(r) of the log-PGF exponent at s = 0.

    For k >= 1 this is (lambda_p n v_n / k!) * integral over x in
    [0, r + rd] of (lambda_d A)^k e^(-lambda_d A) x^(n-1), with A the lens
    volume at center separation x.  k = 0 drops the power factor entirely,
    giving the bare integral of e^(-lambda_d A) x^(n-1) times the same
    prefactor.
    """
    if k < 0:
        raise ValueError(f"order must be nonnegative, got {k!r}")
    return float(_Kernel(float(r), p).h(k, k + 1)[0])


def log_pgf_count(s: float, r: float, p: McpParams) -> float:
    """Exponent g(s) of the count PGF E[s^N] = exp(g(s)) for N in B(o, r).

    Evaluated as an expm1 integral, which is algebraically the h_0-style
    integral minus lambda_p v_n (r + rd)^n but free of the cancellation
    between those two terms when the window is much larger than r.
    """
    _check_pgf_args(s, r)
    return _Kernel(float(r), p).log_pgf(float(s))


def pgf_count(s: float, r: float, p: McpParams) -> float:
    """PGF E[s^N] of the number of points in the ball of radius r."""
    return math.exp(log_pgf_count(s, r, p))


def log_pgf_count_1d(s: float, r: float, p: McpParams) -> float:
    """Closed-form g(s) for dimension one.

    On the line the lens is piecewise linear in the separation, so the
    integral evaluates in closed form:
    2 lambda_p [ |r - rd| e^z - (r + rd) + beta expm1(z)/z ] with
    beta = 2 min(r, rd) and z = lambda_d (s - 1) beta.
    """
    if p.n != 1:
        raise ValueError("closed form is only valid in dimension 1")
    _check_pgf_args(s, r)
    if r <= 0.0 or s == 1.0:
        return 0.0
    beta = 2.0 * min(r, p.rd)
    z = p.lambda_d * (s - 1.0) * beta
    ramp = beta if z == 0.0 else beta * math.expm1(z) / z
    return 2.0 * p.lambda_p * (abs(r - p.rd) * math.exp(z) - (r + p.rd) + ramp)


def pgf_count_1d(s: float, r: float, p: McpParams) -> float:
    return math.exp(log_pgf_count_1d(s, r, p))


def pgf_count_palm(s: float, r: float, p: McpParams) -> float:
    """Count PGF under the reduced Palm distribution.

    The stationary PGF times the radial average of e^((s-1) lambda_d A)
    over the typical point's own cluster-center offset.
    """
    _check_pgf_args(s, r)
    if r <= 0.0 or s == 1.0:
        return 1.0
    kernel = _Kernel(float(r), p)
    return math.exp(kernel.log_pgf(s)) * kernel.palm_factor(s)


def _check_pgf_args(s: float, r: float) -> None:
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"PGF argument must lie in [0, 1], got {s!r}")
    _check_radius(r)


def _check_radius(r: float) -> None:
    if r < 0.0 or not math.isfinite(r):
        raise ValueError(f"radius must be finite and nonnegative, got {r!r}")


# ---------------------------------------------------------------------------
# PMF extraction
# ---------------------------------------------------------------------------


def enumerate_partitions(m: int) -> list[tuple[int, ...]]:
    """All multiplicity tuples (b_1, ..., b_m) with sum i * b_i = m.

    Each tuple encodes one integer partition of m by part multiplicities;
    m = 0 yields the single empty tuple (the empty product).
    """
    if m < 0:
        raise ValueError(f"order must be nonnegative, got {m!r}")
    if m == 0:
        return [()]
    out: list[tuple[int, ...]] = []
    b = [0] * m

    def fill(part: int, remaining: int) -> None:
        if remaining == 0:
            out.append(tuple(b))
            return
        if part == 0:
            return
        for count in range(remaining // part, -1, -1):
            b[part - 1] = count
            fill(part - 1, remaining - count * part)
        b[part - 1] = 0

    fill(m, m)
    return out


def count_pmf(
    r: float,
    p: McpParams,
    m_max: int | None = None,
    log_space: bool | None = None,
) -> PmfVector:
    """PMF of the point count in B(o, r), orders 0..m_max.

    Production path: the power-series recurrence m p_m = sum_j j h_j p_(m-j)
    with p_0 = e^(g(0)).  With m_max None the vector is extended until five
    consecutive orders fall below 1e-14 of the running maximum; a ValueError
    reports an expected count, or a tail, that would need more than 4096
    orders.  The recurrence runs on p_m / p_0 with a log-space scale, so it
    stays finite even where p_0 underflows; pass log_space=False to get
    PmfUnderflowError in that case instead.
    """
    _check_pmf_args(r, p, m_max)
    return _count_pmf(_Kernel(float(r), p), m_max, log_space)


def _check_pmf_args(r: float, p: McpParams, m_max: int | None) -> None:
    _check_radius(r)
    if m_max is not None and m_max < 0:
        raise ValueError(f"m_max must be nonnegative, got {m_max!r}")
    if m_max is not None and m_max > _PMF_HARD_CAP:
        raise ValueError(f"m_max must be at most {_PMF_HARD_CAP}, got {m_max!r}")
    # Campbell: the expected count lambda_p mbar v_n r^n must sit below the
    # order cap; compared as radii so that a huge r cannot overflow.
    if m_max is None and r >= _count_radius(_PMF_HARD_CAP, p):
        raise ValueError(
            f"the expected count at r={r!r} is at least {_PMF_HARD_CAP}, "
            "beyond the adaptive PMF order cap; pass m_max"
        )


def _count_radius(count: float, p: McpParams) -> float:
    """Radius whose ball holds `count` points on average (Campbell).

    inf where the intensity lambda_p mbar v_n underflows to zero.
    """
    intensity = p.lambda_p * p.mbar * unit_ball_volume(p.n)
    return (count / intensity) ** (1.0 / p.n) if intensity > 0.0 else math.inf


def _count_pmf(kernel: _Kernel, m_max: int | None, log_space: bool | None = None) -> PmfVector:
    log_p0 = kernel.log_pgf(0.0)
    if log_space is False and log_p0 < _LOG_SPACE_CUTOFF:
        raise PmfUnderflowError(
            f"log P[N=0] = {log_p0:.1f} underflows double precision; "
            "use log_space=True (or the default auto mode)"
        )
    top = _PMF_HARD_CAP if m_max is None else m_max
    # At least Poisson(-g(0)) clusters put points in the ball, so by the
    # Chernoff bound P[N <= top] <= exp(-L + top + top log(L / top)) with
    # L = -g(0) > top.  Below the smallest double every order is exactly 0,
    # and the recurrence, whose h_j reach L, could only overflow.
    lam = -log_p0
    if lam > top and top - lam + xlogy(top, lam) - xlogy(top, top) < _LOG_DOUBLE_MIN:
        return PmfVector(np.zeros(top + 1), 1.0)
    h = _poisson_sums(kernel.t, kernel.w, 1, top + 1)
    jh = np.arange(1, h.size + 1) * h
    # ratio[m] = e^(-scale) p_m / p_0
    ratio = np.zeros(top + 1)
    ratio[0] = 1.0
    scale = 0.0
    peak = 1.0
    below = 0
    m = 0
    while m < top and (m_max is not None or m < _TAIL_RUN or below < _TAIL_RUN):
        m += 1
        j = min(m, jh.size)
        term = float(np.dot(jh[:j], ratio[m - j : m][::-1])) / m
        if term > _RESCALE_AT:
            ratio[:m] /= term
            peak /= term
            scale += math.log(term)
            term = 1.0
        ratio[m] = term
        peak = max(peak, term)
        below = below + 1 if term < _TAIL_RATIO * peak else 0
    if m_max is None and below < _TAIL_RUN:
        raise ValueError(f"PMF tail did not decay within {_PMF_HARD_CAP} orders")
    with np.errstate(divide="ignore", under="ignore"):
        probs = np.exp(log_p0 + scale + np.log(ratio[: m + 1]))
    return PmfVector(probs, 1.0 - float(probs.sum()))


def count_pmf_partition(r: float, p: McpParams, m_max: int) -> PmfVector:
    """PMF via the Faa di Bruno partition sum (cross-validation path).

    P[N=m] = e^(g(0)) * sum over multiplicity tuples of
    prod_i h_i^(b_i) / b_i!.  Cost grows with the partition function, so
    this is only meant for moderate m.
    """
    if r < 0.0 or m_max < 0:
        raise ValueError("radius and m_max must be nonnegative")
    kernel = _Kernel(float(r), p)
    base = math.exp(kernel.log_pgf(0.0))
    h = [0.0, *kernel.h(1, m_max + 1)]
    probs = np.empty(m_max + 1)
    for m in range(m_max + 1):
        acc = 0.0
        for b in enumerate_partitions(m):
            term = 1.0
            for i, b_i in enumerate(b, start=1):
                if b_i:
                    term *= h[i] ** b_i / math.factorial(b_i)
            acc += term
        probs[m] = base * acc
    return PmfVector(probs, 1.0 - float(probs.sum()))


# ---------------------------------------------------------------------------
# Contact distance CDF
# ---------------------------------------------------------------------------


def cdf_contact(r: float, k: int, p: McpParams) -> float:
    """CDF of the kth contact distance: P[at least k points within r]."""
    _check_order(k)
    if r <= 0.0:
        return 0.0
    probs = count_pmf(r, p, m_max=k - 1).probs
    return _clip01(1.0 - float(probs.sum()))


def corollary_contact_cdf(r: float, k: int, p: McpParams) -> float:
    """Explicit low-order contact CDF expressions (k = 1, 2, 3)."""
    if k not in (1, 2, 3):
        raise ValueError("explicit expressions cover k = 1, 2, 3 only")
    if r <= 0.0:
        return 0.0
    kernel = _Kernel(float(r), p)
    e = math.exp(kernel.log_pgf(0.0))
    h1, h2 = kernel.h(1, 3)
    if k == 1:
        return _clip01(1.0 - e)
    if k == 2:
        return _clip01(1.0 - e * (1.0 + h1))
    return _clip01(1.0 - e * (1.0 + h1) - e * (h2 + h1 * h1 / 2.0))


def ppp_cdf_contact(r: float, k: int, intensity: float, n: int) -> float:
    """kth contact distance CDF of a homogeneous Poisson process."""
    _check_order(k)
    if not math.isfinite(intensity) or intensity <= 0.0:
        raise ValueError(f"intensity must be finite and positive, got {intensity!r}")
    if r <= 0.0:
        return 0.0
    try:
        mu = intensity * unit_ball_volume(n) * r**n
    except OverflowError:
        mu = math.inf
    # P[Poisson(mu) >= k] via the regularized lower incomplete gamma.
    return float(gammainc(k, mu))


# ---------------------------------------------------------------------------
# Reduced Palm: intra-cluster weights and nearest-neighbor CDF
# ---------------------------------------------------------------------------


def q_weight(r: float, j: int, p: McpParams) -> float:
    """Probability that exactly j cluster co-members lie within distance r.

    Radial average over the typical point's offset y in the cluster ball:
    (1/j!) integral of (lambda_d A)^j e^(-lambda_d A) n y^(n-1) / rd^n dy.
    """
    if j < 0:
        raise ValueError(f"order must be nonnegative, got {j!r}")
    return float(_Kernel(float(r), p).q(j, j + 1)[0])


def palm_count_pmf(r: float, p: McpParams, m_max: int | None = None) -> PmfVector:
    """PMF of the in-ball count under the reduced Palm distribution.

    Discrete convolution of the stationary count PMF with the q weights.
    """
    _check_pmf_args(r, p, m_max)
    kernel = _Kernel(float(r), p)
    stationary = _count_pmf(kernel, m_max)
    m_top = stationary.probs.size - 1
    probs = np.convolve(stationary.probs, kernel.q(0, m_top + 1))[: m_top + 1]
    return PmfVector(probs, 1.0 - float(probs.sum()))


def cdf_nnd(r: float, k: int, p: McpParams) -> float:
    """CDF of the kth nearest-neighbor distance of the typical point.

    1 - sum_{i=1..k} q_(k-i)(r) * ccdf_contact_i(r); the convolution with
    the stationary PMF telescopes down to this k-term form.
    """
    _check_order(k)
    if r <= 0.0:
        return 0.0
    kernel = _Kernel(float(r), p)
    ccdf = np.cumsum(_count_pmf(kernel, k - 1).probs)  # ccdf[i-1] = P[N < i] = 1 - F_{R_i}
    q = kernel.q(0, k)
    return _clip01(1.0 - float(np.dot(q[::-1], ccdf)))


def corollary_nnd_cdf(r: float, k: int, p: McpParams) -> float:
    """Explicit low-order nearest-neighbor CDF expressions (k = 1, 2, 3)."""
    if k not in (1, 2, 3):
        raise ValueError("explicit expressions cover k = 1, 2, 3 only")
    if r <= 0.0:
        return 0.0
    kernel = _Kernel(float(r), p)
    e = math.exp(kernel.log_pgf(0.0))
    h1, h2 = kernel.h(1, 3)
    q0, q1, q2 = kernel.q(0, 3)
    if k == 1:
        return _clip01(1.0 - e * q0)
    fbar1 = e
    fbar2 = e * (1.0 + h1)
    if k == 2:
        return _clip01(1.0 - q1 * fbar1 - q0 * fbar2)
    fbar3 = e * (1.0 + h1 + h2 + h1 * h1 / 2.0)
    return _clip01(1.0 - q2 * fbar1 - q1 * fbar2 - q0 * fbar3)


def cdf_nnd_small_rd_limit(r: float, k: int, p: McpParams) -> float:
    """Vanishing-cluster-radius limit of the kth nearest-neighbor CDF.

    1 - e^(-mbar) sum_{i=1..k} mbar^(k-i) ccdf_contact_i(r) / (k-i)!.
    The formula keeps its mass at r = 0 (co-located siblings), so r = 0 is
    deliberately not special-cased to zero.
    """
    _check_order(k)
    probs = count_pmf(float(r), p, m_max=k - 1).probs
    ccdf = np.cumsum(probs)
    acc = 0.0
    for i in range(1, k + 1):
        acc += p.mbar ** (k - i) / math.factorial(k - i) * ccdf[i - 1]
    return _clip01(1.0 - math.exp(-p.mbar) * acc)


# ---------------------------------------------------------------------------
# Sampled curves
# ---------------------------------------------------------------------------


def _cdf_eval(kind: CurveKind, r: float, k: int, p: McpParams) -> float:
    if kind is CurveKind.CONTACT:
        return cdf_contact(r, k, p)
    if kind is CurveKind.NND:
        return cdf_nnd(r, k, p)
    if kind is CurveKind.PPP_CONTACT:
        return ppp_cdf_contact(r, k, p.lambda_p * p.mbar, p.n)
    return cdf_nnd_small_rd_limit(r, k, p)


def quantile_radius(
    kind: CurveKind, k: int, p: McpParams, tail: float = _CURVE_TAIL
) -> float:
    """Doubling search for the radius where the CDF reaches 1 - tail."""
    _check_order(k)
    # Start from the matching Poisson quantile and double/halve from there.
    r = _count_radius(float(gammainccinv(k, tail)), p)
    target = 1.0 - tail
    if _cdf_eval(kind, r, k, p) < target:
        for _ in range(200):
            r *= 2.0
            if _cdf_eval(kind, r, k, p) >= target:
                return r
        raise ValueError(
            f"the {kind.value} CDF for k={k} does not reach 1 - {tail} within 200 doublings "
            f"of the radius (last tried r={r!r})"
        )
    for _ in range(200):
        if r <= 0.0 or _cdf_eval(kind, r / 2.0, k, p) < target:
            return r
        r /= 2.0
    return r


def distribution_curve(
    kind: CurveKind,
    k: int,
    p: McpParams,
    r_max: float | None = None,
    num: int = _CURVE_POINTS,
) -> DistributionCurve:
    """Sample a CDF on a uniform grid from 0 to r_max.

    With r_max None the grid extends to the radius found by quantile_radius;
    r_max = 0 degenerates to the single point r = 0.
    """
    kind = CurveKind(kind)
    if r_max is None:
        r_max = quantile_radius(kind, k, p)
    if r_max < 0.0:
        raise ValueError(f"r_max must be nonnegative, got {r_max!r}")
    if num < 2:
        raise ValueError(f"grid needs at least 2 points, got {num!r}")
    if r_max == 0.0:
        grid = np.array([0.0])
    else:
        grid = np.linspace(0.0, float(r_max), num)
    values = np.array([_cdf_eval(kind, float(r), k, p) for r in grid])
    return DistributionCurve(grid, values, kind, k, p)


def _check_order(k: int) -> None:
    if not 1 <= k <= _PMF_HARD_CAP:
        raise ValueError(f"k must be an integer in 1..{_PMF_HARD_CAP}, got {k!r}")


def _clip01(value: float) -> float:
    return min(1.0, max(0.0, value))
