"""Incomplete gamma and beta functions, so the package imports numpy only.

The regularized incomplete gamma functions P(a, x) and Q(a, x) are a
scalar port of the branches of Cephes `igam.c` that positive integer
orders reach, in the form scipy.special wraps it (Moshier's Cephes
Mathematical Library, with the igam_fac/igamc_series rework after DiDonato
& Morris, "Computation of the incomplete gamma function ratios and their
inverse", ACM TOMS 12, 1986): the power series, the continued fraction,
the cancellation-free Q series near x = 1, and igam_fac with the scaled
Lanczos sum (g = 6.024680040776729583740234375).  They use Cephes' own
`lgam`, and its rational `expm1` and `log1pmx` series (`unity.c`) only
on the domains these branches reach (|x| <= 0.0954 and |x| < 0.43), not
libm's, and every other elementary function through `math`, that is
libm, so for orders 1..20 P and Q equal scipy.special.gammainc and
gammaincc bit for bit.  Above order 20, where x is within 30 % of a (or
within 4.5 sqrt(a) above order 200), scipy takes Temme's uniform
asymptotic series instead; these branches are tested to within 1e-12
relative of it there.

The regularized incomplete beta I_z(a, 1/2) of the n-ball cap is the
modified-Lentz continued fraction of Press et al., Numerical Recipes
(3rd ed., 2007) section 6.4, with its guard against zero denominators,
run on arrays with every element stopped at its own convergence, so an
element's value does not depend on the others; it is returned over z^a.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["betainc_half_scaled", "gammainc", "gammaincc", "lgam", "log_factorials"]

_MACHEP = 1.11022302462515654042e-16  # 2^-53
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_MAXITER = 2000
_BIG = 4.503599627370496e15
_BIGINV = 2.22044604925031308085e-16

# lgam: the Stirling correction.
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305

# expm1 on [-1/2, 1/2]: x P(x^2) / (Q(x^2) - x P(x^2)), doubled.
_EXPM1_P = (1.2617719307481059087798e-4, 3.0299440770744196129956e-2, 9.9999999999999999991025e-1)
_EXPM1_Q = (3.0019850513866445504159e-6, 2.5244834034968410419224e-3, 2.2726554820815502876593e-1,
            2.0000000000000000000897e0)

# The Lanczos sum scaled by exp(-g), as a ratio of degree-12 polynomials
# (coefficients by decreasing power).
_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_NUM = (0.006061842346248906525783753964555936883222, 0.5098416655656676188125178644804694509993,
                19.51992788247617482847860966235652136208, 449.9445569063168119446858607650988409623,
                6955.999602515376140356310115515198987526, 75999.29304014542649875303443598909137092,
                601859.6171681098786670226533699352302507, 3481712.15498064590882071018964774556468,
                14605578.08768506808414169982791359218571, 43338889.32467613834773723740590533316085,
                86363131.28813859145546927288977868422342, 103794043.1163445451906271053616070238554,
                56906521.91347156388090791033559122686859)
_LANCZOS_DENOM = (1.0, 66.0, 1925.0, 32670.0, 357423.0, 2637558.0, 13339535.0, 45995730.0,
                  105258076.0, 150917976.0, 120543840.0, 39916800.0, 0.0)


def _polevl(x: float, coefs) -> float:
    ans = coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def lgam(x: float) -> float:
    """log Gamma(x) for a positive integer x, as Cephes lgam (scipy.special.gammaln).

    Below 13, Cephes steps an integer x down to exactly 2 by the recurrence
    and returns the log of the exact product (x - 1)!, so its rational
    approximation on (2, 3), which only non-integers reach, is not ported.
    """
    if not (x >= 1.0 and float(x).is_integer()):
        raise ValueError(f"lgam takes positive integers, got {x!r}")
    if x < 13.0:
        return math.log(math.factorial(int(x) - 1))
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
              + 0.0833333333333333333333) / x
    else:
        q += _polevl(p, _LGAM_A) / x
    return q


_log_factorial_table = np.empty(0)


def log_factorials(count: int) -> np.ndarray:
    """log k! for k = 0..count-1, each lgam(k + 1) (read-only).

    One table serves every count: a longer count extends it by the entries
    it lacks, so no entry is computed twice and no more are computed than
    the longest count asks for.
    """
    global _log_factorial_table
    table = _log_factorial_table
    if table.size < count:
        table = np.concatenate([table, [lgam(k + 1.0) for k in range(table.size, count)]])
        table.flags.writeable = False
        _log_factorial_table = table
    return table[:count]


def _expm1(x: float) -> float:
    # Cephes' rational form on [-1/2, 1/2]; its one caller passes log x, |log x| <= 0.0954.
    xx = x * x
    r = x * _polevl(xx, _EXPM1_P)
    r = r / (_polevl(xx, _EXPM1_Q) - r)
    return r + r


def _lanczos_sum_expg_scaled(x: float) -> float:
    # Cephes ratevl: beyond |x| = 1, both polynomials in 1/x, reversed.
    if abs(x) > 1.0:
        y, num, den = 1.0 / x, _LANCZOS_NUM[::-1], _LANCZOS_DENOM[::-1]
    else:
        y, num, den = x, _LANCZOS_NUM, _LANCZOS_DENOM
    return _polevl(y, num) / _polevl(y, den)


def _log1pmx(x: float) -> float:
    # log(1 + x) - x by Cephes' series for |x| < 1/2; _igam_fac's Lanczos
    # branch reaches it only at a >= 143, where |x| < 0.43.
    xfac, res = x, 0.0
    for n in range(2, _MAXITER):
        xfac *= -x
        term = xfac / n
        res += term
        if abs(term) < _MACHEP * abs(res):
            break
    return res


def _igam_fac(a: float, x: float) -> float:
    # x^a e^(-x) / Gamma(a)
    if abs(a - x) > 0.4 * abs(a):
        ax = a * math.log(x) - x - lgam(a)
        if ax < -_MAXLOG:
            return 0.0
        return math.exp(ax)
    fac = a + _LANCZOS_G - 0.5
    res = math.sqrt(fac / math.exp(1.0)) / _lanczos_sum_expg_scaled(a)
    if a < 200.0 and x < 200.0:
        res *= math.exp(a - x) * math.pow(x / fac, a)
    else:
        num = x - a - _LANCZOS_G + 0.5
        res *= math.exp(a * _log1pmx(num / fac) + x * (0.5 - _LANCZOS_G) / fac)
    return res


def _igamc_continued_fraction(a: float, x: float) -> float:
    # DLMF 8.9.2
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2, qkm2 = 1.0, x
    pkm1, qkm1 = x + 1.0, z * x
    ans = pkm1 / qkm1
    for _ in range(_MAXITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0.0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2, pkm1, qkm2, qkm1 = pkm1, pk, qkm1, qk
        if abs(pk) > _BIG:
            pkm2 *= _BIGINV
            pkm1 *= _BIGINV
            qkm2 *= _BIGINV
            qkm1 *= _BIGINV
        if t <= _MACHEP:
            break
    return ans * ax


def _igam_series(a: float, x: float) -> float:
    # DLMF 8.11.4
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    r, c, ans = a, 1.0, 1.0
    for _ in range(_MAXITER):
        r += 1.0
        c *= x / r
        ans += c
        if c <= _MACHEP * ans:
            break
    return ans * ax / a


def _igamc_series_order_one(x: float) -> float:
    # Cephes igamc_series (DLMF 8.7.3), free of the cancellation in 1 - P
    # near x = 1, at a = 1, the only order that reaches it; there Cephes'
    # lgam1p(a) and lgam(a) are both 0.
    fac, total = 1.0, 0.0
    for n in range(1, _MAXITER):
        fac *= -x / n
        term = fac / (1.0 + n)
        total += term
        if abs(term) <= _MACHEP * abs(total):
            break
    logx = math.log(x)
    return -_expm1(logx) - math.exp(logx) * total


def _check_order(a) -> float:
    if not (a >= 1 and float(a).is_integer()):
        raise ValueError(f"the incomplete gamma port takes positive integer orders, got {a!r}")
    return float(a)


def gammainc(a: int, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for a positive integer order a."""
    a = _check_order(a)
    if not x >= 0.0:  # negative or nan
        return math.nan
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    if x > 1.0 and x > a:
        return 1.0 - gammaincc(a, x)
    return _igam_series(a, x)


def gammaincc(a: int, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x), integer a >= 1."""
    a = _check_order(a)
    if not x >= 0.0:  # negative or nan
        return math.nan
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    if x > 1.1:
        if x < a:
            return 1.0 - _igam_series(a, x)
        return _igamc_continued_fraction(a, x)
    # Cephes also takes the Q series for x <= 0.5 when -0.4 / log(x) >= a,
    # which no a >= 1 meets, and on (0.5, 1.1] when x * 1.1 >= a, which
    # only order 1 meets.
    if x * 1.1 < a:
        return 1.0 - _igam_series(a, x)
    return _igamc_series_order_one(x)


_BETA_EPS = np.finfo(float).eps
_BETA_TINY = np.finfo(float).tiny / _BETA_EPS
_BETA_MAXITER = 10_000
# Convergence is tested every _BETA_STRIDE iterations only; an element that
# converged in between takes at most that many more (harmless) iterations.
_BETA_STRIDE = 4


def betainc_half_scaled(a: float, z) -> np.ndarray:
    """I_z(a, 1/2) / z^a for a = 1, 3/2, 2, ... and z in [0, 1]; 1 / (a B(a, 1/2)) at z = 0.

    Elementwise: I_z = z^a (1 - z)^(1/2) / (a B(a, 1/2)) times the
    Numerical Recipes continued fraction below its switch point
    z < (a + 1) / (a + 5/2), and 1 - I_(1-z)(1/2, a) above it, so the
    fraction converges quickly; z^a is formed only above the switch point,
    where it exceeds e^(-3/2).  A nan z gives nan.
    """
    shape = np.shape(z)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    b = 0.5
    flip = z >= (a + 1.0) / (a + b + 2.0)
    low = ~flip
    value = np.sqrt(1.0 - z) / _beta_half(a)
    if low.any():
        value[low] *= _beta_fraction(a, b, z[low]) / a
    if flip.any():
        value[flip] = z[flip] ** -a - value[flip] * _beta_fraction(b, a, 1.0 - z[flip]) / b
    return value.reshape(shape)


@functools.cache
def _beta_half(a: float) -> float:
    """B(a, 1/2) for a = 1/2, 1, 3/2, ..., by B(s + 1, 1/2) = B(s, 1/2) s / (s + 1/2)."""
    if a < 0.5 or 2.0 * a != int(2.0 * a):
        raise ValueError(f"need a half-integer or integer a >= 1/2, got {a!r}")
    beta, s = (math.pi, 0.5) if a % 1.0 else (2.0, 1.0)
    while s < a:
        beta *= s / (s + 0.5)
        s += 1.0
    return beta


def _beta_fraction(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Modified-Lentz evaluation of the incomplete-beta continued fraction at each x.

    As in Numerical Recipes, a denominator within _BETA_TINY of zero is
    replaced by _BETA_TINY.  Every element is frozen at the first tested
    iteration where its own last factor is within _BETA_EPS of 1; later
    iterations run on the elements still open only.
    """
    out = np.full_like(x, math.nan)
    # A nan argument stays nan without entering the loop.
    open_ = np.flatnonzero(~np.isnan(x))
    xs = x[open_]
    d = 1.0 / _nonzero(1.0 - (a + b) / (a + 1.0) * xs)
    c, h = 1.0, d.copy()
    for m in range(1, _BETA_MAXITER + 1):
        if open_.size == 0:
            return out
        m2 = 2.0 * m
        # Iteration m's two partial fractions: the even one, then the odd one.
        for coef in (m * (b - m) / ((a - 1.0 + m2) * (a + m2)),
                     -(a + m) * (a + b + m) / ((a + m2) * (a + 1.0 + m2))):
            aa = coef * xs
            d *= aa
            d += 1.0
            d = 1.0 / _nonzero(d)
            aa /= c
            aa += 1.0
            c = _nonzero(aa)
            h *= d
            h *= c
        if m % _BETA_STRIDE:
            continue
        done = abs(d * c - 1.0) <= _BETA_EPS
        if done.any():
            out[open_[done]] = h[done]
            keep = ~done
            open_, xs, c, d, h = open_[keep], xs[keep], c[keep], d[keep], h[keep]
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def _nonzero(v: np.ndarray) -> np.ndarray:
    """v, with every element nearer zero than _BETA_TINY set to _BETA_TINY in place."""
    np.copyto(v, _BETA_TINY, where=np.abs(v) < _BETA_TINY)
    return v
