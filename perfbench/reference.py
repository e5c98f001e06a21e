"""Independent reference values for the planar (n = 2) CDFs.

Nothing here imports mcpdist.  The lens area uses the textbook
circle-circle formula (arccos terms minus the kite area), not the
package's segment form; the kernel integrals use tanh-sinh quadrature,
not the package's adaptive Gauss-Kronrod rule; the inner region where
one disc contains the other is integrated in closed form; and the
PMF/Palm convolution is written out directly instead of through the
telescoped k-term sum.  Every function is vectorized over parameter
sets so a whole curve or sweep is checked in one pass.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc

# tanh-sinh nodes on (0, 1): x = logistic(pi sinh t), step 1/32 over
# |t| <= 4.5.  Halving the step changes the fig1 and sweep references by
# less than 1e-13, far inside the 1e-8 check tolerance.
_STEP = 1.0 / 32.0
_T = np.arange(-4.5, 4.5 + _STEP / 2, _STEP)
_U = math.pi * np.sinh(_T)
_X01 = 1.0 / (1.0 + np.exp(-_U))
_W01 = _STEP * math.pi * np.cosh(_T) * _X01 * (1.0 / (1.0 + np.exp(_U)))


def lens_area(r, rd, x):
    """Area of the intersection of discs of radii r and rd, centers x apart."""
    r, rd, x = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (r, rd, x)))
    out = np.zeros(x.shape)
    inside = x <= np.abs(r - rd)
    out[inside] = math.pi * np.minimum(r, rd)[inside] ** 2
    part = ~inside & (x < r + rd)
    r, rd, x = r[part], rd[part], x[part]
    c1 = np.clip((x * x + r * r - rd * rd) / (2.0 * x * r), -1.0, 1.0)
    c2 = np.clip((x * x + rd * rd - r * r) / (2.0 * x * rd), -1.0, 1.0)
    kite = (-x + r + rd) * (x + r - rd) * (x - r + rd) * (x + r + rd)
    out[part] = r * r * np.arccos(c1) + rd * rd * np.arccos(c2) - 0.5 * np.sqrt(np.maximum(kite, 0.0))
    return out


def _outer(f, a, b):
    """Integral of f(x) over [a, b] per parameter set; a, b have shape (S,)."""
    span = (b - a)[:, None]
    x = a[:, None] + span * _X01
    return (f(x) * span * _W01).sum(axis=1)


def kernel_terms(r, lambda_p, mbar, rd, k_max):
    """g(0), h_1..h_(k_max-1) and q_0..q_(k_max-1) for each parameter set.

    g(0) = lambda_p * integral over the plane of (exp(-lambda_d A) - 1),
    h_j = lambda_p * integral of (lambda_d A)^j exp(-lambda_d A) / j!,
    q_j = E_y[(lambda_d A)^j exp(-lambda_d A) / j!] with y uniform in the
    cluster disc.  Returns (g0, h, q) with h[:, j] and q[:, j] (h[:, 0]
    unused).
    """
    r, lambda_p, mbar, rd = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (r, lambda_p, mbar, rd))
    r, lambda_p, mbar, rd = np.broadcast_arrays(r, lambda_p, mbar, rd)
    ld = mbar / (math.pi * rd * rd)
    a = np.abs(r - rd)
    b = r + rd
    t_in = ld * math.pi * np.minimum(r, rd) ** 2  # lambda_d A where one disc holds the other

    def t_of(x):
        return ld[:, None] * lens_area(r[:, None], rd[:, None], x)

    # Planar measure 2 pi x dx: the inner disc contributes pi a^2 exactly.
    g0 = lambda_p * (np.expm1(-t_in) * math.pi * a * a
                     + _outer(lambda x: np.expm1(-t_of(x)) * 2.0 * math.pi * x, a, b))
    h = np.zeros((r.size, k_max))
    q = np.zeros((r.size, k_max))
    # Palm offset density 2 y / rd^2 on [0, rd]; the inner part ends at min(a, rd).
    y_in = np.minimum(a, rd)
    for j in range(k_max):
        lg = math.lgamma(j + 1)
        inner = np.exp(j * np.log(np.maximum(t_in, 1e-300)) - t_in - lg)

        def poisson_j(x, j=j, lg=lg):
            t = t_of(x)
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(t > 0.0, np.exp(j * np.log(t) - t - lg), 0.0 if j else 1.0)

        if j:
            h[:, j] = lambda_p * (inner * math.pi * a * a
                                  + _outer(lambda x: poisson_j(x) * 2.0 * math.pi * x, a, b))
        q_outer = _outer(lambda y: poisson_j(y) * 2.0 * y / rd[:, None] ** 2, y_in, np.maximum(rd, y_in))
        q[:, j] = inner * (y_in / rd) ** 2 + q_outer
    return g0, h, q


def stationary_pmf(g0, h):
    """p_0..p_(K-1) from g(0) and h_j by the exp power-series recurrence."""
    k_max = h.shape[1]
    p = np.zeros_like(h)
    p[:, 0] = np.exp(g0)
    for m in range(1, k_max):
        p[:, m] = sum(j * h[:, j] * p[:, m - j] for j in range(1, m + 1)) / m
    return p


def contact_cdf(r, lambda_p, mbar, rd, k_max):
    """kth contact-distance CDF for k = 1..k_max: array (S, k_max)."""
    g0, h, _ = kernel_terms(r, lambda_p, mbar, rd, k_max)
    return 1.0 - np.cumsum(stationary_pmf(g0, h), axis=1)


def nnd_cdf(r, lambda_p, mbar, rd, k_max):
    """kth nearest-neighbour CDF for k = 1..k_max: array (S, k_max).

    The Palm count is the stationary count plus an independent sibling
    count with PMF q, so P[count = m] is their convolution.
    """
    g0, h, q = kernel_terms(r, lambda_p, mbar, rd, k_max)
    p = stationary_pmf(g0, h)
    palm = np.stack([sum(p[:, m - j] * q[:, j] for j in range(m + 1)) for m in range(k_max)], axis=1)
    return 1.0 - np.cumsum(palm, axis=1)


def ppp_contact_cdf(r, k, intensity):
    """kth contact CDF of a planar Poisson process, as P[Poisson(mu) >= k]."""
    return float(gammainc(k, intensity * math.pi * r**2))
