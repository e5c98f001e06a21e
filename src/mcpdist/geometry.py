"""Exact n-ball volumes and the share of a ball inside another (the lens).

Every distribution in this package reduces to one-dimensional integrals
whose kernel is the volume A of the intersection of two n-balls, as a
share A / (v_n r_d^n) of the cluster ball: the sum of two hyperspherical
caps split at the radical hyperplane; dimensions 1-3 use closed forms.
"""

from __future__ import annotations

import math

import numpy as np

from ._special import betainc_half_scaled

__all__ = ["unit_ball_volume", "ball_volume", "intersection_volume", "lens_share"]

_TINY = np.finfo(float).tiny


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in n dimensions: pi^(n/2) / Gamma(n/2 + 1).

    Evaluated through the two-step recurrence v_n = (2 pi / n) v_(n-2),
    which is exact in floating point for the low dimensions used most.
    """
    _check_dimension(n)
    if n % 2 == 0:
        volume, start = 1.0, 2
    else:
        volume, start = 2.0, 3
    for i in range(start, n + 1, 2):
        volume *= 2.0 * math.pi / i
    return volume


def ball_volume(radius: float | np.ndarray, n: int) -> float | np.ndarray:
    """Volume of an n-ball of the given radius, or of each radius in an array.

    inf only beyond the double range; nan where v_n is 0 (n > 452) and radius^n overflows.
    """
    return _campbell_count(radius, n)


def intersection_volume(
    r: float | np.ndarray, r_d: float | np.ndarray, x: float | np.ndarray, n: int
) -> float | np.ndarray:
    """ball_volume(r_d, n) * lens_share(r, r_d, x, n): the lens volume itself."""
    volume = ball_volume(r_d, n) * np.asarray(lens_share(r, r_d, x, n))
    return float(volume) if volume.ndim == 0 else volume


def lens_share(
    r: float | np.ndarray, r_d: float | np.ndarray, x: float | np.ndarray, n: int
) -> float | np.ndarray:
    """Share A / (v_n r_d^n) of a ball of radius r_d, centered x away, inside B(o, r).

    Piecewise: (min(r, r_d) / r_d)^n when one ball contains the other
    (x <= |r - r_d|), zero when they are disjoint (x >= r + r_d), and the
    two caps cut off by the radical hyperplane in between.  r, r_d and x
    may be arrays that broadcast against each other (say columns of radii
    against a matrix of separations), each entry equal to the scalar call
    on its elements; scalars give a float.
    """
    _check_dimension(n)
    r, r_d, xs = (np.asarray(v, dtype=float) for v in (r, r_d, x))
    if not (np.isfinite(r).all() and np.isfinite(r_d).all() and np.isfinite(xs).all()):
        raise ValueError("lens arguments must be finite")
    if (r < 0.0).any() or (r_d <= 0.0).any() or (xs < 0.0).any():
        raise ValueError(f"invalid lens geometry: r={r}, r_d={r_d}, x={x}")

    # Every branch is evaluated at every x and the right one picked below;
    # the cap formulas divide by x = 0, or overflow near it, on the
    # containment branch only.  Powers take np.power even on scalars, whose
    # ** may differ in the last bit from the array loop a table call runs.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        full = np.power(np.minimum(r, r_d) / r_d, n)
        if n == 1:
            lens = (r + r_d - xs) / (2.0 * r_d)
        else:
            # Cap heights measured from the radical hyperplane, in the
            # difference-of-squares product form that avoids the naive
            # (x^2 + r^2 - r_d^2)/(2x) offset's cancellation when one ball
            # is tiny next to the other; a height above the ball radius is
            # a cap beyond a hemisphere, which every formula handles.
            h1 = (r_d - xs + r) * (r_d + xs - r) / (2.0 * xs)
            h2 = (r + r_d - xs) * (r + xs - r_d) / (2.0 * xs)
            lens = _cap_share(r, h1, r_d, n) + _cap_share(r_d, h2, r_d, n)
        share = np.where(xs >= r + r_d, 0.0, np.where(xs <= np.abs(r - r_d), full, lens))
    return float(share) if share.ndim == 0 else share


def _cap_share(radius: np.ndarray, height: np.ndarray, r_d: np.ndarray, n: int) -> np.ndarray:
    # A cap of height 0..2 radius as a share of the ball of radius r_d.
    h = np.clip(height, 0.0, 2.0 * radius)
    rho = np.sqrt(h * (2.0 * radius - h))  # the radius of its base, at most min(r, r_d)
    if n == 2:
        # Circular segment (R^2/2)(theta - sin theta), from well-conditioned atan2/sqrt only.
        a = radius - h
        return (radius * radius * np.arctan2(rho, a) - rho * a) / (math.pi * r_d * r_d)
    if n == 3:  # h^2 (3 R - h) / (4 r_d^3), from ratios to r_d: its cube may be subnormal
        u = h / r_d
        return u * u * (3.0 * radius / r_d - u) / 4.0
    # The cap (R / r_d)^n I_z(a, 1/2) / 2, a = (n + 1) / 2, z = (rho / R)^2, as
    # (rho / r_d)^n (rho / R) J / 2, J = I_z / z^a in [1 / (a B(a, 1/2)), 1]: no factor
    # above 1.  Past a hemisphere (only the smaller ball's) it is (R / r_d)^n less that.
    sine = np.minimum(rho / radius, 1.0)
    small = 0.5 * np.power(rho / r_d, n) * sine * betainc_half_scaled((n + 1) / 2, sine * sine)
    return np.where(h <= radius, small, np.power(radius / r_d, n) - small)


def _campbell_count(radius, n: int, *intensities) -> float | np.ndarray:
    """Campbell mean count intensities[0] ... intensities[-1] v_n radius^n (floats or arrays).

    As written, left to right, where radius^n, the intensities' product with
    v_n, and the count are normal doubles; in logs elsewhere, so the count is
    inf or 0 only beyond the double range.  A float radius takes C pow, as a
    Python float's ** does (a numpy array's may differ in the last bit).
    """
    r = np.asarray(radius, dtype=float)
    r = r[()] if r.ndim == 0 else r
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        rate = math.prod(intensities) * unit_ball_volume(n)
        power = r**n
        count = rate * power
        normal = np.isfinite(count) & (np.minimum(np.minimum(rate, power), count) >= _TINY)
        count = np.where(normal, count, np.exp(_log_rate(n, intensities) + n * np.log(r)))
    return float(count) if count.ndim == 0 else count


def _campbell_radius(count: float, n: int, *intensities: float) -> float:
    """Radius whose n-ball holds `count` points on average; inf where the rate underflows."""
    rate = math.prod(intensities) * unit_ball_volume(n)
    if math.isinf(rate):  # the radius is still a double: form it in logs
        return math.exp((math.log(count) - float(_log_rate(n, intensities))) / n)
    return (count / rate) ** (1.0 / n) if rate > 0.0 else math.inf


def _log_rate(n: int, intensities):
    return sum(map(np.log, intensities)) + np.log(unit_ball_volume(n))


def _check_dimension(n: int) -> None:
    if not isinstance(n, (int,)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
