"""Exact n-ball and two-ball intersection (lens) volumes.

Every distribution in this package reduces to one-dimensional integrals
whose kernel is the volume of the intersection of two n-balls.  The
general-n lens is assembled from two hyperspherical caps split at the
radical hyperplane; dimensions 1-3 use closed forms.
"""

from __future__ import annotations

import math

import numpy as np

from ._special import betainc_half

__all__ = ["unit_ball_volume", "ball_volume", "intersection_volume"]


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
    """Volume of an n-ball of the given radius; inf beyond the double range.

    An array of radii gives an array of volumes, a scalar a float.  In
    dimensions where the unit-ball volume itself underflows to zero
    (n > 452), a radius whose nth power overflows gives nan.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        volume = unit_ball_volume(n) * np.asarray(radius, dtype=float) ** n
    return float(volume) if volume.ndim == 0 else volume


def intersection_volume(
    r: float | np.ndarray, r_d: float | np.ndarray, x: float | np.ndarray, n: int
) -> float | np.ndarray:
    """Volume of B(o, r) intersected with a ball of radius r_d centered x away.

    Piecewise: the smaller ball's volume when one ball contains the other
    (x <= |r - r_d|), zero when they are disjoint (x >= r + r_d), and the
    sum of the two hyperspherical caps cut off by the radical hyperplane in
    between.  When the radical plane lies beyond one center the cap exceeds
    a hemisphere and is evaluated as ball minus complementary cap, keeping
    the incomplete-beta argument inside [0, 1].  r, r_d and x may be
    arrays that broadcast against each other (say columns of radii against
    a matrix of separations), giving an array of volumes, each equal to
    the scalar call on its elements; scalars give a float.
    """
    _check_dimension(n)
    xs = np.asarray(x, dtype=float)
    if not (np.isfinite(r).all() and np.isfinite(r_d).all() and np.isfinite(xs).all()):
        raise ValueError("lens arguments must be finite")
    if np.any(np.less(r, 0.0)) or np.any(np.less_equal(r_d, 0.0)) or (xs < 0.0).any():
        raise ValueError(f"invalid lens geometry: r={r}, r_d={r_d}, x={x}")

    # Every branch is evaluated at every x and the right one picked below;
    # the cap formulas divide by x = 0, or overflow near it, on the
    # containment branch only.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if n == 1:
            lens = r + r_d - xs
        else:
            # Cap heights measured from the radical hyperplane.  The
            # difference-of-squares product form avoids the cancellation
            # that the naive (x^2 + r^2 - r_d^2)/(2x) offset suffers when
            # one ball is tiny next to the other; heights above the ball
            # radius mean the cap exceeds a hemisphere, which every formula
            # below handles directly.
            h1 = (r_d - xs + r) * (r_d + xs - r) / (2.0 * xs)
            h2 = (r + r_d - xs) * (r + xs - r_d) / (2.0 * xs)
            lens = _cap_volume(r, h1, n) + _cap_volume(r_d, h2, n)
    full = ball_volume(np.minimum(r, r_d), n)
    volume = np.where(xs >= r + r_d, 0.0, np.where(xs <= np.abs(r - r_d), full, lens))
    return float(volume) if volume.ndim == 0 else volume


def _cap_volume(radius: float | np.ndarray, height: np.ndarray, n: int) -> np.ndarray:
    # Hyperspherical cap of the given height, 0 <= height <= 2 * radius.
    h = np.clip(height, 0.0, 2.0 * radius)
    if n == 2:
        # Circular segment: (R^2/2)(theta - sin theta) rearranged so only
        # well-conditioned atan2/sqrt evaluations appear.
        a = radius - h
        s = np.sqrt(h * (2.0 * radius - h))
        return radius * radius * np.arctan2(s, a) - s * a
    if n == 3:
        return math.pi * h * h * (3.0 * radius - h) / 3.0
    z = h * (2.0 * radius - h) / (radius * radius)
    half = 0.5 * ball_volume(radius, n) * betainc_half((n + 1) / 2, np.minimum(z, 1.0))
    return np.where(h <= radius, half, ball_volume(radius, n) - half)


def _check_dimension(n: int) -> None:
    if not isinstance(n, (int,)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
