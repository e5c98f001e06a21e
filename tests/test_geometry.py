import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mcpdist.geometry import (_campbell_count, _campbell_radius, ball_volume, intersection_volume,
                              lens_share, unit_ball_volume)

from conftest import mc_lens_volume

RADII = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)
DIMS = st.integers(min_value=1, max_value=6)


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == 2.0
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
    # agrees with the gamma-function definition in higher dimensions
    for n in range(1, 12):
        assert unit_ball_volume(n) == pytest.approx(
            math.pi ** (n / 2) / math.gamma(n / 2 + 1), rel=1e-14
        )


def test_dimension_validation():
    for bad in (0, -1, 2.0, True):
        with pytest.raises(ValueError):
            unit_ball_volume(bad)


def test_lens_one_dimensional_branches():
    # containment branch equals the full length of the smaller interval
    assert intersection_volume(2.0, 1.0, 0.5, 1) == 2.0
    # middle branch is linear in the separation
    assert intersection_volume(2.0, 1.0, 1.5, 1) == pytest.approx(1.5, abs=1e-15)
    assert intersection_volume(2.0, 1.0, 3.0, 1) == 0.0


def test_lens_two_unit_circles():
    # classical two-unit-circle lens at separation 1
    expected = 2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0
    assert intersection_volume(1.0, 1.0, 1.0, 2) == pytest.approx(expected, rel=1e-13)


def test_lens_two_unit_circles_monte_carlo_oracle():
    # area-integration oracle; 3 standard errors at this sample size sits
    # well inside the 1e-3 budget
    rng = np.random.default_rng(2024)
    est, se = mc_lens_volume(rng, 1.0, 1.0, 1.0, 2, size=2_000_000)
    assert intersection_volume(1.0, 1.0, 1.0, 2) == pytest.approx(est, abs=max(3 * se, 1e-3))


def test_lens_trivial_cases():
    for n in range(1, 7):
        assert intersection_volume(1.0, 1.0, 3.0, n) == 0.0  # disjoint
        assert intersection_volume(0.0, 1.0, 0.3, n) == 0.0  # degenerate probe
    # small ball swallowed by the big one
    assert intersection_volume(5.0, 1.0, 2.0, 3) == pytest.approx(
        4.0 * math.pi / 3.0, rel=1e-15
    )


def test_lens_invalid_arguments():
    with pytest.raises(ValueError):
        intersection_volume(-1.0, 1.0, 0.0, 2)
    with pytest.raises(ValueError):
        intersection_volume(1.0, 0.0, 0.0, 2)
    with pytest.raises(ValueError):
        intersection_volume(1.0, 1.0, math.inf, 2)
    # An array of cluster radii is checked element by element.
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            intersection_volume(1.0, np.array([1.0, bad]), 0.5, 2)


@given(
    pairs=st.lists(st.tuples(RADII, RADII), min_size=1, max_size=6),
    n=st.integers(min_value=1, max_value=8),
    x=st.lists(st.floats(min_value=0.0, max_value=25.0), min_size=1, max_size=8),
)
def test_lens_columns_of_both_radii_equal_scalar_calls(pairs, n, x):
    # One (r, r_d) pair per row against every separation, as the kernel
    # calls it with per-row cluster radii.
    r, r_d = (np.array(column)[:, np.newaxis] for column in zip(*pairs))
    volumes = intersection_volume(r, r_d, np.array(x), n)
    assert volumes.shape == (len(pairs), len(x))
    for (ri, rdi), row in zip(pairs, volumes):
        for xj, vij in zip(x, row):
            assert vij == intersection_volume(ri, rdi, xj, n)


def test_lens_matches_monte_carlo_on_grid():
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        for r, r_d, x in [(1.0, 1.0, 1.0), (2.0, 0.7, 1.9), (0.5, 1.2, 1.0), (1.0, 1000.0, 999.5)]:
            est, se = mc_lens_volume(rng, r, r_d, x, n, size=400_000)
            assert intersection_volume(r, r_d, x, n) == pytest.approx(
                est, abs=3 * se + 1e-12
            ), (n, r, r_d, x)


def test_lens_matches_slab_integration_oracle():
    # definitive cross-check for the generic-dimension cap path: integrate
    # the (n-1)-ball cross sections along the axis at high precision
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30

    def lens_slab(r, r_d, x, n):
        v_slice = mpmath.pi ** ((n - 1) / mpmath.mpf(2)) / mpmath.gamma((n - 1) / mpmath.mpf(2) + 1)

        def cap(R, h):
            return v_slice * mpmath.quad(
                lambda t: (R * R - t * t) ** ((n - 1) / mpmath.mpf(2)), [R - h, R]
            )

        h1 = (r_d - x + r) * (r_d + x - r) / (2 * x)
        h2 = (r + r_d - x) * (r + x - r_d) / (2 * x)
        return float(cap(mpmath.mpf(r), mpmath.mpf(h1)) + cap(mpmath.mpf(r_d), mpmath.mpf(h2)))

    for n in (2, 3, 4, 5, 6):
        for r, r_d, x in [(1.0, 1.0, 1.0), (2.0, 0.7, 1.9), (0.5, 1.2, 1.0), (1.0, 1000.0, 999.5)]:
            assert intersection_volume(r, r_d, x, n) == pytest.approx(
                lens_slab(r, r_d, x, n), rel=1e-12
            ), (n, r, r_d, x)


@given(r=RADII, r_d=RADII, n=DIMS, frac1=st.floats(0, 1), frac2=st.floats(0, 1))
def test_lens_monotone_in_separation(r, r_d, n, frac1, frac2):
    span = r + r_d
    x1, x2 = sorted((frac1 * span, frac2 * span))
    assert intersection_volume(r, r_d, x1, n) >= intersection_volume(r, r_d, x2, n) - 1e-12


@given(r1=RADII, r2=RADII, r_d=RADII, x=st.floats(0, 20), n=DIMS)
def test_lens_monotone_in_probe_radius(r1, r2, r_d, x, n):
    lo, hi = sorted((r1, r2))
    assert intersection_volume(lo, r_d, x, n) <= intersection_volume(hi, r_d, x, n) + 1e-12


@given(r=RADII, r_d=RADII, x=st.floats(0, 20), n=DIMS)
def test_lens_symmetry_and_bounds(r, r_d, x, n):
    a = intersection_volume(r, r_d, x, n)
    assert a == pytest.approx(intersection_volume(r_d, r, x, n), rel=1e-12, abs=1e-14)
    bound = ball_volume(min(r, r_d), n)
    assert -1e-15 <= a <= bound * (1 + 1e-12) + 1e-15
    if x <= abs(r - r_d):
        assert a == pytest.approx(bound, rel=1e-12)
    elif x >= abs(r - r_d) * (1 + 1e-6) + 1e-9:
        assert a < bound


@given(r=RADII, r_d=RADII, n=st.integers(min_value=2, max_value=6))
def test_lens_continuous_at_breakpoints(r, r_d, n):
    # Proper internal tangency makes the lens flatten like (x - b)^(3/2) on
    # both breakpoints for n >= 2, so a 1e-7 probe sees < 1e-9 change.  At
    # r == r_d the inner breakpoint degenerates to x = 0 where the slope is
    # finite but nonzero; that case is covered by the Lipschitz test below.
    assume(abs(r - r_d) > 0.05)
    eps = 1e-7
    for b in (abs(r - r_d), r + r_d):
        left = intersection_volume(r, r_d, max(b - eps, 0.0), n)
        right = intersection_volume(r, r_d, b + eps, n)
        assert abs(left - right) <= 1e-9, (r, r_d, n, b)


@given(r=RADII, n=DIMS)
def test_lens_continuous_at_equal_radii(r, n):
    # with r == r_d the containment breakpoint sits at x = 0 and the lens
    # leaves the full-ball value at finite speed: plain continuity bound
    eps = 1e-7
    gap = ball_volume(r, n) - intersection_volume(r, r, eps, n)
    slope_bound = 2.0 * n * ball_volume(r, n) / r  # crude Lipschitz constant
    assert 0.0 <= gap <= slope_bound * eps + 1e-12


@given(r=RADII, r_d=RADII)
def test_lens_continuous_at_breakpoints_1d(r, r_d):
    # On the line the lens is piecewise linear with unit slope, so the
    # two-sided gap equals the probe width instead of vanishing faster.
    eps = 1e-7
    for b in (abs(r - r_d), r + r_d):
        left = intersection_volume(r, r_d, max(b - eps, 0.0), 1)
        right = intersection_volume(r, r_d, b + eps, 1)
        assert abs(left - right) <= 2 * eps * (1 + 1e-9)


def _share_cap_formula(r, r_d, x, n):
    """A / (v_n r_d^n) from the betainc cap formula, in mpmath at the working precision."""
    mpmath = pytest.importorskip("mpmath")
    r, r_d, x = mpmath.mpf(r), mpmath.mpf(r_d), mpmath.mpf(x)
    if x >= r + r_d:
        return mpmath.mpf(0)
    if x <= abs(r - r_d):
        return (min(r, r_d) / r_d) ** n
    a = mpmath.mpf(n + 1) / 2

    def cap(radius, h):
        half = (radius / r_d) ** n * mpmath.betainc(a, 0.5, 0, h * (2 * radius - h) / radius**2,
                                                    regularized=True) / 2
        return half if h <= radius else (radius / r_d) ** n - half

    return (cap(r, (r_d - x + r) * (r_d + x - r) / (2 * x))
            + cap(r_d, (r + r_d - x) * (r + x - r_d) / (2 * x)))


@pytest.mark.parametrize("n", [4, 5, 20, 200, 400, 1000])
def test_lens_share_matches_mpmath(n):
    # The share is formed from bounded factors, so it keeps its relative
    # accuracy wherever it is a normal double, at any n.  It is
    # ill-conditioned like n/2 in the cap heights, hence the bound above n = 20.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(n)
    size = 60
    r_d = 10.0 ** rng.uniform(-3.0, 3.0, size)
    r = r_d * 10.0 ** rng.uniform(-2.0, math.log10(30.0), size)
    lo, hi = np.abs(r - r_d), r + r_d
    x = lo + (hi - lo) * rng.uniform(0.0, 1.0, size)
    x[0], x[1], x[2] = 0.0, lo[1] / 2.0, hi[2]  # concentric, contained, touching
    shares = lens_share(r[:, np.newaxis], r_d[:, np.newaxis], x[:, np.newaxis], n)[:, 0]
    bound = 1e-12 if n <= 20 else 2e-13 * n
    with mpmath.workdps(50):
        for i in range(size):
            scalar = lens_share(float(r[i]), float(r_d[i]), float(x[i]), n)
            assert scalar == shares[i], i
            want = _share_cap_formula(r[i], r_d[i], x[i], n)
            if want > 1e-300:
                assert abs(scalar - want) <= bound * want, (i, scalar, float(want))
            else:
                assert 0.0 <= scalar <= 1e-300, (i, scalar, float(want))


def test_lens_share_is_the_volume_over_the_cluster_ball():
    for n, r, r_d, x in [(1, 2.0, 1.0, 1.5), (2, 1.0, 1.0, 1.0), (3, 5.0, 1.0, 2.0),
                         (5, 2.0, 0.7, 1.9), (8, 0.5, 1.2, 1.0)]:
        assert lens_share(r, r_d, x, n) == pytest.approx(
            intersection_volume(r, r_d, x, n) / ball_volume(r_d, n), rel=1e-14)
    # At n = 400 the cap balls' volumes overflow, and the unit ball's
    # underflows at n = 1000; the share stays in [0, 1].
    x = np.array([0.0, 5.53, 6.03, 6.53, 7.03])
    for n in (400, 1000):
        share = lens_share(6.03, 1.0, x, n)
        assert np.all((share >= 0.0) & (share <= 1.0)) and share[0] == 1.0 and share[-1] == 0.0
        assert 0.0 < share[3] < share[2] < 1.0


@pytest.mark.parametrize("r, n, intensities", [
    (5.0, 2, (0.03, 2.0)), (0.7, 3, (350.0,)), (1.3, 20, (1e-3, 5.0)), (2.0, 1, ())])
def test_campbell_count_is_the_product_as_written_in_range(r, n, intensities):
    # Left to right, with Python's float power: (I_1 ... I_m v_n) r^n.
    want = math.prod(intensities) * unit_ball_volume(n) * r**n
    assert _campbell_count(r, n, *intensities) == want
    column = _campbell_count(np.array([r, r]), n, *intensities)
    assert column.shape == (2,) and column[0] == column[1]


# ppp_cdf_contact's mpmath test covers one intensity whose product with v_n
# overflows, and a subnormal r^n.
@pytest.mark.parametrize("r, n, intensities", [
    (1e-60, 2, (1e200, 1e200)),  # I_1 I_2 overflows
    (6.0, 400, (1e-300,)),  # r^n overflows, v_n r^n is 4.4e15
])
def test_campbell_count_leaves_no_factor_out_of_range(r, n, intensities):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        volume = mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2 + 1)
        want = float(mpmath.fprod(map(mpmath.mpf, intensities)) * volume * mpmath.mpf(r) ** n)
    assert _campbell_count(r, n, *intensities) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_campbell_radius_survives_an_overflowing_intensity():
    # lambda_p mbar v_3 = 4.2e320, yet one point's ball has a radius of 6.2e-108.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = float(mpmath.cbrt(1 / (mpmath.mpf(1e160) ** 2 * 4 * mpmath.pi / 3)))
    assert _campbell_radius(1.0, 3, 1e160, 1e160) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_campbell_count_is_inf_or_zero_only_past_the_double_range():
    assert _campbell_count(1e200, 2, 1.0) == math.inf
    assert _campbell_count(1e-200, 2, 1e-300) == 0.0
    assert _campbell_count(0.0, 3, 1e300) == 0.0
    assert _campbell_radius(1.0, 2, 1e-300, 1e-300) == math.inf
