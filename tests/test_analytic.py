import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcpdist import (
    McpParams,
    cdf_contact,
    cdf_nnd,
    count_pmf,
    h_coefficient,
    palm_count_pmf,
    pgf_count,
    ppp_cdf_contact,
    unit_ball_volume,
)
from mcpdist import analytic
from mcpdist.analytic import CurveKind, log_pgf_count
from mcpdist.cli import main
from mcpdist.geometry import _campbell_radius

from oracles import (
    corollary_contact_cdf,
    count_pmf_partition,
    enumerate_partitions,
    log_pgf_count_1d,
    pgf_count_1d,
)

LINE = McpParams(lambda_p=0.1, mbar=1.0, rd=1.0, n=1)  # lambda_d = 0.5


def closed_form_g_1d(s, r, lambda_p, lambda_d, rd):
    """Independent transcription of the 1-D closed-form exponent."""
    beta = 2.0 * min(r, rd)
    z = lambda_d * (s - 1.0) * beta
    tail = beta if z == 0.0 else (math.exp(z) - 1.0) / (lambda_d * (s - 1.0))
    return 2.0 * lambda_p * (abs(r - rd) * math.exp(z) - (r + rd) + tail)


class TestParams:
    def test_fields_are_the_four_arguments(self):
        # The daughter intensity is not stored: the kernel never forms it.
        p = McpParams(lambda_p=2e-5, mbar=5.0, rd=50.0, n=2)
        assert [f.name for f in dataclasses.fields(p)] == ["lambda_p", "mbar", "rd", "n"]
        assert not hasattr(p, "lambda_d")

    def test_validation(self):
        with pytest.raises(ValueError):
            McpParams(lambda_p=0.0, mbar=1.0, rd=1.0, n=2)
        with pytest.raises(ValueError):
            McpParams(lambda_p=1.0, mbar=-1.0, rd=1.0, n=2)
        with pytest.raises(ValueError):
            McpParams(lambda_p=1.0, mbar=1.0, rd=math.inf, n=2)
        with pytest.raises(ValueError):
            McpParams(lambda_p=1.0, mbar=1.0, rd=1.0, n=0)

    def test_dimension_ends_where_the_unit_ball_volume_turns_subnormal(self):
        # v_436 is subnormal, and v_450 already 7.6e-4 off: n = 435 is the last
        # dimension whose cluster count and Campbell intensity keep full precision.
        assert unit_ball_volume(435) >= sys.float_info.min > unit_ball_volume(436)
        assert McpParams(1e-3, 5.0, 2.0, 435).n == 435
        for n in (436, 450, 1000):
            with pytest.raises(ValueError, match=r"dimension must be an integer in 1\.\.435"):
                McpParams(1e-3, 5.0, 2.0, n)

    def test_cluster_radius_is_a_length_whose_square_is_normal(self):
        for rd in (1e-150, 1e150):
            assert McpParams(0.1, 2.0, rd, 1).rd == rd
        for rd in (1e-151, 1e-200, 1e151, 1e198):
            with pytest.raises(ValueError, match=r"rd must lie in \[1e-150, 1e\+150\]"):
                McpParams(0.1, 2.0, rd, 1)


def test_written_out_rule_is_gauss_legendre():
    # analytic holds the 64-node Gauss-Legendre rule as literals: sorted and
    # symmetric, exact for every monomial of degree < 128 on [-1, 1], and
    # numpy's leggauss(64) to within a few ulps (its last bits may vary
    # with the LAPACK build).
    x, w = analytic._gl_nodes, analytic._gl_weights
    assert x.size == analytic._NODES and np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    degrees = np.arange(128)
    exact = np.where(degrees % 2 == 0, 2.0 / (degrees + 1.0), 0.0)
    np.testing.assert_allclose(w @ x[:, np.newaxis] ** degrees, exact, rtol=0.0, atol=5e-15)
    nodes, weights = np.polynomial.legendre.leggauss(analytic._NODES)
    np.testing.assert_allclose(x, nodes, rtol=4e-16, atol=1e-17)
    np.testing.assert_allclose(w, weights, rtol=4e-16, atol=1e-17)


class TestHCoefficients:
    def test_zero_radius(self):
        p = McpParams(lambda_p=0.3, mbar=2.0, rd=1.5, n=2)
        assert h_coefficient(0.0, 1, p) == 0.0
        assert h_coefficient(0.0, 3, p) == 0.0
        # k = 0 integrand degenerates to x^(n-1)
        assert h_coefficient(0.0, 0, p) == pytest.approx(
            0.3 * unit_ball_volume(2) * 1.5**2, rel=1e-12
        )

    def test_h0_line_closed_form(self):
        # oracle: g(0) + lambda_p * v_1 * (r + rd) from the closed form
        oracle = closed_form_g_1d(0.0, 2.0, 0.1, 0.5, 1.0) + 2.0 * 0.1 * 3.0
        value = h_coefficient(2.0, 0, LINE)
        assert value == pytest.approx(oracle, abs=1e-9)
        assert value == pytest.approx(0.32642411176571153, abs=1e-12)  # frozen

    def test_invalid(self):
        with pytest.raises(ValueError):
            h_coefficient(-1.0, 0, LINE)
        with pytest.raises(ValueError):
            h_coefficient(1.0, -1, LINE)
        with pytest.raises(ValueError, match=r"order must be an integer in 0\.\.4096, got 1\.5"):
            h_coefficient(1.0, 1.5, LINE)


class TestPgf:
    def test_trivial_values(self):
        p = McpParams(lambda_p=0.02, mbar=3.0, rd=2.0, n=3)
        assert pgf_count(1.0, 7.0, p) == 1.0
        assert pgf_count(0.4, 0.0, p) == 1.0

    def test_line_closed_form(self):
        for s in (0.0, 0.3, 0.7, 1.0):
            for r in (0.4, 2.0):  # r < rd and r > rd
                oracle = closed_form_g_1d(s, r, 0.1, 0.5, 1.0)
                assert log_pgf_count(s, r, LINE) == pytest.approx(oracle, abs=1e-9)
                assert log_pgf_count_1d(s, r, LINE) == pytest.approx(oracle, abs=1e-12)
        assert pgf_count_1d(0.3, 2.0, LINE) == pytest.approx(
            pgf_count(0.3, 2.0, LINE), abs=1e-9
        )

    def test_closed_form_rejects_other_dimensions(self):
        with pytest.raises(ValueError):
            log_pgf_count_1d(0.5, 1.0, McpParams(0.1, 1.0, 1.0, 2))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            pgf_count(1.5, 1.0, LINE)
        with pytest.raises(ValueError):
            pgf_count(0.5, -1.0, LINE)


class TestPartitions:
    def test_low_orders(self):
        assert enumerate_partitions(0) == [()]
        assert set(enumerate_partitions(1)) == {(1,)}
        assert set(enumerate_partitions(2)) == {(2, 0), (0, 1)}

    def test_count_matches_brute_force(self):
        # oracle: exhaustive scan over all bounded tuples
        def brute(m):
            if m == 0:
                return 1
            count = 0
            tuples = [[]]
            for i in range(1, m + 1):
                tuples = [t + [b] for t in tuples for b in range(m // i + 1)]
            for t in tuples:
                if sum(i * b for i, b in enumerate(t, start=1)) == m:
                    count += 1
            return count

        for m in range(0, 9):
            parts = enumerate_partitions(m)
            assert len(parts) == brute(m)
            assert len(set(parts)) == len(parts)
        assert len(enumerate_partitions(4)) == 5  # partition number p(4)

    @given(m=st.integers(min_value=0, max_value=12))
    def test_tuples_satisfy_weight_identity(self, m):
        for b in enumerate_partitions(m):
            assert len(b) == m
            assert all(b_i >= 0 for b_i in b)
            assert sum(i * b_i for i, b_i in enumerate(b, start=1)) == m


class TestCountPmf:
    def test_empty_ball(self):
        p = McpParams(lambda_p=0.2, mbar=2.0, rd=1.0, n=2)
        pmf = count_pmf(0.0, p, m_max=4)
        assert pmf.probs[0] == 1.0
        assert np.all(pmf.probs[1:] == 0.0)

    def test_vanishing_parent_intensity(self):
        p = McpParams(lambda_p=1e-12, mbar=5.0, rd=1.0, n=2)
        pmf = count_pmf(3.0, p, m_max=2)
        assert pmf.probs[0] == pytest.approx(1.0, abs=1e-6)

    def test_validity_and_truncation(self, fig1_params):
        pmf = count_pmf(60.0, fig1_params)
        assert np.all(pmf.probs >= 0.0)
        assert np.all(pmf.probs <= 1.0)
        assert pmf.truncation_mass == pytest.approx(0.0, abs=1e-9)
        assert -1e-9 <= pmf.truncation_mass
        # truncation mass shrinks with m_max
        masses = [count_pmf(60.0, fig1_params, m_max=m).truncation_mass for m in (5, 10, 20)]
        assert masses[0] >= masses[1] >= masses[2]
        # the stated parameter point keeps less than 1e-6 beyond order 40
        assert count_pmf(60.0, fig1_params, m_max=40).truncation_mass < 1e-6

    def test_pgf_consistency(self, fig1_params):
        pmf = count_pmf(60.0, fig1_params)
        assert pmf.truncation_mass < 1e-8
        for s in (0.0, 0.25, 0.5, 0.75):
            series = float(sum(pr * s**m for m, pr in enumerate(pmf.probs)))
            assert pgf_count(s, 60.0, fig1_params) == pytest.approx(series, abs=1e-6)

    def test_partition_sum_matches_recurrence(self):
        for lam_p in (1e-5, 1e-4, 1e-3):
            for mbar in (1.0, 5.0, 10.0):
                p = McpParams(lambda_p=lam_p, mbar=mbar, rd=50.0, n=2)
                rec = count_pmf(75.0, p, m_max=12).probs
                fdb = count_pmf_partition(75.0, p, 12).probs
                rel = np.abs(rec - fdb) / np.maximum(np.maximum(rec, fdb), 1e-300)
                assert float(rel.max()) < 1e-10

    def test_underflow_signal_and_log_space_rescue(self):
        # log P[N=0] ~ -800, far below the double-precision floor
        p = McpParams(lambda_p=350.0, mbar=0.2, rd=0.2, n=2)
        pmf = count_pmf(2.0, p)  # auto log-space
        assert np.all(np.isfinite(pmf.probs))
        assert pmf.truncation_mass == pytest.approx(0.0, abs=1e-9)
        # Campbell: the expected count in B(o, r) is lambda_p mbar v_n r^n
        mean = float(np.dot(np.arange(pmf.probs.size), pmf.probs))
        assert mean == pytest.approx(350.0 * 0.2 * math.pi * 4.0, rel=1e-9)

    def test_truncation_mass_is_never_negative(self):
        # Each PMF here sums a few 1e-14 past 1 in rounding; the mass beyond
        # the truncation is then 0, not negative.
        for r, p in ((2.0, McpParams(lambda_p=350.0, mbar=0.2, rd=0.2, n=2)),
                     (6.0, McpParams(lambda_p=0.02, mbar=3.0, rd=2.0, n=5))):
            for pmf in (count_pmf(r, p), palm_count_pmf(r, p)):
                assert float(pmf.probs.sum()) > 1.0
                assert pmf.truncation_mass == 0.0

    def test_orders_below_the_cluster_count_bound_are_zero(self):
        # here the low orders underflow: the early return agrees with the
        # recurrence run to the adaptive order cap
        p = McpParams(lambda_p=350.0, mbar=0.2, rd=0.2, n=2)
        assert np.array_equal(count_pmf(2.0, p, m_max=3).probs, count_pmf(2.0, p).probs[:4])
        # ~6e197 clusters reach the ball, where the recurrence would overflow
        p = McpParams(lambda_p=0.003, mbar=50.0, rd=1e150, n=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pmf = count_pmf(1e200, p, m_max=3)
            assert cdf_contact(1e200, 3, p) == 1.0
        assert np.all(pmf.probs == 0.0) and pmf.truncation_mass == 1.0

    def test_undecayed_tail_names_m_max(self):
        # A rare cluster of 4000 daughters puts a hump far past the mean
        # count of 0.11, so the tail is still above 1e-14 of the peak at
        # the order cap; with m_max the same PMF computes.
        p = McpParams(lambda_p=1e-6, mbar=4000.0, rd=1.0, n=2)
        with pytest.raises(ValueError, match=r"did not decay within 4096 orders; pass m_max"):
            count_pmf(3.0, p)
        assert count_pmf(3.0, p, m_max=4096).probs.size == 4097


class TestContactCdf:
    def test_zero_radius(self, fig1_params):
        for k in (1, 2, 5):
            assert cdf_contact(0.0, k, fig1_params) == 0.0

    def test_first_order_formula(self, fig1_params):
        # k = 1 must reduce to 1 - exp(h_0 - lambda_p v_n (r + rd)^n)
        for r in (20.0, 60.0, 150.0):
            h0 = h_coefficient(r, 0, fig1_params)
            window = fig1_params.lambda_p * unit_ball_volume(2) * (r + 50.0) ** 2
            assert cdf_contact(r, 1, fig1_params) == pytest.approx(
                1.0 - math.exp(h0 - window), abs=1e-9
            )
            assert cdf_contact(r, 1, fig1_params) == pytest.approx(
                1.0 - pgf_count(0.0, r, fig1_params), abs=1e-12
            )

    def test_corollary_cross_check(self, fig1_params):
        params = [
            fig1_params,
            McpParams(lambda_p=0.05, mbar=2.0, rd=1.0, n=2),
            McpParams(lambda_p=0.02, mbar=3.0, rd=2.0, n=3),
        ]
        for p in params:
            top = 5.0 * p.rd
            for r in np.linspace(0.0, top, 25):
                for k in (1, 2, 3):
                    assert cdf_contact(r, k, p) == pytest.approx(
                        corollary_contact_cdf(r, k, p), abs=1e-12
                    )

    def test_monotone_in_radius_and_order(self, fig1_params):
        grid = np.linspace(0.0, 250.0, 40)
        for k in (1, 2, 3, 4):
            vals = [cdf_contact(r, k, fig1_params) for r in grid]
            assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))
        for r in (30.0, 90.0, 200.0):
            by_k = [cdf_contact(r, k, fig1_params) for k in range(1, 7)]
            assert all(b - a <= 1e-12 for a, b in zip(by_k, by_k[1:]))

    def test_rejects_bad_order(self, fig1_params):
        with pytest.raises(ValueError):
            cdf_contact(1.0, 0, fig1_params)

    def test_cluster_count_survives_an_overflowing_window_volume(self):
        # v_n (r + rd)^n overflows, lambda_p v_n (r + rd)^n is about 9; the
        # scale-invariant twin F(r; lambda_p, rd) = F(r / c; lambda_p c^n, rd / c)
        # keeps every product finite.
        p, c = McpParams(1e-308, 5.0, 50.0, 2), 1e100
        twin = McpParams(1e-308 * c**2, 5.0, 50.0 / c, 2)
        for r in (3e153, 6e153, 1e154):
            for cdf in (cdf_contact, cdf_nnd):
                assert cdf(r, 3, p) == pytest.approx(cdf(r / c, 3, twin), rel=1e-12)

    def test_orders_must_be_integers(self, fig1_params):
        # A float order used to fail inside numpy slicing with a TypeError,
        # and True passed as k = 1.
        for k in (2.0, True, 1.5, "2", None):
            for cdf in (cdf_contact, cdf_nnd):
                with pytest.raises(ValueError, match="k must be an integer"):
                    cdf(60.0, k, fig1_params)
        for m_max in (2.5, 2.0, True, False, -1, "3"):
            for pmf in (count_pmf, palm_count_pmf):
                with pytest.raises(ValueError, match="m_max must be an integer"):
                    pmf(60.0, fig1_params, m_max=m_max)
        assert cdf_nnd(60.0, np.int64(2), fig1_params) == cdf_nnd(60.0, 2, fig1_params)
        np.testing.assert_array_equal(
            count_pmf(60.0, fig1_params, m_max=np.int32(3)).probs,
            count_pmf(60.0, fig1_params, m_max=3).probs,
        )


class TestPppCdf:
    def test_trivial(self):
        assert ppp_cdf_contact(0.0, 3, 1.0, 2) == 0.0
        assert ppp_cdf_contact(1.0, 1, 1.0, 2) == pytest.approx(
            1.0 - math.exp(-math.pi), rel=1e-12
        )

    def test_matches_direct_poisson_sum(self):
        for lam, r, n in ((0.5, 2.0, 2), (3.0, 1.0, 3)):
            mu = lam * unit_ball_volume(n) * r**n
            for k in (1, 2, 5):
                direct = 1.0 - sum(math.exp(-mu) * mu**m / math.factorial(m) for m in range(k))
                assert ppp_cdf_contact(r, k, lam, n) == pytest.approx(direct, abs=1e-12)

    def test_rejects_the_radii_cdf_contact_rejects(self):
        for r in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="radius must be finite and nonnegative"):
                ppp_cdf_contact(r, 2, 1.0, 2)
        assert ppp_cdf_contact(-0.0, 2, 1.0, 2) == 0.0

    def test_rejects_bad_intensity(self):
        for intensity in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="intensity must be finite and positive"):
                ppp_cdf_contact(1.0, 2, intensity, 2)

    def test_overflowing_mean_count_is_certain(self):
        # r^n overflows a Python float: the mean count is infinite, the CDF 1.
        assert ppp_cdf_contact(1e200, 3, 1.0, 2) == 1.0

    def test_overflowing_power_keeps_a_small_mean_count(self):
        # 6^400 overflows, but the mean count 1e-300 v_400 6^400 is 6.2e-265.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            mu = mpmath.mpf(1e-300) * mpmath.pi**200 / mpmath.factorial(200) * mpmath.mpf(6) ** 400
            want = float(-mpmath.expm1(-mu))
        assert ppp_cdf_contact(6.0, 1, 1e-300, 400) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("r, k, intensity, n", [
        (1e-106, 1, 1e308, 3),  # intensity v_n overflows, the mean count is 4.2e-10
        (1e-110, 1, 1e300, 3),  # r^n is subnormal
        (1e-16, 1, 1e300, 20),
        (2e-16, 2, 1e305, 20),
        (1e-160, 3, 1e308, 2),
    ])
    def test_mean_count_outside_one_factor_matches_mpmath(self, r, k, intensity, n):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            volume = mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2 + 1)
            mu = mpmath.mpf(intensity) * volume * mpmath.mpf(r) ** n
            want = float(mpmath.gammainc(k, 0, mu, regularized=True))
        assert 0.0 < want < 1.0
        assert ppp_cdf_contact(r, k, intensity, n) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_dimension_bound(self):
        assert 0.0 < ppp_cdf_contact(4.5, 1, 1.0, 435) < 1.0
        # v_500 is subnormal; r^n overflowing once returned 1.0 here, not 2.4e-42.
        for n in (436, 500):
            with pytest.raises(ValueError, match=r"dimension must be an integer in 1\.\.435"):
                ppp_cdf_contact(4.5, 1, 1.0, n)


class TestQuantileRadius:
    """The auto grid end is the smallest Campbell-lattice point that reaches 1 - 1e-4.

    The lattice is r_k 2^j, from the Campbell radius r_k whose ball
    holds k points on average; `walks` says, for the contact and the NND
    search, whether it doubles from there, halves or stays.
    """

    @pytest.mark.parametrize("kind", [CurveKind.CONTACT, CurveKind.NND])
    @pytest.mark.parametrize("p, k, walks", [
        (McpParams(2e-5, 5.0, 50.0, 2), 4, ("doubles", "doubles")),  # fig1
        (McpParams(1e-6, 1e4, 1.0, 2), 1, ("doubles", "halves")),  # dense: j = 9 and -7
        (McpParams(1e-3, 50.0, 5.0, 2), 8, ("doubles", "stays")),
        (McpParams(0.02, 3.0, 2.0, 5), 4, ("doubles", "doubles")),
        (McpParams(0.1, 2.0, 1.0, 1), 2, ("doubles", "doubles")),
    ])
    def test_auto_grid_ends_on_the_smallest_reaching_lattice_point(self, kind, p, k, walks, capsys):
        seed = _campbell_radius(k, p.n, p.lambda_p, p.mbar)
        end = analytic.quantile_radius(kind, k, p)
        # The CLI's auto grid ends there.
        argv = ["cdf", "--kind", "cd" if kind is CurveKind.CONTACT else "nnd", "--k", str(k),
                "--n", str(p.n), "--lambda-p", repr(p.lambda_p), "--mbar", repr(p.mbar),
                "--rd", repr(p.rd), "--grid-points", "2"]
        assert main(argv) == 0
        header = capsys.readouterr().out.split("\n", 1)[0]
        assert float(dict(field.split("=", 1) for field in header[2:].split())["grid_max"]) == end
        j = round(math.log2(end / seed))
        assert end == seed * 2.0**j
        walk = walks[kind is CurveKind.NND]
        assert walk == ("halves" if j < 0 else "stays" if j == 0 else "doubles")
        target = 1.0 - 1e-4
        assert analytic._cdf_eval(kind, end, k, p) >= target > analytic._cdf_eval(kind, end / 2, k, p)


class TestScaleInvariance:
    """(lambda_p, mbar, rd) at r and (lambda_p s^-n, mbar, rd s) at r s are one process.

    Scaling every length by s leaves every count, and so h_k, the count PMF
    and both CDFs, unchanged; no oracle is needed.  The twins reach rd down
    to 1e-150, and windows whose (r + rd)^n or rd^n is subnormal.
    """

    # (n, lambda_p, r, s); mbar = 3 and rd = 1 before scaling.
    @pytest.mark.parametrize("n, lambda_p, r, s", [
        (1, 0.3, 0.8, 1e-150),
        (2, 0.3, 0.8, 1e-150),
        (3, 0.3, 0.8, 1e-102),
        (3, 1e-16, 0.8, 1e-107),  # rd^3 is subnormal
        (3, 1e-145, 1.7, 1e-150),  # rd^3 underflows to zero
        (5, 0.3, 0.8, 1e-61),
        (5, 1e-16, 0.8, 3e-65),  # (r + rd)^5 is subnormal
        (20, 0.3, 1.2, 1e-15),
        (20, 1e-20, 1.0, 1e-16),  # (r + rd)^20 is subnormal
    ])
    def test_scaled_twin_has_the_same_counts(self, n, lambda_p, r, s):
        p = McpParams(lambda_p, 3.0, 1.0, n)
        twin = McpParams(math.exp(math.log(lambda_p) - n * math.log(s)), 3.0, s, n)
        for k in range(5):
            want = h_coefficient(r, k, p)
            assert h_coefficient(r * s, k, twin) == pytest.approx(want, rel=1e-12, abs=0.0)
        want = count_pmf(r, p, m_max=6).probs
        assert want[-1] > 0.0
        np.testing.assert_allclose(count_pmf(r * s, twin, m_max=6).probs, want, rtol=1e-12, atol=0)
        for k in (1, 2, 4):
            assert cdf_nnd(r * s, k, twin) == pytest.approx(cdf_nnd(r, k, p), rel=1e-12, abs=0.0)
            # A contact CDF is 1 - sum p_m, so it keeps a few ulps of 1 absolute.
            assert cdf_contact(r * s, k, twin) == pytest.approx(
                cdf_contact(r, k, p), rel=1e-12, abs=1e-15)
