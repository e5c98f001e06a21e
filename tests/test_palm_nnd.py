"""Reduced-Palm machinery: q weights, Palm PMF, nearest-neighbor CDFs."""

import math

import numpy as np
import pytest

from mcpdist import (
    McpParams,
    cdf_contact,
    cdf_nnd,
    cdf_nnd_small_rd_limit,
    count_pmf,
    palm_count_pmf,
    pgf_count,
    pgf_count_palm,
    ppp_cdf_contact,
    q_weight,
)

from oracles import corollary_nnd_cdf


def q_sum(r, p, tol=1e-16, j_max=400):
    total, j = 0.0, 0
    while j <= j_max:
        q = q_weight(r, j, p)
        total += q
        if q < tol and j > 5:
            break
        j += 1
    return total


class TestQWeights:
    def test_poisson_weights_beyond_two_cluster_radii(self, fig1_params):
        # whole cluster ball inside the probe: plain Poisson(mbar) weights
        for j in (0, 1, 4, 9):
            expected = math.exp(-5.0) * 5.0**j / math.factorial(j)
            assert q_weight(120.0, j, fig1_params) == pytest.approx(expected, rel=1e-12)

    def test_zero_radius(self, fig1_params):
        assert q_weight(0.0, 0, fig1_params) == 1.0
        assert q_weight(0.0, 3, fig1_params) == 0.0

    def test_rejects_a_non_integer_order(self, fig1_params):
        with pytest.raises(ValueError, match=r"order must be an integer in 0\.\.4096, got 2\.0"):
            q_weight(100.0, 2.0, fig1_params)

    def test_normalization(self, fig1_params):
        for r in (25.0, 50.0, 100.0, 200.0):
            total = q_sum(r, fig1_params)
            assert 1.0 - 1e-6 <= total <= 1.0 + 1e-9

    def test_fig1_partial_sum_reaches_one(self, fig1_params):
        total = sum(q_weight(40.0, j, fig1_params) for j in range(31))
        assert 1.0 - 1e-6 <= total <= 1.0 + 1e-9

    def test_weights_in_unit_interval(self, fig1_params):
        for r in (10.0, 40.0, 80.0):
            for j in range(12):
                assert -1e-15 <= q_weight(r, j, fig1_params) <= 1.0 + 1e-12


class TestPalmPmf:
    def test_zero_radius(self, fig1_params):
        pmf = palm_count_pmf(0.0, fig1_params, m_max=3)
        assert pmf.probs[0] == 1.0
        assert np.all(pmf.probs[1:] == 0.0)

    def test_isolated_cluster_limit(self):
        # no other clusters, probe covering the whole cluster: the sibling
        # count is plain Poisson(mbar)
        p = McpParams(lambda_p=1e-12, mbar=3.0, rd=1.0, n=2)
        pmf = palm_count_pmf(2.5, p, m_max=12)
        for m in range(13):
            poisson = math.exp(-3.0) * 3.0**m / math.factorial(m)
            assert pmf.probs[m] == pytest.approx(poisson, abs=1e-9)

    def test_palm_pgf_consistency(self, fig1_params):
        pmf = palm_count_pmf(60.0, fig1_params)
        assert pmf.truncation_mass < 1e-8
        for s in (0.0, 0.4, 0.75):
            series = float(sum(pr * s**m for m, pr in enumerate(pmf.probs)))
            assert pgf_count_palm(s, 60.0, fig1_params) == pytest.approx(series, abs=1e-6)

    def test_palm_pgf_trivial(self, fig1_params):
        assert pgf_count_palm(1.0, 70.0, fig1_params) == 1.0
        assert pgf_count_palm(0.3, 0.0, fig1_params) == 1.0

    def test_partial_sums_match_nnd_cdf(self, fig1_params):
        # the kth NND CDF is 1 - sum_{m<k} of the Palm PMF, bit for bit
        for r in (20.0, 60.0, 110.0):
            for k in range(1, 7):
                pmf = palm_count_pmf(r, fig1_params, m_max=k - 1)
                assert cdf_nnd(r, k, fig1_params) == 1.0 - float(pmf.probs.sum())


class TestNndCdf:
    def test_zero_radius(self, fig1_params):
        for k in (1, 2, 4):
            assert cdf_nnd(0.0, k, fig1_params) == 0.0

    def test_first_order_form(self, fig1_params):
        for r in (15.0, 60.0, 140.0):
            expected = 1.0 - (1.0 - cdf_contact(r, 1, fig1_params)) * q_weight(
                r, 0, fig1_params
            )
            assert cdf_nnd(r, 1, fig1_params) == pytest.approx(expected, abs=1e-12)

    def test_corollary_cross_check(self, fig1_params):
        params = [
            fig1_params,
            McpParams(lambda_p=0.05, mbar=2.0, rd=1.0, n=2),
            McpParams(lambda_p=0.02, mbar=3.0, rd=2.0, n=3),
        ]
        for p in params:
            for r in np.linspace(0.0, 5.0 * p.rd, 25):
                for k in (1, 2, 3):
                    assert cdf_nnd(r, k, p) == pytest.approx(
                        corollary_nnd_cdf(r, k, p), abs=1e-12
                    )

    def test_monotone_in_radius_and_order(self, fig1_params):
        grid = np.linspace(0.0, 180.0, 30)
        for k in (1, 2, 3):
            vals = [cdf_nnd(r, k, fig1_params) for r in grid]
            assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))
        for r in (25.0, 75.0):
            by_k = [cdf_nnd(r, k, fig1_params) for k in range(1, 7)]
            assert all(b - a <= 1e-12 for a, b in zip(by_k, by_k[1:]))

    def test_stochastic_dominance(self):
        # neighbor distances are stochastically smaller than contact ones
        params = [
            McpParams(lambda_p=2e-5, mbar=5.0, rd=50.0, n=2),
            McpParams(lambda_p=0.01, mbar=2.0, rd=1.0, n=2),
            McpParams(lambda_p=0.1, mbar=1.0, rd=1.0, n=3),
        ]
        for p in params:
            for r in np.linspace(0.1, 5.0 * p.rd, 15):
                for k in range(1, 7):
                    assert cdf_nnd(r, k, p) >= cdf_contact(r, k, p) - 1e-10


class TestLimits:
    def test_small_rd_limit_at_origin(self):
        # the limit formula keeps its co-located-sibling atom at r = 0
        p = McpParams(lambda_p=0.01, mbar=2.0, rd=0.005, n=2)
        assert cdf_nnd_small_rd_limit(0.0, 1, p) == pytest.approx(
            1.0 - math.exp(-2.0), rel=1e-12
        )

    @pytest.mark.parametrize("p", [
        McpParams(lambda_p=2e-5, mbar=5.0, rd=50.0, n=2),
        McpParams(lambda_p=0.01, mbar=2.0, rd=0.005, n=2),
        McpParams(lambda_p=0.02, mbar=3.0, rd=2.0, n=3),
    ])
    def test_small_rd_limit_is_the_poisson_convolved_partial_sum(self, p):
        # 1 - sum_{m<k} of the stationary PMF convolved with the Poisson(mbar)
        # weights e^(-mbar) mbar^j / j!, each sum formed exactly
        weights = [math.exp(j * math.log(p.mbar) - math.lgamma(j + 1) - p.mbar) for j in range(12)]
        for r in (0.0, 0.5 * p.rd, 3.0 * p.rd, 20.0 * p.rd):
            probs = count_pmf(r, p, m_max=11).probs
            limit = [math.fsum(probs[m - j] * weights[j] for j in range(m + 1)) for m in range(12)]
            for k in (1, 2, 3, 5, 12):
                expected = 1.0 - math.fsum(limit[:k])
                assert abs(cdf_nnd_small_rd_limit(r, k, p) - expected) <= 1e-15, (r, k)

    def test_small_rd_limit_lone_point_clusters(self, fig1_params):
        p = McpParams(lambda_p=2e-5, mbar=1e-8, rd=50.0, n=2)
        for r in (30.0, 90.0):
            assert cdf_nnd_small_rd_limit(r, 1, p) == pytest.approx(
                cdf_contact(r, 1, p), abs=1e-6
            )

    def test_small_rd_limit_convergence(self):
        for k in (1, 2, 3):
            p = McpParams(lambda_p=0.01, mbar=2.0, rd=1e-3 * 5.0, n=2)
            assert abs(cdf_nnd(5.0, k, p) - cdf_nnd_small_rd_limit(5.0, k, p)) <= 1e-4

    @pytest.mark.parametrize(
        "mbar, k", [(5.0, 172), (1e5, 70), (800.0, 820), (1e3, 1000), (1e5, 100)]
    )
    def test_small_rd_limit_beyond_double_range_terms(self, mbar, k):
        # (k-1)! > 2^1024 from k = 172, and 1e5^(k-1) from k = 63: both
        # used to raise OverflowError.  Beyond mbar ~ 710 e^(-mbar)
        # underflows while mbar^j / j! overflows.  Reference: each Poisson
        # weight e^(-mbar) mbar^j / j! formed whole in log space.
        p = McpParams(lambda_p=2e-5, mbar=mbar, rd=50.0, n=2)
        ccdf = np.cumsum(count_pmf(10.0, p, m_max=k - 1).probs)
        weights = [math.exp(j * math.log(mbar) - math.lgamma(j + 1) - mbar) for j in range(k)]
        expected = 1.0 - sum(weights[k - i] * ccdf[i - 1] for i in range(1, k + 1))
        assert cdf_nnd_small_rd_limit(10.0, k, p) == pytest.approx(expected, abs=1e-12)

    def test_large_rd_ppp_limit(self):
        # rd three decades above r: both CDFs collapse onto the PPP law
        for lam_p, mbar, n in ((0.01, 2.0, 2), (0.02, 3.0, 3)):
            for r in (1.0, 5.0):
                p = McpParams(lambda_p=lam_p, mbar=mbar, rd=1000.0 * r, n=n)
                for k in (1, 2, 3):
                    cd = cdf_contact(r, k, p)
                    assert abs(cd - ppp_cdf_contact(r, k, lam_p * mbar, n)) <= 1e-3
                    assert abs(cdf_nnd(r, k, p) - cd) <= 1e-3

    def test_palm_pgf_converges_to_stationary(self):
        p = McpParams(lambda_p=0.01, mbar=2.0, rd=2000.0, n=2)
        for s in (0.0, 0.5):
            assert pgf_count_palm(s, 2.0, p) == pytest.approx(
                pgf_count(s, 2.0, p), abs=1e-3
            )
