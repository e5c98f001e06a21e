import math

import numpy as np
import pytest

from mcpdist import (
    McpParams,
    SimConfig,
    SweepMetric,
    SweepSpec,
    cache_hit_probability,
    cdf_contact,
    cdf_nnd,
    connectivity_probability,
    ppp_cdf_contact,
    simulate_kth_distances,
    sweep,
)

FIG2_LAMBDAS = (3e-2, 1.3e-2, 0.4e-2)
FIG3_LAMBDAS = (4.5e-2, 3.5e-2, 2e-2)
R = 5.0
MBAR = 2.0


class TestPointMetrics:
    def test_metrics_are_the_distance_cdfs(self):
        p = McpParams(3e-2, MBAR, 2.0, 2)
        assert connectivity_probability(R, 2, p) == cdf_contact(R, 2, p)
        assert cache_hit_probability(R, 2, p) == cdf_nnd(R, 2, p)

    def test_vanishing_range(self):
        p = McpParams(3e-2, MBAR, 2.0, 2)
        assert connectivity_probability(1e-12, 1, p) == pytest.approx(0.0, abs=1e-9)
        assert cache_hit_probability(1e-12, 1, p) == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(ValueError):
            connectivity_probability(0.0, 1, p)

    def test_in_unit_interval_and_nonincreasing_in_k(self):
        for rd in (0.5, 5.0, 20.0):
            p = McpParams(2e-2, MBAR, rd, 2)
            conn = [connectivity_probability(R, k, p) for k in range(1, 6)]
            hit = [cache_hit_probability(R, k, p) for k in range(1, 6)]
            for seq in (conn, hit):
                assert all(0.0 <= v <= 1.0 for v in seq)
                assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))

    def test_cache_hit_never_below_connectivity(self):
        # neighbor distances dominate contact distances stochastically
        for lam in FIG3_LAMBDAS:
            for rd in (0.5, 2.0, 10.0):
                p = McpParams(lam, MBAR, rd, 2)
                for k in range(1, 7):
                    assert cache_hit_probability(R, k, p) >= connectivity_probability(
                        R, k, p
                    ) - 1e-10

    def test_first_connection_improves_with_spreading(self):
        for lam in FIG2_LAMBDAS:
            grid = np.geomspace(R / 100.0, 10.0 * R, 20)
            vals = [connectivity_probability(R, 1, McpParams(lam, MBAR, rd, 2)) for rd in grid]
            assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))

    def test_connectivity_matches_simulator(self):
        # frequency of >= k points within R over stationary runs
        p = McpParams(3e-2, MBAR, 3.0, 2)
        cfg = SimConfig(p, R, 50_000, 6, 4)
        d = simulate_kth_distances(cfg)[:, 0]
        for k in (1, 2, 4):
            emp = float(np.mean(d[:, k - 1] <= R))
            ana = connectivity_probability(R, k, p)
            se = math.sqrt(ana * (1.0 - ana) / cfg.samples)
            assert emp == pytest.approx(ana, abs=3 * se)

    def test_cache_hit_matches_palm_simulator(self):
        p = McpParams(2e-2, MBAR, 2.0, 2)
        cfg = SimConfig(p, R, 50_000, 8, 4)
        d = simulate_kth_distances(cfg)[:, 1]
        for k in (1, 2, 4):
            emp = float(np.mean(d[:, k - 1] <= R))
            ana = cache_hit_probability(R, k, p)
            se = math.sqrt(ana * (1.0 - ana) / cfg.samples)
            assert emp == pytest.approx(ana, abs=3 * se)


class TestSweep:
    def test_single_point_grid_reproduces_scalar(self):
        base = McpParams(3e-2, MBAR, 1.0, 2)
        spec = SweepSpec(base, (1.0,), R, (2,), include_ppp_reference=False)
        rows = sweep(spec, SweepMetric.CONNECTIVITY)
        assert len(rows) == 1
        assert rows[0].value == connectivity_probability(R, 2, base)

    def test_reference_rows_and_ordering(self):
        base = McpParams(3e-2, MBAR, 1.0, 2)
        spec = SweepSpec(base, (1.0, 4.0), R, (2, 1))
        rows = sweep(spec, SweepMetric.CONNECTIVITY)
        assert [(row.rd, row.k) for row in rows] == [
            (1.0, 1), (1.0, 2), (4.0, 1), (4.0, 2), (math.inf, 1), (math.inf, 2),
        ]
        for row in rows:
            if math.isinf(row.rd):
                assert row.value == ppp_cdf_contact(R, row.k, 3e-2 * MBAR, 2)

    @pytest.mark.parametrize("lambda_p, mbar, R, n", [
        (1e200, 1e200, 1e-201, 2),  # lambda_p mbar overflows
        (1e300, 1e8, 1e-106, 3),  # lambda_p mbar v_n overflows
    ])
    def test_reference_rows_keep_lambda_p_and_mbar_apart(self, lambda_p, mbar, R, n):
        mpmath = pytest.importorskip("mpmath")
        spec = SweepSpec(McpParams(lambda_p, mbar, 1e-150, n), (1e-150,), R, (1, 2))
        ref = [row for row in sweep(spec, SweepMetric.CONNECTIVITY) if math.isinf(row.rd)]
        assert [row.k for row in ref] == [1, 2]
        with mpmath.workdps(40):
            volume = mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2 + 1)
            mu = mpmath.mpf(lambda_p) * mpmath.mpf(mbar) * volume * mpmath.mpf(R) ** n
            for row in ref:
                want = float(mpmath.gammainc(row.k, 0, mu, regularized=True))
                assert row.value == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_fixed_mbar_rescales_daughter_intensity(self):
        base = McpParams(3e-2, MBAR, 1.0, 2)
        spec = SweepSpec(base, (1.0, 8.0), R, (1,), include_ppp_reference=False)
        rows = sweep(spec, SweepMetric.CONNECTIVITY)
        explicit = connectivity_probability(R, 1, McpParams(3e-2, MBAR, 8.0, 2))
        assert rows[1].value == explicit

    def test_hold_lambda_d_mode(self):
        base = McpParams(3e-2, MBAR, 1.0, 2)
        spec = SweepSpec(base, (2.0,), R, (1,), include_ppp_reference=False)
        rows = sweep(spec, SweepMetric.CONNECTIVITY, hold="lambda_d")
        # cluster mean grows with the ball volume at fixed daughter intensity
        grown = McpParams(3e-2, MBAR * 4.0, 2.0, 2)
        assert rows[0].value == connectivity_probability(R, 1, grown)

    def test_sweep_endpoint_reaches_ppp(self):
        # far right of the sweep: clustering gone for every k <= 4
        for lam, metric in ((3e-2, SweepMetric.CONNECTIVITY), (2e-2, SweepMetric.CACHE_HIT)):
            base = McpParams(lam, MBAR, 1.0, 2)
            spec = SweepSpec(base, (1000.0 * R,), R, (1, 2, 3, 4))
            rows = sweep(spec, metric)
            data = {row.k: row.value for row in rows if not math.isinf(row.rd)}
            ref = {row.k: row.value for row in rows if math.isinf(row.rd)}
            for k in (1, 2, 3, 4):
                assert abs(data[k] - ref[k]) <= 1e-2

    def test_fig2_extreme_within_two_percent_of_ppp(self):
        base = McpParams(3e-2, MBAR, 1.0, 2)
        spec = SweepSpec(base, (10.0 * R,), R, (2, 3, 4))
        rows = sweep(spec, SweepMetric.CONNECTIVITY)
        values = {row.k: row.value for row in rows if not math.isinf(row.rd)}
        for k in (2, 3, 4):
            assert abs(values[k] - ppp_cdf_contact(R, k, 3e-2 * MBAR, 2)) <= 2e-2

    def test_fig3_intra_cluster_spill(self):
        # low parent intensity: growing the cluster through R loses neighbors
        lam = 2e-2
        tight = cache_hit_probability(R, 2, McpParams(lam, MBAR, R / 100.0, 2))
        spread = cache_hit_probability(R, 2, McpParams(lam, MBAR, R, 2))
        assert tight > spread
        # simulator confirms the same ordering
        cfg_t = SimConfig(McpParams(lam, MBAR, R / 100.0, 2), R, 20_000, 3, 2)
        cfg_s = SimConfig(McpParams(lam, MBAR, R, 2), R, 20_000, 3, 2)
        emp_t = float(np.mean(simulate_kth_distances(cfg_t)[:, 1, 1] <= R))
        emp_s = float(np.mean(simulate_kth_distances(cfg_s)[:, 1, 1] <= R))
        assert emp_t > emp_s

    def test_spec_validation(self):
        base = McpParams(3e-2, MBAR, 1.0, 2)
        with pytest.raises(ValueError):
            SweepSpec(base, (), R, (1,))
        with pytest.raises(ValueError):
            SweepSpec(base, (2.0, 1.0), R, (1,))
        # The range and the orders are checked by the sweep itself.
        for connect_range, ks in ((-1.0, (1,)), (math.inf, (1,)), (R, (0,)), (R, (1.5,)),
                                  (R, ())):
            with pytest.raises(ValueError):
                sweep(SweepSpec(base, (1.0,), connect_range, ks), SweepMetric.CONNECTIVITY)
        with pytest.raises(ValueError):
            sweep(SweepSpec(base, (1.0,), R, (1,)), SweepMetric.CONNECTIVITY, hold="bad")
