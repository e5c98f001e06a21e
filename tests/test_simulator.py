import dataclasses
import io
import math
import subprocess
import sys
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcpdist import (
    CensoringError,
    EmpiricalCdf,
    McpParams,
    SimConfig,
    count_pmf,
    palm_count_pmf,
    pgf_count,
    q_weight,
    simulate_kth_distances,
)
from mcpdist import simulator
from mcpdist.analytic import CurveKind, cdf_table, quantile_radius
from mcpdist.geometry import lens_share
from mcpdist.simulator import (
    _KEEP_MARGIN,
    KS_THRESHOLD_FACTOR,
    _ks_statistic,
    _mean_parents,
    _substream,
    validate_against_analytic,
    write_raw_samples,
)

from oracles import daughter_distances, select_block


def rng_for(seed=0):
    return np.random.default_rng(seed)


STATIONARY, PALM = 0, 1  # the kinds along axis 1 of simulate_kth_distances


def counts_within(cfg, r, kind=STATIONARY):
    """N(r) = #{k : R_k <= r, R_k finite}, the points within r of the origin
    in each of cfg.samples runs of simulate_kth_distances, of the given
    kind.  Exact below cfg.max_k; a run that reaches cfg.max_k holds at
    least that many."""
    d = simulate_kth_distances(cfg)[:, kind]
    return (np.isfinite(d) & (d <= r)).sum(axis=1)


def sample_block(cfg, rng):
    """simulator._sample_block of one whole block, into a new array, with its own scratch."""
    out = np.empty((cfg.runs_per_block(), 2, cfg.max_k))
    return simulator._sample_block(cfg, rng, out, simulator._Scratch())


class CountingRng:
    """A Generator that counts the sampler's rounds, daughter-count draws and
    standard normals."""

    def __init__(self, rng):
        self.rng, self.rounds, self.daughter_counts, self.normals = rng, 0, 0, 0

    def standard_exponential(self, size=None, out=None):
        self.rounds += 1
        return self.rng.standard_exponential(size, out=out)

    def poisson(self, lam, size):
        self.daughter_counts += math.prod(np.atleast_1d(size))
        return self.rng.poisson(lam, size)

    def standard_normal(self, size=None, out=None):
        self.normals += out.size if size is None else math.prod(np.atleast_1d(size))
        return self.rng.standard_normal(size, out=out)

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestDaughterPoints:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 20])
    @pytest.mark.parametrize("rho_over_rd", [0.0, 0.5, 1.0, 3.0])
    def test_distances_follow_the_lens_law(self, n, rho_over_rd):
        # One parent at rho e_1 with N daughters: P[distance <= d] is the
        # share of the cluster ball within d of the origin, the lens
        # volume over the ball volume.  Exact two-sided KS against it.
        rd, size = 2.0, 1_000_000
        rho = rho_over_rd * rd
        key = np.random.SeedSequence(entropy=7, spawn_key=(n, int(4 * rho_over_rd)))
        rng = np.random.Generator(np.random.SFC64(key))
        d2 = simulator._daughter_distances(rng, n, rd, np.array([rho]), np.array([size]),
                                           simulator._Scratch())
        d = np.sort(np.sqrt(d2))
        cdf = lens_share(d, rd, rho, n)
        steps = np.arange(1, size + 1) / size
        ks = max(float(np.max(steps - cdf)), float(np.max(cdf - (steps - 1.0 / size))))
        assert ks <= KS_THRESHOLD_FACTOR / math.sqrt(size)


class TestMcpSampler:
    def test_vanishing_parent_intensity(self):
        cfg = SimConfig(McpParams(1e-300, 5.0, 1.0, 2), 10.0, 1, 0, 1)
        assert np.isinf(simulate_kth_distances(cfg)[:, STATIONARY]).all()

    def test_expected_total_points(self, fig1_params):
        # A run short of max_k points keeps every parent of its window, so
        # with max_k above every run's count each row holds all its points.
        cfg = SimConfig(fig1_params, 100.0, 10_000, 42, 100)
        window = 100.0 + 50.0
        expect = fig1_params.lambda_p * math.pi * window**2 * fig1_params.mbar
        totals = counts_within(cfg, math.inf)
        assert totals.max() < cfg.max_k
        se = totals.std(ddof=1) / math.sqrt(cfg.samples)
        assert totals.mean() == pytest.approx(expect, abs=3 * se)

    def test_points_stay_inside_support_ball(self, fig1_params):
        # daughters can reach at most observation_radius + 2 rd from origin,
        # and the typical point's siblings 2 rd
        cfg = SimConfig(fig1_params, 100.0, 200, 14, 100)
        limit = 100.0 + 2.0 * fig1_params.rd
        d = simulate_kth_distances(cfg)
        assert np.isinf(d[..., -1]).all()
        assert float(d[np.isfinite(d)].max()) <= limit + 1e-9

    def test_void_probability_matches_pgf(self, fig1_params):
        # P[no point within r] against the analytic zero-count probability
        r = 60.0
        cfg = SimConfig(fig1_params, r, 20_000, 7, 1)
        d = simulate_kth_distances(cfg)
        empirical = float(np.mean(d[:, STATIONARY, 0] > r))
        p0 = pgf_count(0.0, r, fig1_params)
        se = math.sqrt(p0 * (1 - p0) / cfg.samples)
        assert empirical == pytest.approx(p0, abs=3 * se)

    def test_count_histogram_matches_pmf(self, fig1_params):
        # frequency of N = m in B(o, 60) against the analytic PMF, 3 moment
        # standard errors per bin with at least 25 expected hits
        r = 60.0
        runs = 100_000
        cfg = SimConfig(fig1_params, r, runs, 2026, 41)
        counts = counts_within(cfg, r)
        pmf = count_pmf(r, fig1_params, m_max=40)
        assert pmf.truncation_mass < 1e-6
        freq = np.bincount(counts, minlength=41)[:41] / runs
        for m in range(41):
            p = float(pmf.probs[m])
            if p * runs < 25:
                continue
            se = math.sqrt(p * (1 - p) / runs)
            assert freq[m] == pytest.approx(p, abs=3 * se), m


class TestPalmSampler:
    def test_reduced_palm_leaves_nothing_behind(self):
        cfg = SimConfig(McpParams(1e-300, 1e-8, 1.0, 2), 10.0, 200, 3, 1)
        assert np.isinf(simulate_kth_distances(cfg)[:, PALM]).all()

    def test_sibling_count_mean(self):
        p = McpParams(1e-300, 5.0, 1.0, 2)
        cfg = SimConfig(p, 10.0, 100_000, 11, 30)
        totals = counts_within(cfg, math.inf, PALM)
        assert totals.max() < cfg.max_k
        se = math.sqrt(5.0 / cfg.samples)
        assert totals.mean() == pytest.approx(5.0, abs=3 * se)

    def test_no_sibling_probability_matches_q0(self, fig1_params):
        # the j = 0 intra-cluster weight is the no-sibling-within-r law
        p = McpParams(1e-300, fig1_params.mbar, fig1_params.rd, 2)
        r = 40.0
        cfg = SimConfig(p, r, 50_000, 13, 1)
        misses = int((counts_within(cfg, r, PALM) == 0).sum())
        q0 = q_weight(r, 0, fig1_params)
        se = math.sqrt(q0 * (1 - q0) / cfg.samples)
        assert misses / cfg.samples == pytest.approx(q0, abs=3 * se)

    def test_palm_count_histogram_matches_pmf(self, fig1_params):
        r = 60.0
        runs = 100_000
        cfg = SimConfig(fig1_params, r, runs, 515, 46)
        counts = counts_within(cfg, r, PALM)
        pmf = palm_count_pmf(r, fig1_params, m_max=45)
        assert pmf.truncation_mass < 1e-6
        freq = np.bincount(counts, minlength=46)[:46] / runs
        for m in range(46):
            p = float(pmf.probs[m])
            if p * runs < 25:
                continue
            se = math.sqrt(p * (1 - p) / runs)
            assert freq[m] == pytest.approx(p, abs=3 * se), m


class TestHarness:
    def test_reproducible_and_thread_invariant(self, fig1_params, monkeypatch):
        cfg = SimConfig(fig1_params, 80.0, 400, 99, 3)
        base = simulate_kth_distances(cfg)
        again = simulate_kth_distances(cfg)
        monkeypatch.setenv("MCPDIST_THREADS", "8")
        threaded = simulate_kth_distances(cfg)
        assert np.array_equal(base, again)
        assert np.array_equal(base, threaded)
        monkeypatch.setenv("MCPDIST_THREADS", "2")
        capped = simulate_kth_distances(cfg, workers=16)
        assert np.array_equal(base, capped)

    def test_bad_thread_variable_is_named(self, fig1_params, monkeypatch):
        cfg = SimConfig(fig1_params, 80.0, 10, 99, 1)
        for bad in ("abc", "0"):
            monkeypatch.setenv("MCPDIST_THREADS", bad)
            with pytest.raises(ValueError, match=f"MCPDIST_THREADS.*{bad!r}"):
                simulate_kth_distances(cfg)

    def test_seed_is_checked(self, fig1_params):
        for bad in (-1, 1.5, True, "1"):
            with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
                SimConfig(fig1_params, 80.0, 10, bad, 1)
        assert SimConfig(fig1_params, 80.0, 10, np.int64(3), 1).seed == 3

    def test_window_samples_and_orders_are_checked(self, fig1_params):
        for radius in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="observation_radius must be finite and positive"):
                SimConfig(fig1_params, radius, 10, 1, 1)
        # Squared distances out to the window's reach must stay normal
        # doubles; McpParams keeps rd, and so the reach, above 1e-150.
        with pytest.raises(ValueError, match="rd must lie in"):
            McpParams(1.0, 1.0, 1e-152, 2)
        with pytest.raises(ValueError, match="observation_radius \\+ 2 rd = .* exceeds 1e\\+150"):
            SimConfig(fig1_params, 1e151, 10, 1, 1)
        # A float or bool run budget once passed the constructor and failed
        # in the sampler with a TypeError.
        for bad in (0, -1, 10.5, 450.0, True, "10"):
            with pytest.raises(ValueError, match="samples must be a positive integer"):
                SimConfig(fig1_params, 80.0, bad, 1, 1)
        assert SimConfig(fig1_params, 80.0, np.int64(10), 1, 1).samples == 10
        # max_k is the order the pricing's kth contact CDF takes: all but 0
        # once failed inside its cdf_table, in a message that named k.
        for bad in (0, 2.5, True, 4.0, 5000):
            with pytest.raises(ValueError, match=r"max_k must be an integer in 1\.\.4096"):
                SimConfig(fig1_params, 450.0, 10, 1, bad)
        assert SimConfig(fig1_params, 450.0, 10, 1, np.int64(4)).max_k == 4

    def test_window_sufficiency(self, fig1_params):
        # doubling the window must not move the ECDF beyond Monte Carlo noise
        r_obs = 120.0
        small = SimConfig(fig1_params, r_obs, 20_000, 21, 2)
        large = SimConfig(fig1_params, 2 * r_obs, 20_000, 21, 2)
        d_small = simulate_kth_distances(small)
        d_large = simulate_kth_distances(large)
        grid = np.linspace(1.0, r_obs, 60)
        for k in (1, 2):
            e_small = EmpiricalCdf.from_distances(d_small[:, STATIONARY, k - 1], r_obs)
            e_large = EmpiricalCdf.from_distances(d_large[:, STATIONARY, k - 1], 2 * r_obs)
            gap = np.max(np.abs(e_small.evaluate(grid) - e_large.evaluate(grid)))
            assert gap <= 4.0 / math.sqrt(small.samples)


class TestEmpiricalCdf:
    def test_evaluation_and_censoring(self):
        ecdf = EmpiricalCdf.from_distances(np.array([1.0, 2.0, np.inf, 5.0]), 4.0)
        assert ecdf.censored_count == 2  # inf and the 5.0 beyond the window
        assert ecdf.total == 4
        assert ecdf.evaluate(2.0) == 0.5
        assert ecdf.censored_fraction() == 0.5


def test_raw_samples_mark_censored_distances():
    # Missing (inf) and beyond-window distances are censored rows with no distance.
    out = io.StringIO()
    write_raw_samples(out, np.array([[1.0, np.inf], [2.5, 3.0]]), 2.5)
    assert out.getvalue() == "run,k,distance,censored\n0,1,1.0,0\n0,2,,1\n1,1,2.5,0\n1,2,,1\n"


def exact_ks(ecdf, kind, k, p):
    """The KS distance between ecdf and the exact CDF, read at every sample."""
    x, total = ecdf.sorted_samples, ecdf.total
    f = cdf_table(kind, x, [k], p)[0]
    index = np.arange(x.size)
    return float(np.maximum((index + 1) / total - f, f - index / total).max())


class TestKsStatistic:
    def test_dkw_bound_on_inverse_sampled_draws(self, fig1_params):
        radii = np.linspace(0.0, quantile_radius(CurveKind.CONTACT, 1, fig1_params), 512)
        values = cdf_table(CurveKind.CONTACT, radii, [1], fig1_params)[0]
        rng = rng_for(17)
        u = rng.random(100_000) * float(values[-1])
        draws = np.interp(u, values, radii)
        ecdf = EmpiricalCdf.from_distances(draws, float(radii[-1]))
        assert _ks_statistic(ecdf, CurveKind.CONTACT, 1, fig1_params, 0.01) <= 0.01

    def test_censoring_error(self, fig1_params):
        ecdf = EmpiricalCdf.from_distances(np.array([1.0, 2.0, np.inf, np.inf]), 10.0)
        with pytest.raises(CensoringError):
            _ks_statistic(ecdf, CurveKind.CONTACT, 1, fig1_params, 0.1)

    def test_empty_ecdf_is_refused(self, fig1_params):
        with pytest.raises(ValueError, match="holds no runs"):
            _ks_statistic(EmpiricalCdf.from_distances(np.array([]), 10.0), CurveKind.CONTACT, 1,
                          fig1_params, 0.1)

    @pytest.mark.parametrize("p", [McpParams(0.1, 2.0, 1.0, 1), McpParams(2e-5, 5.0, 50.0, 2),
                                   McpParams(0.02, 3.0, 2.0, 5)], ids=["n1", "n2", "n5"])
    def test_rows_decide_as_the_exact_distance_does(self, p, monkeypatch):
        # Each row's ks is at most the KS distance against the exact CDF at
        # every sample, and passes exactly when that does.  The helper
        # itself, at thresholds about that distance, reads F again inside
        # the gaps that could hide it and decides as the exact distance.
        report = validate_against_analytic(p, range(1, 5), samples=4000, seed=7)
        calls, table = [], simulator.cdf_table

        def counting(*args):
            calls.append(len(args[1]))
            return table(*args)

        monkeypatch.setattr(simulator, "cdf_table", counting)
        refined = 0
        for row in report:
            kind = CurveKind.CONTACT if row.kind == "cd" else CurveKind.NND
            column = report.distances[:, 0 if row.kind == "cd" else 1, row.k - 1]
            ecdf = EmpiricalCdf.from_distances(column, report.observation_radius)
            exact = exact_ks(ecdf, kind, row.k, p)
            assert row.ks <= exact and row.passed == (exact <= row.threshold)
            for threshold in (0.5 * exact, 0.999 * exact, exact, 1.001 * exact):
                calls.clear()
                ks = _ks_statistic(ecdf, kind, row.k, p, threshold)
                assert ks <= exact and (ks <= threshold) == (exact <= threshold)
                assert calls[0] < ecdf.sorted_samples.size
                refined += len(calls) == 2
        assert refined > 0


class TestValidationHarness:
    def test_rows_and_thresholds(self, fig1_params):
        rows = validate_against_analytic(fig1_params, [1, 2], samples=4000, seed=5)
        assert [(r.kind, r.k) for r in rows] == [("cd", 1), ("cd", 2), ("nnd", 1), ("nnd", 2)]
        for row in rows:
            assert row.threshold == pytest.approx(1.5 * 1.36 / math.sqrt(4000))
            assert row.passed

    def test_rows_pass_in_a_wide_window(self, fig1_params):
        # The window reaches 44 times the CDF tail radius.  The exact CDF
        # is read at the samples themselves, so the rows do not depend on
        # how far the window reaches past them.
        rows = validate_against_analytic(fig1_params, range(1, 5), samples=20_000, seed=1,
                                         r_max=20_000.0)
        assert len(rows) == 8
        for row in rows:
            assert row.passed, row

    @pytest.mark.parametrize("k_max, samples", [(4, 20_000), (1, 50_000)])
    def test_rows_pass_where_an_interpolated_reference_failed(self, k_max, samples):
        # Against a 512-point linear interpolant of the CDF, nnd k = 1 read
        # 0.019 over a threshold of 0.014 at 20,000 samples; against the
        # exact CDF it reads 0.005.
        rows = validate_against_analytic(McpParams(0.1, 2.0, 1.0, 1), range(1, k_max + 1),
                                         samples=samples, seed=1)
        assert len(rows) == 2 * k_max
        for row in rows:
            assert row.passed, row

    @pytest.mark.parametrize("change, failing", [
        ({"rd": 55.0}, [("cd", 1)] + [("nnd", k) for k in range(1, 5)]),
        ({"mbar": 6.0}, [(kind, k) for kind in ("cd", "nnd") for k in range(1, 5)]),
    ], ids=["rd-x1.1", "mbar-x1.2"])
    def test_rows_fail_for_runs_of_other_parameters(self, fig1_params, change, failing,
                                                    monkeypatch):
        # 50,000 runs drawn with rd 10 % or mbar 20 % above fig1's fail
        # at least these rows against fig1's CDFs, each by a factor of 1.7
        # or more (at rd x 1.1, cd k = 2 also fails, by 1 %).
        simulate = simulator.simulate_kth_distances
        monkeypatch.setattr(simulator, "simulate_kth_distances", lambda cfg: simulate(
            dataclasses.replace(cfg, params=dataclasses.replace(cfg.params, **change))))
        rows = validate_against_analytic(fig1_params, range(1, 5), samples=50_000, seed=1)
        assert set(failing) <= {(row.kind, row.k) for row in rows if not row.passed}

    @pytest.mark.parametrize(
        "p, k_values",
        [
            (McpParams(1e-3, 50.0, 5.0, 2), range(1, 9)),  # dense clusters
            (McpParams(0.02, 3.0, 2.0, 3), range(1, 5)),
        ],
    )
    def test_rows_pass_where_thinning_drops_most(self, p, k_values):
        # Runs at these parameters keep a small share of their parents.
        rows = validate_against_analytic(p, list(k_values), samples=20_000, seed=3)
        assert len(rows) == 2 * len(k_values)
        for row in rows:
            assert row.passed, row

    def test_one_simulation_serves_both_kinds(self, fig1_params, monkeypatch):
        # Both kinds' rows come from one simulate_kth_distances call, whose
        # output the report keeps bit for bit.
        calls, simulate = [], simulator.simulate_kth_distances

        def recording(cfg, workers=None):
            out = simulate(cfg, workers)
            calls.append((cfg, out.copy()))
            return out

        monkeypatch.setattr(simulator, "simulate_kth_distances", recording)
        report = validate_against_analytic(fig1_params, [3, 1], samples=2000, seed=4)
        assert len(calls) == 1
        cfg, out = calls[0]
        assert (cfg.samples, cfg.seed, cfg.max_k) == (2000, 4, 3)
        assert cfg.observation_radius == report.observation_radius
        assert out.shape == (2000, 2, 3)
        assert report.distances.tobytes() == out.tobytes()
        for row in report:
            kind = STATIONARY if row.kind == "cd" else PALM
            ecdf = EmpiricalCdf.from_distances(out[:, kind, row.k - 1], cfg.observation_radius)
            assert row.censored_fraction == ecdf.censored_fraction()


class ZeroingRng:
    """A Generator whose standard normals are 0 at every 7th draw and 1e-170,
    whose square underflows, at every 11th, counted over all its calls:
    offsets with q = 0."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, 0

    def standard_normal(self, size=None, out=None):
        z = self.rng.standard_normal(size, out=out)
        index = np.arange(self.drawn, self.drawn + z.size)
        z[index % 7 == 0] = 0.0
        z[index % 11 == 5] = 1e-170
        self.drawn += z.size
        return z

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestInPlaceKernels:
    # A short draw, long draws with empty parents, one of them a parent of
    # over 16,000 points; parents at the origin among them.
    COUNTS = [np.array([3, 0, 5, 1]), np.array([0, 2 * 8192 + 5, 0, 7]),
              np.tile([9, 0, 4, 3], 8192 // 4)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 20])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_daughter_kernel_matches_the_out_of_place_reference(self, n, zeros):
        # The same RNG state gives the same squared distances, bit for bit,
        # and leaves the same state; one scratch serves draws that grow and
        # shrink.  With zeros, Z = 0 (and W = 0 at n = 2) or Z^2 = 0 puts
        # q = 0 at rd = 1e100, where 1e-170 L is not negligible.
        scratch = simulator._Scratch()
        for i, counts in enumerate(self.COUNTS * 2):
            radii = np.random.default_rng(i).uniform(0.0, 300.0, counts.size)
            radii[::3] = 0.0
            rd = 1e100 if zeros else 2.0
            rngs = [np.random.Generator(np.random.SFC64([n, i])) for _ in range(2)]
            if zeros:
                rngs = [ZeroingRng(rng) for rng in rngs]
            got = simulator._daughter_distances(rngs[0], n, rd, radii, counts, scratch)
            expected = daughter_distances(rngs[1], n, rd, radii, counts)
            assert got.tobytes() == expected.tobytes()
            assert rngs[0].random() == rngs[1].random()

    @given(
        counts=st.lists(st.integers(0, 40), min_size=1, max_size=60),
        max_k=st.integers(1, 6),
        cells=st.sampled_from((1, 40, 300, simulator._TABLE_CELLS)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(counts=[0], max_k=3, cells=1, seed=0)
    @example(counts=[40, 0, 1, 40, 2], max_k=4, cells=60, seed=1)  # a crowded run split off
    def test_selection_matches_the_out_of_place_reference(self, counts, max_k, cells, seed):
        # The reference's rows, sorted, bit for bit; table is left as it
        # was; the crowded-run split fills out half by half; one scratch
        # serves both calls.
        rng = rng_for(seed)
        counts = np.array(counts)
        d2 = rng.uniform(0.0, 10.0, int(counts.sum()))
        table = np.sort(rng.uniform(0.0, 10.0, (counts.size, max_k)), axis=1)
        table[::2, -1] = np.inf
        before = table.copy()
        scratch, out = simulator._Scratch(), np.empty_like(table)
        with patch.object(simulator, "_TABLE_CELLS", cells):
            for _ in range(2):
                got = simulator._select_block(d2, counts, table, scratch, out)
                expected = np.sort(select_block(d2, counts, table, cells), axis=1)
                assert got.tobytes() == expected.tobytes()
        assert table.tobytes() == before.tobytes()


class TestMemory:
    # fig1 validate, k = 1..4, 50,000 samples: the montecarlo benchmark.
    FIG1_VALIDATE = ["validate", "--k-max", "4", "--samples", "50000", "--seed", "1",
                     "--n", "2", "--lambda-p", "2e-05", "--mbar", "5.0", "--rd", "50.0"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts minor page faults as Linux reports them")
    def test_fresh_validate_reuses_its_pages(self):
        # Blocks and KS rows reuse their arrays, so the allocator need not
        # map and fault the same pages again: about 1,700 minor faults,
        # where arrays allocated per block and per row took about 16,000.
        script = f"""
import os, resource
import mcpdist.cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
code = mcpdist.cli.main({self.FIG1_VALIDATE!r} + ["--output", os.devnull])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, faults = map(int, proc.stdout.split())
        assert code == 0
        assert faults <= 4_000, faults

    def test_validate_working_set_does_not_grow(self, fig1_params):
        # Reused arrays must not buy fewer faults with a larger working set:
        # the traced peak of a warm fig1 validate is 4.2 MB, where arrays
        # allocated per block and per row peaked at 5.6 MB.
        validate_against_analytic(fig1_params, range(1, 5), samples=50_000, seed=1)
        tracemalloc.start()
        try:
            validate_against_analytic(fig1_params, range(1, 5), samples=50_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5_500_000, peak


def squared_norms(points):
    # Coordinates summed in column order.
    d2 = np.zeros(points.shape[0])
    for column in points.T:
        d2 += column * column
    return d2


def kth_distances(sample, max_k):
    """Distances from the origin to the max_k closest points of one run,
    inf-padded, through the merge the simulator uses."""
    d2 = squared_norms(np.asarray(sample, dtype=float))
    table = simulator._select_block(d2, np.array([d2.size]), np.full((1, max_k), np.inf),
                                    simulator._Scratch(), np.empty((1, max_k)))
    return np.sqrt(np.sort(table[0]))


class TestKthDistances:
    def test_empty_sample_fully_censored(self):
        out = kth_distances(np.empty((0, 2)), 3)
        assert np.all(np.isinf(out))

    def test_sorting_example(self):
        out = kth_distances(np.array([[3.0, 0.0], [0.0, 1.0]]), 3)
        assert out[0] == 1.0 and out[1] == 3.0 and math.isinf(out[2])

    def test_matches_full_sort(self):
        rng = rng_for(5)
        pts = rng.normal(size=(200, 3))
        expected = np.sort(np.linalg.norm(pts, axis=1))[:7]
        np.testing.assert_allclose(kth_distances(pts, 7), expected, rtol=1e-15)


class TestBlockPath:
    @given(
        counts=st.lists(st.integers(0, 12), min_size=1, max_size=8),
        n=st.integers(1, 4),
        max_k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        tie=st.booleans(),
    )
    @example(counts=[0], n=2, max_k=3, seed=0, tie=False)  # an empty sample
    @example(counts=[2], n=2, max_k=3, seed=0, tie=False)  # two points, one inf
    @example(counts=[200], n=3, max_k=7, seed=5, tie=False)  # a full sort
    def test_block_selection_matches_per_run(self, counts, n, max_k, seed, tie):
        # empty runs, runs shorter than max_k and a split selection table
        # all give exactly the run-by-run oracle: squares summed in column
        # order, sorted, square-rooted and inf-padded to max_k.  The merge
        # gets each run's distances at once, or in two halves.
        rng = rng_for(seed)
        counts = np.array(counts)
        points = rng.normal(size=(int(counts.sum()), n)) * rng.uniform(0.1, 100.0)
        if tie and points.shape[0] > 1:
            points[-1] = points[0]
        starts = np.cumsum(counts) - counts
        expected = np.full((counts.size, max_k), np.inf)
        d2 = squared_norms(points)
        for row, (s, c) in zip(expected, zip(starts, counts)):
            nearest = np.sqrt(np.sort(d2[s : s + c]))[:max_k]
            row[: nearest.size] = nearest
        first = np.arange(d2.size) - np.repeat(starts, counts) < np.repeat(counts // 2, counts)
        for cells in (simulator._TABLE_CELLS, 1):
            with patch.object(simulator, "_TABLE_CELLS", cells):
                empty = np.full((counts.size, max_k), np.inf)
                scratch, whole, half, halves = simulator._Scratch(), *np.empty((3, *empty.shape))
                simulator._select_block(d2, counts, empty, scratch, whole)
                simulator._select_block(d2[first], counts // 2, empty, scratch, half)
                simulator._select_block(d2[~first], counts - counts // 2, half, scratch, halves)
            for table in (whole, halves):
                assert np.sqrt(np.sort(table, axis=1)).tobytes() == expected.tobytes()

    @given(
        parents=st.lists(
            st.lists(st.sampled_from((0.0, 0.5, 1.0, 3.0))
                     | st.floats(0.0, 6.0, allow_subnormal=False), max_size=10),
            min_size=4, max_size=4,
        ),
        own=st.none() | st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4),
        window=st.sampled_from((5.0, 12.0)) | st.floats(0.5, 40.0),
        radial=st.booleans(),
        n=st.integers(1, 3),
        max_k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(parents=[[1.0, 3.9999], [], [], []], own=None, window=12.0, radial=True, n=1,
             max_k=4, seed=0)
    @example(parents=[[3.0, 0.0], [3.0, 0.0], [], [13.0]], own=[1.0, 1.0, 0.0, 2.0], window=12.0,
             radial=False, n=1, max_k=4, seed=0)
    @settings(max_examples=200)
    def test_rounds_match_the_full_window_oracle(self, parents, own, window, radial, n, max_k,
                                                  seed):
        # Four runs of volume-gap sequences with rd = 2 and unit intensity,
        # so a parent at volume v has radius v^(1/n): radius ties, runs short
        # of max_k, a window edge inside a round, and with own the Palm own
        # cluster of each run (radius <= rd).  Each sequence ends with a gap
        # past the window, then unit gaps.  A parent's daughters, 0 to 4,
        # are a function of its radius alone, so the oracle, which draws
        # every parent of the window through the same callbacks and sorts
        # all their distances, sees the same points as the rounds.  radial
        # puts them on the parent's line at distance rd, alternately inward
        # and outward, so points of parents that draw and of parents that
        # do not meet at the reach.
        runs, rd = 4, 2.0
        sequences = [np.array(run + [window + 1.0]) for run in parents]

        def gaps_of(drawn):
            def gaps(rows, m):
                g = np.ones((rows.size, m))
                for i, run in enumerate(rows):
                    part = sequences[run][drawn[run] : drawn[run] + m]
                    g[i, : part.size] = part
                    drawn[run] += m
                return g
            return gaps

        def clusters(radii):
            counts, d2 = np.zeros(radii.size, dtype=np.int64), [np.zeros(0)]
            for i, radius in enumerate(radii):
                rng = rng_for([seed, *np.array([radius]).view(np.uint32)])
                counts[i] = rng.integers(0, 5)
                if radial:
                    line = radius + rd * np.where(np.arange(counts[i]) % 2, 1.0, -1.0)
                    d2.append(line * line)
                else:
                    d2.append(simulator._daughter_distances(rng, n, rd, radii[i : i + 1],
                                                            counts[i : i + 1],
                                                            simulator._Scratch()))
            return np.concatenate(d2), counts

        def nearest(d2):
            expected = np.full(max_k, np.inf)
            values = np.sqrt(np.sort(d2))[:max_k]
            expected[: values.size] = values
            return expected

        drawn = np.zeros(runs, dtype=np.int64)
        outer = window ** (1.0 / n)
        table, _ = simulator._nearest(gaps_of(drawn), clusters, runs, window, outer, n, rd, max_k,
                                      simulator._Scratch())
        rows = np.sqrt(np.sort(table, axis=1))
        if own is not None:
            # The Palm runs: each run's own cluster merged in after its rounds.
            d2, counts = clusters(np.array(own))
            merged = simulator._select_block(d2, counts, table, simulator._Scratch(),
                                             np.empty_like(table))
            palm_rows = np.sqrt(np.sort(merged, axis=1))

        # Rounds of 1, 1, 2, 4, ... parents end after 1, 2, 4, 8, ... of them.
        ends = 2 ** np.arange(12)
        oracle_drawn = np.zeros(runs, dtype=np.int64)
        for run in range(runs):
            v = np.cumsum(gaps_of(oracle_drawn)(np.array([run]), 64)[0])
            radii = outer * (np.minimum(v, window) / window) ** (1.0 / n)
            d2, _ = clusters(radii[v <= window])
            expected = nearest(d2)
            assert rows[run].tobytes() == expected.tobytes()
            if own is not None:
                own_d2, _ = clusters(np.array([own[run]]))
                palm = nearest(np.concatenate((d2, own_d2)))
                assert palm_rows[run].tobytes() == palm.tobytes()
            # A run stops in the round of its first parent past the window
            # or past the reach of its kth distance, or in the next round.
            past = (v > window) | (radii - rd > expected[-1] * (1.0 + _KEEP_MARGIN))
            first_end = ends[ends > np.argmax(past)][0]
            assert drawn[run] in (first_end, 2 * first_end)

    @given(
        case=st.sampled_from([
            (McpParams(2e-5, 5.0, 50.0, 2), 450.0),  # fig1
            (McpParams(1e-3, 50.0, 5.0, 2), 96.7),  # dense clusters
            (McpParams(0.1, 2.0, 1.0, 1), 20.0),
            (McpParams(0.02, 3.0, 2.0, 3), 7.97),
        ]),
        max_k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_palm_runs_are_stationary_runs_plus_their_own_cluster(self, case, max_k, seed):
        # The Palm law of a Poisson cluster process is the stationary one
        # plus one independent cluster, the typical point's: each Palm row
        # is, element by element, at most its stationary row, and equals the
        # max_k smallest of that row and the run's siblings, drawn last.
        p, radius = case
        cfg = SimConfig(p, radius, 1, seed, max_k)
        calls, daughter_distances = [], simulator._daughter_distances

        def recorded(rng, n, rd, radii, counts, scratch):
            d2 = daughter_distances(rng, n, rd, radii, counts, scratch)
            calls.append((counts, d2))
            return d2

        with patch.object(simulator, "_daughter_distances", recorded):
            tables, _ = sample_block(cfg, _substream(seed, 0))
        counts, siblings = calls[-1]
        assert counts.size == cfg.runs_per_block()
        assert tables.shape == (counts.size, 2, max_k)
        stationary, palm = np.sort(tables, axis=-1).swapaxes(0, 1)
        assert (palm <= stationary).all()
        starts = np.cumsum(counts) - counts
        for run, (start, count) in enumerate(zip(starts, counts)):
            expected = np.sort(np.concatenate((stationary[run], siblings[start : start + count])))
            assert palm[run].tobytes() == expected[:max_k].tobytes()
        # The same holds for the distances simulated over more than one block.
        more = SimConfig(p, radius, cfg.runs_per_block() + 7, seed, max_k)
        distances = simulate_kth_distances(more)
        assert (distances[:, PALM] <= distances[:, STATIONARY]).all()

    def test_blocks_draw_counts_only_for_parents_that_draw_daughters(self, fig1_params,
                                                                     monkeypatch):
        # Every Poisson count drawn belongs to a parent that also draws its
        # daughters' offsets, or to a run's own cluster, drawn once the
        # rounds are done.  The count-based reach drew about 5.7 counts per
        # run at fig1, where 3.5 parents drew daughters.
        offsets, daughter_distances = [], simulator._daughter_distances

        def recorded(rng, n, rd, radii, daughters, scratch):
            offsets.append(radii.size)
            return daughter_distances(rng, n, rd, radii, daughters, scratch)

        monkeypatch.setattr(simulator, "_daughter_distances", recorded)
        cfg = SimConfig(fig1_params, 450.0, 1, 3, 4)
        runs = cfg.runs_per_block()
        rng = CountingRng(_substream(3, 0))
        sample_block(cfg, rng)
        assert offsets[-1] == runs  # the own clusters draw last
        parents = sum(offsets) - runs
        assert rng.daughter_counts == parents + runs
        assert parents < 2.5 * runs

    @pytest.mark.parametrize(
        "p, max_k, blocks",
        [
            (McpParams(2e-5, 5.0, 50.0, 2), 4, 4),  # fig1
            (McpParams(1e-3, 50.0, 5.0, 2), 8, 16),  # dense clusters
            (McpParams(0.02, 3.0, 2.0, 5), 4, 40),
        ],
    )
    def test_mean_parents_match_the_sampled_reach(self, p, max_k, blocks, monkeypatch):
        # SimConfig prices a run by the mean number of parents in its window
        # with r - rd < D_k, its kth contact distance; its own cluster adds
        # none.  The blocks' recorded volume gaps give each run's parents,
        # and its rows D_k.  Validate's window.
        nearest, needed = simulator._nearest, []

        def recording(gaps, clusters, runs, v_max, outer, n, rd, max_k, scratch):
            drawn = [[] for _ in range(runs)]

            def recorded(rows, m):
                g = gaps(rows, m)
                for run, row in zip(rows, g):
                    drawn[run].append(row.copy())
                return g

            table, daughters = nearest(recorded, clusters, runs, v_max, outer, n, rd, max_k,
                                       scratch)
            d_k = np.sqrt(table[:, -1])
            for run in range(runs):
                v = np.cumsum(np.concatenate(drawn[run]))
                radii = outer * (np.minimum(v, v_max) / v_max) ** (1.0 / n)
                needed.append(int(((v <= v_max) & (radii - rd < d_k[run])).sum()))
            return table, daughters

        monkeypatch.setattr(simulator, "_nearest", recording)
        radius = quantile_radius(CurveKind.CONTACT, max_k, p)
        cfg = SimConfig(p, radius, 1, 0, max_k)
        for b in range(blocks):
            sample_block(cfg, _substream(0, b))
        se = np.std(needed, ddof=1) / math.sqrt(len(needed))
        assert abs(np.mean(needed) - _mean_parents(p, radius, max_k)) <= 4.0 * se

    def test_blocks_draw_only_the_kept_daughters(self, fig1_params):
        # At fig1 with max_k = 4 a run keeps about a fifth of the daughters
        # of its window, whose Campbell mean is lambda_p mbar pi (R + rd)^2
        # = 78.5, and still at least 4; its own cluster adds ~mbar = 5.
        cfg = SimConfig(fig1_params, 450.0, 1, 3, 4)
        window_mean = fig1_params.lambda_p * fig1_params.mbar * math.pi * 500.0**2
        assert window_mean == pytest.approx(78.5, rel=1e-3)
        _, kept_counts = sample_block(cfg, _substream(3, 0))
        assert kept_counts.mean() < 0.3 * window_mean
        assert (kept_counts >= 4).all()

    def test_blocks_draw_normals_only_for_daughters(self, fig1_params):
        # Parents sit on the first axis, so a block's only normals are its
        # daughters' first offset coordinates, the own clusters' among them,
        # and one more each when n is even: no parent draws a direction.
        # fig1 (n = 2) and n = 3.
        for p, radius in ((fig1_params, 450.0), (McpParams(0.02, 3.0, 2.0, 3), 7.97)):
            cfg = SimConfig(p, radius, 1, 3, 4)
            rng = CountingRng(_substream(3, 0))
            _, counts = sample_block(cfg, rng)
            assert counts.sum() > 0
            assert rng.normals == (2 if p.n % 2 == 0 else 1) * counts.sum()

    @pytest.mark.parametrize(
        "p, radius, max_k",
        [
            (McpParams(2e-5, 5.0, 50.0, 2), 450.0, 4),  # fig1
            (McpParams(1e-3, 50.0, 5.0, 2), 96.7, 8),  # dense clusters
            (McpParams(0.02, 3.0, 2.0, 3), 7.97, 4),
        ],
    )
    def test_runs_draw_few_parents_in_few_rounds(self, p, radius, max_k):
        # Every drawn parent costs a volume gap; only those within the reach
        # at the start of their round cost a daughter count and daughters,
        # within 5 % of the mean of the parents a run needs (then it draws
        # its own cluster).  At fig1 with max_k = 4 a run needs 2.2 of the
        # 15.7 parents of its window (the count-based reach drew 5.7).
        # Rounds of 1, 1, 2, 4, ... parents: a block ends within two rounds
        # of its longest run.  The windows are those of validate.
        cfg = SimConfig(p, radius, 1, 0, max_k)
        runs = cfg.runs_per_block()
        parents = []
        for b in range(10):
            rng = CountingRng(_substream(0, b))
            _, counts = sample_block(cfg, rng)
            longest = counts.max() / p.mbar
            assert rng.rounds <= 3 + math.log2(max(longest, 1.0)) + 4
            # One count per run is the own cluster's.
            parents.append(rng.daughter_counts / runs - 1)
        assert np.mean(parents) <= 1.05 * _mean_parents(p, radius, max_k)

    def test_partial_last_block_is_worker_invariant(self, fig1_params, monkeypatch):
        cfg = SimConfig(fig1_params, 450.0, 1000, 5, 4)
        assert cfg.samples % cfg.runs_per_block() != 0
        outputs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("MCPDIST_THREADS", threads)
            outputs.append(simulate_kth_distances(cfg).tobytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_worker_threads_keep_their_own_scratch(self, fig1_params, monkeypatch):
        # Eight threads on any core count, switching every 10 us, over nine
        # blocks: a scratch array shared by two threads would mix their rows.
        block = SimConfig(fig1_params, 450.0, 1, 9, 4).runs_per_block()
        cfg = SimConfig(fig1_params, 450.0, 8 * block + 100, 9, 4)
        monkeypatch.setattr(simulator.os, "cpu_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = simulate_kth_distances(cfg, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert threaded.tobytes() == simulate_kth_distances(cfg, workers=1).tobytes()

    def test_more_samples_extend_the_same_rows(self, fig1_params):
        # Within one block, across one block end and across two.
        block = SimConfig(fig1_params, 450.0, 1, 8, 3).runs_per_block()
        sizes = (block // 4, block + block // 3, 2 * block + block // 2)
        rows = [simulate_kth_distances(SimConfig(fig1_params, 450.0, samples, 8, 3))
                for samples in sizes]
        assert np.array_equal(rows[2][: sizes[1]], rows[1])
        assert np.array_equal(rows[2][: sizes[0]], rows[0])

    def test_runs_with_fewer_than_max_k_points_are_inf_padded(self):
        # no parents: stationary runs are empty, and Palm runs hold only the
        # typical point's Poisson(5) siblings, all within 2 rd of it
        cfg = SimConfig(McpParams(1e-300, 5.0, 1.0, 2), 10.0, 50, 1, 3)
        stationary, d = simulate_kth_distances(cfg).swapaxes(0, 1)
        assert np.isinf(stationary).all()
        assert np.all(np.isinf(d) | (d <= 2.0))
        assert np.isinf(d[:, 2]).any() and np.isfinite(d[:, 2]).any()

    def test_mean_parents_take_a_zero_end_as_is(self):
        # The Campbell radius of lambda_p mbar v_1 = 2e600 underflows to 0:
        # the integral then spans nothing, and doubling that end never ended.
        code = ("from mcpdist import McpParams; from mcpdist.simulator import _mean_parents; "
                "print(repr(_mean_parents(McpParams(1e300, 1e300, 1e-150, 1), 1.0, 1)))")
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stderr == ""
        assert float(proc.stdout) == 1e300 * 2.0 * 1e-150  # lambda_p v_1 rd

    def test_block_size_follows_expected_points(self, fig1_params):
        # A run draws a volume gap, a count and mbar daughters for each
        # parent with r - rd < D_k in its window, and one volume gap more;
        # it then draws its own cluster, a radius and mbar siblings.
        # The mean of those parents, E[c min(D_k + rd, R + rd)^n], against a
        # Stieltjes sum over the contact CDF of D_k on a fine grid.
        lambda_p, mbar = fig1_params.lambda_p, fig1_params.mbar
        grid = np.linspace(0.0, 450.0, 4001)
        middle = 0.5 * (grid[1:] + grid[:-1])
        cdf = cdf_table(CurveKind.CONTACT, grid, [1], fig1_params)[0]
        parents = lambda_p * math.pi * (np.sum((middle + 50.0) ** 2 * np.diff(cdf))
                                        + 500.0**2 * (1.0 - cdf[-1]))
        assert _mean_parents(fig1_params, 450.0, 1) == pytest.approx(parents, rel=1e-5)
        cfg = SimConfig(fig1_params, 450.0, 10, 1, 1)
        mean = 1.0 + _mean_parents(fig1_params, 450.0, 1) * (1.0 + mbar) + (1.0 + mbar)
        assert cfg.mean_points == mean
        assert cfg.runs_per_block() == int(simulator._BLOCK_POINTS // mean)
        more = SimConfig(fig1_params, 450.0, 10**6, 1, 1)
        assert more.runs_per_block() == cfg.runs_per_block()
        # A run short of max_k = 100 points draws every parent of its window,
        # out to R + rd = 150.
        small = SimConfig(fig1_params, 100.0, 10, 1, 100)
        mean = 1.0 + lambda_p * math.pi * 150.0**2 * (1.0 + mbar) + (1.0 + mbar)
        assert small.mean_points == pytest.approx(mean, rel=1e-12)
        assert small.runs_per_block() == int(simulator._BLOCK_POINTS // mean)
        # Without parents a run draws one volume gap and its own cluster's
        # radius: two points.
        sparse = SimConfig(McpParams(1e-300, 1e-8, 1.0, 2), 10.0, 10, 1, 1)
        assert sparse.mean_points == pytest.approx(2.0, rel=1e-7)
        assert sparse.runs_per_block() == int(simulator._BLOCK_POINTS // sparse.mean_points)
        # with mbar < 1 the ~5.4e5 parents per run are the larger draw
        thin = SimConfig(McpParams(1.0, 1e-5, 50.0, 3), 0.5, 10, 1, 1)
        assert thin.runs_per_block() == 1

    def test_budget_caps(self, fig1_params):
        # Every parent within rd of the origin draws its daughters: here
        # ~7.9e6 parents of ~1e3 daughters, 7.9e9 points per run, refused
        # before any CDF is formed.
        crowded = McpParams(1e3, 1e3, 50.0, 2)
        with pytest.raises(ValueError, match="points on average"):
            SimConfig(crowded, 1.0, 100, 1, 1)
        # The cap counts the points a run draws, not the ~3.8e6 of its
        # window: a wide fig1 window draws as much as the 450 one.
        wide, tail = (SimConfig(fig1_params, radius, 100, 1, 4) for radius in (1e5, 450.0))
        assert wide.mean_points == pytest.approx(tail.mean_points, rel=1e-4)
        # A run draws its own cluster's ~mbar siblings, however few parents
        # its window holds (~13 here).
        with pytest.raises(ValueError, match="points on average"):
            SimConfig(McpParams(1e-6, 2e6, 1.0, 2), 2000.0, 1, 1, 1)
        # At a quarter of that mbar a run fits, alone in its block.  A run
        # draws its own cluster after its rounds, so the cap holds each part
        # alone, though together they pass it.
        few = SimConfig(McpParams(1e-6, 5e5, 1.0, 2), 2000.0, 1, 1, 1)
        assert few.runs_per_block() == 1
        assert few.mean_points > simulator.MAX_MEAN_POINTS
        # At n = 20 a stationary run draws ~5.5e4 points, where the
        # count-based reach would have drawn ~3.2e7.
        high = McpParams(1e-3, 5.0, 1.0, 20)
        points = SimConfig(high, quantile_radius(CurveKind.CONTACT, 4, high), 1, 1, 4).mean_points
        assert 4e4 < points < 7e4
        # A window of more than 1e150 parents on average (here 4.2e153) is
        # refused: parent radii would lose precision.
        with pytest.raises(ValueError, match="parents on average"):
            SimConfig(McpParams(1.0, 5.0, 1.0, 3), 1e51, 100, 1, 4)
        with pytest.raises(ValueError, match="distances"):
            SimConfig(fig1_params, 450.0, 10**11, 1, 4)
        with pytest.raises(ValueError, match="points on average"):
            validate_against_analytic(crowded, [1], samples=100, seed=1)
        # At n = 400 a run's ~1e31 parents within its kth distance + rd
        # (about 6 here) almost never put a daughter inside it.
        with pytest.raises(ValueError, match="points on average"):
            SimConfig(McpParams(1e-3, 5.0, 1.0, 400), 10.0, 1, 1, 4)
