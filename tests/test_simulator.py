import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcpdist import (
    CensoringError,
    DistributionCurve,
    EmpiricalCdf,
    McpParams,
    SimConfig,
    ball_volume,
    count_pmf,
    intersection_volume,
    ks_distance,
    palm_count_pmf,
    pgf_count,
    q_weight,
    simulate_kth_distances,
)
from mcpdist import simulator
from mcpdist.analytic import CurveKind, distribution_curve
from mcpdist.simulator import (
    _KEEP_MARGIN,
    KS_THRESHOLD_FACTOR,
    _substream,
    validate_against_analytic,
)


def rng_for(seed=0):
    return np.random.default_rng(seed)


def counts_within(cfg, palm, r):
    """N(r) = #{k : R_k <= r, R_k finite}, the points within r of the origin
    in each of cfg.samples runs of simulate_kth_distances.  Exact below
    cfg.max_k; a run that reaches cfg.max_k holds at least that many."""
    d = simulate_kth_distances(cfg, palm=palm)
    return (np.isfinite(d) & (d <= r)).sum(axis=1)


class CountingRng:
    """A Generator that counts the sampler's rounds, daughter-count draws and
    standard normals."""

    def __init__(self, rng):
        self.rng, self.rounds, self.daughter_counts, self.normals = rng, 0, 0, 0

    def standard_exponential(self, size):
        self.rounds += 1
        return self.rng.standard_exponential(size)

    def poisson(self, lam, size):
        self.daughter_counts += math.prod(np.atleast_1d(size))
        return self.rng.poisson(lam, size)

    def standard_normal(self, size):
        self.normals += math.prod(np.atleast_1d(size))
        return self.rng.standard_normal(size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def _kept_parents(owner, radii, counts, runs: int, rd: float, max_k: int) -> np.ndarray:
    """Mask of the parents that can place a point among their run's max_k nearest.

    owner, radii and counts give each parent's run, distance from the
    origin and daughter count.  Ranked by radius within its run, the first
    parents whose counts reach max_k hold max_k points within B = rho + rd
    of the origin, rho the radius of the last of them; a parent with
    rho - rd > B places every daughter beyond B, so it is dropped.  Runs
    with fewer than max_k points keep every parent, and a parent within rd
    of the origin (the Palm own cluster among them) is always kept.
    _KEEP_MARGIN widens B over the rounding of computed distances.
    """
    order = np.argsort(radii)
    # Run ids in the smallest unsigned type: numpy sorts 8- and 16-bit keys
    # stably by radix, several times faster than int64 keys.
    run_ids = owner.astype(np.min_scalar_type(runs))
    order = order[np.argsort(run_ids[order], kind="stable")]
    run = owner[order]
    per_run = np.bincount(run, minlength=runs)
    starts = np.cumsum(per_run) - per_run
    running = np.cumsum(counts[order])
    before = np.concatenate(([0], running))[starts]
    # Running counts only grow within a run, so the parents still short of
    # max_k come first and their number is the rank of the run's j*.
    short = np.bincount(run[running - before[run] < max_k], minlength=runs)
    reach = np.full(runs, np.inf)
    full = short < per_run
    reach[full] = radii[order[starts[full] + short[full]]] + rd
    return radii - rd <= reach[owner] * (1.0 + _KEEP_MARGIN)


class TestUniformBall:
    def test_support_and_shape(self):
        rng = rng_for(1)
        pts = simulator._uniform_ball(3, 2.5, rng, 50_000)
        assert pts.shape == (50_000, 3)
        assert np.all(np.linalg.norm(pts, axis=1) <= 2.5)

    def test_symmetry_on_the_line(self):
        rng = rng_for(2)
        pts = simulator._uniform_ball(1, 1.0, rng, 100_000)
        assert abs(float(pts.mean())) <= 0.01

    def test_radial_quantile(self):
        # mass inside half the radius is the volume ratio (1/2)^n
        rng = rng_for(3)
        pts = simulator._uniform_ball(2, 1.0, rng, 100_000)
        frac = float(np.mean(np.linalg.norm(pts, axis=1) <= 0.5))
        assert frac == pytest.approx(0.25, abs=0.005)


class TestDaughterPoints:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("rho_over_rd", [0.0, 0.5, 1.0, 3.0])
    def test_distances_follow_the_lens_law(self, n, rho_over_rd):
        # One parent at rho e_1 with N daughters: P[distance <= d] is the
        # share of the cluster ball within d of the origin, the lens
        # volume over the ball volume.  Exact two-sided KS against it.
        rd, size = 2.0, 1_000_000
        rho = rho_over_rd * rd
        rng = _substream(7, n, int(4 * rho_over_rd))
        points = simulator._daughter_points(rng, n, rd, np.array([rho]), np.array([size]))
        d = np.sort(np.sqrt(np.einsum("ij,ij->i", points, points)))
        cdf = intersection_volume(d, rd, rho, n) / ball_volume(rd, n)
        steps = np.arange(1, size + 1) / size
        ks = max(float(np.max(steps - cdf)), float(np.max(cdf - (steps - 1.0 / size))))
        assert ks <= KS_THRESHOLD_FACTOR / math.sqrt(size)


class TestMcpSampler:
    def test_vanishing_parent_intensity(self):
        cfg = SimConfig(McpParams(1e-300, 5.0, 1.0, 2), 10.0, 1, 0, 1)
        assert np.isinf(simulate_kth_distances(cfg)).all()

    def test_expected_total_points(self, fig1_params):
        # A run short of max_k points keeps every parent of its window, so
        # with max_k above every run's count each row holds all its points.
        cfg = SimConfig(fig1_params, 100.0, 10_000, 42, 100)
        window = 100.0 + 50.0
        expect = fig1_params.lambda_p * math.pi * window**2 * fig1_params.mbar
        totals = counts_within(cfg, False, math.inf)
        assert totals.max() < cfg.max_k
        se = totals.std(ddof=1) / math.sqrt(cfg.samples)
        assert totals.mean() == pytest.approx(expect, abs=3 * se)

    def test_points_stay_inside_support_ball(self, fig1_params):
        # daughters can reach at most observation_radius + 2 rd from origin
        cfg = SimConfig(fig1_params, 100.0, 200, 14, 100)
        limit = 100.0 + 2.0 * fig1_params.rd
        d = simulate_kth_distances(cfg)
        assert np.isinf(d[:, -1]).all()
        assert float(d[np.isfinite(d)].max()) <= limit + 1e-9

    def test_void_probability_matches_pgf(self, fig1_params):
        # P[no point within r] against the analytic zero-count probability
        r = 60.0
        cfg = SimConfig(fig1_params, r, 20_000, 7, 1)
        d = simulate_kth_distances(cfg)
        empirical = float(np.mean(d[:, 0] > r))
        p0 = pgf_count(0.0, r, fig1_params)
        se = math.sqrt(p0 * (1 - p0) / cfg.samples)
        assert empirical == pytest.approx(p0, abs=3 * se)

    def test_count_histogram_matches_pmf(self, fig1_params):
        # frequency of N = m in B(o, 60) against the analytic PMF, 3 moment
        # standard errors per bin with at least 25 expected hits
        r = 60.0
        runs = 100_000
        cfg = SimConfig(fig1_params, r, runs, 2026, 41)
        counts = counts_within(cfg, False, r)
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
        assert np.isinf(simulate_kth_distances(cfg, palm=True)).all()

    def test_sibling_count_mean(self):
        p = McpParams(1e-300, 5.0, 1.0, 2)
        cfg = SimConfig(p, 10.0, 100_000, 11, 30)
        totals = counts_within(cfg, True, math.inf)
        assert totals.max() < cfg.max_k
        se = math.sqrt(5.0 / cfg.samples)
        assert totals.mean() == pytest.approx(5.0, abs=3 * se)

    def test_no_sibling_probability_matches_q0(self, fig1_params):
        # the j = 0 intra-cluster weight is the no-sibling-within-r law
        p = McpParams(1e-300, fig1_params.mbar, fig1_params.rd, 2)
        r = 40.0
        cfg = SimConfig(p, r, 50_000, 13, 1)
        misses = int((counts_within(cfg, True, r) == 0).sum())
        q0 = q_weight(r, 0, fig1_params)
        se = math.sqrt(q0 * (1 - q0) / cfg.samples)
        assert misses / cfg.samples == pytest.approx(q0, abs=3 * se)

    def test_palm_count_histogram_matches_pmf(self, fig1_params):
        r = 60.0
        runs = 100_000
        cfg = SimConfig(fig1_params, r, runs, 515, 46)
        counts = counts_within(cfg, True, r)
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

    def test_window_sufficiency(self, fig1_params):
        # doubling the window must not move the ECDF beyond Monte Carlo noise
        r_obs = 120.0
        small = SimConfig(fig1_params, r_obs, 20_000, 21, 2)
        large = SimConfig(fig1_params, 2 * r_obs, 20_000, 21, 2)
        d_small = simulate_kth_distances(small)
        d_large = simulate_kth_distances(large)
        grid = np.linspace(1.0, r_obs, 60)
        for k in (1, 2):
            e_small = EmpiricalCdf.from_distances(d_small[:, k - 1], r_obs)
            e_large = EmpiricalCdf.from_distances(d_large[:, k - 1], 2 * r_obs)
            gap = np.max(np.abs(e_small.evaluate(grid) - e_large.evaluate(grid)))
            assert gap <= 4.0 / math.sqrt(small.samples)


class TestEmpiricalCdf:
    def test_evaluation_and_censoring(self):
        ecdf = EmpiricalCdf.from_distances(np.array([1.0, 2.0, np.inf, 5.0]), 4.0)
        assert ecdf.censored_count == 2  # inf and the 5.0 beyond the window
        assert ecdf.total == 4
        assert ecdf.evaluate(2.0) == 0.5
        assert ecdf.censored_fraction() == 0.5


class TestKsDistance:
    def test_identical_step_function_is_zero(self):
        samples = np.array([1.0, 2.0, 3.0, 4.0])
        ecdf = EmpiricalCdf.from_distances(samples, 10.0)
        # encode the ECDF itself as a curve with machine-width risers
        radii, values = [0.0], [0.0]
        for i, x in enumerate(samples, start=1):
            radii += [np.nextafter(x, -np.inf), x]
            values += [(i - 1) / 4.0, i / 4.0]
        curve = DistributionCurve(
            np.array(radii), np.array(values), CurveKind.CONTACT, 1,
            McpParams(1.0, 1.0, 1.0, 2),
        )
        assert ks_distance(ecdf, curve) == 0.0

    def test_degenerate_point_mass(self):
        # all mass at 5 against a curve that is 0 below 5 and 1 at/above
        ecdf = EmpiricalCdf.from_distances(np.full(1000, 5.0), 10.0)
        curve = DistributionCurve(
            np.array([5.0, 10.0]), np.array([1.0, 1.0]), CurveKind.CONTACT, 1,
            McpParams(1.0, 1.0, 1.0, 2),
        )
        assert ks_distance(ecdf, curve) == 0.0

    def test_dkw_bound_on_inverse_sampled_draws(self, fig1_params):
        curve = distribution_curve(CurveKind.CONTACT, 1, fig1_params)
        rng = rng_for(17)
        u = rng.random(100_000) * float(curve.values[-1])
        draws = np.interp(u, curve.values, curve.radii)
        ecdf = EmpiricalCdf.from_distances(draws, float(curve.radii[-1]))
        assert ks_distance(ecdf, curve) <= 0.01

    def test_censoring_error(self, fig1_params):
        curve = distribution_curve(CurveKind.CONTACT, 1, fig1_params, r_max=10.0)
        ecdf = EmpiricalCdf.from_distances(np.array([1.0, 2.0, np.inf, np.inf]), 10.0)
        with pytest.raises(CensoringError):
            ks_distance(ecdf, curve)

    def test_coverage_precondition(self, fig1_params):
        curve = distribution_curve(CurveKind.CONTACT, 1, fig1_params, r_max=5.0)
        ecdf = EmpiricalCdf.from_distances(np.array([1.0, 7.0]), 8.0)
        with pytest.raises(ValueError):
            ks_distance(ecdf, curve)


class TestValidationHarness:
    def test_rows_and_thresholds(self, fig1_params):
        rows = validate_against_analytic(fig1_params, [1, 2], samples=4000, seed=5)
        assert [(r.kind, r.k) for r in rows] == [("cd", 1), ("cd", 2), ("nnd", 1), ("nnd", 2)]
        for row in rows:
            assert row.threshold == pytest.approx(1.5 * 1.36 / math.sqrt(4000))
            assert row.passed

    def test_rows_pass_in_a_wide_window(self, fig1_params):
        # The window reaches 44 times the CDF tail radius.  The reference
        # curves end at the largest sampled distance, so their 512 points
        # cover the samples as finely as in the tail window.
        rows = validate_against_analytic(fig1_params, range(1, 5), samples=20_000, seed=1,
                                         r_max=20_000.0)
        assert len(rows) == 8
        for row in rows:
            assert row.passed, row

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


def kth_distances(sample, max_k):
    """Distances from the origin to the max_k closest points of one run,
    inf-padded, through the block selection the simulator uses."""
    sample = np.asarray(sample, dtype=float)
    row = simulator._select_block(sample, np.array([len(sample)]), max_k)[0]
    out = np.full(max_k, np.inf)
    out[: row.size] = row
    return out


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
        # order, sorted, square-rooted and inf-padded to max_k
        rng = rng_for(seed)
        counts = np.array(counts)
        points = rng.normal(size=(int(counts.sum()), n)) * rng.uniform(0.1, 100.0)
        if tie and points.shape[0] > 1:
            points[-1] = points[0]
        starts = np.cumsum(counts) - counts
        expected = np.full((counts.size, max_k), np.inf)
        for row, (s, c) in zip(expected, zip(starts, counts)):
            d2 = np.zeros(c)
            for column in points[s : s + c].T:
                d2 += column * column
            nearest = np.sqrt(np.sort(d2))[:max_k]
            row[: nearest.size] = nearest
        for cells in (simulator._TABLE_CELLS, 1):
            with patch.object(simulator, "_TABLE_CELLS", cells):
                rows = simulator._select_block(points, counts, max_k)
            assert rows.shape[0] == counts.size and rows.shape[1] <= max_k
            padded = np.full((counts.size, max_k), np.inf)
            padded[:, : rows.shape[1]] = rows
            assert padded.tobytes() == expected.tobytes()

    @given(
        parents=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from((0.0, 0.5, 1.0, 3.0)) | st.floats(0.0, 6.0, allow_subnormal=False),
                    st.integers(0, 4),
                ),
                max_size=10,
            ),
            min_size=4, max_size=4,
        ),
        own=st.none() | st.lists(st.tuples(st.floats(0.0, 2.0), st.integers(0, 4)),
                                 min_size=4, max_size=4),
        window=st.sampled_from((5.0, 12.0)) | st.floats(0.5, 40.0),
        radial=st.booleans(),
        n=st.integers(1, 3),
        max_k=st.integers(1, 6),
        m=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(parents=[[(1.0, 4), (3.9999, 1)], [], [], []], own=None, window=12.0, radial=True,
             n=1, max_k=4, m=1, seed=0)
    @example(parents=[[(3.0, 0), (3.0, 1)], [(3.0, 3), (3.0, 2)], [], [(13.0, 0)]],
             own=[(1.0, 4), (1.0, 1), (0.0, 0), (2.0, 4)], window=12.0, radial=False, n=1,
             max_k=4, m=2, seed=0)
    @settings(max_examples=200)
    def test_radial_rounds_keep_the_oracle_parents(self, parents, own, window, radial, n, max_k,
                                                    m, seed):
        # Four runs of (volume gap, daughters) parent sequences with rd = 2
        # and unit intensity, so a parent at volume v has radius v^(1/n):
        # radius ties, zero-count parents, runs short of max_k, a window
        # edge inside a round, and with own the Palm own cluster of each run
        # (radius <= rd), which can be the parent that reaches max_k (run 0
        # of the second example, whose parent at 6 is dropped).  Each
        # sequence ends with a parent of 4 daughters past the window.  The
        # rounds must keep exactly the parents that the reference
        # _kept_parents keeps among the window's parents, and stop in the
        # round that holds a run's first dropped parent.  radial puts the
        # daughters on the parent's line at distance rd, alternately inward
        # and outward, so points of kept and dropped parents meet at the
        # reach; in the example a point of the parent at 4.9999 lies just
        # inside the fourth distance, 3.
        runs, rd = 4, 2.0
        gaps = [np.array([gap for gap, _ in run] + [window + 1.0]) for run in parents]
        counts = [np.array([count for _, count in run] + [4], dtype=np.int64) for run in parents]
        drawn = np.zeros(runs, dtype=np.int64)

        def draw(rows, size):
            g = np.full((rows.size, size), 1.0)
            c = np.zeros((rows.size, size), dtype=np.int64)
            for i, run in enumerate(rows):
                part = slice(drawn[run], drawn[run] + size)
                g[i, : gaps[run][part].size] = gaps[run][part]
                c[i, : counts[run][part].size] = counts[run][part]
                drawn[run] += size
            return g, c

        own_arrays = None if own is None else (
            np.array([radius for radius, _ in own]), np.array([count for _, count in own]))
        got = simulator._radial_parents(draw, runs, m, window, window ** (1.0 / n), n, rd, max_k,
                                        own_arrays)

        # The window's parents, each run's own cluster first.
        owner, radii, daughters = [], [], []
        for run in range(runs):
            v = np.cumsum(gaps[run])
            inside = v <= window
            if own is not None:
                owner.append(run), radii.append(own[run][0]), daughters.append(own[run][1])
            owner += [run] * int(inside.sum())
            radii += list(v[inside] ** (1.0 / n))
            daughters += list(counts[run][inside])
        owner = np.array(owner, dtype=np.int64)
        radii, daughters = np.array(radii, dtype=float), np.array(daughters, dtype=np.int64)
        keep = _kept_parents(owner, radii, daughters, runs, rd, max_k)
        assert np.array_equal(got[0], owner[keep])
        assert np.array_equal(got[2], daughters[keep])
        np.testing.assert_allclose(got[1], radii[keep], rtol=1e-12, atol=0.0)

        # Rounds of m, then s = ceil(sqrt(m)), 3 s, 9 s, ... parents.
        step, ends = math.ceil(math.sqrt(m)), [m]
        while ends[-1] < 100:
            ends.append(ends[-1] + step)
            step *= 3
        first_dropped = np.bincount(owner[keep], minlength=runs) - (own is not None)
        for run in range(runs):
            assert drawn[run] == next(end for end in ends if end > first_dropped[run])

        # Each parent sits on the first axis of its own frame, as in the
        # sampler.
        if radial:
            inward_first = np.where(np.arange(daughters.sum()) % 2, 1.0, -1.0)
            points = np.zeros((int(daughters.sum()), n))
            points[:, 0] = np.repeat(radii, daughters) + rd * inward_first
        else:
            points = simulator._daughter_points(rng_for(seed), n, rd, radii, daughters)
        kept_points = points[np.repeat(keep, daughters)]
        kept_counts = np.bincount(owner[keep], weights=daughters[keep], minlength=runs).astype(np.int64)
        all_counts = np.bincount(owner, weights=daughters, minlength=runs).astype(np.int64)
        rows = []
        for pts, cnt in ((points, all_counts), (kept_points, kept_counts)):
            selected = simulator._select_block(pts, cnt, max_k)
            padded = np.full((runs, max_k), np.inf)
            padded[:, : selected.shape[1]] = selected
            rows.append(padded.tobytes())
        assert rows[0] == rows[1]

    def test_blocks_draw_only_the_kept_daughters(self, fig1_params):
        # At fig1 with max_k = 4 a stationary run keeps about a fifth of the
        # daughters of its window, whose Campbell mean is lambda_p mbar
        # pi (R + rd)^2 = 78.5, and still at least 4.
        cfg = SimConfig(fig1_params, 450.0, 1, 3, 4)
        window_mean = fig1_params.lambda_p * fig1_params.mbar * math.pi * 500.0**2
        assert window_mean == pytest.approx(78.5, rel=1e-3)
        _, kept_counts = simulator._sample_block(cfg, _substream(3, 0, 0), False)
        assert kept_counts.mean() < 0.3 * window_mean
        assert (kept_counts >= 4).all()

    def test_blocks_draw_normals_only_for_daughters(self, fig1_params):
        # Parents sit on the first axis, so a block's only normals are the
        # n per point of its daughters' offsets, the Palm own cluster's
        # among them: no parent draws a direction.
        cfg = SimConfig(fig1_params, 450.0, 1, 3, 4)
        for palm in (False, True):
            rng = CountingRng(_substream(3, int(palm), 0))
            points, counts = simulator._sample_block(cfg, rng, palm)
            assert rng.normals == fig1_params.n * counts.sum() == points.size

    @pytest.mark.parametrize(
        "p, radius, max_k",
        [
            (McpParams(2e-5, 5.0, 50.0, 2), 450.0, 4),  # fig1
            (McpParams(1e-3, 50.0, 5.0, 2), 96.7, 8),  # dense clusters
            (McpParams(0.02, 3.0, 2.0, 3), 7.97, 4),
        ],
    )
    def test_runs_draw_few_parents_in_few_rounds(self, p, radius, max_k):
        # Every drawn parent costs a volume gap and a daughter count.  At
        # fig1 with max_k = 4 a stationary run keeps about 3.5 of the 15.7
        # parents of its window and must draw at most 6; every block draws
        # in at most 4 rounds.  The windows are those of validate.
        cfg = SimConfig(p, radius, 1, 0, max_k)
        for palm in (False, True):
            runs = cfg.runs_per_block(palm)
            parents = []
            for b in range(10):
                rng = CountingRng(_substream(0, int(palm), b))
                simulator._sample_block(cfg, rng, palm)
                assert rng.rounds <= 4
                # Under Palm, one count per run is the own cluster's.
                parents.append(rng.daughter_counts / runs - palm)
            if p.mbar == 5.0 and not palm:
                assert np.mean(parents) <= 6.0

    def test_partial_last_block_is_worker_invariant(self, fig1_params, monkeypatch):
        cfg = SimConfig(fig1_params, 450.0, 1000, 5, 4)
        for palm in (False, True):
            assert cfg.samples % cfg.runs_per_block(palm) != 0
            outputs = []
            for threads in ("1", "2", "3"):
                monkeypatch.setenv("MCPDIST_THREADS", threads)
                outputs.append(simulate_kth_distances(cfg, palm=palm).tobytes())
            assert outputs[0] == outputs[1] == outputs[2]

    def test_more_samples_extend_the_same_rows(self, fig1_params):
        for palm in (False, True):
            rows = [simulate_kth_distances(SimConfig(fig1_params, 450.0, samples, 8, 3), palm=palm)
                    for samples in (300, 1200, 2500)]
            assert 300 < SimConfig(fig1_params, 450.0, 1, 8, 3).runs_per_block(palm) < 1200
            assert np.array_equal(rows[2][:1200], rows[1])
            assert np.array_equal(rows[2][:300], rows[0])

    def test_runs_with_fewer_than_max_k_points_are_inf_padded(self):
        # no parents: stationary runs are empty, and Palm runs hold only the
        # typical point's Poisson(5) siblings, all within 2 rd of it
        cfg = SimConfig(McpParams(1e-300, 5.0, 1.0, 2), 10.0, 50, 1, 3)
        assert np.isinf(simulate_kth_distances(cfg)).all()
        d = simulate_kth_distances(cfg, palm=True)
        assert np.all(np.isinf(d) | (d <= 2.0))
        assert np.isinf(d[:, 2]).any() and np.isfinite(d[:, 2]).any()

    def test_block_size_follows_expected_points(self, fig1_params):
        # A run draws the parents out to rho + 2 rd, where the parents within
        # rho hold max_k = 1 daughters on average, one parent more, and the
        # daughters of the parents it keeps.
        cfg = SimConfig(fig1_params, 450.0, 10, 1, 1)
        lambda_p, mbar = fig1_params.lambda_p, fig1_params.mbar
        rho = math.sqrt(1.0 / (lambda_p * mbar * math.pi))
        mean = 1.0 + lambda_p * math.pi * (rho + 100.0) ** 2 * (1.0 + mbar)
        assert cfg.runs_per_block() == int(2**14 // mean)
        assert cfg.runs_per_block(palm=True) == int(2**14 // (mean + mbar))
        assert SimConfig(fig1_params, 450.0, 10**6, 1, 1).runs_per_block() == cfg.runs_per_block()
        # the window edge R + rd = 150 caps rho + 2 rd
        small = SimConfig(fig1_params, 100.0, 10, 1, 40)
        mean = 1.0 + lambda_p * math.pi * 150.0**2 * (1.0 + mbar)
        assert small.runs_per_block() == int(2**14 // mean)
        sparse = SimConfig(McpParams(1e-300, 1e-8, 1.0, 2), 10.0, 10, 1, 1)
        assert sparse.runs_per_block() == 2**14
        # with mbar < 1 the ~5.4e5 parents per run are the larger draw
        thin = SimConfig(McpParams(1.0, 1e-5, 50.0, 3), 0.5, 10, 1, 1)
        assert thin.runs_per_block() == 1

    def test_budget_caps(self, fig1_params):
        # A run draws the parents out to the window edge R + rd = 51 (rho +
        # 2 rd = 100 lies past it) and their daughters: ~8.2e9 points.
        crowded = McpParams(1e3, 1e3, 50.0, 2)
        with pytest.raises(ValueError, match="points on average"):
            SimConfig(crowded, 1.0, 100, 1, 1)
        # The cap counts the points a run draws, not the ~3.8e6 of its
        # window: a wide fig1 window draws as much as the 450 one.
        wide, tail = (SimConfig(fig1_params, radius, 100, 1, 4) for radius in (1e5, 450.0))
        for palm in (False, True):
            assert wide.runs_per_block(palm) == tail.runs_per_block(palm)
        # Each run keeps the parent that brings it to max_k with all its
        # ~mbar daughters, however few it needs: ~1e6 points per Palm run
        # here, although its window holds only ~13 parents.
        with pytest.raises(ValueError, match="points on average"):
            SimConfig(McpParams(1e-6, 5e5, 1.0, 2), 2000.0, 1, 1, 1)
        # At a tenth of that mbar a run fits, alone in its block.
        few = SimConfig(McpParams(1e-6, 5e4, 1.0, 2), 2000.0, 1, 1, 1)
        assert few.runs_per_block(False) == few.runs_per_block(True) == 1
        # A window of more than 1e150 parents on average (here 4.2e153) is
        # refused: parent radii would lose precision.
        with pytest.raises(ValueError, match="parents on average"):
            SimConfig(McpParams(1.0, 5.0, 1.0, 3), 1e51, 100, 1, 4)
        with pytest.raises(ValueError, match="distances"):
            SimConfig(fig1_params, 450.0, 10**11, 1, 4)
        with pytest.raises(ValueError, match="points on average"):
            validate_against_analytic(crowded, [1], samples=100, seed=1)
