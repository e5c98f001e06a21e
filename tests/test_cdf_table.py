"""The radius-grid CDF table behind curves, sweeps and the pointwise CDFs.

Every entry must equal the one-radius, one-order call with its row's
parameters bit for bit, whatever other radii, parameters and orders share
the call and however the radii fall into chunks; a set of curves or a
sweep must be one table; curves must agree with the closed low-order
forms; and the working set of a long, high-order curve must stay bounded.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcpdist import (
    DistributionCurve,
    McpParams,
    SweepMetric,
    SweepSpec,
    ball_volume,
    cdf_contact,
    cdf_nnd,
    cdf_nnd_small_rd_limit,
    distribution_curve,
    distribution_curves,
    sweep,
)
from mcpdist import analytic
from mcpdist.analytic import CurveKind
from mcpdist.cli import main

from oracles import corollary_contact_cdf, corollary_nnd_cdf

POINTWISE = {
    CurveKind.CONTACT: cdf_contact,
    CurveKind.NND: cdf_nnd,
    CurveKind.NND_SMALL_RD_LIMIT: cdf_nnd_small_rd_limit,
}


@given(
    kind=st.sampled_from(sorted(POINTWISE, key=lambda kind: kind.value)),
    n=st.sampled_from((1, 2, 3, 5, 8)),
    rd=st.floats(min_value=0.5, max_value=5.0),
    clusters=st.floats(min_value=1e-3, max_value=3.0),
    mbar=st.floats(min_value=0.5, max_value=20.0),
    scaled_radii=st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=10),
    ks=st.lists(st.integers(min_value=1, max_value=80), min_size=1, max_size=4, unique=True),
    chunk_rows=st.sampled_from((None, 1, 2, 3)),
    row_factors=st.none()
    | st.lists(
        st.tuples(*[st.floats(min_value=0.25, max_value=4.0)] * 3), min_size=12, max_size=12
    ),
)
def test_table_entries_equal_pointwise_calls(
    kind, n, rd, clusters, mbar, scaled_radii, ks, chunk_rows, row_factors
):
    # clusters: expected parents within one cluster radius of the origin.
    p = McpParams(lambda_p=clusters / ball_volume(rd, n), mbar=mbar, rd=rd, n=n)
    radii = [0.0, rd, *(s * rd for s in scaled_radii)]
    # With row_factors, each radius has its own lambda_p, mbar and rd.
    row_params = [p] * len(radii)
    if row_factors is not None:
        row_params = [
            McpParams(p.lambda_p * a, p.mbar * b, p.rd * c, n) for a, b, c in row_factors
        ][: len(radii)]
    cells = analytic._CHUNK_CELLS
    if chunk_rows is not None:
        # Small chunks, so the grid spans several of them.
        cells = chunk_rows * analytic._row_cells(max(ks) - 1)
    with mock.patch.object(analytic, "_CHUNK_CELLS", cells):
        table = analytic.cdf_table(kind, radii, ks, p if row_factors is None else row_params)
    assert table.shape == (len(ks), len(radii))
    for i, k in enumerate(ks):
        for j, r in enumerate(radii):
            assert table[i, j] == POINTWISE[kind](r, k, row_params[j]), (k, r)


def test_table_spans_several_chunks_by_default(fig1_params):
    radii = np.linspace(0.0, 400.0, 700)
    ks = [4, 1, 3]
    table = analytic.cdf_table(CurveKind.NND, radii, ks, fig1_params)
    rows = analytic._CHUNK_CELLS // analytic._row_cells(max(ks) - 1)
    assert radii.size > rows
    for i, k in enumerate(ks):
        for j in (0, rows - 1, rows, radii.size - 1):
            assert table[i, j] == cdf_nnd(float(radii[j]), k, fig1_params)


@pytest.mark.parametrize("kind", (CurveKind.CONTACT, CurveKind.NND))
def test_rows_that_rescale_at_different_orders_match_pointwise_calls(kind):
    # -g(0) runs from about 290 to 910 across the grid, so the PMF terms
    # of most rows pass the rescale threshold, each at its own order, and
    # some only beyond the orders a pointwise call at a smaller k forms.
    p = McpParams(lambda_p=1.0, mbar=2.0, rd=1.0, n=2)
    radii = np.linspace(10.0, 18.0, 9)
    ks = [1000, 3, 600, 400]
    top = max(ks) - 1
    kernel = analytic._Kernel(radii, p)
    h = analytic._padded(analytic._poisson_sums(kernel.t, kernel.w, 1, top + 1), top)
    _, level = analytic._recurrence(np.arange(1, top + 1) * h, top, adaptive=False)
    first_rescale = {int(np.argmax(row > 0.0)) for row in level if row[-1] > 0.0}
    assert len(first_rescale) >= 4 and min(first_rescale) < 400 < 600 < max(first_rescale)
    table = analytic.cdf_table(kind, radii, ks, p)
    for i, k in enumerate(ks):
        for j, r in enumerate(radii):
            assert table[i, j] == POINTWISE[kind](float(r), k, p), (k, r)


@pytest.mark.parametrize("kind", (CurveKind.CONTACT, CurveKind.NND, CurveKind.NND_SMALL_RD_LIMIT))
def test_curve_set_rows_equal_single_curves(fig1_params, kind):
    ks = [7, 1, 4, 2, 30]
    curves = distribution_curves(kind, ks, fig1_params, num=300)
    assert [curve.k for curve in curves] == ks
    for curve in curves:
        single = distribution_curve(kind, curve.k, fig1_params, r_max=curve.radii[-1], num=300)
        assert np.array_equal(curve.radii, single.radii)
        assert np.array_equal(curve.values, single.values), curve.k


class _CountingKernel(analytic._Kernel):
    built = 0

    def __init__(self, *args, **kwargs):
        type(self).built += 1
        super().__init__(*args, **kwargs)


def _kernels_built(monkeypatch, work):
    monkeypatch.setattr(analytic, "_Kernel", _CountingKernel)
    monkeypatch.setattr(_CountingKernel, "built", 0)
    work()
    return _CountingKernel.built


def test_curve_set_builds_the_kernels_of_its_largest_order(monkeypatch, capsys):
    fig1 = ["--lambda-p", "2e-5", "--mbar", "5", "--rd", "50"]

    def cdf(ks):
        return lambda: main(["cdf", "--kind", "nnd", "--k", ks, *fig1])

    every = _kernels_built(monkeypatch, cdf(",".join(map(str, range(1, 17)))))
    largest = _kernels_built(monkeypatch, cdf("16"))
    capsys.readouterr()
    assert every == largest


@pytest.mark.parametrize("hold", ("mbar", "lambda_d"))
def test_sweep_is_one_table(monkeypatch, hold):
    spec = SweepSpec(
        base=McpParams(3e-2, 2.0, 0.05, 2),
        rd_grid=tuple(np.geomspace(0.05, 50.0, 100)),
        connect_range=5.0,
        k_values=(1, 2, 3, 4),
    )
    chunk_rows = analytic._CHUNK_CELLS // analytic._row_cells(max(spec.k_values) - 1)
    built = _kernels_built(monkeypatch, lambda: sweep(spec, SweepMetric.CACHE_HIT, hold=hold))
    assert chunk_rows < 100
    assert built == math.ceil(100 / chunk_rows)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_curves_match_corollaries(fig1_params, k):
    closed_forms = ((CurveKind.CONTACT, corollary_contact_cdf), (CurveKind.NND, corollary_nnd_cdf))
    for kind, closed in closed_forms:
        curve = distribution_curve(kind, k, fig1_params, num=512)
        assert curve.radii.size == 512
        worst = max(
            abs(v - closed(float(r), k, fig1_params)) for r, v in zip(curve.radii, curve.values)
        )
        assert worst <= 1e-12, (kind, worst)


def test_long_high_order_curve_working_set_is_bounded(fig1_params):
    # Unchunked, the order-64 Poisson sums alone would take
    # 20,000 radii x 64 orders x 65 nodes x 8 bytes, about 666 MB.
    tracemalloc.start()
    try:
        curve = distribution_curve(CurveKind.CONTACT, 64, fig1_params, r_max=600.0, num=20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert curve.values[0] == 0.0 and curve.values[-1] > 0.5
    assert peak < 32 * 2**20, peak


@pytest.mark.parametrize("mbar", [5.0, 170.0, 1e3])
def test_small_rd_limit_table_equals_pointwise_calls_beyond_double_factorials(mbar):
    # From k = 172 (mbar = 5) or k = 140 (mbar = 170) some mbar^j / j! take
    # the log-space route; entries still equal the one-order calls.
    p = McpParams(lambda_p=2e-5, mbar=mbar, rd=50.0, n=2)
    radii = [0.0, 10.0, 100.0]
    ks = list(range(1, 301))
    table = analytic.cdf_table(CurveKind.NND_SMALL_RD_LIMIT, radii, ks, p)
    for i, k in enumerate(ks):
        for j, r in enumerate(radii):
            assert table[i, j] == cdf_nnd_small_rd_limit(r, k, p), (k, r)


@pytest.mark.parametrize("radii, values, message", [
    ([0.0, 1.0], [0.0], "matching 1-D arrays"),
    ([], [], "matching 1-D arrays"),
    ([0.0, 1.0, 1.0], [0.0, 0.5, 1.0], "strictly increasing"),
    ([0.0, 1.0], [0.0, 1.5], "lie in \\[0, 1\\]"),
    ([0.0, 1.0, 2.0], [0.0, 0.5, 0.4], "nondecreasing"),
])
def test_curve_rejects_what_is_not_a_sampled_cdf(fig1_params, radii, values, message):
    with pytest.raises(ValueError, match=message):
        DistributionCurve(radii, values, CurveKind.CONTACT, 1, fig1_params)


class TestNonFinite:
    def test_curve_rejects_non_finite_values_and_radii(self, fig1_params):
        for radii, values in (([0.0, 1.0], [0.0, math.nan]), ([0.0, math.inf], [0.0, 1.0])):
            with pytest.raises(ValueError, match="finite"):
                DistributionCurve(radii, values, CurveKind.CONTACT, 1, fig1_params)

    def test_table_raises_before_clipping(self, fig1_params, monkeypatch):
        # A NaN PMF used to come out of the clip as a CDF value of 0.0.
        def nan_pmf(kernel, m_max):
            return np.full((kernel.t.shape[0], m_max + 1), math.nan)

        monkeypatch.setattr(analytic, "_count_pmf", nan_pmf)
        for kind in POINTWISE:
            with pytest.raises(ValueError, match="not finite") as info:
                analytic.cdf_table(kind, [0.0, 10.0, 20.0], [2], fig1_params)
            # r = 0 is a CDF value of 0 except in the small-rd limit.
            first = 0.0 if kind is CurveKind.NND_SMALL_RD_LIMIT else 10.0
            assert str(info.value) == f"the {kind.value} CDF for k=2 at r={first!r} is not finite"


@pytest.mark.parametrize("ks, message", [
    ([], "need at least one order k"),
    (np.array([], dtype=int), "need at least one order k"),
    ([1, 0], "k must be an integer"),
])
def test_table_orders_are_checked(fig1_params, ks, message):
    for kind in POINTWISE:
        with pytest.raises(ValueError, match=message):
            analytic.cdf_table(kind, [10.0, 20.0], ks, fig1_params)


@pytest.mark.parametrize("r_max, num, message", [
    (-1.0, 512, "r_max must be finite and nonnegative, got -1.0"),
    (math.inf, 512, "r_max must be finite and nonnegative, got inf"),
    (100.0, 1, "grid needs at least 2 points, got 1"),
])
def test_curves_check_their_grid(fig1_params, r_max, num, message):
    with pytest.raises(ValueError, match=message):
        distribution_curves(CurveKind.CONTACT, [1, 2], fig1_params, r_max=r_max, num=num)


def test_table_parameter_rows_are_checked(fig1_params):
    with pytest.raises(ValueError, match=r"need one McpParams or one per radius \(3\), got 2"):
        analytic.cdf_table(CurveKind.CONTACT, [1.0, 2.0, 3.0], [1], [fig1_params] * 2)
    rows = [fig1_params, McpParams(2e-5, 5.0, 50.0, 3)]
    with pytest.raises(ValueError, match="every parameter row must have the same dimension n"):
        analytic.cdf_table(CurveKind.CONTACT, [1.0, 2.0], [1], rows)


def test_palm_lens_is_built_once_and_only_when_read(fig1_params, monkeypatch):
    # Contact tables read only the stationary pair; the Palm pair's lens is
    # one more call, made on first use, whose rows are the ones a
    # one-radius kernel gives.
    calls, lens = [], analytic.lens_share

    def counted(*args):
        calls.append(args[2].shape)
        return lens(*args)

    monkeypatch.setattr(analytic, "lens_share", counted)
    radii = np.linspace(0.0, 300.0, 7)
    analytic.cdf_table(CurveKind.CONTACT, radii, [1, 3], fig1_params)
    assert len(calls) == 1
    kernel = analytic._Kernel(radii, fig1_params)
    q = analytic._poisson_sums(*kernel._palm, 0, 4)
    factor = kernel.palm_factor(0.5)
    assert len(calls) == 3 and calls[1] == calls[2]
    for i, r in enumerate(radii):
        single = analytic._Kernel([r], fig1_params)
        assert q[i].tobytes() == analytic._poisson_sums(*single._palm, 0, 4)[0].tobytes()
        assert factor[i] == single.palm_factor(0.5)[0]


@pytest.mark.parametrize("k", [[0], [0, 1, 2], [63], [64], list(range(60, 130)), [4095],
                               [4096], [4097, 4098]])
def test_log_factorial_prefixes_match_each_entry(k):
    # Orders up to the cap read a table prefix; higher ones call lgam.
    expected = np.array([analytic.lgam(j + 1.0) for j in k])
    assert analytic._log_factorials(np.array(k)).tobytes() == expected.tobytes()
