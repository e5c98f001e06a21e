"""Every exported name resolves, so a removal cannot leave a dangling export,
and each module exports exactly its listed names, so none is dropped unnoticed."""

import importlib

import pytest

PUBLIC_API = {
    "mcpdist": [
        "CensoringError", "CurveKind", "DistributionCurve", "EmpiricalCdf", "McpParams",
        "PmfVector", "SimConfig", "SweepMetric", "SweepSpec", "__version__", "ball_volume",
        "cache_hit_probability", "cdf_contact", "cdf_nnd", "cdf_nnd_small_rd_limit",
        "connectivity_probability", "count_pmf", "distribution_curve", "distribution_curves",
        "h_coefficient", "intersection_volume", "ks_distance", "palm_count_pmf", "pgf_count",
        "pgf_count_palm", "ppp_cdf_contact", "q_weight", "quantile_radius",
        "simulate_kth_distances", "sweep", "unit_ball_volume", "validate_against_analytic",
    ],
    "mcpdist._special": ["betainc_half_scaled", "gammainc", "gammaincc", "lgam", "log_factorials"],
    "mcpdist.analytic": [
        "CurveKind", "DistributionCurve", "McpParams", "PmfVector", "cdf_contact", "cdf_nnd",
        "cdf_nnd_small_rd_limit", "cdf_table", "count_pmf", "distribution_curve",
        "distribution_curves", "h_coefficient", "log_pgf_count", "palm_count_pmf", "pgf_count",
        "pgf_count_palm", "ppp_cdf_contact", "q_weight", "quantile_radius",
    ],
    "mcpdist.apps": [
        "SweepMetric", "SweepRow", "SweepSpec", "cache_hit_probability",
        "connectivity_probability", "sweep",
    ],
    "mcpdist.cli": ["main"],
    "mcpdist.geometry": ["unit_ball_volume", "ball_volume", "intersection_volume", "lens_share"],
    "mcpdist.simulator": [
        "CensoringError", "EmpiricalCdf", "SimConfig", "ValidationReport", "ValidationRow",
        "ks_distance", "simulate_kth_distances", "validate_against_analytic", "write_raw_samples",
    ],
}


@pytest.mark.parametrize("name", sorted(PUBLIC_API))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


@pytest.mark.parametrize("name", sorted(PUBLIC_API))
def test_exports_are_the_listed_names(name):
    assert importlib.import_module(name).__all__ == PUBLIC_API[name]
