"""kth contact and nearest-neighbor distance distributions of n-D Matern
cluster processes, with a Monte Carlo validation harness."""

__version__ = "0.3.0"

from .analytic import (
    CurveKind,
    DistributionCurve,
    McpParams,
    PmfVector,
    cdf_contact,
    cdf_nnd,
    cdf_nnd_small_rd_limit,
    count_pmf,
    distribution_curve,
    distribution_curves,
    h_coefficient,
    palm_count_pmf,
    pgf_count,
    pgf_count_palm,
    ppp_cdf_contact,
    q_weight,
    quantile_radius,
)
from .apps import (
    SweepMetric,
    SweepSpec,
    cache_hit_probability,
    connectivity_probability,
    sweep,
)
from .geometry import ball_volume, intersection_volume, unit_ball_volume
from .simulator import (
    CensoringError,
    EmpiricalCdf,
    SimConfig,
    ks_distance,
    simulate_kth_distances,
    validate_against_analytic,
)

__all__ = [
    "CensoringError",
    "CurveKind",
    "DistributionCurve",
    "EmpiricalCdf",
    "McpParams",
    "PmfVector",
    "SimConfig",
    "SweepMetric",
    "SweepSpec",
    "__version__",
    "ball_volume",
    "cache_hit_probability",
    "cdf_contact",
    "cdf_nnd",
    "cdf_nnd_small_rd_limit",
    "connectivity_probability",
    "count_pmf",
    "distribution_curve",
    "distribution_curves",
    "h_coefficient",
    "intersection_volume",
    "ks_distance",
    "palm_count_pmf",
    "pgf_count",
    "pgf_count_palm",
    "ppp_cdf_contact",
    "q_weight",
    "quantile_radius",
    "simulate_kth_distances",
    "sweep",
    "unit_ball_volume",
    "validate_against_analytic",
]
