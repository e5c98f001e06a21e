"""The figure script writes the library's curves and sweeps, value for value."""

import importlib.util
from pathlib import Path

import numpy as np

from mcpdist import (EmpiricalCdf, McpParams, SweepMetric, SweepSpec, distribution_curves,
                     quantile_radius, sweep, validate_against_analytic)
from mcpdist.analytic import CurveKind

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"
FIG1 = McpParams(lambda_p=2e-5, mbar=5.0, rd=50.0, n=2)
R = 5.0
K_VALUES = (1, 2, 3, 4)


def _load_script():
    spec = importlib.util.spec_from_file_location("reproduce_figures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _csv(path):
    """(column header, rows of fields) after the '#' line."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    return lines[1], [line.split(",") for line in lines[2:]]


def test_figure_files_hold_the_library_values(tmp_path):
    _load_script().main(["--samples", "2000", "--rd-points", "5", "--out", str(tmp_path)])
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fig1_cd.csv", "fig1_nnd.csv", "fig2.csv", "fig3.csv"]

    # The empirical columns are the ECDFs of fig1's validation at the
    # script's default seed: its stationary and its Palm kth distances.
    simulated = validate_against_analytic(FIG1, K_VALUES, 2000, 1).distances
    for index, (name, kind) in enumerate((("fig1_cd.csv", CurveKind.CONTACT),
                                          ("fig1_nnd.csv", CurveKind.NND))):
        header, rows = _csv(tmp_path / name)
        assert header == "r,k,cdf_analytic,cdf_empirical"
        r_max = quantile_radius(kind, max(K_VALUES), FIG1)
        curves = distribution_curves(kind, K_VALUES, FIG1, r_max=r_max, num=256)
        expected = []
        for curve in curves:
            ecdf = EmpiricalCdf.from_distances(simulated[:, index, curve.k - 1], r_max)
            expected += zip(curve.radii.tolist(), [curve.k] * curve.radii.size,
                            curve.values.tolist(), ecdf.evaluate(curve.radii).tolist())
        assert [(float(r), int(k), float(a), float(e)) for r, k, a, e in rows] == expected

    rd_grid = tuple(np.geomspace(R / 100.0, 10.0 * R, 5))
    for name, metric, lambdas in (
        ("fig2.csv", SweepMetric.CONNECTIVITY, (3e-2, 1.3e-2, 0.4e-2)),
        ("fig3.csv", SweepMetric.CACHE_HIT, (4.5e-2, 3.5e-2, 2e-2)),
    ):
        header, rows = _csv(tmp_path / name)
        assert header == "lambda_p,rd,k,value"
        expected = []
        for lam in lambdas:
            spec = SweepSpec(McpParams(lam, 2.0, rd_grid[0], 2), rd_grid, R, K_VALUES)
            expected += [(lam, row.rd, row.k, row.value) for row in sweep(spec, metric)]
        assert [(float(lam), float(rd), int(k), float(v)) for lam, rd, k, v in rows] == expected
