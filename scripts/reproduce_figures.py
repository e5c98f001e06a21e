#!/usr/bin/env python3
"""Regenerate the distance-distribution figures as CSV data.

Writes four files into the output directory:

  fig1_cd.csv    analytic vs empirical kth contact distance CDFs
  fig1_nnd.csv   analytic vs empirical kth neighbor distance CDFs
  fig2.csv       k-connectivity probability vs cluster radius
  fig3.csv       cache-hit probability vs cluster radius (with PPP rows)

The fig1 files carry both the analytic curve and a Monte Carlo ECDF
column so the overlay can be plotted directly; both come from the runs of
one `simulate_kth_distances` call on `validate`'s window, their
stationary distances fig1_cd.csv and their Palm ones fig1_nnd.csv.  The sweeps are written by
the `mcpdist sweep` command.
"""

import argparse
import time
from pathlib import Path

from mcpdist import (EmpiricalCdf, McpParams, SimConfig, distribution_curves, quantile_radius,
                     simulate_kth_distances)
from mcpdist.analytic import CurveKind
from mcpdist.cli import main as cli_main

FIG1 = McpParams(lambda_p=2e-5, mbar=5.0, rd=50.0, n=2)
FIG2_LAMBDAS = (3e-2, 1.3e-2, 0.4e-2)
FIG3_LAMBDAS = (4.5e-2, 3.5e-2, 2e-2)
R = 5.0
MBAR = 2.0
K_VALUES = (1, 2, 3, 4)


def write_fig1(out: Path, samples: int, seed: int) -> None:
    """fig1_cd.csv and fig1_nnd.csv from the stationary and Palm kth distances of fig1's runs.

    The runs are those `validate` draws: its window is the contact CDF's
    tail radius, the larger of the two kinds'; each file's curves, and its
    ECDFs' censoring, end at its own.  Only the runs are needed, so the
    script skips validate's KS rows.
    """
    k_max = max(K_VALUES)
    cfg = SimConfig(FIG1, quantile_radius(CurveKind.CONTACT, k_max, FIG1), samples, seed, k_max)
    for name, kind, distances in zip(("fig1_cd.csv", "fig1_nnd.csv"),
                                     (CurveKind.CONTACT, CurveKind.NND),
                                     simulate_kth_distances(cfg).swapaxes(0, 1)):
        r_max = quantile_radius(kind, max(K_VALUES), FIG1)
        with (out / name).open("w", newline="") as fh:
            fh.write(f"# lambda_p={FIG1.lambda_p!r} mbar={FIG1.mbar!r} rd={FIG1.rd!r} "
                     f"n={FIG1.n} samples={samples} seed={seed}\n")
            fh.write("r,k,cdf_analytic,cdf_empirical\n")
            for curve in distribution_curves(kind, K_VALUES, FIG1, r_max=r_max, num=256):
                ecdf = EmpiricalCdf.from_distances(distances[:, curve.k - 1], r_max)
                empirical = ecdf.evaluate(curve.radii)
                for r, a, e in zip(curve.radii, curve.values, empirical):
                    fh.write(f"{float(r)!r},{curve.k},{float(a)!r},{float(e)!r}\n")


def write_sweep(path: Path, metric: str, lambdas, rd_points: int) -> None:
    """A sweep over rd from R / 100 to 10 R (the CLI default grid) at every k."""
    code = cli_main([
        "sweep", "--metric", metric, "--lambda-p", ",".join(map(repr, lambdas)),
        "--mbar", repr(MBAR), "--R", repr(R), "--n", "2",
        "--k", ",".join(map(str, K_VALUES)), "--rd-points", str(rd_points),
        "--output", str(path),
    ])
    if code != 0:
        raise SystemExit(code)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("figures"))
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rd-points", type=int, default=25)
    args = parser.parse_args(argv)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)

    jobs = [
        ("fig1_cd.csv, fig1_nnd.csv", write_fig1, (out, args.samples, args.seed)),
        ("fig2.csv", write_sweep, (out / "fig2.csv", "connectivity", FIG2_LAMBDAS, args.rd_points)),
        ("fig3.csv", write_sweep, (out / "fig3.csv", "cache", FIG3_LAMBDAS, args.rd_points)),
    ]
    for names, job, job_args in jobs:
        start = time.time()
        job(*job_args)
        print(f"wrote {names} in {out} ({time.time() - start:.1f}s)")

if __name__ == "__main__":
    main()
