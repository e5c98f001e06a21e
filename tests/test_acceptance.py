"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to stream them)
and fails loudly if its criterion is not met.
"""

import math
import os
import subprocess
import sys

import numpy as np

from mcpdist import (
    McpParams,
    SweepMetric,
    SweepSpec,
    cdf_contact,
    cdf_nnd,
    cdf_nnd_small_rd_limit,
    connectivity_probability,
    count_pmf,
    ppp_cdf_contact,
    q_weight,
    sweep,
    validate_against_analytic,
)
from mcpdist.analytic import log_pgf_count

from oracles import (
    corollary_contact_cdf,
    corollary_nnd_cdf,
    count_pmf_partition,
    log_pgf_count_1d,
)

FIG1 = McpParams(lambda_p=2e-5, mbar=5.0, rd=50.0, n=2)
FIG2_LAMBDAS = (3e-2, 1.3e-2, 0.4e-2)
FIG3_LAMBDAS = (4.5e-2, 3.5e-2, 2e-2)
R = 5.0
MBAR = 2.0

PARAM_SETS = [
    FIG1,
    McpParams(lambda_p=0.05, mbar=2.0, rd=1.0, n=2),
    McpParams(lambda_p=0.02, mbar=3.0, rd=2.0, n=3),
]


def report(criterion, description, passed, detail):
    marker = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion:>2} {marker} {description}: {detail}")
    assert passed, f"criterion {criterion} ({description}): {detail}"


def test_criterion_01_fig1_reproduction(monkeypatch):
    monkeypatch.setenv("MCPDIST_THREADS", "4")
    rows = validate_against_analytic(FIG1, [1, 2, 3, 4], samples=100_000, seed=1)
    worst = {"cd": 0.0, "nnd": 0.0}
    for row in rows:
        worst[row.kind] = max(worst[row.kind], row.ks)
    passed = worst["cd"] <= 0.015 and worst["nnd"] <= 0.015
    report(1, "Fig.1 KS <= 0.015 at 1e5 samples",
           passed, f"max KS cd={worst['cd']:.5f} nnd={worst['nnd']:.5f}")


def test_criterion_02_corollary_cross_checks():
    worst = 0.0
    for p in PARAM_SETS:
        grid = np.linspace(0.0, 5.0 * p.rd, 100)
        for r in grid:
            for k in (1, 2, 3):
                worst = max(worst, abs(cdf_contact(r, k, p) - corollary_contact_cdf(r, k, p)))
                worst = max(worst, abs(cdf_nnd(r, k, p) - corollary_nnd_cdf(r, k, p)))
    report(2, "general CDFs equal k<=3 corollary forms within 1e-12",
           worst <= 1e-12, f"max |diff|={worst:.2e}")


def test_criterion_03_faa_di_bruno_vs_recurrence():
    worst = 0.0
    for lam_p in (1e-5, 1e-4, 1e-3):
        for mbar in (1.0, 5.0, 10.0):
            p = McpParams(lambda_p=lam_p, mbar=mbar, rd=50.0, n=2)
            rec = count_pmf(75.0, p, m_max=12).probs
            fdb = count_pmf_partition(75.0, p, 12).probs
            rel = np.abs(rec - fdb) / np.maximum(np.maximum(rec, fdb), 1e-300)
            worst = max(worst, float(rel.max()))
    report(3, "partition-sum PMF equals recurrence within 1e-10 relative (m<=12)",
           worst <= 1e-10, f"max rel diff={worst:.2e}")


def test_criterion_04_one_dimensional_closed_form():
    p = McpParams(lambda_p=0.1, mbar=1.0, rd=1.0, n=1)
    worst = 0.0
    for r in (0.4, 2.0):  # r < rd and r > rd
        for s in (0.0, 0.3, 0.7, 1.0):
            worst = max(worst, abs(log_pgf_count(s, r, p) - log_pgf_count_1d(s, r, p)))
    report(4, "quadrature g(s) equals 1-D closed form within 1e-8",
           worst <= 1e-8, f"max |diff|={worst:.2e}")


def test_criterion_05_q_normalization():
    rd = FIG1.rd
    bounds = []
    for r in (rd / 2.0, rd, 2.0 * rd, 4.0 * rd):
        total, j, peak, below = 0.0, 0, 0.0, 0
        while True:
            q = q_weight(r, j, FIG1)
            total += q
            peak = max(peak, q)
            below = below + 1 if q < 1e-14 * peak else 0
            if (j >= 5 and below >= 5) or j >= 400:
                break
            j += 1
        bounds.append(total)
    passed = all(1.0 - 1e-6 <= t <= 1.0 + 1e-9 for t in bounds)
    report(5, "adaptive q sums inside [1-1e-6, 1+1e-9]",
           passed, f"sums={['%.12f' % t for t in bounds]}")


def test_criterion_06_stochastic_dominance():
    worst = 0.0
    for p in PARAM_SETS:
        for r in np.linspace(0.1, 5.0 * p.rd, 20):
            for k in range(1, 7):
                worst = max(worst, cdf_contact(r, k, p) - cdf_nnd(r, k, p))
    report(6, "neighbor CCDF never exceeds contact CCDF beyond 1e-10",
           worst <= 1e-10, f"max (F_cd - F_nnd)={worst:.2e}")


def test_criterion_07_asymptotic_limits():
    worst_ppp, worst_collapse = 0.0, 0.0
    for lam_p, mbar, n in ((0.01, 2.0, 2), (0.05, 5.0, 2), (0.02, 3.0, 3)):
        for r in (1.0, 5.0):
            p = McpParams(lambda_p=lam_p, mbar=mbar, rd=1000.0 * r, n=n)
            for k in (1, 2, 3):
                cd = cdf_contact(r, k, p)
                worst_ppp = max(worst_ppp, abs(cd - ppp_cdf_contact(r, k, lam_p * mbar, n)))
                worst_collapse = max(worst_collapse, abs(cdf_nnd(r, k, p) - cd))
    worst_small = 0.0
    for k in (1, 2, 3):
        p = McpParams(lambda_p=0.01, mbar=2.0, rd=1e-3 * 5.0, n=2)
        worst_small = max(
            worst_small, abs(cdf_nnd(5.0, k, p) - cdf_nnd_small_rd_limit(5.0, k, p))
        )
    passed = worst_ppp <= 1e-3 and worst_collapse <= 1e-3 and worst_small <= 1e-4
    report(7, "rd->inf PPP limits within 1e-3 and rd->0 limit within 1e-4",
           passed,
           f"|cd-ppp|={worst_ppp:.2e} |nnd-cd|={worst_collapse:.2e} |nnd-limit|={worst_small:.2e}")


def test_criterion_08_first_connection_monotone():
    worst = math.inf
    for lam_p in FIG2_LAMBDAS:
        grid = np.geomspace(R / 100.0, 10.0 * R, 20)
        vals = [connectivity_probability(R, 1, McpParams(lam_p, MBAR, rd, 2)) for rd in grid]
        worst = min([b - a for a, b in zip(vals, vals[1:])] + [worst])
    report(8, "p_1 nondecreasing across the rd grid for all Fig.2 intensities",
           worst >= -1e-12, f"min adjacent increment={worst:.2e}")


def test_criterion_09_sweep_endpoints():
    worst = 0.0
    for metric, lambdas in (
        (SweepMetric.CONNECTIVITY, FIG2_LAMBDAS),
        (SweepMetric.CACHE_HIT, FIG3_LAMBDAS),
    ):
        for lam_p in lambdas:
            base = McpParams(lam_p, MBAR, 1.0, 2)
            spec = SweepSpec(base, (1000.0 * R,), R, (1, 2, 3, 4))
            rows = sweep(spec, metric)
            data = {row.k: row.value for row in rows if not math.isinf(row.rd)}
            ref = {row.k: row.value for row in rows if math.isinf(row.rd)}
            worst = max(worst, max(abs(data[k] - ref[k]) for k in (1, 2, 3, 4)))
    report(9, "rd=1000R sweep endpoints match the PPP reference within 1e-2",
           worst <= 1e-2, f"max |metric - ppp|={worst:.2e}")


def test_criterion_10_validate_determinism():
    argv = [
        sys.executable, "-m", "mcpdist", "validate", "--k-max", "3",
        "--samples", "2000", "--seed", "12", "--n", "2",
        "--lambda-p", "2e-5", "--mbar", "5", "--rd", "50",
    ]
    outputs = []
    for threads in ("1", "1", "8"):
        env = dict(os.environ, MCPDIST_THREADS=threads)
        proc = subprocess.run(argv, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    passed = outputs[0] == outputs[1] == outputs[2]
    report(10, "validate output byte-identical across reruns and 1 vs 8 threads",
           passed, f"{len(outputs[0])} bytes")
