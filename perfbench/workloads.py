"""The benchmark workloads: CLI invocations, units of work, and the
correctness check of their outputs.

Two workloads are run: `analytic` (the curves, sweep and pmf_deep parts
below, in one repetition) and `montecarlo`.  Each turns a seed into fixed
inputs.  The analytic parts multiply lambda_p and mbar by independent
factors drawn uniformly from [1 - JITTER, 1 + JITTER]; montecarlo keeps
the fig1 parameters and passes the seed to `validate`.

Every class has `n_outputs`, one output file per CLI invocation.  A
workload's `part_of` names the part each invocation belongs to, and its
`speedup` is None or a simulator config that the traced run times at one
and at two workers.  `check(texts, codes)` returns one list of problems
per invocation (empty when the output is correct) and the largest
deviation from the independent reference.  `perturbations(texts)` yields
deliberately broken copies of correct outputs that the check must
reject.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma

import reference

JITTER = 0.01

FIG1 = {"lambda_p": 2e-5, "mbar": 5.0, "rd": 50.0}
CDF_TOL = 1e-8  # absolute, against the independent reference
CURVE_TAIL = 1e-4
MONOTONE_SLACK = 1e-12
PMF_MASS_TOL = 1e-12
PMF_MEAN_RTOL = 1e-8
KS_FACTOR = 1.5 * 1.36  # the simulator's threshold: 1.5x the 95% DKW band
MAX_CENSORED = 0.01


def _jitter(rng, value):
    return float(value * (1.0 + JITTER * rng.uniform(-1.0, 1.0)))


def _header(text):
    first = text.split("\n", 1)[0]
    if not first.startswith("# "):
        raise ValueError("missing '# command=' header")
    return dict(field.split("=", 1) for field in first[2:].split())


def _rows(text, columns):
    lines = text.rstrip("\n").split("\n")
    if len(lines) < 2 or lines[1] != columns:
        raise ValueError(f"expected column line {columns!r}")
    return [line.split(",") for line in lines[2:]]


def _shift_value(text, row_index, column, delta):
    lines = text.split("\n")
    fields = lines[2 + row_index].split(",")
    fields[column] = repr(float(fields[column]) + delta)
    lines[2 + row_index] = ",".join(fields)
    return "\n".join(lines)


class Curves:
    """kth CD and NND CDFs for k = 1..4 at fig1 on the auto 512-point grid."""

    name = "curves"
    n_outputs = 2
    K = (1, 2, 3, 4)
    POINTS = 512

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 1])
        self.params = {"lambda_p": _jitter(rng, FIG1["lambda_p"]), "mbar": _jitter(rng, FIG1["mbar"]),
                       "rd": FIG1["rd"]}
        self.kinds = ("cd", "nnd")

    def invocations(self, outputs):
        p = self.params
        return [["cdf", "--kind", kind, "--k", ",".join(map(str, self.K)), "--n", "2",
                 "--lambda-p", repr(p["lambda_p"]), "--mbar", repr(p["mbar"]), "--rd", repr(p["rd"]),
                 "--output", out] for kind, out in zip(self.kinds, outputs)]

    def units(self, texts):
        return sum(len(_rows(t, "r,k,cdf")) for t in texts)

    def check(self, texts, codes):
        problems, worst = [], 0.0
        for kind, text, code in zip(self.kinds, texts, codes):
            errs = [] if code == 0 else [f"exit code {code}"]
            if not errs:
                try:
                    err = self._check_curve(kind, text, errs)
                    worst = max(worst, err)
                except (ValueError, KeyError, IndexError) as exc:
                    errs.append(f"unparseable output: {exc}")
            problems.append(errs)
        return problems, worst

    def _check_curve(self, kind, text, errs):
        p = self.params
        grid_max = float(_header(text)["grid_max"])
        rows = _rows(text, "r,k,cdf")
        grid = np.linspace(0.0, grid_max, self.POINTS)
        if len(rows) != len(self.K) * self.POINTS:
            errs.append(f"{kind}: {len(rows)} rows, expected {len(self.K) * self.POINTS}")
            return 0.0
        r = np.array([float(row[0]) for row in rows]).reshape(len(self.K), self.POINTS)
        k = np.array([int(row[1]) for row in rows]).reshape(len(self.K), self.POINTS)
        values = np.array([float(row[2]) for row in rows]).reshape(len(self.K), self.POINTS)
        if not (np.array_equal(k[:, 0], self.K) and (k == k[:, :1]).all() and (r == grid).all()):
            errs.append(f"{kind}: rows are not the k x radius grid")
            return 0.0
        if values.min() < 0.0 or values.max() > 1.0:
            errs.append(f"{kind}: CDF value outside [0, 1]")
        if np.diff(values, axis=1).min() < -MONOTONE_SLACK:
            errs.append(f"{kind}: CDF decreases")
        if values[:, -1].min() < 1.0 - CURVE_TAIL:
            errs.append(f"{kind}: CDF ends at {values[:, -1].min()!r} < 1 - {CURVE_TAIL}")
        ref_fn = reference.contact_cdf if kind == "cd" else reference.nnd_cdf
        expected = ref_fn(grid, p["lambda_p"], p["mbar"], p["rd"], max(self.K)).T
        err = float(np.abs(values - expected).max())
        if not err <= CDF_TOL:
            errs.append(f"{kind}: deviates from the reference by {err:.3e} > {CDF_TOL}")
        return err

    def perturbations(self, texts):
        text = texts[0]
        rows = _rows(text, "r,k,cdf")
        mid = next(i for i, row in enumerate(rows) if 0.2 < float(row[2]) < 0.8)
        yield "CDF value +1e-6", [_shift_value(text, mid, 2, 1e-6)] + list(texts[1:])


class MonteCarlo:
    """`validate --k-max 4` at fig1: simulator against the analytic curves."""

    name = "montecarlo"
    unit = "simulated runs"
    n_outputs = 1
    SAMPLES = 50_000
    K_MAX = 4
    # One stationary simulate_kth_distances config, timed at 1 and 2 workers.
    speedup = {"params": {**FIG1, "n": 2}, "radius": 450.0, "samples": 10_000, "seed": 1, "max_k": K_MAX}

    def __init__(self, seed):
        self.seed = seed
        self.params = dict(FIG1)
        self.part_of = [self.name]

    def invocations(self, outputs):
        p = self.params
        return [["validate", "--k-max", str(self.K_MAX), "--samples", str(self.SAMPLES),
                 "--seed", str(self.seed), "--n", "2", "--lambda-p", repr(p["lambda_p"]),
                 "--mbar", repr(p["mbar"]), "--rd", repr(p["rd"]), "--output", outputs[0]]]

    def units(self, texts):
        return 2 * self.SAMPLES  # stationary and Palm runs

    def check(self, texts, codes):
        errs = [] if codes[0] == 0 else [f"exit code {codes[0]}"]
        try:
            self._check_report(texts[0], errs)
        except (ValueError, KeyError, IndexError) as exc:
            errs.append(f"unparseable output: {exc}")
        return [errs], 0.0

    def _check_report(self, text, errs):
        lines = text.rstrip("\n").split("\n")
        rows = [dict(f.split("=", 1) for f in line.split()) for line in lines[1:-1]]
        expected = [(kind, str(k)) for kind in ("cd", "nnd") for k in range(1, self.K_MAX + 1)]
        if [(row["kind"], row["k"]) for row in rows] != expected:
            errs.append("rows are not cd/nnd x k = 1..4")
            return
        dkw = KS_FACTOR / math.sqrt(self.SAMPLES)
        for row in rows:
            ks, threshold, censored = (float(row[key]) for key in ("ks", "threshold", "censored_fraction"))
            label = f"{row['kind']} k={row['k']}"
            if not threshold <= dkw * (1.0 + 1e-12):
                errs.append(f"{label}: threshold {threshold!r} above the DKW value {dkw!r}")
            if not ks <= threshold:
                errs.append(f"{label}: KS {ks!r} > threshold {threshold!r}")
            if not censored <= MAX_CENSORED:
                errs.append(f"{label}: censored fraction {censored!r} > {MAX_CENSORED}")
        if lines[-1] != "overall=pass":
            errs.append(f"last line {lines[-1]!r}")

    def perturbations(self, texts):
        lines = texts[0].split("\n")
        fields = dict(f.split("=", 1) for f in lines[3].split())
        lines[3] = lines[3].replace(f"ks={fields['ks']}", f"ks={float(fields['threshold']) * 1.01!r}")
        yield "KS row over threshold", ["\n".join(lines)]


class Sweep:
    """fig2 connectivity and fig3 cache-hit sweeps over 100 cluster radii."""

    name = "sweep"
    n_outputs = 2
    R = 5.0
    RD_POINTS = 100
    K = (1, 2, 3, 4)
    METRICS = (("connectivity", (3e-2, 1.3e-2, 0.4e-2)), ("cache", (4.5e-2, 3.5e-2, 2e-2)))

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 2])
        self.mbar = _jitter(rng, 2.0)
        self.lambdas = [[_jitter(rng, lam) for lam in lams] for _, lams in self.METRICS]

    def invocations(self, outputs):
        return [["sweep", "--metric", metric, "--lambda-p", ",".join(map(repr, lams)),
                 "--mbar", repr(self.mbar), "--R", repr(self.R), "--rd-points", str(self.RD_POINTS),
                 "--output", out]
                for (metric, _), lams, out in zip(self.METRICS, self.lambdas, outputs)]

    def units(self, texts):
        return sum(len(_rows(t, "lambda_p,rd,k,value")) for t in texts)

    def check(self, texts, codes):
        problems, worst = [], 0.0
        for (metric, _), lams, text, code in zip(self.METRICS, self.lambdas, texts, codes):
            errs = [] if code == 0 else [f"exit code {code}"]
            if not errs:
                try:
                    worst = max(worst, self._check_sweep(metric, lams, text, errs))
                except (ValueError, KeyError, IndexError) as exc:
                    errs.append(f"unparseable output: {exc}")
            problems.append(errs)
        return problems, worst

    def _check_sweep(self, metric, lams, text, errs):
        rows = _rows(text, "lambda_p,rd,k,value")
        rd_grid = np.geomspace(self.R / 100.0, 10.0 * self.R, self.RD_POINTS)
        want = len(lams) * (self.RD_POINTS + 1) * len(self.K)
        if len(rows) != want:
            errs.append(f"{metric}: {len(rows)} rows, expected {want}")
            return 0.0
        ref_fn = reference.contact_cdf if metric == "connectivity" else reference.nnd_cdf
        worst = 0.0
        for i, lam in enumerate(lams):
            block = rows[i * len(rd_grid) * len(self.K) + i * len(self.K):][: (len(rd_grid) + 1) * len(self.K)]
            if any(float(row[0]) != lam for row in block):
                errs.append(f"{metric}: rows for lambda_p={lam!r} out of place")
                continue
            swept, ppp = block[: -len(self.K)], block[-len(self.K):]
            rd = np.array([float(row[1]) for row in swept]).reshape(len(rd_grid), len(self.K))
            k = np.array([int(row[2]) for row in swept]).reshape(len(rd_grid), len(self.K))
            values = np.array([float(row[3]) for row in swept]).reshape(len(rd_grid), len(self.K))
            if not ((rd == rd_grid[:, None]).all() and (k == self.K).all()):
                errs.append(f"{metric}: rows are not the rd x k grid")
                continue
            if values.min() < 0.0 or values.max() > 1.0:
                errs.append(f"{metric}: value outside [0, 1]")
            err = float(np.abs(values - ref_fn(self.R, lam, self.mbar, rd_grid, max(self.K))).max())
            worst = max(worst, err)
            if not err <= CDF_TOL:
                errs.append(f"{metric}: lambda_p={lam!r} deviates from the reference by {err:.3e}")
            for k_value, row in zip(self.K, ppp):
                exact = reference.ppp_contact_cdf(self.R, k_value, lam * self.mbar)
                if row[1] != "inf" or int(row[2]) != k_value or float(row[3]) != exact:
                    errs.append(f"{metric}: PPP row {','.join(row)} != gammainc value {exact!r}")
        return worst

    def perturbations(self, texts):
        rows = _rows(texts[0], "lambda_p,rd,k,value")
        mid = next(i for i, row in enumerate(rows) if 0.2 < float(row[3]) < 0.8)
        yield "sweep value +1e-6", [_shift_value(texts[0], mid, 3, 1e-6)] + list(texts[1:])


class PmfDeep:
    """Adaptive PMF dumps that need 1,000-3,200 orders."""

    name = "pmf_deep"
    n_outputs = 3
    # (n, lambda_p, mbar, rd, r, palm): log-space, dense Palm, n = 5 Palm.
    CASES = ((2, 350.0, 0.2, 0.2, 2.0, False), (2, 2e-5, 50.0, 50.0, 300.0, True),
             (5, 0.02, 3.0, 2.0, 6.0, True))

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 3])
        self.cases = [(n, _jitter(rng, lam), _jitter(rng, mbar), rd, r, palm)
                      for n, lam, mbar, rd, r, palm in self.CASES]

    def invocations(self, outputs):
        return [["pmf", "--n", str(n), "--lambda-p", repr(lam), "--mbar", repr(mbar), "--rd", repr(rd),
                 "--r", repr(r), *(["--palm"] if palm else []), "--output", out]
                for (n, lam, mbar, rd, r, palm), out in zip(self.cases, outputs)]

    def units(self, texts):
        return sum(len(_rows(t, "m,probability")) for t in texts)

    def check(self, texts, codes):
        problems, worst = [], 0.0
        for case, text, code in zip(self.cases, texts, codes):
            errs = [] if code == 0 else [f"exit code {code}"]
            if not errs:
                try:
                    worst = max(worst, self._check_pmf(case, text, errs))
                except (ValueError, KeyError, IndexError) as exc:
                    errs.append(f"unparseable output: {exc}")
            problems.append(errs)
        return problems, worst

    @staticmethod
    def _check_pmf(case, text, errs):
        n, lam, mbar, rd, r, palm = case
        head = _header(text)
        rows = _rows(text, "m,probability")
        probs = np.array([float(row[1]) for row in rows])
        label = f"n={n} lambda_p={lam!r}"
        if [int(row[0]) for row in rows] != list(range(int(head["m_max"]) + 1)):
            errs.append(f"{label}: orders are not 0..m_max")
        if probs.min() < 0.0:
            errs.append(f"{label}: negative probability")
        mass_gap = abs(math.fsum(probs) - (1.0 - float(head["truncation_mass"])))
        if not mass_gap <= PMF_MASS_TOL:
            errs.append(f"{label}: mass differs from 1 - truncation_mass by {mass_gap:.3e}")
        # Campbell: E N = lambda_p mbar v_n r^n.  Under Palm the typical
        # point's own cluster adds mbar siblings, all within r because r >= 2 rd.
        v_n = math.pi ** (n / 2) / gamma(n / 2 + 1)
        mean = lam * mbar * v_n * r**n + (mbar if palm else 0.0)
        rel = abs(float(np.dot(np.arange(probs.size), probs)) / mean - 1.0)
        if not rel <= PMF_MEAN_RTOL:
            errs.append(f"{label}: mean off Campbell's value by {rel:.3e} relative")
        return float(rel)

    def perturbations(self, texts):
        yield "PMF mass off by 1e-9", [_shift_value(texts[0], 0, 1, 1e-9)] + list(texts[1:])


class Analytic:
    """The curves, sweep and pmf_deep invocations, in that order, in one repetition."""

    name = "analytic"
    unit = "output rows (CDF points + sweep rows + PMF orders)"
    speedup = None

    def __init__(self, seed):
        self.parts = [Curves(seed), Sweep(seed), PmfDeep(seed)]
        self.n_outputs = sum(part.n_outputs for part in self.parts)
        self.part_of = [part.name for part in self.parts for _ in range(part.n_outputs)]

    def _split(self, items):
        bounds = np.cumsum([0] + [part.n_outputs for part in self.parts])
        return [list(items[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def invocations(self, outputs):
        return [argv for part, outs in zip(self.parts, self._split(outputs)) for argv in part.invocations(outs)]

    def units(self, texts):
        return sum(part.units(t) for part, t in zip(self.parts, self._split(texts)))

    def check(self, texts, codes):
        problems, worst = [], 0.0
        for part, t, c in zip(self.parts, self._split(texts), self._split(codes)):
            part_problems, err = part.check(t, c)
            problems += part_problems
            worst = max(worst, err)
        return problems, worst

    def perturbations(self, texts):
        split = self._split(texts)
        for i, part in enumerate(self.parts):
            for label, broken in part.perturbations(split[i]):
                yield label, [t for j, texts_j in enumerate(split) for t in (broken if j == i else texts_j)]


WORKLOADS = {cls.name: cls for cls in (Analytic, MonteCarlo)}
