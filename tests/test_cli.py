import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcpdist import (
    McpParams,
    SimConfig,
    analytic,
    cdf_contact,
    cdf_nnd,
    ppp_cdf_contact,
    quantile_radius,
    simulator,
)
from mcpdist.analytic import CurveKind
from mcpdist.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = []
    for line in text.splitlines():
        if line.startswith("#") or not line:
            continue
        rows.append(line.split(","))
    return rows[0], rows[1:]


FIG1_ARGS = ["--n", "2", "--lambda-p", "2e-5", "--mbar", "5", "--rd", "50"]


class TestCdfCommand:
    def test_full_curve(self, capsys):
        code, out, _ = run_cli(capsys, "cdf", "--kind", "cd", "--k", "1", *FIG1_ARGS)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["r", "k", "cdf"]
        assert len(rows) == 512
        assert float(rows[0][0]) == 0.0 and float(rows[0][2]) == 0.0
        assert float(rows[-1][2]) >= 1.0 - 1e-4
        assert out.endswith("\n")

    def test_tiny_cluster_radius_computes_at_n_3(self, capsys):
        # rd^3 = 1e-360 underflows; the n = 3 caps are formed from ratios to
        # rd, so each row is its rd = 1 twin's (the parents are too sparse to
        # matter at either scale).
        code, out, err = run_cli(capsys, "cdf", "--kind", "nnd", "--n", "3", "--lambda-p", "1",
                                 "--mbar", "2", "--rd", "1e-120", "--grid-max", "3e-120",
                                 "--grid-points", "4")
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert len(rows) == 4
        twin = McpParams(1e-300, 2.0, 1.0, 3)
        for r, _, value in rows[1:]:
            want = cdf_nnd(float(r) / 1e-120, 1, twin)
            assert float(value) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_degenerate_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "cdf", "--kind", "cd", "--k", "1", "--grid-max", "0", *FIG1_ARGS
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows == [["0.0", "1", "0.0"]]

    @pytest.mark.parametrize("argv, message", [
        (["--grid-max", "nan"], "grid-max must be finite and nonnegative, got nan"),
        (["--grid-max", "-1"], "grid-max must be finite and nonnegative, got -1.0"),
        (["--grid-max", "inf"], "grid-max must be finite and nonnegative, got inf"),
        (["--grid-max", "100", "--grid-points", "1"], "grid-points must be in 2..100000"),
    ])
    def test_bad_grid_exits_2_naming_the_flag(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "cdf", "--kind", "cd", "--k", "1,2", *argv, *FIG1_ARGS)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_rows_match_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "cdf", "--kind", "cd", "--k", "1,3", "--grid-max", "150",
            "--grid-points", "16", *FIG1_ARGS,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 32
        p = McpParams(2e-5, 5.0, 50.0, 2)
        for r_text, k_text, value_text in rows:
            assert float(value_text) == cdf_contact(float(r_text), int(k_text), p)

    def test_nnd_kind_uses_palm_cdf(self, capsys):
        code, out, _ = run_cli(
            capsys, "cdf", "--kind", "nnd", "--k", "2", "--grid-max", "100",
            "--grid-points", "8", *FIG1_ARGS,
        )
        assert code == 0
        _, rows = parse_csv(out)
        p = McpParams(2e-5, 5.0, 50.0, 2)
        for r_text, k_text, value_text in rows:
            assert float(value_text) == cdf_nnd(float(r_text), 2, p)

    def test_tiny_parent_intensity_with_an_overflowing_window_volume(self, capsys):
        # v_n (r + rd)^n overflows, though only about 9 clusters lie within
        # r + rd of the origin at the grid end
        code, out, err = run_cli(capsys, "cdf", "--kind", "cd", "--k", "3", "--lambda-p",
                                 "1e-308", "--mbar", "5", "--rd", "50")
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert len(rows) == 512 and float(rows[-1][2]) >= 1.0 - 1e-4

    def test_missing_parameter_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "cdf", "--kind", "cd", "--n", "2")
        assert code == 2 and "missing" in err

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n": 2, "lambda_p": 2e-5, "mbar": 5, "rd": 50}))
        code, out, _ = run_cli(
            capsys, "cdf", "--config", str(config), "--kind", "cd", "--k", "1",
            "--grid-max", "50", "--grid-points", "4", "--mbar", "7",
        )
        assert code == 0
        p = McpParams(2e-5, 7.0, 50.0, 2)  # flag overrides the config mbar
        _, rows = parse_csv(out)
        assert float(rows[-1][2]) == cdf_contact(50.0, 1, p)

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"bogus": 1}))
        code, _, err = run_cli(capsys, "cdf", "--config", str(config), "--kind", "cd")
        assert code == 2

    def test_mistyped_config_value_exits_2(self, capsys, tmp_path):
        for command, key, value in (("cdf", "k", 2), ("validate", "samples", "100")):
            config = tmp_path / f"{key}.json"
            config.write_text(json.dumps({key: value, "lambda_p": 2e-5, "mbar": 5, "rd": 50}))
            code, _, err = run_cli(capsys, command, "--config", str(config), *(
                ["--kind", "cd"] if command == "cdf" else []))
            assert code == 2
            assert err.startswith("error:") and err.count("\n") == 1 and repr(key) in err

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read config"),
        ("{not json", "cannot read config"),
        ("[2, 5.0]", "config must be a JSON object"),
    ])
    def test_unreadable_config_exits_2(self, capsys, tmp_path, text, message):
        # A missing file, invalid JSON and a JSON array: one error line each.
        config = tmp_path / "run.json"
        if text is not None:
            config.write_text(text)
        code, out, err = run_cli(capsys, "cdf", "--config", str(config), "--kind", "cd")
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


class TestPmfCommand:
    def test_pmf_rows(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--r", "60", "--m-max", "10", *FIG1_ARGS)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["m", "probability"]
        assert len(rows) == 11
        assert "truncation_mass=" in out.splitlines()[0]
        total = sum(float(v) for _, v in rows)
        assert total < 1.0 + 1e-9

    def test_palm_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "pmf", "--r", "60", "--m-max", "5", "--palm", *FIG1_ARGS
        )
        assert code == 0
        assert "palm=1" in out.splitlines()[0]

    def test_negative_radius_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "pmf", "--r", "-1", *FIG1_ARGS)
        assert code == 2

    def test_order_cap_exits_2(self, capsys):
        # expected count ~ 1.6e13, far beyond what an adaptive PMF can reach
        code, out, err = run_cli(
            capsys, "pmf", "--r", "1e6", "--lambda-p", "1", "--mbar", "5", "--rd", "1"
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err

    def test_undecayed_tail_exits_2_naming_the_flag(self, capsys):
        code, out, err = run_cli(
            capsys, "pmf", "--r", "3", "--lambda-p", "1e-6", "--mbar", "4000", "--rd", "1"
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "--m-max" in err


class TestValidateCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--k-max", "2", "--samples", "3000", "--seed", "5",
            *FIG1_ARGS,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "overall=pass"
        assert sum(1 for line in lines if line.startswith("kind=")) == 4
        for line in lines:
            if line.startswith("kind="):
                assert "ks=" in line and "threshold=" in line and "result=pass" in line

    def test_zero_samples_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "validate", "--samples", "0", *FIG1_ARGS)
        assert code == 2

    @pytest.mark.parametrize("argv, config", [
        (["--seed", "-1"], None),
        (["--seed=-1"], None),
        ([], {"seed": -3}),
    ])
    def test_negative_seed_is_named(self, capsys, tmp_path, argv, config):
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "validate", "--samples", "100", *argv, *FIG1_ARGS)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: seed must be a nonnegative integer") and err.count("\n") == 1

    def test_excessive_censoring_exits_4(self, capsys):
        # clamp the observation window far below the k=4 quantile
        code, _, err = run_cli(
            capsys, "validate", "--k-max", "4", "--samples", "500", "--seed", "1",
            "--r-max", "30", *FIG1_ARGS,
        )
        assert code == 4 and "censored" in err

    def test_deterministic_output(self, capsys):
        argv = ["validate", "--k-max", "1", "--samples", "800", "--seed", "9", *FIG1_ARGS]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_dump_samples_schema(self, capsys, tmp_path):
        dump = tmp_path / "raw.csv"
        code, _, _ = run_cli(
            capsys, "validate", "--k-max", "2", "--samples", "50", "--seed", "3",
            "--dump-samples", str(dump), *FIG1_ARGS,
        )
        assert code == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "run,k,distance,censored"
        assert len(lines) == 1 + 50 * 2
        for line in lines[1:]:
            run, k, distance, censored = line.split(",")
            assert censored in ("0", "1")
            assert (distance == "") == (censored == "1")


class TestSweepCommand:
    def test_single_cell(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--metric", "connectivity", "--lambda-p", "3e-2",
            "--mbar", "2", "--R", "5", "--k", "2", "--rd", "1.5",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["lambda_p", "rd", "k", "value"]
        assert len(rows) == 2  # one data row plus the PPP reference
        assert rows[0][1] == "1.5"
        assert rows[1][1] == "inf"
        assert float(rows[0][3]) == cdf_contact(5.0, 2, McpParams(3e-2, 2.0, 1.5, 2))
        assert float(rows[1][3]) == ppp_cdf_contact(5.0, 2, 6e-2, 2)

    def test_overflowing_lambda_p_mbar_keeps_its_reference_row(self, capsys):
        argv = ["sweep", "--metric", "connectivity", "--lambda-p", "1e200", "--mbar", "1e200",
                "--R", "1e-60", "--rd", "1e-60", "--k", "1"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert parse_csv(out)[1] == [["1e+200", "1e-60", "1", "1.0"], ["1e+200", "inf", "1", "1.0"]]

    def test_fig2_panels_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--metric", "connectivity",
            "--lambda-p", "3e-2,1.3e-2,0.4e-2", "--mbar", "2", "--R", "5",
            "--k", "1,2", "--rd-points", "5",
        )
        assert code == 0
        _, rows = parse_csv(out)
        # 3 intensities x (5 grid points + reference) x 2 orders
        assert len(rows) == 3 * 6 * 2
        lambdas = sorted({row[0] for row in rows})
        assert lambdas == ["0.004", "0.013", "0.03"]

    def test_cache_metric_uses_nnd(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--metric", "cache", "--lambda-p", "2e-2", "--mbar", "2",
            "--R", "5", "--k", "1", "--rd", "2.0", "--no-ppp-reference",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0][3]) == cdf_nnd(5.0, 1, McpParams(2e-2, 2.0, 2.0, 2))

    def test_bad_grid_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--metric", "cache", "--lambda-p", "2e-2", "--mbar", "2",
            "--R", "5", "--rd-min", "-1",
        )
        assert code == 2


_SWEEP_ARGS = ["sweep", "--metric", "cache", "--mbar", "2", "--R", "5"]
_CDF_ARGS = ["cdf", "--kind", "cd", *FIG1_ARGS]


@pytest.mark.parametrize("argv, config", [
    ([*_SWEEP_ARGS, "--lambda-p", "0.03", "--rd="], None),
    ([*_SWEEP_ARGS, "--lambda-p", "0.03", "--rd", ","], None),
    ([*_SWEEP_ARGS, "--lambda-p="], None),
    ([*_SWEEP_ARGS, "--lambda-p", "0.03", "--k=,"], None),
    ([*_CDF_ARGS, "--k=,"], None),
    ([*_SWEEP_ARGS, "--lambda-p", "0.03"], {"rd": []}),
    (_SWEEP_ARGS, {"lambda_p": []}),
    ([*_SWEEP_ARGS, "--lambda-p", "0.03"], {"k": []}),
    (_CDF_ARGS, {"k": []}),
])
def test_empty_list_exits_2(capsys, tmp_path, argv, config):
    # An empty list once crashed (rd), printed only the header (lambda-p)
    # or fell back to the default (k).
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "at least one value" in err


class TestSubprocessInterface:
    def test_module_entry_point_byte_identical(self, tmp_path):
        argv = [
            sys.executable, "-m", "mcpdist", "validate", "--k-max", "1",
            "--samples", "600", "--seed", "4", *FIG1_ARGS,
        ]
        first = subprocess.run(argv, capture_output=True)
        second = subprocess.run(argv, capture_output=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_output_file_round_trip(self, tmp_path):
        target = tmp_path / "curve.csv"
        argv = [
            sys.executable, "-m", "mcpdist", "cdf", "--kind", "cd", "--k", "1",
            "--grid-max", "80", "--grid-points", "8", "--output", str(target), *FIG1_ARGS,
        ]
        proc = subprocess.run(argv, capture_output=True)
        assert proc.returncode == 0
        text = target.read_text()
        assert text.startswith("# command=cdf")
        assert text.endswith("\n")

    def test_commands_load_no_scipy(self, tmp_path):
        # The package's only runtime dependency is numpy.  On one thread
        # the commands load neither concurrent.futures (with logging,
        # traceback and queue) nor numpy.polynomial.
        script = f"""
import sys
from mcpdist.cli import main
fig1 = {FIG1_ARGS!r}
out = {str(tmp_path / "out.csv")!r}
codes = [
    main(["cdf", "--kind", "nnd", "--k", "1,2", "--grid-points", "16", *fig1, "-o", out]),
    main(["cdf", "--kind", "cd", "--k", "2", "--n", "5", "--lambda-p", "0.02", "--mbar", "3",
          "--rd", "2", "--grid-points", "8", "-o", out]),
    main(["pmf", "--r", "60", "--palm", *fig1, "-o", out]),
    main(["sweep", "--metric", "connectivity", "--lambda-p", "0.03", "--mbar", "2", "--R", "5",
          "--rd-points", "4", "-o", out]),
    main(["validate", "--k-max", "2", "--samples", "500", "--seed", "5", *fig1, "-o", out]),
]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(sorted(m for m in ("concurrent.futures", "numpy.polynomial") if m in sys.modules))
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "MCPDIST_THREADS": "1"})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:2] == ["[0, 0, 0, 0, 0] []", "[]"]


class TestDumpSamples:
    def test_dump_reuses_the_validated_distances(self, capsys, tmp_path):
        dump = tmp_path / "raw.csv"
        code, _, _ = run_cli(
            capsys, "validate", "--k-max", "3", "--samples", "700", "--seed", "6",
            "--dump-samples", str(dump), *FIG1_ARGS,
        )
        assert code == 0
        p = McpParams(2e-5, 5.0, 50.0, 2)
        radius = quantile_radius(CurveKind.CONTACT, 3, p)
        # The stationary half of validate's one simulation.
        expected = simulator.simulate_kth_distances(SimConfig(p, radius, 700, 6, 3))[:, 0]
        dumped = np.full((700, 3), np.inf)
        for line in dump.read_text().splitlines()[1:]:
            run, k, distance, censored = line.split(",")
            if censored == "0":
                dumped[int(run), int(k) - 1] = float(distance)
        expected[expected > radius] = np.inf
        assert dumped.tobytes() == expected.tobytes()

    def test_unwritable_dump_path_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "validate", "--samples", "10", "--dump-samples",
            str(tmp_path / "missing" / "raw.csv"), *FIG1_ARGS,
        )
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1


class TestFailFast:
    def test_simulator_caps_exit_2_before_any_work(self, capsys):
        for argv in (
            ["--samples", "100", "--n", "2", "--lambda-p", "1e3", "--mbar", "1e3", "--rd", "50"],
            ["--samples", "100000000000", *FIG1_ARGS],
        ):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "validate", *argv)
            assert time.perf_counter() - start < 1.0
            assert code == 2 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1

    def test_high_dimensional_run_fits_the_point_cap(self, capsys):
        # At n = 20 a stationary run draws about 5.5e4 points on average: the
        # parents within rd of its kth distance and their daughters, not
        # the window's.
        code, out, err = run_cli(capsys, "validate", "--k-max", "4", "--samples", "200", "--seed",
                                 "1", "--n", "20", "--lambda-p", "1e-3", "--mbar", "5", "--rd", "1")
        assert code == 0 and err == "" and out.endswith("overall=pass\n")

    @pytest.mark.parametrize("argv, message", [
        # at n = 400 a run draws the daughters of ~1e30 parents within its
        # kth distance + rd, which almost never land inside it
        (["--n", "400", "--lambda-p", "1e-3", "--mbar", "5", "--rd", "1", "--r-max", "10"],
         "points on average"),
        # each Palm run draws its own cluster's ~1e300 siblings
        (["--lambda-p", "2e-5", "--mbar", "1e300", "--rd", "50", "--r-max", "10"],
         "points on average"),
    ])
    def test_unpriceable_runs_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "validate", "--k-max", "2", "--samples", "20", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err and err.count("\n") == 1

    def test_huge_k_max_exits_2_before_any_k_list(self, capsys):
        # The range of orders 1..k_max is checked by its last order before
        # any list of them is built, and the message names it (the fuzz
        # below tries k_max = 10^9).
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "validate", "--k-max", "3000000", "--samples", "100",
                                 *FIG1_ARGS)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: k must be an integer in 1..4096") and err.count("\n") == 1
        assert err.endswith("got 3000000\n")

    def test_dimension_ends_where_the_unit_ball_volume_turns_subnormal(self, capsys):
        argv = ["cdf", "--kind", "cd", "--k", "1", "--grid-max", "10", "--grid-points", "4",
                "--lambda-p", "1e-3", "--mbar", "5", "--rd", "2"]
        code, out, err = run_cli(capsys, *argv, "--n", "435")
        assert code == 0 and err == "" and len(parse_csv(out)[1]) == 4
        code, out, err = run_cli(capsys, *argv, "--n", "436")
        assert code == 2 and out == ""
        assert err == "error: dimension must be an integer in 1..435, got 436\n"

    def test_tiny_cluster_radius_on_the_line_exits_2(self, capsys):
        # At rd = 1e-200 sibling distances square to subnormals, and validate
        # once failed its own KS test (exit 1); rd must be a length in range.
        for rd in ("1e-200", "1e-170"):
            code, out, err = run_cli(capsys, "validate", "--n", "1", "--lambda-p", "0.1",
                                     "--mbar", "2", "--rd", rd, "--k-max", "2", "--samples", "2000")
            assert code == 2 and out == ""
            assert err == f"error: rd must lie in [1e-150, 1e+150], got {float(rd)!r}\n"

    def test_numeric_extremes_exit_2(self, capsys):
        for argv in (
            ["cdf", "--kind", "cd", "--lambda-p", "2e-5", "--mbar", "5", "--rd", "1e200"],
            ["cdf", "--kind", "cd", "--lambda-p", "2e-5", "--mbar", "5", "--rd", "1e-200"],
            ["sweep", "--metric", "cache", "--lambda-p", "1", "--mbar", "1", "--R", "inf"],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("warnings", [[], ["-W", "error::RuntimeWarning"]])
    def test_overflowing_cluster_count_is_one_error_line(self, warnings):
        # lambda_p v_n (r + rd)^n overflows as a product and in logs alike
        argv = [sys.executable, *warnings, "-m", "mcpdist", "cdf", "--n", "1", "--lambda-p", "1e308",
                "--mbar", "1e-300", "--rd", "1", "--kind", "cd", "--k", "1", "--grid-points", "2"]
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: the expected number of clusters")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("warnings", [[], ["-W", "error"]])
    def test_overflowing_lens_is_one_error_line(self, warnings):
        # mbar times the lens's share of the cluster ball overflows: the
        # lens check names it, and no numpy warning precedes that line.
        argv = [sys.executable, *warnings, "-m", "mcpdist", "cdf", "--n", "435",
                "--lambda-p", "1.3480186730565633e+107", "--mbar", "7.041765765271717e+241",
                "--rd", "2.0981352940851747e-56", "--kind", "nnd", "--k", "1,4",
                "--grid-points", "8"]
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: the lens at r=")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv, rows", [
        (["cdf", "--kind", "cd", "--n", "200", "--k", "2", "--grid-max", "40", "--grid-points", "4"],
         4),
        (["cdf", "--kind", "cd", "--n", "400", "--k", "1,4", "--grid-max", "10", "--grid-points",
          "64"], 128),
        (["cdf", "--kind", "nnd", "--n", "400", "--k", "2", "--grid-max", "8"], 512),
        (["sweep", "--metric", "connectivity", "--n", "400", "--R", "7", "--k", "1"], 2),
    ], ids=["cdf-cd-n200", "cdf-cd-n400", "cdf-nnd-n400", "sweep-n400"])
    def test_high_dimensional_lens_computes(self, argv, rows):
        # A cap's ball volume R^n v_n overflows at these n, but the lens's
        # share of the cluster ball does not; no numpy warning reaches stderr.
        # At the end of each cd grid the mean count (about 5e209 at n = 200,
        # 1e47 at n = 400) makes the CDF 1 to double precision.
        params = ["--lambda-p", "1e-3", "--mbar", "5", "--rd", "1"]
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "mcpdist",
                               *argv, *params], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stderr == ""
        _, table = parse_csv(proc.stdout)
        assert len(table) == rows
        if "cd" in argv:
            assert table[-1][-1] == "1.0"

    @pytest.mark.parametrize("argv, code, message", [
        (["cdf", "--kind", "cd", "--k", "1", "--grid-points", "4"], 0, ""),
        # The own clusters' 1e160 siblings are over the point cap; the run
        # pricing once doubled a zero radius here without end.
        (["validate", "--r-max", "1e-4", "--samples", "10", "--k-max", "1"], 2,
         "points on average"),
    ], ids=["cdf", "validate"])
    def test_overflowing_intensity_keeps_its_campbell_radius(self, argv, code, message):
        # lambda_p mbar v_n overflows, yet the radius whose ball holds one
        # point on average, about 1.3e-107, is a normal double.
        params = ["--n", "3", "--lambda-p", "1e160", "--mbar", "1e160", "--rd", "1e-105"]
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "mcpdist",
                               *argv, *params], capture_output=True, text=True, timeout=60)
        assert proc.returncode == code
        if code == 0:
            assert proc.stderr == "" and parse_csv(proc.stdout)[1][-1][-1] == "1.0"
        else:
            assert proc.stdout == "" and message in proc.stderr
            assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv", [["cdf", "--kind", "nnd", "--k", "3"],
                                      ["validate", "--k-max", "2"]])
    def test_underflowing_intensity_asks_for_a_grid_end(self, capsys, argv):
        # lambda_p mbar v_n underflows, so no finite radius holds the
        # quantile that would end the auto grid
        tiny = ["--n", "2", "--lambda-p", "1e-320", "--mbar", "5", "--rd", "50"]
        code, out, err = run_cli(capsys, *argv, *tiny)
        assert code == 2 and out == ""
        assert err.startswith("error: the intensity lambda_p mbar v_n underflows")
        assert "no finite 1 - 0.0001 quantile; pass an explicit grid end" in err
        assert err.count("\n") == 1
        code, out, err = run_cli(capsys, "cdf", "--kind", "nnd", "--k", "3", "--grid-max", "100",
                                 *tiny)
        assert code == 0 and err == "" and len(parse_csv(out)[1]) > 1

    def test_campbell_radius_below_every_double_asks_for_a_grid_end(self, capsys):
        # lambda_p mbar v_1 = 2e600: the ball of k = 1 point has a radius of
        # 5e-601, which underflows to 0, a search start that cannot double.
        huge = ["--n", "1", "--lambda-p", "1e300", "--mbar", "1e300", "--rd", "1e-150"]
        code, out, err = run_cli(capsys, "cdf", "--kind", "cd", "--k", "1", "--grid-points", "4",
                                 *huge)
        assert code == 2 and out == ""
        assert "lies below every positive double" in err and "(--grid-max)" in err
        assert err.count("\n") == 1
        code, out, err = run_cli(capsys, "cdf", "--kind", "cd", "--k", "1", "--grid-points", "4",
                                 "--grid-max", "1e-300", *huge)
        assert code == 0 and err == "" and len(parse_csv(out)[1]) == 4

    def test_table_value_caps_exit_2_before_any_work(self, capsys):
        ks = ",".join(map(str, range(1, 4097)))
        for argv in (
            ["cdf", "--kind", "nnd", "--k", ks, "--grid-points", "100000", *FIG1_ARGS],
            ["sweep", "--metric", "cache", "--lambda-p", "0.03,0.02", "--mbar", "2", "--R", "5",
             "--rd-points", "100000", "--k", ",".join(map(str, range(1, 301)))],
        ):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, *argv)
            assert time.perf_counter() - start < 1.0
            assert code == 2 and out == ""
            assert err.startswith("error:") and "exceeds the cap" in err and err.count("\n") == 1

    def test_quantile_search_failure_is_a_value_error(self, monkeypatch):
        monkeypatch.setattr(analytic, "_cdf_eval", lambda *args: 0.0)
        with pytest.raises(ValueError, match="does not reach"):
            analytic.quantile_radius(CurveKind.CONTACT, 2, McpParams(2e-5, 5.0, 50.0, 2))


_SENTINEL = b"sentinel: an existing file keeps these bytes\n"
_OUTPUT, _DUMP, _MISSING = "<output>", "<dump>", "<missing>"


@contextlib.contextmanager
def _sentinel_files():
    """Paths for the _OUTPUT and _DUMP placeholders, each pre-filled with
    _SENTINEL, and for _MISSING, in a directory that does not exist."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {_OUTPUT: os.path.join(tmp, "out.csv"), _DUMP: os.path.join(tmp, "dump.csv")}
        for path in paths.values():
            with open(path, "wb") as fh:
                fh.write(_SENTINEL)
        yield {**paths, _MISSING: os.path.join(tmp, "missing", "out.csv")}


def _unchanged(paths) -> bool:
    return all(pathlib.Path(paths[name]).read_bytes() == _SENTINEL for name in (_OUTPUT, _DUMP))


@pytest.mark.parametrize("argv, expected", [
    ([*_CDF_ARGS, "--k", "0", "-o", _OUTPUT], 2),
    ([*_CDF_ARGS, "--grid-max", "1e200", "-o", _OUTPUT], 2),
    ([*_SWEEP_ARGS, "--lambda-p", "0.03", "--rd", "1e200", "-o", _OUTPUT], 2),
    (["validate", "--seed", "-1", "--samples", "100", *FIG1_ARGS, "--dump-samples", _DUMP], 2),
    (["validate", "--k-max", "4", "--samples", "500", "--seed", "1", "--r-max", "30", *FIG1_ARGS,
      "-o", _OUTPUT, "--dump-samples", _DUMP], 4),
    (["validate", "--samples", "50", "--seed", "3", *FIG1_ARGS, "-o", _MISSING,
      "--dump-samples", _DUMP], 2),
    (["validate", "--samples", "50", "--seed", "3", *FIG1_ARGS, "-o", _OUTPUT,
      "--dump-samples", _MISSING], 2),
])
def test_failed_command_writes_nothing(capsys, argv, expected):
    # These once truncated the output or dump file, wrote the header, or
    # left a full dump beside an empty report, or (an --output path that
    # cannot be opened) a full dump and no report.
    with _sentinel_files() as paths:
        code, out, err = run_cli(capsys, *[paths.get(arg, arg) for arg in argv])
        assert code == expected and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert _unchanged(paths)


_NUMBERS = ("-1", "0", "nan", "inf", "1e-300", "1e-9", "0.003", "0.5", "1", "5", "50",
            "1e9", "1e200", "1e308")


@st.composite
def _invocations(draw):
    number = st.sampled_from(_NUMBERS)
    command = draw(st.sampled_from(("cdf", "pmf", "validate", "sweep")))
    huge = "1000000000"
    n = draw(st.one_of(st.sampled_from(("1", "2", "3", "5", "9", "400", "700", huge)),
                       st.integers(min_value=100, max_value=1000).map(str)))
    argv = [command, "--n", n]
    # From n = 100 on, cluster radii near 1 keep the lens share in play.
    rd = st.floats(min_value=0.5, max_value=2.0).map(repr) if 100 <= int(n) <= 1000 else number
    if command == "sweep":
        argv += ["--metric", draw(st.sampled_from(("connectivity", "cache"))),
                 "--lambda-p", draw(number), "--mbar", draw(number), "--R", draw(number),
                 "--k", draw(st.sampled_from(("1", "2,3"))),
                 "--rd-points", draw(st.sampled_from(("1", "3", huge)))]
        if draw(st.booleans()):
            argv += ["--rd", draw(rd)]
        if draw(st.booleans()):
            argv += ["--hold", "lambda_d"]
        return argv
    argv += ["--lambda-p", draw(number), "--mbar", draw(number), "--rd", draw(rd)]
    if command == "cdf":
        argv += ["--kind", draw(st.sampled_from(("cd", "nnd"))),
                 "--k", draw(st.sampled_from(("0", "1", "1,4", "5000"))),
                 "--grid-points", draw(st.sampled_from(("2", "8", huge)))]
        if draw(st.booleans()):
            argv += ["--grid-max", draw(number)]
    elif command == "pmf":
        argv += ["--r", draw(number)]
        if draw(st.booleans()):
            argv += ["--palm"]
        if draw(st.booleans()):
            argv += ["--m-max", draw(st.sampled_from(("0", "7", huge)))]
    else:
        argv += ["--k-max", draw(st.sampled_from(("1", "2", huge))),
                 "--samples", draw(st.sampled_from(("1", "20", huge))),
                 "--seed", draw(st.sampled_from(("3", huge)))]
        if draw(st.booleans()):
            argv += ["--r-max", draw(number)]
        if draw(st.booleans()):
            argv += ["--dump-samples", _DUMP]
    return argv


class TestCliFuzz:
    @settings(max_examples=60)
    @given(argv=_invocations(), to_file=st.booleans())
    @example(argv=["validate", *FIG1_ARGS, "--k-max", "1000000000", "--samples", "20",
                   "--seed", "3", "--dump-samples", _DUMP], to_file=True)
    def test_every_input_gets_a_result_or_one_line(self, argv, to_file):
        # a result, or one documented exit code with a one-line message and
        # nothing written to stdout, --output or --dump-samples
        if to_file:
            argv = [*argv, "-o", _OUTPUT]
        out, err = io.StringIO(), io.StringIO()
        with _sentinel_files() as paths:
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([paths.get(arg, arg) for arg in argv])
            elapsed = time.perf_counter() - start
            unchanged = _unchanged(paths)
        message = err.getvalue()
        assert code in (0, 1, 2, 4), (argv, code, message)
        assert message.count("\n") <= 1 and "Traceback" not in message, (argv, message)
        assert (code == 0 or code == 1) == (message == ""), (argv, code, message)
        if code in (2, 4):
            assert out.getvalue() == "" and unchanged, (argv, code)
        if argv[0] == "validate" and argv[argv.index("--k-max") + 1] == "1000000000":
            assert code == 2 and elapsed < 1.0, (argv, code, elapsed)
        # v_n is subnormal above n = 435: such a dimension is one error line.
        if int(argv[2]) > 435:
            assert code == 2, (argv, code)
