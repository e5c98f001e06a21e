"""Command-line front end: curves, PMF dumps, validation runs, and sweeps.

All numeric output uses repr round-trip formatting with dot decimal
separators, so identical invocations produce identical bytes.  Exit
codes: 0 success (validate: all pass), 1 validation failure, 2 invalid
parameters (including numeric extremes that fail fast: a PMF beyond its
order cap, a dimension or length out of range, a simulation beyond its
point or distance caps, a CDF table beyond its value cap, an unwritable
output path), 4 excessive censoring.  Code 3 once meant quadrature
non-convergence; it is no longer emitted and is not reused.

The CLI checks only what the library cannot (required flags, config
types, empty lists, its grid and table caps, --R); the library checks
every other value.  A command computes before it opens --output (and
--dump-samples), and opens every file before it writes any, so on exit 2
or 4 nothing is written and an existing file keeps its bytes."""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .analytic import (
    CurveKind,
    McpParams,
    cdf_table,
    count_pmf,
    palm_count_pmf,
    quantile_radius,
)
from .apps import SweepMetric, SweepSpec, sweep
from .simulator import MAX_DISTANCES, CensoringError, validate_against_analytic, write_raw_samples

__all__ = ["main"]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Config key -> (expected JSON type, its check), matching the flag of the
# same name.  sweep's --lambda-p and --rd take lists, so there a config
# value may also be a list of numbers, and a number stands for one item.
_CONFIG_TYPES = {
    "n": ("an integer", _is_int),
    "lambda_p": ("a number", _is_number),
    "mbar": ("a number", _is_number),
    "rd": ("a number", _is_number),
    "R": ("a number", _is_number),
    "k": ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))),
    "samples": ("an integer", _is_int),
    "seed": ("an integer", _is_int),
}
_SWEEP_LIST_KEYS = ("lambda_p", "rd")
# Largest --grid-points / --rd-points.  A sweep builds its rd grid, with
# one McpParams per point, before the table value cap below is checked, and
# each point of either grid is one CSV row per k, formatted in Python.
_MAX_GRID_POINTS = 100_000
# Most values one cdf or sweep call may ask for: its CDF table holds them
# all at once.  The same cap as validate's kth distances.
_MAX_TABLE_VALUES = MAX_DISTANCES


class _CliError(ValueError):
    """Invalid command-line parameters (exit code 2)."""


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CensoringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


# Built once per process: parsing leaves the parser as it was, and each
# call's values live in the namespace it returns.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcpdist",
        description="kth contact / nearest-neighbor distance distributions "
        "of an n-D Matern cluster process",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    cdf = sub.add_parser("cdf", help="sample an analytic CDF onto a radius grid")
    _add_common(cdf)
    _add_params(cdf)
    cdf.add_argument("--kind", choices=("cd", "nnd"), required=True)
    cdf.add_argument("--k", type=_int_list, default=None, help="comma-separated k list")
    cdf.add_argument("--grid-max", type=float, default=None,
                     help="grid endpoint (default: radius where the CDF reaches 1-1e-4)")
    cdf.add_argument("--grid-points", type=int, default=512)
    cdf.set_defaults(handler=_cmd_cdf)

    pmf = sub.add_parser("pmf", help="PMF of the point count in a ball")
    _add_common(pmf)
    _add_params(pmf)
    pmf.add_argument("--r", type=float, default=None, help="ball radius")
    pmf.add_argument("--m-max", type=int, default=None,
                     help="largest order (default: adaptive truncation)")
    pmf.add_argument("--palm", action="store_true",
                     help="count under the reduced Palm distribution")
    pmf.set_defaults(handler=_cmd_pmf)

    val = sub.add_parser("validate", help="Monte Carlo vs analytic KS report")
    _add_common(val)
    _add_params(val)
    val.add_argument("--k-max", type=int, default=4)
    val.add_argument("--samples", type=int, default=None)
    val.add_argument("--seed", type=int, default=None)
    val.add_argument("--r-max", type=float, default=None,
                     help="observation radius override (default: CDF tail radius)")
    val.add_argument("--dump-samples", default=None, metavar="PATH",
                     help="write raw kth distances as CSV")
    val.set_defaults(handler=_cmd_validate)

    swp = sub.add_parser("sweep", help="metric vs cluster radius")
    _add_common(swp)
    swp.add_argument("--metric", choices=("connectivity", "cache"), required=True)
    swp.add_argument("--lambda-p", type=_float_list, default=None,
                     help="comma-separated parent intensities")
    swp.add_argument("--mbar", type=float, default=None)
    swp.add_argument("--n", type=int, default=None)
    swp.add_argument("--R", type=float, default=None, help="connection range")
    swp.add_argument("--k", type=_int_list, default=None)
    swp.add_argument("--rd", type=_float_list, default=None,
                     help="explicit comma-separated cluster radii")
    swp.add_argument("--rd-min", type=float, default=None)
    swp.add_argument("--rd-max", type=float, default=None)
    swp.add_argument("--rd-points", type=int, default=20)
    swp.add_argument("--no-ppp-reference", action="store_true")
    swp.add_argument("--hold", choices=("mbar", "lambda_d"), default="mbar", help="kept fixed")
    swp.set_defaults(handler=_cmd_sweep)

    return parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON config file; flags override")
    p.add_argument("--output", "-o", default=None, help="output path (default stdout)")


def _add_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--lambda-p", type=float, default=None)
    p.add_argument("--mbar", type=float, default=None)
    p.add_argument("--rd", type=float, default=None)


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t]


def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t]


def _apply_config(args: argparse.Namespace) -> None:
    if getattr(args, "config", None) is None:
        return
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _CliError(f"cannot read config {args.config}: {exc}")
    if not isinstance(config, dict):
        raise _CliError("config must be a JSON object")
    for key, value in config.items():
        if key not in _CONFIG_TYPES:
            raise _CliError(f"unknown config key {key!r}")
        expected, check = _CONFIG_TYPES[key]
        if isinstance(value, list) and args.command == "sweep" and key in _SWEEP_LIST_KEYS:
            value_ok = all(map(check, value))
        else:
            value_ok = check(value)
        if not value_ok:
            raise _CliError(f"config key {key!r} must be {expected}, got {value!r}")
        # Config keys match argparse destinations exactly (including R).
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise _CliError(f"missing required parameter --{name.replace('_', '-')}")


def _list_arg(value, flag: str) -> list:
    """A list flag's (or config key's) values; a single number is one item."""
    values = value if isinstance(value, list) else [value]
    if not values:
        raise _CliError(f"{flag} needs at least one value")
    return values


def _params_from(args: argparse.Namespace) -> McpParams:
    _require(args, "lambda_p", "mbar", "rd")
    n = args.n if args.n is not None else 2
    return McpParams(lambda_p=args.lambda_p, mbar=args.mbar, rd=args.rd, n=n)


def _check_table_size(values: int, what: str) -> None:
    if values > _MAX_TABLE_VALUES:
        raise _CliError(f"{what} = {values} exceeds the cap of {_MAX_TABLE_VALUES} values")


def _header(command: str, pairs: list[tuple[str, object]]) -> str:
    rendered = " ".join(f"{key}={_fmt(value)}" for key, value in pairs)
    return f"# command={command} {rendered}\n"


def _emit(path: str | None, head: str, lines, dump=None) -> None:
    """Write head, then stream lines, to path (default stdout): the last step of a command.

    dump is None or (path, write): write(stream) fills that second file.
    Both are first opened for appending, which truncates nothing, so a path
    that cannot be opened leaves the other's bytes as they were.
    """
    for target in (path, None if dump is None else dump[0]):
        if target is not None:
            open(target, "a").close()
    if dump is not None:
        with open(dump[0], "w", newline="") as stream:
            dump[1](stream)
    with contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="") as out:
        out.write(head)
        out.writelines(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_cdf(args: argparse.Namespace) -> int:
    params = _params_from(args)
    k_values = sorted(set(_list_arg(args.k, "--k"))) if args.k is not None else [1]
    if not 2 <= args.grid_points <= _MAX_GRID_POINTS:
        raise _CliError(f"grid-points must be in 2..{_MAX_GRID_POINTS}")
    _check_table_size(len(k_values) * args.grid_points, "k values x grid-points")
    kind = CurveKind.CONTACT if args.kind == "cd" else CurveKind.NND
    end = quantile_radius(kind, k_values[-1], params) if args.grid_max is None else args.grid_max
    if not 0.0 <= end < math.inf:
        raise _CliError(f"grid-max must be finite and nonnegative, got {end!r}")
    # A zero end is the single radius 0.
    grid = np.linspace(0.0, end, args.grid_points) if end else np.zeros(1)
    table = cdf_table(kind, grid, k_values, params)
    head = _header("cdf", [
        ("kind", args.kind), ("n", params.n), ("lambda_p", params.lambda_p),
        ("mbar", params.mbar), ("rd", params.rd), ("k", k_values),
        ("grid_max", float(grid[-1])), ("grid_points", args.grid_points),
    ])
    # Each radius is formatted once, for every k.
    radii = [f"{r!r}," for r in grid.tolist()]
    _emit(args.output, head + "r,k,cdf\n", (
        f"{r}{k},{value!r}\n"
        for k, values in zip(k_values, table.tolist()) for r, value in zip(radii, values)
    ))
    return 0


def _cmd_pmf(args: argparse.Namespace) -> int:
    params = _params_from(args)
    _require(args, "r")
    pmf = (palm_count_pmf if args.palm else count_pmf)(args.r, params, m_max=args.m_max)
    head = _header("pmf", [
        ("palm", int(args.palm)), ("n", params.n), ("lambda_p", params.lambda_p),
        ("mbar", params.mbar), ("rd", params.rd), ("r", float(args.r)),
        ("m_max", pmf.probs.size - 1), ("truncation_mass", float(pmf.truncation_mass)),
    ])
    _emit(args.output, head + "m,probability\n",
          (f"{m},{prob!r}\n" for m, prob in enumerate(pmf.probs.tolist())))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    params = _params_from(args)
    samples = args.samples if args.samples is not None else 100_000
    seed = args.seed if args.seed is not None else 1
    report = validate_against_analytic(
        params, range(1, args.k_max + 1), samples=samples, seed=seed, r_max=args.r_max,
    )
    all_passed = all(row.passed for row in report)
    head = _header("validate", [
        ("n", params.n), ("lambda_p", params.lambda_p), ("mbar", params.mbar),
        ("rd", params.rd), ("k_max", args.k_max), ("samples", samples), ("seed", seed),
    ])
    _emit(args.output, head, [
        *(f"kind={row.kind} k={row.k} ks={row.ks!r} threshold={row.threshold!r} "
          f"censored_fraction={row.censored_fraction!r} "
          f"result={'pass' if row.passed else 'fail'}\n" for row in report),
        f"overall={'pass' if all_passed else 'fail'}\n",
    ], dump=None if args.dump_samples is None else (args.dump_samples, lambda stream: (
        write_raw_samples(stream, report.distances[:, 0], report.observation_radius))))
    return 0 if all_passed else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    _require(args, "lambda_p", "mbar", "R")
    if not 0.0 < args.R < math.inf:
        raise _CliError("--R must be finite and positive")
    n = args.n if args.n is not None else 2
    k_values = tuple(sorted(set(_list_arg(args.k, "--k")))) if args.k is not None else (1, 2, 3, 4)
    lambda_ps = _list_arg(args.lambda_p, "--lambda-p")
    if args.rd is not None:
        rd_grid = tuple(sorted(set(_list_arg(args.rd, "--rd"))))
    else:
        rd_min = args.rd_min if args.rd_min is not None else args.R / 100.0
        rd_max = args.rd_max if args.rd_max is not None else 10.0 * args.R
        if not 1 <= args.rd_points <= _MAX_GRID_POINTS or not 0.0 < rd_min <= rd_max < math.inf:
            raise _CliError("invalid rd grid")
        if args.rd_points == 1:
            rd_grid = (rd_min,)
        else:
            rd_grid = tuple(np.geomspace(rd_min, rd_max, args.rd_points))
    metric = SweepMetric.CONNECTIVITY if args.metric == "connectivity" else SweepMetric.CACHE_HIT
    _check_table_size(
        len(lambda_ps) * len(rd_grid) * len(k_values), "lambda-p values x rd points x k values"
    )
    # Each lambda_p and rd is formatted once; the PPP rows have rd = inf.
    panels = [
        (repr(float(lam)), sweep(SweepSpec(
            base=McpParams(lambda_p=lam, mbar=args.mbar, rd=rd_grid[0], n=n),
            rd_grid=rd_grid,
            connect_range=args.R,
            k_values=k_values,
            include_ppp_reference=not args.no_ppp_reference,
        ), metric, hold=args.hold))
        for lam in lambda_ps
    ]
    head = _header("sweep", [
        ("metric", args.metric), ("n", n), ("lambda_p", lambda_ps),
        ("mbar", float(args.mbar)), ("R", float(args.R)), ("k", list(k_values)),
        ("rd", [float(r) for r in rd_grid]), ("hold", args.hold),
        ("ppp_reference", int(not args.no_ppp_reference)),
    ])
    rd_text = {float(rd): repr(float(rd)) for rd in rd_grid} | {math.inf: "inf"}
    _emit(args.output, head + "lambda_p,rd,k,value\n", (
        f"{lam},{rd_text[row.rd]},{row.k},{row.value!r}\n" for lam, rows in panels for row in rows
    ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
