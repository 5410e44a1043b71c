"""Command line harness.

Subcommands:

  run                simulate one ensemble, write curve and passage-time files
  sweep              speed-up versus register size for one or more policies
  bounds             print the analytic speed-up bands
  verify-identities  check the exact permutation sum identities

Each subcommand's argparse parser is the only table of its options: every
flag carries its own type, choices and default.  Any option can also come
from a plain-text config file of `key = value` lines (`--config`), whose
keys are the flag names with underscores (`max_time`, `n_values`,
`unsafe_large_n`); `config` and `check` cannot be set from a file.  The
subcommand's own parser coerces the file's values, explicit command line
flags win over the file, and the file wins over the built-in defaults.
The master seed defaults to DEFAULT_MASTER_SEED so runs are reproducible
out of the box.

Exit codes: 0 success, 1 bad arguments or config, 2 runtime failure,
3 a requested check failed (--check, or a FAIL from verify-identities).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .ensemble import (
    auto_slope_window,
    default_epsilon_grid,
    fit_ln_delta_slope,
    fit_speedup_scaling,
    regression_mean_time,
    run_ensemble,
    speedup_bounds_for_policy,
    speedup_scaling_sweep,
)
from .policies import (
    POLICY_KINDS,
    ControlPolicy,
    fixed_cycle_policy,
    read_cycle_file,
)
from .sde import IntegrationError, SimulationParams, epsilon_targets
from .theory import NOFB_RATE, permutation_sum_identities

DEFAULT_MASTER_SEED = 31415926
# run keeps integrating well below the deepest default target so the
# mean curve has a clean exponential stretch to fit.
RUN_STOP_EPSILON = 1e-20
SWEEP_MAX_N = 5
LARGE_N_NOTE = "large n: 0.25 n <= S_RP <= 0.5 n"
# Namespace entries that are not options a config file may set.
NOT_CONFIG_KEYS = ("config", "check", "func", "parser")

LOG_CSV = "log_infidelity.csv"
PASSAGE_CSV = "first_passage.csv"
SWEEP_CSV = "sweep.csv"
BOUNDS_CSV = "bounds.csv"
SUMMARY_JSON = "summary.json"
MANIFEST_JSON = "manifest.json"


def _flag(text: str) -> bool:
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean")


def read_config_file(path: str) -> dict[str, tuple[str, int]]:
    """Parse a `key = value` file into {key: (raw value, line number)}."""
    entries: dict[str, tuple[str, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not key:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            if key in entries:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            entries[key] = (value, lineno)
    return entries


def _config_values(parser: argparse.ArgumentParser, path: str) -> dict:
    """The config file's values, each coerced by the parser's own flag."""
    defaults = vars(parser.parse_args([]))
    # a bad value raises ArgumentError, reported below as path:line
    parser.exit_on_error = False
    values = {}
    for key, (text, lineno) in read_config_file(path).items():
        if key not in defaults or key in NOT_CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            if defaults[key] is False:  # a store_true flag takes no value
                values[key] = _flag(text)
            else:
                flag = "--" + key.replace("_", "-")
                values[key] = getattr(parser.parse_args([f"{flag}={text}"]), key)
        except (ValueError, argparse.ArgumentError) as exc:
            raise ValueError(
                f"{path}:{lineno}: bad value for {key}: {exc}"
            ) from None
    return values


def _parse_epsilons(text: str | None) -> np.ndarray:
    if text is None:
        return default_epsilon_grid()
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError("empty epsilon list")
    return np.asarray(values, dtype=float)


def _parse_int_list(text: str, name: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"{name} must be a comma-separated list of integers")
    if not values:
        raise ValueError(f"{name} is empty")
    return values


def _build_policy(name: str, cycle_file: str | None, dimension: int | None):
    if name != "fixed_cycle":
        return ControlPolicy(name)
    if cycle_file is None:
        raise ValueError("policy fixed_cycle requires --cycle-file")
    return fixed_cycle_policy(read_cycle_file(cycle_file, dimension=dimension))


def _out_dir(path_text: str) -> Path:
    out = Path(path_text)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cell(value) -> str:
    """CSV text of one value: strings and ints as they are, floats by repr."""
    if isinstance(value, (str, int)):
        return str(value)
    return repr(float(value))


def _write_rows(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(
    out: Path, command: str, config: dict, wall_time: float, outputs: list[str],
    censoring: dict | None = None,
) -> None:
    payload = {
        "command": command,
        "version": __version__,
        "config": config,
        "wall_time_seconds": round(wall_time, 3),
        "outputs": outputs,
    }
    if censoring is not None:
        payload["censoring"] = censoring
    _write_json(out / MANIFEST_JSON, payload)


def _report_checks(failures: list[str]) -> int:
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    if failures:
        return 3
    print("  checks passed")
    return 0


def cmd_run(args) -> int:
    # checked before the stop is derived from them, as in cmd_sweep
    epsilons = epsilon_targets(_parse_epsilons(args.epsilons), 0.0)
    params = SimulationParams(
        n=args.n,
        gamma=args.gamma,
        dt=args.dt,
        max_time=args.max_time,
        stop_epsilon=min(RUN_STOP_EPSILON, float(epsilons[-1])),
    )
    policy = _build_policy(args.policy, args.cycle_file, 2**params.n)

    start = time.perf_counter()
    stats = run_ensemble(
        params, policy, epsilons, args.count, args.seed, collect_first_passage=True
    )
    wall = time.perf_counter() - start

    slope = slope_err = None
    window = auto_slope_window(stats)
    try:
        slope, slope_err = fit_ln_delta_slope(stats, *window)
    except ValueError:
        window = None
    nofb_slope = -NOFB_RATE * params.gamma
    fit = fit_error = None
    try:
        fit = regression_mean_time(stats)
    except ValueError as exc:
        fit_error = exc

    out = _out_dir(args.out)
    _write_rows(
        out / LOG_CSV,
        "t,mean_ln_delta,stderr",
        zip(stats.sample_times, stats.mean_ln_delta, stats.stderr_ln_delta),
    )
    _write_rows(
        out / PASSAGE_CSV,
        "epsilon,mean_T,stderr,censored_frac",
        zip(
            stats.epsilons,
            stats.mean_first_passage,
            stats.stderr_first_passage,
            stats.censored_fraction,
        ),
    )
    max_censored = (
        float(stats.censored_fraction.max()) if stats.censored_fraction.size else 0.0
    )
    config_echo = {
        **asdict(params),
        "policy": args.policy,
        "cycle_file": args.cycle_file,
        "epsilons": [float(e) for e in epsilons],
        "count": args.count,
        "seed": args.seed,
    }
    summary = {
        key: value
        for key, value in config_echo.items()
        if key not in ("cycle_file", "epsilons", "stop_epsilon")
    }
    summary.update(
        command="run",
        slope=slope,
        slope_stderr=slope_err,
        slope_window=list(window) if window else None,
        nofb_theory_slope=nofb_slope,
        mean_time_slope=fit.slope if fit else None,
        mean_time_slope_stderr=fit.slope_stderr if fit else None,
        mean_time_intercept=fit.intercept if fit else None,
        mean_time_points=fit.point_count if fit else None,
        max_censored_fraction=max_censored,
    )
    _write_json(out / SUMMARY_JSON, summary)
    _write_manifest(
        out, "run", config_echo, wall,
        [LOG_CSV, PASSAGE_CSV, SUMMARY_JSON],
        censoring={"max": max_censored},
    )

    print(f"run: policy={args.policy} n={params.n} count={args.count} seed={args.seed}")
    if slope is not None:
        print(
            f"  <ln Delta> slope over [{window[0]:.3g}, {window[1]:.3g}]: "
            f"{slope:.4f} +/- {slope_err:.4f}"
            f" (no-control theory: {nofb_slope:g})"
        )
    if fit is not None:
        print(
            f"  mean time vs ln(1/eps) slope: {fit.slope:.5f} +/- "
            f"{fit.slope_stderr:.5f} (no-control theory: "
            f"{1.0 / (NOFB_RATE * params.gamma):.5f})"
        )
    else:
        print(f"  mean-time fit skipped: {fit_error}")
    print(f"  max censored fraction: {max_censored:g}")
    print(f"  wrote {LOG_CSV}, {PASSAGE_CSV}, {SUMMARY_JSON} -> {out}")

    if not args.check:
        return 0
    failures = []
    if not np.all(np.isfinite(stats.mean_ln_delta)):
        failures.append("non-finite mean curve")
    if stats.epsilons.size and not np.all(np.isfinite(stats.mean_first_passage)):
        failures.append("non-finite first-passage means")
    if stats.has_excessive_censoring:
        failures.append(f"censoring {max_censored:.3f} above 0.10")
    if args.policy == "none":
        if slope is None or abs(slope - nofb_slope) > 0.10 * abs(nofb_slope):
            failures.append(f"slope {slope} outside 10% of {nofb_slope:g}")
    return _report_checks(failures)


def cmd_sweep(args) -> int:
    n_values = _parse_int_list(args.n_values, "n-values")
    if min(n_values) < 1:
        raise ValueError("register sizes must be >= 1")
    if max(n_values) > SWEEP_MAX_N and not args.unsafe_large_n:
        raise ValueError(
            f"n > {SWEEP_MAX_N} scales exponentially; pass --unsafe-large-n "
            "to proceed"
        )
    policy_names = [tok.strip() for tok in args.policies.split(",") if tok.strip()]
    if not policy_names:
        raise ValueError("policies list is empty")
    policies = [_build_policy(name, args.cycle_file, None) for name in policy_names]
    for d in {p.cycle[0].dimension for p in policies if p.cycle}:
        for n in n_values:
            if 2**n != d:
                raise ValueError(f"the fixed_cycle permutations have dimension {d}, "
                                 f"which does not fit n={n} (2**{n} = {2**n})")
    # checked before the stop is derived from them; that stop is the
    # smallest target, so there is no stop to check them against
    epsilons = epsilon_targets(_parse_epsilons(args.epsilons), 0.0)
    params_template = SimulationParams(
        n=n_values[0],
        gamma=args.gamma,
        dt=args.dt,
        max_time=args.max_time,
        stop_epsilon=float(np.min(epsilons)),
    )

    start = time.perf_counter()
    sweeps = speedup_scaling_sweep(
        n_values, policies, params_template, args.count, args.seed,
        epsilons=epsilons,
    )
    results = []
    fits = {}
    for name, sweep in zip(policy_names, sweeps):
        results += [(name, p) for p in sweep]
        try:
            fits[name] = asdict(fit_speedup_scaling(sweep))
        except ValueError:
            fits[name] = None
    wall = time.perf_counter() - start

    points = [
        {
            "n": p.n,
            "policy": name,
            "speedup": p.estimate.value,
            "stderr": p.estimate.stderr,
            "bound_lo": p.bounds.lower,
            "bound_hi": p.bounds.upper,
        }
        for name, p in results
    ]
    out = _out_dir(args.out)
    _write_rows(
        out / SWEEP_CSV, ",".join(points[0]), (pt.values() for pt in points)
    )
    summary = {
        "command": "sweep",
        "n_values": n_values,
        "policies": policy_names,
        "count": args.count,
        "seed": args.seed,
        "points": points,
        "fits": fits,
    }
    _write_json(out / SUMMARY_JSON, summary)
    config_echo = {
        "n_values": n_values,
        "policies": policy_names,
        "gamma": args.gamma,
        "dt": params_template.dt,
        "max_time": args.max_time,
        "cycle_file": args.cycle_file,
        "epsilons": [float(e) for e in epsilons],
        "count": args.count,
        "seed": args.seed,
    }
    _write_manifest(out, "sweep", config_echo, wall, [SWEEP_CSV, SUMMARY_JSON])

    print("n  policy                speed-up    stderr   band")
    for pt in points:
        print(
            f"{pt['n']:<3}{pt['policy']:<22}{pt['speedup']:<12.4f}"
            f"{pt['stderr']:<9.4f}[{pt['bound_lo']:.4f}, {pt['bound_hi']:.4f}]"
        )
    for name, fit in fits.items():
        if fit:
            print(
                f"{name}: speed-up ~ {fit['slope']:.3f} n + "
                f"{fit['intercept']:.3f} (slope stderr {fit['slope_stderr']:.3f})"
            )
    print(f"  wrote {SWEEP_CSV}, {SUMMARY_JSON} -> {out}")

    if not args.check:
        return 0
    failures = []
    for name, p in results:
        slack = 3.0 * p.estimate.stderr
        if not p.bounds.contains(p.estimate.value, slack):
            failures.append(
                f"n={p.n} {name}: speed-up {p.estimate.value:.4f} outside "
                f"[{p.bounds.lower - slack:.4f}, {p.bounds.upper + slack:.4f}]"
            )
    return _report_checks(failures)


def cmd_bounds(args) -> int:
    n_values = _parse_int_list(args.n_values, "n-values")
    if min(n_values) < 1:
        raise ValueError("register sizes must be >= 1")
    rows = []
    print("n  policy                bound_lo    bound_hi")
    for n in n_values:
        for name in ("h_ordering", "random_permutation"):
            bounds = speedup_bounds_for_policy(name, n)
            print(f"{n:<3}{name:<22}{bounds.lower:<12.6g}{bounds.upper:.6g}")
            rows.append((n, name, bounds.lower, bounds.upper))
    print(LARGE_N_NOTE)
    if args.out:
        start = time.perf_counter()
        out = _out_dir(args.out)
        _write_rows(out / BOUNDS_CSV, "n,policy,bound_lo,bound_hi", rows)
        _write_manifest(
            out, "bounds", {"n_values": n_values}, time.perf_counter() - start,
            [BOUNDS_CSV],
        )
        print(f"wrote {BOUNDS_CSV} -> {out}")
    return 0


def cmd_verify_identities(args) -> int:
    dims = _parse_int_list(args.dimensions, "dimensions")
    all_passed = True
    for d in dims:
        report = permutation_sum_identities(d)
        status = "PASS" if report.passed else "FAIL"
        print(
            f"D={d}: sum of squares = {report.square_sum} "
            f"(expected {report.expected_square_sum}), "
            f"cross sum = {report.cross_sum} "
            f"(expected {report.expected_cross_sum}) -> {status}"
        )
        all_passed = all_passed and report.passed
    return 0 if all_passed else 3


def _add_ensemble_flags(parser, max_time: float, out: str) -> None:
    """The eight flags run and sweep share."""
    parser.add_argument("--gamma", type=float, default=1.0, help="measurement rate")
    parser.add_argument("--dt", type=float, default=None, help="integration step")
    parser.add_argument("--max-time", type=float, default=max_time)
    parser.add_argument("--cycle-file", default=None)
    parser.add_argument(
        "--epsilons", default=None,
        help="comma-separated targets, strictly decreasing",
    )
    parser.add_argument("--count", type=int, default=1000, help="trajectories")
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_MASTER_SEED, help="master seed"
    )
    parser.add_argument("--out", default=out, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regreadout",
        description=(
            "Simulate continuous collective readout of a qubit register "
            "under open-loop permutation controls."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one ensemble and write curves")
    run.add_argument("--config", default=None, help="key = value config file")
    run.add_argument("--n", type=int, default=1, help="number of qubits")
    run.add_argument("--policy", choices=POLICY_KINDS, default="none")
    _add_ensemble_flags(run, max_time=3.0, out="regreadout-run")
    run.add_argument("--check", action="store_true",
                     help="exit 3 unless sanity checks pass")
    run.set_defaults(func=cmd_run, parser=run)

    sweep = sub.add_parser("sweep", help="speed-up versus register size")
    sweep.add_argument("--config", default=None)
    sweep.add_argument("--n-values", default="2,3,4,5",
                       help="comma-separated register sizes")
    sweep.add_argument("--policies", default="random_permutation",
                       help="comma-separated policy names")
    # longer than the run default: the slowest no-control stragglers at
    # n = 4..5 need the room to reach the deepest default target
    _add_ensemble_flags(sweep, max_time=4.0, out="regreadout-sweep")
    sweep.add_argument("--unsafe-large-n", action="store_true",
                       help="allow n above the exponential-cost cap")
    sweep.add_argument("--check", action="store_true",
                       help="exit 3 unless every point sits in its band")
    sweep.set_defaults(func=cmd_sweep, parser=sweep)

    bounds = sub.add_parser("bounds", help="print analytic speed-up bands")
    bounds.add_argument("--config", default=None)
    bounds.add_argument("--n-values", default="1,2,3,4,5")
    bounds.add_argument("--out", default=None)
    bounds.set_defaults(func=cmd_bounds, parser=bounds)

    verify = sub.add_parser(
        "verify-identities",
        help="check the exact permutation sum identities",
    )
    verify.add_argument("--config", default=None)
    verify.add_argument("--dimensions", default="4,8",
                        help="comma-separated dimensions (4 and/or 8)")
    verify.set_defaults(func=cmd_verify_identities, parser=verify)

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse a command line; a --config file's values replace the
    subcommand's defaults, and explicit flags still win over them."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        args.parser.set_defaults(**_config_values(args.parser, args.config))
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    except IntegrationError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - last-resort mapping
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
