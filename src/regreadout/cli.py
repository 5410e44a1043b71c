"""Command line harness.

Subcommands:

  run                simulate one ensemble, write curve and passage-time files
  sweep              speed-up versus register size for one or more policies
  bounds             print the analytic speed-up bands
  verify-identities  check the exact permutation sum identities

Each subcommand's argparse parser is the only table of its options: every
flag carries its own type, choices and default (a list flag parses into a
tuple), and the library call that takes the values checks them before it
starts any work.  The master seed defaults to DEFAULT_MASTER_SEED so runs
are reproducible out of the box.

This is the only module that opens a file.  Its two text inputs are
UTF-8, one entry per line, blank lines and `#` comments skipped, and an
error names PATH:LINE.  A --config file holds `key = value` lines, keyed
by the flag names with underscores (`max_time`, `n_values`,
`cycle_file`; not `config` or `check`), each value coerced by the
subcommand's own flag; explicit flags win over the file, and the file
over the defaults.  A --cycle-file holds the cycle of policy
fixed_cycle, one permutation image per line as space-separated slots.

Each output file holds one kind of fact: manifest.json the options and
the host, summary.json only what the command computed, and the CSVs the
curves and points.  A command prints its results, then writes and
reports its files; a --check verdict comes last.

Exit codes: 0 success, 1 bad arguments, config or input files, 2 runtime
failure (--out trouble too), 3 a requested check failed (--check, or a
FAIL from verify-identities).
A failed command removes the --out directories it made while empty.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .ensemble import (
    _usable_cpus,
    default_epsilon_grid,
    fit_ln_delta_slope,
    fit_speedup_scaling,
    regression_mean_time,
    run_ensemble,
    speedup_scaling_sweep,
)
from .policies import POLICY_KINDS, ControlPolicy
from .registers import Permutation
from .sde import IntegrationError, SimulationParams, epsilon_targets
from .theory import NOFB_RATE, permutation_sum_identities, speedup_bounds_for_policy

DEFAULT_MASTER_SEED = 31415926
# run keeps integrating well below the deepest default target so the
# mean curve has a clean exponential stretch to fit.
RUN_STOP_EPSILON = 1e-20
LARGE_N_NOTE = "large n: 0.25 n <= S_RP <= 0.5 n"
# run --check fails above this censoring at any target: too short a max_time.
EXCESS_CENSORING = 0.10
# run fits its slope where at least this fraction is still evolving.
SLOPE_ACTIVE_FRACTION = 0.999
# Namespace entries that are not options a config file may set.
NOT_CONFIG_KEYS = ("config", "check", "func", "parser")


def _input_lines(path):
    """Yield (line number, stripped text) of each line of a UTF-8 text
    file that is neither blank nor a `#` comment.  A file that cannot be
    opened or read is a bad argument, a ValueError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if line and not line.startswith("#"):
                    yield lineno, line
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValueError(f"cannot read {path}: {reason}") from None


def read_config_file(path: str) -> dict[str, tuple[str, int]]:
    """Parse a `key = value` file into {key: (raw value, line number)}."""
    entries: dict[str, tuple[str, int]] = {}
    for lineno, line in _input_lines(path):
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        if key in entries:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = (value.strip(), lineno)
    return entries


def read_cycle_file(path) -> list[Permutation]:
    """Parse a cycle file: one permutation per line, its image as
    space-separated slots.  A malformed line, or a dimension other than
    the first permutation's, is a ValueError naming PATH:LINE."""
    perms: list[Permutation] = []
    for lineno, line in _input_lines(path):
        try:
            perm = Permutation([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if perms and perm.dimension != perms[0].dimension:
            raise ValueError(
                f"{path}:{lineno}: permutation has dimension "
                f"{perm.dimension}, the first has {perms[0].dimension}"
            )
        perms.append(perm)
    if not perms:
        raise ValueError(f"{path}: no permutations found")
    return perms


def _config_values(parser: argparse.ArgumentParser, path: str) -> dict:
    """The config file's values, each coerced by the parser's own flag."""
    defaults = vars(parser.parse_args([]))
    # a bad value raises ArgumentError, reported below as path:line
    parser.exit_on_error = False
    values = {}
    for key, (text, lineno) in read_config_file(path).items():
        if key not in defaults or key in NOT_CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        flag = "--" + key.replace("_", "-")
        try:
            values[key] = getattr(parser.parse_args([f"{flag}={text}"]), key)
        except argparse.ArgumentError as exc:
            raise ValueError(
                f"{path}:{lineno}: bad value for {key}: {exc}"
            ) from None
    return values


def _comma_list(item, what: str):
    """An argparse type: comma-separated text to a tuple of item(token)."""

    def convert(tok: str):
        try:
            return item(tok)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {what} value: {tok!r}") from None

    def parse(text: str) -> tuple:
        values = tuple(convert(tok.strip()) for tok in text.split(",") if tok.strip())
        if not values:
            raise argparse.ArgumentTypeError(f"empty list of {what} values")
        return values

    return parse


def _policy_kind(text: str) -> str:
    if text not in POLICY_KINDS:
        raise ValueError(text)
    return text


def _build_policy(name: str, cycle_file: str | None) -> ControlPolicy:
    if name != "fixed_cycle":
        return ControlPolicy(name)
    if cycle_file is None:
        raise ValueError("policy fixed_cycle requires --cycle-file")
    return ControlPolicy(name, tuple(read_cycle_file(cycle_file)))


def _cell(value) -> str:
    """CSV text of one value: strings and ints as they are, floats by repr."""
    if isinstance(value, (str, int)):
        return str(value)
    return repr(float(value))


def _options(args) -> dict:
    """The parsed options a config file may set, but the output directory."""
    return {
        key: value for key, value in vars(args).items()
        if key not in NOT_CONFIG_KEYS + ("command", "out")
    }


def _write_outputs(out_text, command, config, wall_time, files) -> None:
    """Write `files` ({name: payload} in order; a dict payload as JSON, a
    (header, rows) payload as CSV) into the output directory, which main
    has created, then manifest.json, the one record of the options, and
    report the files written."""
    manifest = {
        "command": command,
        "version": __version__,
        "config": config,
        "wall_time_seconds": round(wall_time, 3),
        "outputs": list(files),
        # the last digits of some outputs can depend on both (see
        # regreadout.ensemble), so a reader can tell hosts apart
        "usable_cpus": _usable_cpus(),
        "numpy_version": np.__version__,
    }
    out = Path(out_text)
    for name, payload in {**files, "manifest.json": manifest}.items():
        with open(out / name, "w", encoding="utf-8", newline="\n") as fh:
            if isinstance(payload, dict):
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            else:
                header, rows = payload
                fh.write(header + "\n")
                for row in rows:
                    fh.write(",".join(map(_cell, row)) + "\n")
    print(f"  wrote {', '.join(files)} -> {out}")


def auto_slope_window(stats) -> tuple[float, float]:
    """Latter half of the time range where at least SLOPE_ACTIVE_FRACTION
    of the trajectories was still evolving; falls back to the latter half
    of the whole run when freezing starts immediately."""
    good = np.where(stats.active_fraction >= SLOPE_ACTIVE_FRACTION)[0]
    t_end = stats.sample_times[good[-1]] if good.size else stats.sample_times[-1]
    if t_end <= 0.0:
        t_end = stats.sample_times[-1]
    return 0.5 * t_end, t_end


def _report_checks(failures: list[str]) -> int:
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    if failures:
        return 3
    print("  checks passed")
    return 0


def cmd_run(args) -> int:
    # checked before the stop is derived from them, as in cmd_sweep
    epsilons = epsilon_targets(args.epsilons or default_epsilon_grid(), 0.0)
    params = SimulationParams(
        n=args.n,
        gamma=args.gamma,
        dt=args.dt,
        max_time=args.max_time,
        stop_epsilon=min(RUN_STOP_EPSILON, float(epsilons[-1])),
    )
    policy = _build_policy(args.policy, args.cycle_file)

    start = time.perf_counter()
    stats = run_ensemble(params, policy, epsilons, args.count, args.seed)
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

    max_censored = float(stats.censored_fraction.max(initial=0.0))
    # the paper's figure of merit: the final argmax is not the true outcome
    misread = stats.final_indices != stats.true_indices
    summary = {
        "slope": slope,
        "slope_stderr": slope_err,
        "slope_window": list(window) if window else None,
        "nofb_theory_slope": nofb_slope,
        "mean_time_slope": fit.slope if fit else None,
        "mean_time_slope_stderr": fit.slope_stderr if fit else None,
        "mean_time_intercept": fit.intercept if fit else None,
        "mean_time_points": fit.point_count if fit else None,
        "max_censored_fraction": max_censored,
        "readout_error": float(misread.mean()),
        "readout_error_stderr": float(misread.std(ddof=1)) / math.sqrt(misread.size),
    }

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
    print(
        f"  readout error: {summary['readout_error']:g} +/- "
        f"{summary['readout_error_stderr']:g}"
    )
    config = {
        **_options(args),
        "dt": params.dt,
        "epsilons": epsilons.tolist(),
        "stop_epsilon": params.stop_epsilon,
    }
    files = {
        "log_infidelity.csv": (
            "t,mean_ln_delta,stderr",
            zip(stats.sample_times, stats.mean_ln_delta, stats.stderr_ln_delta),
        ),
        "first_passage.csv": (
            "epsilon,mean_T,stderr,censored_frac",
            zip(
                stats.epsilons,
                stats.mean_first_passage,
                stats.stderr_first_passage,
                stats.censored_fraction,
            ),
        ),
        "summary.json": summary,
    }
    _write_outputs(args.out, "run", config, wall, files)

    if not args.check:
        return 0
    failures = []
    if not np.all(np.isfinite(stats.mean_ln_delta)):
        failures.append("non-finite mean curve")
    if stats.epsilons.size and not np.all(np.isfinite(stats.mean_first_passage)):
        failures.append("non-finite first-passage means")
    if max_censored > EXCESS_CENSORING:
        failures.append(f"censoring {max_censored:.3f} above {EXCESS_CENSORING:.2f}")
    if args.policy == "none":
        if slope is None or abs(slope - nofb_slope) > 0.10 * abs(nofb_slope):
            failures.append(f"slope {slope} outside 10% of {nofb_slope:g}")
    return _report_checks(failures)


def cmd_sweep(args) -> int:
    # fits are keyed by policy name, so a repeat would lose one
    if len(set(args.policies)) < len(args.policies):
        raise ValueError(f"policies repeats a policy: {list(args.policies)}")
    policies = [_build_policy(name, args.cycle_file) for name in args.policies]
    # checked before the stop is derived from them; that stop is the
    # smallest target, so there is no stop to check them against
    epsilons = epsilon_targets(args.epsilons or default_epsilon_grid(), 0.0)
    params_template = SimulationParams(
        n=args.n_values[0],
        gamma=args.gamma,
        dt=args.dt,
        max_time=args.max_time,
        stop_epsilon=float(np.min(epsilons)),
    )

    start = time.perf_counter()
    sweeps = speedup_scaling_sweep(
        args.n_values, policies, params_template, args.count, args.seed,
        epsilons=epsilons,
    )
    results = []
    fits = {}
    for name, sweep in zip(args.policies, sweeps):
        results += [(name, p) for p in sweep]
        try:
            fits[name] = asdict(fit_speedup_scaling(sweep))
        except ValueError:
            fits[name] = None
    wall = time.perf_counter() - start

    rows = [
        (p.n, name, p.estimate.value, p.estimate.stderr, p.bounds.lower,
         p.bounds.upper)
        for name, p in results
    ]
    print("n  policy                speed-up    stderr   band")
    for n, name, value, err, lo, hi in rows:
        print(f"{n:<3}{name:<22}{value:<12.4f}{err:<9.4f}[{lo:.4f}, {hi:.4f}]")
    for name, fit in fits.items():
        if fit:
            print(
                f"{name}: speed-up ~ {fit['slope']:.3f} n + "
                f"{fit['intercept']:.3f} (slope stderr {fit['slope_stderr']:.3f})"
            )
    config = {
        **_options(args), "dt": params_template.dt, "epsilons": epsilons.tolist()
    }
    files = {
        "sweep.csv": ("n,policy,speedup,stderr,bound_lo,bound_hi", rows),
        "summary.json": {"fits": fits},
    }
    _write_outputs(args.out, "sweep", config, wall, files)

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
    start = time.perf_counter()
    rows = []
    for n in args.n_values:
        for name in ("h_ordering", "random_permutation"):
            bounds = speedup_bounds_for_policy(name, n)
            rows.append((n, name, bounds.lower, bounds.upper))
    print("n  policy                bound_lo    bound_hi")
    for n, name, lower, upper in rows:
        print(f"{n:<2} {name:<22}{lower:<12.6g}{upper:.6g}")
    print(LARGE_N_NOTE)
    if args.out:
        files = {"bounds.csv": ("n,policy,bound_lo,bound_hi", rows)}
        _write_outputs(
            args.out, "bounds", _options(args), time.perf_counter() - start, files
        )
    return 0


def cmd_verify_identities(args) -> int:
    reports = [permutation_sum_identities(d) for d in args.dimensions]
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(
            f"D={report.dimension}: sum of squares = {report.square_sum} "
            f"(expected {report.expected_square_sum}), "
            f"cross sum = {report.cross_sum} "
            f"(expected {report.expected_cross_sum}) -> {status}"
        )
    return 0 if all(report.passed for report in reports) else 3


def _add_ensemble_flags(parser, max_time: float, out: str) -> None:
    """The eight flags run and sweep share."""
    parser.add_argument("--gamma", type=float, default=1.0, help="measurement rate")
    parser.add_argument("--dt", type=float, default=None, help="integration step")
    parser.add_argument("--max-time", type=float, default=max_time)
    parser.add_argument("--cycle-file", default=None)
    parser.add_argument(
        "--epsilons", type=_comma_list(float, "float"), default=None,
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
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=None, help="key = value config file")

    run = sub.add_parser(
        "run", parents=[config], help="simulate one ensemble and write curves"
    )
    run.add_argument("--n", type=int, default=1, help="number of qubits")
    run.add_argument("--policy", choices=POLICY_KINDS, default="none")
    _add_ensemble_flags(run, max_time=3.0, out="regreadout-run")
    run.add_argument("--check", action="store_true",
                     help="exit 3 unless sanity checks pass")
    run.set_defaults(func=cmd_run, parser=run)

    sweep = sub.add_parser(
        "sweep", parents=[config], help="speed-up versus register size"
    )
    sweep.add_argument("--n-values", type=_comma_list(int, "int"),
                       default="2,3,4,5", help="comma-separated register sizes")
    sweep.add_argument("--policies", type=_comma_list(_policy_kind, "policy"),
                       default="random_permutation",
                       help="comma-separated, from: " + ", ".join(POLICY_KINDS))
    # longer than the run default: the slowest no-control stragglers at
    # n = 4..5 need the room to reach the deepest default target
    _add_ensemble_flags(sweep, max_time=4.0, out="regreadout-sweep")
    sweep.add_argument("--check", action="store_true",
                       help="exit 3 unless every point sits in its band")
    sweep.set_defaults(func=cmd_sweep, parser=sweep)

    bounds = sub.add_parser(
        "bounds", parents=[config], help="print analytic speed-up bands"
    )
    bounds.add_argument("--n-values", type=_comma_list(int, "int"),
                        default="1,2,3,4,5")
    bounds.add_argument("--out", default=None)
    bounds.set_defaults(func=cmd_bounds, parser=bounds)

    verify = sub.add_parser(
        "verify-identities",
        parents=[config],
        help="check the exact permutation sum identities",
    )
    verify.add_argument("--dimensions", type=_comma_list(int, "int"),
                        default="4,8",
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
    made: list[Path] = []  # the directories made for --out, deepest first
    try:
        args = parse_args(argv)
        if getattr(args, "out", None):  # so a bad path fails before any ensemble
            out = Path(args.out)
            made = [p for p in (out, *out.parents) if not p.exists()]
            out.mkdir(parents=True, exist_ok=True)
        code = args.func(args)
    except SystemExit as exc:
        code = 0 if exc.code in (0, None) else 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    except (IntegrationError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        code = 2
    except Exception as exc:  # pragma: no cover - last-resort mapping
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 2
    if code:  # a failed command leaves no empty directory of its own
        for path in made:
            try:
                path.rmdir()
            except OSError:  # not empty, or mkdir failed before it
                break
    return code


if __name__ == "__main__":
    sys.exit(main())
