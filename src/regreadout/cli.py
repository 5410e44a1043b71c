"""Command line harness.

Subcommands:

  run                simulate one ensemble, write curve and passage-time files
  sweep              speed-up versus register size for one or more policies
  bounds             print the analytic speed-up bands
  verify-identities  check the exact permutation sum identities

Every option can also come from a plain-text config file of `key = value`
lines (`--config`); explicit command line flags win over the file, which
wins over built-in defaults.  The master seed defaults to
DEFAULT_MASTER_SEED so runs are reproducible out of the box.

Exit codes: 0 success, 1 bad arguments or config, 2 runtime failure,
3 a requested check failed (--check, or a FAIL from verify-identities).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .ensemble import (
    EnsembleStats,
    auto_slope_window,
    default_epsilon_grid,
    fit_ln_delta_slope,
    fit_speedup_scaling,
    regression_mean_time,
    run_ensemble,
    speedup_scaling_sweep,
)
from .policies import (
    POLICY_KINDS,
    fixed_cycle_policy,
    h_ordering_policy,
    no_control,
    random_permutation_policy,
    read_cycle_file,
)
from .sde import INTEGRATORS, IntegrationError, SimulationParams
from .theory import (
    NOFB_RATE,
    h_ordering_speedup_bounds,
    permutation_sum_identities,
    random_permutation_speedup_bounds,
)

DEFAULT_MASTER_SEED = 31415926
# run keeps integrating well below the deepest default target so the
# mean curve has a clean exponential stretch to fit.
RUN_STOP_EPSILON = 1e-20
SWEEP_MAX_N = 5
LARGE_N_NOTE = "large n: 0.25 n <= S_RP <= 0.5 n"

LOG_CSV = "log_infidelity.csv"
PASSAGE_CSV = "first_passage.csv"
SWEEP_CSV = "sweep.csv"
BOUNDS_CSV = "bounds.csv"
SUMMARY_JSON = "summary.json"
MANIFEST_JSON = "manifest.json"


def _choice(options):
    def coerce(text: str) -> str:
        if text not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return text

    return coerce


def _flag(text: str) -> bool:
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean")


_COERCERS = {
    "n": int,
    "count": int,
    "seed": int,
    "gamma": float,
    "dt": float,
    "max_time": float,
    "integrator": _choice(INTEGRATORS),
    "policy": _choice(POLICY_KINDS),
    "cycle_file": str,
    "epsilons": str,
    "out": str,
    "n_values": str,
    "policies": str,
    "dimensions": str,
    "unsafe_large_n": _flag,
}

RUN_KEYS = (
    "n", "gamma", "dt", "max_time", "integrator", "policy",
    "cycle_file", "epsilons", "count", "seed", "out",
)
SWEEP_KEYS = (
    "n_values", "policies", "gamma", "dt", "max_time", "integrator",
    "cycle_file", "epsilons", "count", "seed", "out", "unsafe_large_n",
)
BOUNDS_KEYS = ("n_values", "out")
VERIFY_KEYS = ("dimensions",)

RUN_DEFAULTS = {
    "n": 1,
    "gamma": 1.0,
    "dt": None,
    "max_time": 3.0,
    "integrator": "exact",
    "policy": "none",
    "cycle_file": None,
    "epsilons": None,
    "count": 1000,
    "seed": DEFAULT_MASTER_SEED,
    "out": "regreadout-run",
}
SWEEP_DEFAULTS = {
    "n_values": "2,3,4,5",
    "policies": "random_permutation",
    "gamma": 1.0,
    "dt": None,
    # longer than the run default: the slowest no-control stragglers at
    # n = 4..5 need the room to reach the deepest default target
    "max_time": 4.0,
    "integrator": "exact",
    "cycle_file": None,
    "epsilons": None,
    "count": 1000,
    "seed": DEFAULT_MASTER_SEED,
    "out": "regreadout-sweep",
    "unsafe_large_n": False,
}
BOUNDS_DEFAULTS = {"n_values": "1,2,3,4,5", "out": None}
VERIFY_DEFAULTS = {"dimensions": "4,8"}


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


def _resolve(args, defaults: dict, allowed: tuple[str, ...]) -> SimpleNamespace:
    """Layer defaults, then the config file, then explicit flags."""
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        for key, (value, lineno) in read_config_file(config_path).items():
            if key not in allowed:
                raise ValueError(f"{config_path}:{lineno}: unknown key {key!r}")
            try:
                merged[key] = _COERCERS[key](value)
            except ValueError as exc:
                raise ValueError(
                    f"{config_path}:{lineno}: bad value for {key}: {exc}"
                ) from None
    for key in allowed:
        given = getattr(args, key, None)
        if isinstance(merged.get(key), bool):
            if given:
                merged[key] = True
        elif given is not None:
            merged[key] = given
    return SimpleNamespace(**merged)


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
    if name == "none":
        return no_control()
    if name == "h_ordering":
        return h_ordering_policy()
    if name == "random_permutation":
        return random_permutation_policy()
    if cycle_file is None:
        raise ValueError("policy fixed_cycle requires --cycle-file")
    return fixed_cycle_policy(read_cycle_file(cycle_file, dimension=dimension))


def _out_dir(path_text: str) -> Path:
    out = Path(path_text)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_rows(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _num(value: float) -> str:
    return repr(float(value))


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


def _curve_rows(stats: EnsembleStats):
    for t, m, s in zip(
        stats.sample_times, stats.mean_ln_delta, stats.stderr_ln_delta
    ):
        yield (_num(t), _num(m), _num(s))


def _passage_rows(stats: EnsembleStats):
    for e, m, s, c in zip(
        stats.epsilons,
        stats.mean_first_passage,
        stats.stderr_first_passage,
        stats.censored_fraction,
    ):
        yield (_num(e), _num(m), _num(s), _num(c))


def cmd_run(args) -> int:
    cfg = _resolve(args, RUN_DEFAULTS, RUN_KEYS)
    if cfg.count < 1:
        raise ValueError("count must be >= 1")
    params = SimulationParams(
        n=cfg.n,
        gamma=cfg.gamma,
        dt=cfg.dt,
        max_time=cfg.max_time,
        integrator=cfg.integrator,
        stop_epsilon=RUN_STOP_EPSILON,
    )
    epsilons = _parse_epsilons(cfg.epsilons)
    policy = _build_policy(cfg.policy, cfg.cycle_file, 2**params.n)

    start = time.perf_counter()
    stats = run_ensemble(params, policy, epsilons, cfg.count, cfg.seed)
    wall = time.perf_counter() - start

    slope = slope_err = None
    window = auto_slope_window(stats)
    try:
        slope, slope_err = fit_ln_delta_slope(stats, *window)
    except ValueError:
        window = None
    nofb_slope = -NOFB_RATE * params.gamma
    fit = None
    try:
        fit = regression_mean_time(stats)
    except ValueError:
        pass

    out = _out_dir(cfg.out)
    _write_rows(out / LOG_CSV, "t,mean_ln_delta,stderr", _curve_rows(stats))
    _write_rows(
        out / PASSAGE_CSV,
        "epsilon,mean_T,stderr,censored_frac",
        _passage_rows(stats),
    )
    max_censored = (
        float(stats.censored_fraction.max()) if stats.censored_fraction.size else 0.0
    )
    summary = {
        "command": "run",
        "n": params.n,
        "gamma": params.gamma,
        "dt": params.dt,
        "max_time": params.max_time,
        "integrator": params.integrator,
        "policy": cfg.policy,
        "count": cfg.count,
        "seed": cfg.seed,
        "slope": slope,
        "slope_stderr": slope_err,
        "slope_window": list(window) if window else None,
        "nofb_theory_slope": nofb_slope,
        "mean_time_slope": fit.slope if fit else None,
        "mean_time_slope_stderr": fit.slope_stderr if fit else None,
        "mean_time_intercept": fit.intercept if fit else None,
        "mean_time_points": fit.point_count if fit else None,
        "max_censored_fraction": max_censored,
    }
    _write_json(out / SUMMARY_JSON, summary)
    config_echo = {
        "n": params.n,
        "gamma": params.gamma,
        "dt": params.dt,
        "max_time": params.max_time,
        "integrator": params.integrator,
        "policy": cfg.policy,
        "cycle_file": cfg.cycle_file,
        "epsilons": [float(e) for e in epsilons],
        "count": cfg.count,
        "seed": cfg.seed,
        "stop_epsilon": RUN_STOP_EPSILON,
    }
    _write_manifest(
        out, "run", config_echo, wall,
        [LOG_CSV, PASSAGE_CSV, SUMMARY_JSON],
        censoring={"max": max_censored},
    )

    print(f"run: policy={cfg.policy} n={params.n} count={cfg.count} seed={cfg.seed}")
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
    print(f"  max censored fraction: {max_censored:g}")
    print(f"  wrote {LOG_CSV}, {PASSAGE_CSV}, {SUMMARY_JSON} -> {out}")

    if args.check:
        failures = []
        if not np.all(np.isfinite(stats.mean_ln_delta)):
            failures.append("non-finite mean curve")
        if stats.epsilons.size and not np.all(
            np.isfinite(stats.mean_first_passage)
        ):
            failures.append("non-finite first-passage means")
        if max_censored > 0.10:
            failures.append(f"censoring {max_censored:.3f} above 0.10")
        if cfg.policy == "none":
            if slope is None or abs(slope - nofb_slope) > 0.10 * abs(nofb_slope):
                failures.append(
                    f"slope {slope} outside 10% of {nofb_slope:g}"
                )
        if failures:
            for f in failures:
                print(f"check failed: {f}", file=sys.stderr)
            return 3
        print("  checks passed")
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve(args, SWEEP_DEFAULTS, SWEEP_KEYS)
    n_values = _parse_int_list(cfg.n_values, "n-values")
    if min(n_values) < 1:
        raise ValueError("register sizes must be >= 1")
    if max(n_values) > SWEEP_MAX_N and not cfg.unsafe_large_n:
        raise ValueError(
            f"n > {SWEEP_MAX_N} scales exponentially; pass --unsafe-large-n "
            "to proceed"
        )
    policy_names = [tok.strip() for tok in cfg.policies.split(",") if tok.strip()]
    if not policy_names:
        raise ValueError("policies list is empty")
    for name in policy_names:
        if name not in POLICY_KINDS:
            raise ValueError(f"unknown policy {name!r}")
    epsilons = _parse_epsilons(cfg.epsilons)
    params_template = SimulationParams(
        n=n_values[0],
        gamma=cfg.gamma,
        dt=cfg.dt,
        max_time=cfg.max_time,
        integrator=cfg.integrator,
        stop_epsilon=float(np.min(epsilons)),
    )

    policies = [_build_policy(name, cfg.cycle_file, None) for name in policy_names]

    start = time.perf_counter()
    rows = []
    fits = {}
    point_dicts = []
    sweeps = speedup_scaling_sweep(
        n_values, policies, params_template, cfg.count, cfg.seed,
        epsilons=epsilons,
    )
    for name, points in zip(policy_names, sweeps):
        for p in points:
            rows.append(
                (
                    str(p.n),
                    name,
                    _num(p.estimate.value),
                    _num(p.estimate.stderr),
                    _num(p.bounds.lower),
                    _num(p.bounds.upper),
                )
            )
            point_dicts.append(
                {
                    "n": p.n,
                    "policy": name,
                    "speedup": p.estimate.value,
                    "stderr": p.estimate.stderr,
                    "bound_lo": p.bounds.lower,
                    "bound_hi": p.bounds.upper,
                }
            )
        try:
            fits[name] = asdict(fit_speedup_scaling(points))
        except ValueError:
            fits[name] = None
    wall = time.perf_counter() - start

    out = _out_dir(cfg.out)
    _write_rows(
        out / SWEEP_CSV, "n,policy,speedup,stderr,bound_lo,bound_hi", rows
    )
    summary = {
        "command": "sweep",
        "n_values": n_values,
        "policies": policy_names,
        "count": cfg.count,
        "seed": cfg.seed,
        "points": point_dicts,
        "fits": fits,
    }
    _write_json(out / SUMMARY_JSON, summary)
    config_echo = {
        "n_values": n_values,
        "policies": policy_names,
        "gamma": cfg.gamma,
        "dt": params_template.dt,
        "max_time": cfg.max_time,
        "integrator": cfg.integrator,
        "cycle_file": cfg.cycle_file,
        "epsilons": [float(e) for e in epsilons],
        "count": cfg.count,
        "seed": cfg.seed,
    }
    _write_manifest(out, "sweep", config_echo, wall, [SWEEP_CSV, SUMMARY_JSON])

    print("n  policy                speed-up    stderr   band")
    for row in rows:
        print(
            f"{row[0]:<3}{row[1]:<22}{float(row[2]):<12.4f}"
            f"{float(row[3]):<9.4f}[{float(row[4]):.4f}, {float(row[5]):.4f}]"
        )
    for name, fit in fits.items():
        if fit:
            print(
                f"{name}: speed-up ~ {fit['slope']:.3f} n + "
                f"{fit['intercept']:.3f} (slope stderr {fit['slope_stderr']:.3f})"
            )
    print(f"  wrote {SWEEP_CSV}, {SUMMARY_JSON} -> {out}")

    if args.check:
        failures = []
        for row in rows:
            value = float(row[2])
            err = float(row[3])
            lo = float(row[4]) - 3.0 * err
            hi = float(row[5]) + 3.0 * err
            if not (lo <= value <= hi):
                failures.append(
                    f"n={row[0]} {row[1]}: speed-up {value:.4f} outside "
                    f"[{lo:.4f}, {hi:.4f}]"
                )
        if failures:
            for f in failures:
                print(f"check failed: {f}", file=sys.stderr)
            return 3
        print("  checks passed")
    return 0


def cmd_bounds(args) -> int:
    cfg = _resolve(args, BOUNDS_DEFAULTS, BOUNDS_KEYS)
    n_values = _parse_int_list(cfg.n_values, "n-values")
    if min(n_values) < 1:
        raise ValueError("register sizes must be >= 1")
    rows = []
    print("n  policy                bound_lo    bound_hi")
    for n in n_values:
        for name, bounds in (
            ("h_ordering", h_ordering_speedup_bounds(n)),
            ("random_permutation", random_permutation_speedup_bounds(n)),
        ):
            print(f"{n:<3}{name:<22}{bounds.lower:<12.6g}{bounds.upper:.6g}")
            rows.append(
                (str(n), name, _num(bounds.lower), _num(bounds.upper))
            )
    print(LARGE_N_NOTE)
    if cfg.out:
        start = time.perf_counter()
        out = _out_dir(cfg.out)
        _write_rows(out / BOUNDS_CSV, "n,policy,bound_lo,bound_hi", rows)
        _write_manifest(
            out, "bounds", {"n_values": n_values}, time.perf_counter() - start,
            [BOUNDS_CSV],
        )
        print(f"wrote {BOUNDS_CSV} -> {out}")
    return 0


def cmd_verify_identities(args) -> int:
    cfg = _resolve(args, VERIFY_DEFAULTS, VERIFY_KEYS)
    dims = _parse_int_list(cfg.dimensions, "dimensions")
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
    run.add_argument("--n", type=int, default=None, help="number of qubits")
    run.add_argument("--gamma", type=float, default=None, help="measurement rate")
    run.add_argument("--dt", type=float, default=None, help="integration step")
    run.add_argument("--max-time", type=float, default=None, dest="max_time")
    run.add_argument("--integrator", choices=list(INTEGRATORS), default=None)
    run.add_argument("--policy", choices=list(POLICY_KINDS), default=None)
    run.add_argument("--cycle-file", default=None, dest="cycle_file")
    run.add_argument(
        "--epsilons", default=None,
        help="comma-separated targets, strictly decreasing",
    )
    run.add_argument("--count", type=int, default=None, help="trajectories")
    run.add_argument("--seed", type=int, default=None, help="master seed")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--check", action="store_true",
                     help="exit 3 unless sanity checks pass")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="speed-up versus register size")
    sweep.add_argument("--config", default=None)
    sweep.add_argument("--n-values", default=None, dest="n_values",
                       help="comma-separated register sizes")
    sweep.add_argument("--policies", default=None,
                       help="comma-separated policy names")
    sweep.add_argument("--gamma", type=float, default=None)
    sweep.add_argument("--dt", type=float, default=None)
    sweep.add_argument("--max-time", type=float, default=None, dest="max_time")
    sweep.add_argument("--integrator", choices=list(INTEGRATORS), default=None)
    sweep.add_argument("--cycle-file", default=None, dest="cycle_file")
    sweep.add_argument("--epsilons", default=None)
    sweep.add_argument("--count", type=int, default=None)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--unsafe-large-n", action="store_true",
                       dest="unsafe_large_n",
                       help="allow n above the exponential-cost cap")
    sweep.add_argument("--check", action="store_true",
                       help="exit 3 unless every point sits in its band")
    sweep.set_defaults(func=cmd_sweep)

    bounds = sub.add_parser("bounds", help="print analytic speed-up bands")
    bounds.add_argument("--config", default=None)
    bounds.add_argument("--n-values", default=None, dest="n_values")
    bounds.add_argument("--out", default=None)
    bounds.set_defaults(func=cmd_bounds)

    verify = sub.add_parser(
        "verify-identities",
        help="check the exact permutation sum identities",
    )
    verify.add_argument("--config", default=None)
    verify.add_argument("--dimensions", default=None,
                        help="comma-separated dimensions (4 and/or 8)")
    verify.set_defaults(func=cmd_verify_identities)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
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
