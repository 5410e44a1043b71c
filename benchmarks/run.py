"""regreadout benchmark: one workload, one seed, one JSON result line.

    python3 benchmarks/run.py --workload collapse|sweep|mc_rate \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement happens in a fresh
worker process (worker.py) that imports the library from the checkout's
src/.  With --trace 0 the run starts a few set-up probes, then timed
workers one after another until S seconds of them have run, and reports
the end-to-end metrics as medians over the workers.  With --trace 1 it
alternates an untraced and a traced worker instead and reports the
per-layer metrics from the traced ones; the spans go to
.bench_out/spans-<workload>-seed<N>.json.  Every worker's outputs are
checked; the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

BLAS runs single-threaded in every worker (see README.md for why).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import LAYER_UNITS
from workloads import TARGET_STDERR, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_SETUPS = 7
# the whole run must end within 180 s
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "traj_steps_per_s": "1/s",
    "mc_samples_per_s": "1/s",
    "time_to_accuracy_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# the counts that must repeat exactly between workers on the same inputs
COUNTS = ("traj_steps", "samples", "run_ensemble_calls", "run_ensemble_unique")


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, mode: str, timeout: float, keep_spans: Path | None = None) -> dict:
    """Start one worker, wait for it, and return its JSON line."""
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    env = dict(os.environ, **THREAD_ENV)
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--scratch", str(scratch),
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
        if proc.returncode != 0:
            raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise WorkerFailed(f"{mode} worker printed nothing:\n{proc.stderr}")
        if keep_spans is not None:
            shutil.move(str(scratch / "spans.json"), keep_spans)
        return json.loads(lines[-1])
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker passed the {HARD_LIMIT_S:g} s limit") from None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_samples(workload: str, timed: list[dict], setups: list[float]) -> dict:
    """Each end-to-end metric's value per worker (setup_s: per set-up)."""
    target = TARGET_STDERR[workload]
    return {
        "wall_s": [w["wall_s"] for w in timed],
        "traj_steps_per_s": [w["traj_steps"] / w["wall_s"] for w in timed],
        "mc_samples_per_s": [w["samples"] / w["wall_s"] for w in timed],
        "time_to_accuracy_s": [w["wall_s"] * (w["stderr"] / target) ** 2 for w in timed],
        "peak_rss_mb": [w["peak_rss_mb"] for w in timed],
        "setup_s": setups,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    start = time.perf_counter()
    if not (ROOT / "src" / "regreadout" / "__init__.py").is_file():
        print(f"error: no regreadout package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    def remaining() -> float:
        return HARD_LIMIT_S - (time.perf_counter() - start)

    failures: list[str] = []
    attempted = 0
    failed = 0
    timed: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"

    def attempt(mode: str, keep_spans=None):
        nonlocal attempted, failed
        try:
            return run_worker(args.workload, args.seed, mode, remaining(), keep_spans)
        except WorkerFailed as exc:
            attempted += 1
            failed += 1
            failures.append(str(exc))
            print(str(exc), file=sys.stderr)
            return None

    def probe():
        worker = attempt("probe")
        if worker is not None:
            setups.append(worker["setup_s"])

    # Timed workers run until --seconds of them have passed.  Untraced
    # runs spread set-up probes between them; set-up time is the median
    # over probes and workers.
    measured = 0.0
    while True:
        if not args.trace:
            probe()
        began = time.perf_counter()
        # traced runs alternate which of the pair goes first
        modes = ("timed", "traced") if len(timed) % 2 == 0 else ("traced", "timed")
        for mode in modes if args.trace else ("timed",):
            worker = attempt(mode, spans_path if mode == "traced" and not traced else None)
            if worker is None:
                continue
            if mode == "traced":
                traced.append(worker)
            else:
                timed.append(worker)
                setups.append(worker["setup_s"])
        last = time.perf_counter() - began
        measured += last
        if not timed:
            break
        if measured >= args.seconds:
            break
        if remaining() < 1.5 * last + 5.0:
            break
    while not args.trace and len(setups) < MIN_SETUPS and remaining() > 10.0:
        probe()

    if not timed or (args.trace and not traced):
        print("error: no worker finished its timed section", file=sys.stderr)
        return 1

    for worker in timed + traced:
        for name, ok, detail in worker["checks"]:
            attempted += 1
            if not ok:
                failed += 1
                failures.append(f"{name}: {detail}")
    counts = [tuple(w[c] for c in COUNTS) for w in timed + traced]
    attempted += 1
    if len(set(counts)) != 1:
        failed += 1
        failures.append(f"counts differ between workers on the same inputs: {counts}")

    env = dict(timed[0]["env"], workload=args.workload, seed=args.seed)
    print(f"regreadout benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "note"))
    print(f"note: {env['note']}")
    if args.trace:
        layers = {
            name: median([w["layers"][name] for w in traced])
            for name in traced[0]["layers"]
        }
        layers["process.cpu_util"] = median([w["cpu_s"] / w["wall_s"] for w in timed])
        layers["trace.overhead_frac"] = (
            median([w["wall_s"] for w in traced]) / median([w["wall_s"] for w in timed]) - 1.0
        )
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
        for name, m in metrics.items():
            print(f"{name:<62} {m['value']:.6g} {m['unit']}")
        print(f"traced workers: {len(traced)}, untraced: {len(timed)}; spans in {spans_path}")
    else:
        samples = end_to_end_samples(args.workload, timed, setups)
        metrics = {
            name: {"value": median(samples[name]), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
        for name, values in samples.items():
            print(f"{name:<20} median {median(values):.6g} {END_TO_END_UNITS[name]}"
                  f"  (min {min(values):.6g}, max {max(values):.6g}, n={len(values)})")
    print(f"failed_frac          {failed / attempted:g} ({failed} of {attempted} checks failed)")
    for name, ok, detail in timed[0]["checks"]:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} {detail}")
    for message in failures:
        print(f"failure: {message.splitlines()[0]}")
    counts = {c: timed[0][c] for c in COUNTS}
    print("counts: " + " ".join(f"{k}={v}" for k, v in counts.items()))

    record = {
        "env": env,
        "seconds": args.seconds,
        "trace": args.trace,
        "counts": counts,
        "workers": timed + traced,
        "setups": setups,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
    }
    result_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
