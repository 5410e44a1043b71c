"""Run the benchmark over several seeds and summarise each end-to-end
metric the way a comparison reads it.

    python3 benchmarks/campaign.py --workloads sweep --seeds 1-10 --out FILE
    python3 benchmarks/campaign.py --seeds 1-10 --compare FILE

Runs run.py once per (workload, seed), one after another, with the
run_seconds of BENCHMARK.json.  For each metric it prints the median, the
quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median and
that spread as a share of the metric's bound.  --trace-seed adds one
traced run per workload and records its per-layer metrics.  --out writes
the summary with every run's values, counts and environment; --compare
reads such a file and, per metric, reports how far this median moved
against its bound and whether the counts repeated exactly at each seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    result["counts"] = record["counts"]
    result["env"] = record["env"]
    return result


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "min": min(values), "max": max(values), "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="collapse,sweep,mc_rate")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    parser.add_argument("--compare", default=None)
    parser.add_argument("--trace-seed", type=int, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    summary: dict = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, spec["run_seconds"])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        metrics = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = dict(summarise(values), values=values, bound=bounds[name])
        summary["workloads"][workload] = {
            "metrics": metrics,
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "counts": {str(s): r["counts"] for s, r in zip(seeds, runs)},
            "env": runs[0]["env"],
        }
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, spec["run_seconds"], trace=1)
            summary["workloads"][workload]["per_layer"] = {
                "seed": args.trace_seed,
                "correct": traced["correct"],
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
            }

    previous = json.loads(Path(args.compare).read_text()) if args.compare else None
    print(f"{'workload':<9} {'metric':<19} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'/bound':>7}" + ("  drift /bound counts" if previous else ""))
    for workload, data in summary["workloads"].items():
        for name, m in data["metrics"].items():
            line = (f"{workload:<9} {name:<19} {m['median']:>11.5g} {m['q1']:>11.5g} "
                    f"{m['q3']:>11.5g} {m['spread']:>7.3f} {m['spread'] / m['bound']:>7.2f}")
            if previous and workload in previous["workloads"]:
                old = previous["workloads"][workload]
                before = old["metrics"][name]["median"]
                worse = (m["median"] - before) / before
                if better[name] == "higher":
                    worse = -worse
                line += f"  {worse:+.3f} {worse / m['bound']:+.2f}"
                same = {s: c for s, c in old["counts"].items() if s in data["counts"]}
                line += "  " + ("same" if all(data["counts"][s] == c for s, c in same.items()) else "DIFFER")
            print(line)
        print(f"{workload:<9} correct={data['correct']} failed {data['failed']} of {data['attempted']} checks")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
