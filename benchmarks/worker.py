"""One benchmark process: set up one workload and, unless probing, run its
timed section once, evaluate the outputs and print one JSON line.

    python3 benchmarks/worker.py --workload W --seed N --mode M --scratch DIR

Modes: `probe` stops after set-up, `timed` runs untraced, `traced` also
records spans into DIR.  run.py starts these; the library is imported from
the checkout's src/ and from nowhere else.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def environment(np) -> dict:
    """Python, numpy, BLAS and CPU facts of this process."""
    import os
    import platform

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "note": "in-process timing only; no system-wide profiler was used",
    }


def blas_threads():
    """Thread count OpenBLAS reports, or the environment setting when the
    library cannot be asked."""
    import ctypes
    import os
    import re

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read()))
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for symbol in (
                "openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
            ):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "timed", "traced"), required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy as np

    import regreadout as rr
    from regreadout import cli, ensemble, theory

    if Path(rr.__file__).resolve().parent != (SRC / "regreadout").resolve():
        raise RuntimeError(f"regreadout imported from {rr.__file__}, not {SRC}")
    import spans
    import workloads

    scratch = Path(args.scratch)
    inputs = workloads.make_inputs(args.workload, args.seed, rr, scratch / "cli-out")
    setup_s = time.perf_counter() - START
    if args.mode == "probe":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    captured: list = []
    spans.capture_results(ensemble, "run_ensemble", captured)
    tracer = None
    if args.mode == "traced":
        tracer = spans.Tracer(f"{args.workload}-seed{args.seed}-{scratch.name}")
        labels = {id(state): label for label, state in inputs.get("states", ())}
        annotate = {
            "ensemble.run_ensemble": lambda a, kw, result: {
                "key": f"{result.policy_kind}.n{result.params.n}",
                "steps": workloads.useful_traj_steps(result),
                "args": spans.call_key(a, kw),
            },
            "ensemble.mc_permuted_step_rate": lambda a, kw, result: {
                "key": labels.get(id(a[0])),
                "samples": a[3] if len(a) > 3 else kw["samples"],
            },
        }
        modules = {"cli": cli, "ensemble": ensemble, "theory": theory}
        for module, attr, name in spans.TRACED:
            tracer.wrap(modules[module], attr, name, annotate.get(name))

    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    outputs = workloads.run(args.workload, inputs, ensemble, theory, cli)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()

    result = workloads.evaluate(args.workload, inputs, outputs, captured)
    payload = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "traj_steps": result["traj_steps"],
        "samples": result["samples"],
        "stderr": result["stderr"],
        "run_ensemble_calls": len(captured),
        "run_ensemble_unique": len({key for key, _ in captured}),
        "checks": [list(c) for c in result["checks"]],
        "env": environment(np),
    }
    if tracer is not None:
        payload["layers"] = spans.layer_metrics(
            tracer.spans, output_bytes=result["output_bytes"]
        )
        tracer.write(scratch / "spans.json")
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
