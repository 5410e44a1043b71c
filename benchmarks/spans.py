"""Spans around calls into regreadout, recorded from outside the library.

A Tracer rebinds a module attribute to a wrapper that times each call
and records a span (name, start, end, parent, run id).  Callers that look
the attribute up at call time then go through the wrapper: for example
speedup_scaling_sweep reaches run_ensemble through
`regreadout.ensemble.run_ensemble`, and cmd_sweep reaches the sweep
through `regreadout.cli.speedup_scaling_sweep`.  Spans stay in memory
until the run ends.

`registers` gets no span: its functions only run inside the spans below,
or are cached tables.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

# (module, attribute, span name); the name is where the function is defined
TRACED = (
    ("cli", "main", "cli.main"),
    ("cli", "speedup_scaling_sweep", "ensemble.speedup_scaling_sweep"),
    ("cli", "fit_speedup_scaling", "ensemble.fit_speedup_scaling"),
    ("ensemble", "run_ensemble", "ensemble.run_ensemble"),
    ("ensemble", "asymptotic_speedup", "ensemble.asymptotic_speedup"),
    ("ensemble", "fit_ln_delta_slope", "ensemble.fit_ln_delta_slope"),
    ("ensemble", "mc_permuted_step_rate", "ensemble.mc_permuted_step_rate"),
    ("ensemble", "trajectory_noise_rng", "sde.trajectory_noise_rng"),
    ("theory", "permutation_averaged_rate", "theory.permutation_averaged_rate"),
    ("theory", "permutation_sum_identities", "theory.permutation_sum_identities"),
)

POLICIES = ("none", "random_permutation", "h_ordering")
ENSEMBLE_KEYS = tuple(f"{p}.n{n}" for p in POLICIES for n in (2, 3, 4, 5))
MC_KEYS = tuple(f"{s}.n{n}" for s in ("two_level", "flat_tail") for n in (2, 3))
SECONDS = (
    "ensemble.run_ensemble",
    "ensemble.speedup_scaling_sweep",
    "ensemble.asymptotic_speedup",
    "ensemble.fit_speedup_scaling",
    "ensemble.fit_ln_delta_slope",
    "sde.trajectory_noise_rng",
    "theory.permutation_averaged_rate",
    "theory.permutation_sum_identities",
)

# per-layer metric name -> unit, in the order they are reported
LAYER_UNITS = {
    **{f"ensemble.run_ensemble.ns_per_traj_step.{k}": "ns" for k in ENSEMBLE_KEYS},
    "ensemble.run_ensemble.calls": "count",
    "ensemble.run_ensemble.unique_frac": "ratio",
    **{f"{name}.s": "s" for name in SECONDS},
    **{f"ensemble.mc_permuted_step_rate.ns_per_sample.{k}": "ns" for k in MC_KEYS},
    "sde.trajectory_noise_rng.calls": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "process.cpu_util": "ratio",
    "trace.overhead_frac": "ratio",
}


def call_key(args, kwargs) -> str:
    """A string that is equal for equal argument sets."""
    def plain(v):
        if hasattr(v, "tolist"):
            return ("array", v.tolist())
        if isinstance(v, (list, tuple)):
            return tuple(plain(x) for x in v)
        return v

    return repr((plain(args), sorted((k, plain(v)) for k, v in kwargs.items())))


def capture_results(module, attr: str, sink: list) -> None:
    """Rebind module.attr so every call appends (call key, result) to
    sink.  Reads no clock: the untraced run uses it to read outputs."""
    original = getattr(module, attr)

    def capturing(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append((call_key(args, kwargs), result))
        return result

    setattr(module, attr, capturing)


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # [name, start, end, parent index or -1, run id, attrs or None]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, module, attr: str, name: str, annotate=None) -> None:
        """Rebind module.attr; annotate(args, kwargs, result) may return a
        dict stored with the span, computed after the span has ended."""
        original = getattr(module, attr)
        spans, stack, run_id = self.spans, self._open, self.run_id

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span[5] = annotate(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        fields = ("name", "start", "end", "parent", "run_id", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(fields, s)) for s in self.spans], fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, *, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced timed section (without the two
    that need the untraced run: process.cpu_util, trace.overhead_frac)."""
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        seconds[s[0]] = seconds.get(s[0], 0.0) + (s[2] - s[1])
        calls[s[0]] = calls.get(s[0], 0) + 1
    m: dict[str, float] = {}

    runs = [s for s in spans if s[0] == "ensemble.run_ensemble"]
    for key in ENSEMBLE_KEYS:
        mine = [s for s in runs if s[5]["key"] == key]
        steps = sum(s[5]["steps"] for s in mine)
        busy = sum(s[2] - s[1] for s in mine)
        m[f"ensemble.run_ensemble.ns_per_traj_step.{key}"] = 1e9 * busy / steps if steps else 0.0
    m["ensemble.run_ensemble.calls"] = len(runs)
    m["ensemble.run_ensemble.unique_frac"] = (
        len({s[5]["args"] for s in runs}) / len(runs) if runs else 0.0
    )
    for name in SECONDS:
        m[f"{name}.s"] = seconds.get(name, 0.0)

    mcs = [s for s in spans if s[0] == "ensemble.mc_permuted_step_rate"]
    for key in MC_KEYS:
        mine = [s for s in mcs if s[5]["key"] == key]
        samples = sum(s[5]["samples"] for s in mine)
        busy = sum(s[2] - s[1] for s in mine)
        m[f"ensemble.mc_permuted_step_rate.ns_per_sample.{key}"] = (
            1e9 * busy / samples if samples else 0.0
        )
    m["sde.trajectory_noise_rng.calls"] = calls.get("sde.trajectory_noise_rng", 0)
    own = self_times(spans)
    m["cli.main.self_s"] = sum(t for s, t in zip(spans, own) if s[0] == "cli.main")
    m["cli.output_bytes"] = output_bytes
    return m
