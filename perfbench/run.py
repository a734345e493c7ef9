"""End-to-end and per-layer benchmark of the ``repro`` package.

Usage (from the repository root)::

    python3 perfbench/run.py --workload experiments --seed 1 --seconds 30 --trace 0

Workloads: ``experiments``, ``warm-queries``, ``scale-shards`` and
``serve-mixed`` (see ``perfbench/README.md`` for why each exists and what it
contains).  Every input derives from ``--seed``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  Lines before it start with ``#``
and describe the run.

A traced run first runs the same workload untraced in a child process (for
``trace.overhead_frac``), then again in this process with spans on every
layer boundary (see ``perfbench/layers.py``).

Each workload module provides ``describe()``, ``setup(seed, trace)``,
``measure(state, seed, seconds) -> Outcome`` and ``teardown(state)``, plus
either ``SETUP_PROBES`` (set-up is timed in that many fresh processes) or
``setup_samples(state)``; optionally ``rss_root(state)`` (the process tree
under test), ``verify(state, seed, outcome)`` (checks after the window) and
``layer_metrics(state, names)`` (per-layer metrics recorded in another
process, the traced server).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time

import layers
from common import (ROOT, SRC, WORK, become_subreaper, environment, latency_summary, probe_setup,
                    reap_descendants, tree_peak_rss_mb)
from tracer import Tracer

WORKLOADS = {
    "experiments": "wl_experiments",
    "warm-queries": "wl_warm",
    "scale-shards": "wl_scale",
    "serve-mixed": "wl_serve",
}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER_UNITS = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    document = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(document), flush=True)


def _note(label: str, value) -> None:
    print(f"# {label}: {json.dumps(value, sort_keys=True, default=str)}", flush=True)


def _untraced_baseline(args) -> dict:
    """The same run with tracing off, in a fresh process (its final JSON line)."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=170)
    if completed.returncode != 0:
        raise RuntimeError(f"untraced baseline run failed (exit {completed.returncode})")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    """Run one workload; every process it started has ended when this returns."""
    args = _parse(argv)
    become_subreaper()
    try:
        return _run(args)
    finally:
        reap_descendants()


def _run(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = importlib.import_module(WORKLOADS[args.workload])
    if args.probe_setup:
        state = workload.setup(args.seed)
        print("READY", flush=True)
        workload.teardown(state)
        return 0

    WORK.mkdir(exist_ok=True)
    _note("workload", {"name": args.workload, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, **workload.describe()})
    baseline = _untraced_baseline(args) if args.trace else None

    tracer = None
    setup_samples = []
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    elif hasattr(workload, "SETUP_PROBES"):
        setup_samples = probe_setup(args.workload, args.seed, workload.SETUP_PROBES)

    setup_started = time.perf_counter()
    state = workload.setup(args.seed, trace=bool(args.trace))
    in_process_setup_s = time.perf_counter() - setup_started
    try:
        if not args.trace and not setup_samples:
            setup_samples = workload.setup_samples(state)
        since = 0
        if tracer is not None:
            since = len(tracer.spans)
            tracer.recording = True
        outcome = workload.measure(state, args.seed, args.seconds)
        if tracer is not None:
            tracer.recording = False
        rss_root = workload.rss_root(state) if hasattr(workload, "rss_root") else os.getpid()
        rss_mb = tree_peak_rss_mb(rss_root)
        if hasattr(workload, "verify"):
            outcome = workload.verify(state, args.seed, outcome)
    finally:
        workload.teardown(state)

    latency = latency_summary(outcome.latencies_s)
    tasks_per_s = outcome.tasks / outcome.elapsed_s
    _note("outcome", {"attempted": outcome.attempted, "failed": outcome.failed,
                      "fail_frac": outcome.failed / max(1, outcome.attempted),
                      "tasks": outcome.tasks, "elapsed_s": outcome.elapsed_s,
                      "latency": latency, **outcome.info})
    _note("environment", environment())
    correct = outcome.failed == 0

    if not args.trace:
        _note("setup", {"fresh_process_samples_s": setup_samples,
                        "in_process_s": in_process_setup_s})
        metrics = {
            "tasks_per_s": tasks_per_s,
            "latency_p50_ms": latency["p50_ms"],
            "latency_tail_ms": latency["tail_ms"],
            "peak_rss_mb": rss_mb,
            "setup_s": statistics.median(setup_samples),
        }
        _emit(correct, outcome.attempted, outcome.failed, metrics, END_TO_END_UNITS)
        return 0

    if hasattr(workload, "layer_metrics"):
        metrics = workload.layer_metrics(state, PER_LAYER_UNITS)
    else:
        metrics = layers.layer_metrics(tracer, since, outcome.elapsed_s, PER_LAYER_UNITS)
        trace_path = WORK / f"trace-{args.workload}-{args.seed}-{os.getpid()}.json"
        tracer.dump(trace_path)
        _note("trace_file", str(trace_path.relative_to(ROOT)))
    metrics["gen.late_ms"] = outcome.info.get("gen_late_ms", 0.0)
    untraced_rate = baseline["metrics"]["tasks_per_s"]["value"]
    metrics["trace.overhead_frac"] = untraced_rate / tasks_per_s - 1.0
    _note("per_layer_self_time_share", {
        name: round(value / metrics["trace.wall_s"], 4)
        for name, value in metrics.items()
        if PER_LAYER_UNITS[name] == "s" and name != "trace.wall_s" and value
    })
    _emit(correct and baseline["correct"], outcome.attempted, outcome.failed, metrics,
          PER_LAYER_UNITS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
