"""Workload ``experiments``: one cold pass over the paper's E1-E13.

Each experiment runs through its module's public ``run(...)`` at the sizes
below — between the tier-1 ``small`` sizes and the full defaults — and must
pass its own ``ExperimentResult.require`` shape checks.  The pass runs once
per process, so every experiment is cold: a second pass would reuse the
process-wide caches (default Session, the recurrence table) and measure
something else.  Its length is fixed by the sizes, not by ``--seconds``.
"""

from __future__ import annotations

import importlib
import time

from common import Outcome, derive_rng

#: (experiment id, module, keyword arguments, takes a seed)
PLAN = (
    ("E1", "largest_id", {"sizes": [16, 32, 64, 128, 256, 512]}, True),
    ("E2", "recurrence", {"sizes": [16, 64, 256, 1024, 2048]}, False),
    ("E3", "coloring", {"sizes": [16, 32, 64, 128, 256, 512]}, True),
    ("E4", "lower_bound", {"sizes": [16, 32, 64, 128]}, True),
    ("E5", "regularity", {"sizes": [16, 32, 64, 128]}, True),
    ("E6", "random_ids", {"sizes": [16, 32, 64, 128, 256], "samples": 16}, True),
    ("E7", "dynamic", {"sizes": [64, 128, 256]}, True),
    ("E8", "parallel", {"sizes": [128, 256]}, True),
    ("E9", "simulators", {"sizes": [16, 32, 64]}, True),
    ("E10", "characterization", {"n": 128, "samples": 4}, True),
    ("E11", "general_graphs", {"n": 96, "samples": 3}, True),
    ("E12", "search_strategies", {"sizes": [7]}, False),
    ("E13", "distributions", {"sizes": [6, 7, 8], "samples": 192}, True),
)

SETUP_PROBES = 5


def describe() -> dict:
    return {
        "why": "the work the reproduction exists to do, run cold; time goes to frontier "
        "plan construction (E1, E3) and the O(p^2) recurrence scans (E2)",
        "experiments": {eid: kwargs for eid, _, kwargs, _ in PLAN},
        "task": "one experiment",
        "latency": "wall time of the whole pass (per-experiment times are on the outcome line)",
    }


def setup(seed: int, trace: bool = False):
    """Import every experiment module (all a cold process has to do first)."""
    return {
        eid: importlib.import_module(f"repro.experiments.{module}") for eid, module, _, _ in PLAN
    }


def calls(seed: int) -> list:
    """The pass: ``(id, module name, keyword arguments)`` with derived seeds."""
    rng = derive_rng(seed, "experiments")
    plan = []
    for eid, module, kwargs, seeded in PLAN:
        kwargs = dict(kwargs)
        experiment_seed = rng.randrange(1 << 30)
        if seeded:
            kwargs["seed"] = experiment_seed
        plan.append((eid, module, kwargs))
    return plan


def measure(modules, seed: int, seconds: float) -> Outcome:
    outcome = Outcome()
    per_experiment = {}
    started = time.perf_counter()
    for eid, _, kwargs in calls(seed):
        outcome.attempted += 1
        call_started = time.perf_counter()
        try:
            result = modules[eid].run(**kwargs)
            checks = sum(note.startswith("check passed") for note in result.notes)
            ok = result.experiment_id == eid
        except Exception as exc:  # a failed shape check or a crash is a failure
            ok, checks = False, repr(exc)
        elapsed = time.perf_counter() - call_started
        per_experiment[eid] = {"s": round(elapsed, 4), "checks": checks}
        if ok:
            outcome.tasks += 1
        else:
            outcome.failed += 1
    outcome.elapsed_s = time.perf_counter() - started
    # What a user waits for is the pass: per-experiment times are too
    # uneven (0.1 s to 5 s) for their median to be a steady statistic.
    outcome.latencies_s.append(outcome.elapsed_s)
    outcome.info["per_experiment"] = per_experiment
    return outcome


def teardown(state) -> None:
    pass
