"""Workload ``warm-queries``: one long-lived Session answering every query mode.

A closed loop with one client: the next query is sent when the previous one
has returned.  Queries come in rounds of a fixed composition (``MIX``),
shuffled per round; a run does whole rounds for about ``--seconds`` (see
``common.another_unit``), so every run measures the same mix.  Cycle and path queries
draw a fresh seed each time (new identifier assignments on the cached
graph); random-tree queries draw from a pool of ``TREE_POOL`` seeds fixed
per run, because a tree's shape derives from the query seed and the graphs
must be built during set-up for the session to be warm.  Exhaustive modes
(worst case, exact distribution) use cycles and paths only: their cost
depends on the graph's automorphism group, so a seed-dependent tree would
make the run's cost depend on the seed.

Set-up builds the session's graphs, frontier plans, compiled kernels and
automorphism groups by running every template once per seed it will see
(sampling templates at a small budget), so the measured window pays only
for kernel rules, sampling folds, branch-and-bound and decision caching.
"""

from __future__ import annotations

import math
import time

from common import Outcome, another_unit, derive_rng

TREE_POOL = 1
SETUP_PROBES = 2
#: Small sampling budget used to warm sampling templates during set-up.
WARM_SAMPLES = 32

#: (kind, count per round, query fields).  ``random-tree`` templates take
#: their seed from the tree pool, the rest a fresh seed per query.
MIX = (
    ("simulate", 40, dict(topologies="cycle", sizes=128, algorithms="largest-id")),
    ("simulate", 40, dict(topologies="cycle", sizes=128, algorithms="greedy-coloring")),
    ("simulate", 30, dict(topologies="cycle", sizes=128, algorithms="ring-coloring-via-mis")),
    ("simulate", 2, dict(topologies="cycle", sizes=256, algorithms="cole-vishkin")),
    ("simulate", 20, dict(topologies="random-tree", sizes=128, algorithms="greedy-mis")),
    ("simulate", 20, dict(topologies="random-tree", sizes=128, algorithms="largest-id")),
    ("worst-case", 1, dict(topologies="cycle", sizes=8, algorithms="largest-id", measure="average")),
    ("worst-case", 1, dict(topologies="cycle", sizes=8, algorithms="ring-coloring-via-mis", measure="classic")),
    ("worst-case", 1, dict(topologies="path", sizes=7, algorithms="largest-id", measure="sum")),
    ("worst-case", 1, dict(topologies="path", sizes=7, algorithms="greedy-coloring", measure="average")),
    ("exact", 1, dict(topologies="cycle", sizes=8, algorithms="largest-id", methods=("exact", "sample"), samples=2000)),
    ("exact", 1, dict(topologies="cycle", sizes=9, algorithms="greedy-coloring", methods="exact")),
    ("exact", 1, dict(topologies="path", sizes=7, algorithms="largest-id", methods="exact")),
    ("exact", 1, dict(topologies="path", sizes=7, algorithms="greedy-mis", methods=("exact", "sample"), samples=2000)),
    ("sample", 1, dict(topologies="cycle", sizes=128, algorithms="largest-id", methods="sample", samples=2000)),
    ("sample", 1, dict(topologies="cycle", sizes=128, algorithms="cole-vishkin", methods="sample", samples=2000)),
    ("sample", 1, dict(topologies="random-tree", sizes=128, algorithms="largest-id", methods="sample", samples=2000)),
    ("sample", 1, dict(topologies="cycle", sizes=64, algorithms="greedy-coloring", methods="sample", samples=1024)),
    ("sweep", 1, dict(topologies=("cycle", "path"), sizes=7, algorithms=("largest-id", "greedy-mis"),
                      adversaries=("branch-and-bound", "rotation"))),
    ("sweep", 2, dict(topologies=("cycle", "path"), sizes=12, algorithms=("largest-id", "greedy-coloring"),
                      adversaries=("random-search", "local-search"), samples=32)),
)

MODE_OF_KIND = {"simulate": "simulate", "worst-case": "worst-case", "exact": "distribution",
                "sample": "distribution", "sweep": "sweep"}


def describe() -> dict:
    return {
        "why": "hot caches: the work is in kernel rules, sampling folds, branch-and-bound and "
        "decision caching, not frontier plans",
        "loop": "closed, one client",
        "round": [{"kind": kind, "count": count, **fields} for kind, count, fields in MIX],
        "tree_seed_pool": TREE_POOL,
        "task": "one query",
        "latency": "wall time of one query",
    }


def _query(kind: str, fields: dict, seed: int):
    from repro import Query

    extra = {"adversaries": "branch-and-bound"} if kind == "worst-case" else {}
    return Query(mode=MODE_OF_KIND[kind], seed=seed, **extra, **fields)


def _uses_pool(fields: dict) -> bool:
    topologies = fields["topologies"]
    return "random-tree" in ((topologies,) if isinstance(topologies, str) else topologies)


def setup(seed: int, trace: bool = False):
    from repro.api import Session

    rng = derive_rng(seed, "warm", "tree-pool")
    pool = [rng.randrange(1 << 30) for _ in range(TREE_POOL)]
    session = Session()
    for kind, _, fields in MIX:
        warm_fields = dict(fields)
        if "samples" in warm_fields and kind == "sample":
            warm_fields["samples"] = WARM_SAMPLES
        for warm_seed in pool if _uses_pool(fields) else pool[:1]:
            session.run(_query(kind, warm_fields, warm_seed))
    return {"session": session, "pool": pool}


def rounds(seed: int, pool: list):
    """Endless seeded rounds: lists of ``(kind, Query)`` in a shuffled order."""
    rng = derive_rng(seed, "warm", "queries")
    while True:
        batch = []
        for kind, count, fields in MIX:
            for _ in range(count):
                query_seed = rng.choice(pool) if _uses_pool(fields) else rng.randrange(1 << 30)
                batch.append((kind, _query(kind, fields, query_seed)))
        rng.shuffle(batch)
        yield batch


def check(kind: str, result) -> list[str]:
    """Violations of the paper's invariants in one result (empty when sound)."""
    problems = []
    rows = result.rows
    if not rows:
        return ["no rows"]
    exact_means = {}
    for row in rows:
        n = row["n"]
        if kind == "simulate":
            if not (0 <= row["average"] <= row["classic"] <= n):
                problems.append(f"simulate row breaks average <= classic <= n: {row['average']}, {row['classic']}, {n}")
        elif kind in ("worst-case", "sweep"):
            limit = {"average": n, "max": n, "sum": n * n}[row["objective"]]
            if not (0 < row["value"] <= limit):
                problems.append(f"{row['objective']} worst case {row['value']} outside (0, {limit}]")
            if row["adversary"] == "branch-and-bound" and not row["exact"]:
                problems.append("branch-and-bound answer not exact")
        else:
            average, maximum = row["average"]["mean"], row["max"]["mean"]
            if not (0 <= average <= maximum <= n):
                problems.append(f"distribution breaks average <= classic <= n: {average}, {maximum}, {n}")
            if row["exact"]:
                if row["total_weight"] != math.factorial(n):
                    problems.append(f"exact weights total {row['total_weight']}, not {n}!")
                exact_means[(row["topology"], n, row["algorithm"])] = average
    for row in rows:
        key = (row["topology"], row["n"], row["algorithm"])
        if kind in ("exact", "sample") and not row["exact"] and key in exact_means:
            std_error = row["uncertainty"]["average"]["std_error"]
            gap = abs(row["average"]["mean"] - exact_means[key])
            if gap > 4.0 * std_error + 1e-9:
                problems.append(f"sampled mean {gap:.4g} from exact, beyond 4 standard errors")
    return problems


def measure(state, seed: int, seconds: float) -> Outcome:
    session = state["session"]
    outcome = Outcome()
    kind_time: dict = {}
    kind_count: dict = {}
    problems = []
    completed_rounds = 0
    started = time.perf_counter()
    schedule = rounds(seed, state["pool"])
    while another_unit(started, completed_rounds, seconds):
        for kind, query in next(schedule):
            outcome.attempted += 1
            call_started = time.perf_counter()
            try:
                errors = check(kind, session.run(query))
            except Exception as exc:  # a crash is a failed query
                errors = [repr(exc)]
            elapsed = time.perf_counter() - call_started
            outcome.latencies_s.append(elapsed)
            kind_time[kind] = kind_time.get(kind, 0.0) + elapsed
            kind_count[kind] = kind_count.get(kind, 0) + 1
            if errors:
                outcome.failed += 1
                problems.extend(errors[:2])
            else:
                outcome.tasks += 1
        completed_rounds += 1
    outcome.elapsed_s = time.perf_counter() - started
    busy = sum(kind_time.values())
    outcome.info.update(
        rounds=completed_rounds,
        queries_per_kind=kind_count,
        time_share_per_kind={kind: round(value / busy, 4) for kind, value in kind_time.items()},
        problems=problems[:5],
    )
    return outcome


def teardown(state) -> None:
    pass
