"""Workload ``scale-shards``: ``Session.scale`` on a 10^6-node cycle and a 10^5-node tree.

Queries alternate between the two inputs in pairs; a run does a fixed
number of pairs derived from ``--seconds``.  The count does not adapt to the
host's speed because peak memory grows with the number of distinct trees the
session has cached.  Every
query uses ``workers = nproc`` and ``row_block = ROW_BLOCK`` with
``nproc * ROW_BLOCK`` samples, so each query splits into one row block per
worker and the warm pool (``engine.pool``, shared-memory CSR fan-out) and
the sharded kernel (``kernel.shard``) do the work.  The cycle runs the
ring-scan rule, the tree the max-scan rule's early-stop BFS.

Set-up spawns the pool, builds the cycle's CSR and runs one cycle query, so
every worker has attached the cycle's shared segments, plus one small tree
query.  A random tree's shape derives from the query seed, so each tree
query builds its own CSR: reusing one seed would let worker-side row caches
answer repeats.
"""

from __future__ import annotations

import time

from common import Outcome, derive_rng, nproc

CYCLE_N = 1_000_000
TREE_N = 100_000
ROW_BLOCK = 2
SETUP_PROBES = 2
#: Nominal length of one (cycle, tree) pair on a 2-CPU machine; a run does
#: ``round(seconds / PAIR_S)`` pairs.
PAIR_S = 7.0
INPUTS = (("cycle", CYCLE_N), ("random-tree", TREE_N))


def describe() -> dict:
    workers = nproc()
    return {
        "why": "the only workload where engine.pool and kernel.shard do the work and memory "
        "is the constraint",
        "loop": "closed, one client, pairs of (cycle, tree) scale queries",
        "inputs": [{"topology": t, "n": n, "samples": workers * ROW_BLOCK,
                    "row_block": ROW_BLOCK, "workers": workers} for t, n in INPUTS],
        "task": "10^6 node-samples (tasks_per_s is node_samples_per_s / 1e6)",
        "latency": "wall time of one scale query",
    }


def _query(topology: str, n: int, seed: int, samples: int):
    from repro import Query

    return Query(mode="scale", topologies=topology, sizes=n, algorithms="largest-id",
                 samples=samples, workers=nproc(), row_block=ROW_BLOCK, seed=seed)


def setup(seed: int, trace: bool = False):
    from repro.api import Session

    session = Session()
    rng = derive_rng(seed, "scale", "setup")
    samples = nproc() * ROW_BLOCK
    # A full-size cycle query publishes the cycle's CSR to every worker; a
    # small tree query loads the max-scan path without building a large tree.
    session.scale(_query("cycle", CYCLE_N, rng.randrange(1 << 30), samples))
    session.scale(_query("random-tree", 1000, rng.randrange(1 << 30), samples))
    return {"session": session}


def check(row, topology: str, n: int, samples: int) -> list[str]:
    problems = []
    average, maximum = row["average"]["mean"], row["max"]["mean"]
    if row["samples"] != samples:
        problems.append(f"{row['samples']} samples, asked for {samples}")
    if not (1.0 <= average <= maximum <= n):
        problems.append(f"average radius {average} / max {maximum} outside [1, n={n}]")
    if topology == "cycle" and maximum != n // 2:
        problems.append(f"cycle classic radius {maximum}, expected n/2 = {n // 2}")
    return problems


def measure(state, seed: int, seconds: float) -> Outcome:
    session = state["session"]
    samples = nproc() * ROW_BLOCK
    rng = derive_rng(seed, "scale", "queries")
    outcome = Outcome()
    problems = []
    pairs = max(1, round(seconds / PAIR_S))
    started = time.perf_counter()
    for _ in range(pairs):
        for topology, n in INPUTS:
            outcome.attempted += 1
            call_started = time.perf_counter()
            try:
                rows = session.scale(_query(topology, n, rng.randrange(1 << 30), samples)).rows
                errors = check(rows[0], topology, n, samples)
            except Exception as exc:  # a crash is a failed query
                errors = [repr(exc)]
            outcome.latencies_s.append(time.perf_counter() - call_started)
            if errors:
                outcome.failed += 1
                problems.extend(errors)
            else:
                outcome.tasks += n * samples / 1e6
    outcome.elapsed_s = time.perf_counter() - started
    outcome.info.update(pairs=pairs, node_samples_per_s=outcome.tasks * 1e6 / outcome.elapsed_s,
                        problems=problems[:5])
    return outcome


def teardown(state) -> None:
    from repro.engine.pool import shutdown_pools

    shutdown_pools()
