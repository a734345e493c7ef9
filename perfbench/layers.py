"""Layer boundaries of the ``repro`` package and the per-layer metrics.

:func:`install` wraps each layer's public entry points with
:mod:`tracer` spans and counters; :func:`layer_metrics` reduces one traced
window into the ``per_layer`` metrics named in ``BENCHMARK.json``.  Every
per-layer metric is reported on every workload (a layer the workload does
not reach reads 0).
"""

from __future__ import annotations

import math

from tracer import Tracer, patch_function, patch_method

#: Header carrying the generator's request id into the traced server.
REQUEST_HEADER = "X-Perfbench-Request"

#: Span name -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "api.session.query": "api.session.query_s",
    "experiments.run": "experiments.run_s",
    "engine.frontier.plan": "engine.frontier.plan_s",
    "engine.frontier.run": "engine.frontier.run_s",
    "theory.recurrence": "theory.recurrence_s",
    "kernel.compile": "kernel.compile_s",
    "kernel.batch": "kernel.batch_s",
    "dist.sample": "dist.sample_s",
    "dist.exact": "dist.exact_s",
    "search.maximise": "search.maximise_s",
    "kernel.shard.sample": "kernel.shard.sample_s",
    "engine.pool.map": "engine.pool.map_s",
    "service.store.get": "service.store.get_s",
    "service.store.put": "service.store.put_s",
}

#: Public functions of ``repro.theory.recurrence`` (E2's O(p^2) scans).
RECURRENCE_FUNCTIONS = (
    "worst_case_segment_sum",
    "worst_case_segment_sums",
    "segment_radii",
    "segment_radius_sum",
    "brute_force_segment_maximum",
    "worst_case_segment_arrangement",
    "worst_case_cycle_arrangement",
    "average_radius_upper_bound",
)

EXPERIMENT_MODULES = (
    "largest_id",
    "recurrence",
    "coloring",
    "lower_bound",
    "regularity",
    "random_ids",
    "dynamic",
    "parallel",
    "simulators",
    "characterization",
    "general_graphs",
    "search_strategies",
    "distributions",
)


def _count(metric, value_of):
    """An ``after`` hook adding ``value_of(args, kwargs, result, token)``."""

    def after(tracer, args, kwargs, result, nested, token):
        if not nested:
            tracer.add(metric, value_of(args, kwargs, result, token))

    return after


def install(tracer: Tracer, service: bool = False) -> None:
    """Wrap every layer boundary (``service=True`` adds the service layer)."""
    import importlib

    import repro.dist.exact as dist_exact
    import repro.engine.campaign as campaign
    import repro.engine.frontier as frontier
    import repro.engine.pool as pool
    import repro.kernel.compile as kcompile
    import repro.kernel.shard as shard
    import repro.theory.recurrence as recurrence
    from repro.api.session import Session
    from repro.core.adversary import Adversary

    for module_name in EXPERIMENT_MODULES:
        module = importlib.import_module(f"repro.experiments.{module_name}")
        patch_function(tracer, module, "run", "experiments.run")
    importlib.import_module("repro.search.adversaries")

    for method in ("simulate", "worst_case", "distribution", "sweep", "scale"):
        patch_method(tracer, Session, method, "api.session.query")

    def plan_cached(args, kwargs):
        _, plans, _ = frontier.engine_structure(args[0])
        return args[1] in plans

    patch_function(
        tracer,
        frontier,
        "center_plan",
        "engine.frontier.plan",
        skip=plan_cached,
        after=_count("engine.frontier.plans_built", lambda a, k, r, t: 1),
    )

    def cache_snapshot(args, kwargs):
        cache = args[0].cache
        return None if cache is None else (cache.stats.hits, cache.stats.misses)

    def cache_delta(tracer, args, kwargs, result, nested, token):
        if token is not None:
            stats = args[0].cache.stats
            tracer.add("engine.cache.hits", stats.hits - token[0])
            tracer.add("engine.cache.misses", stats.misses - token[1])

    patch_method(
        tracer,
        frontier.FrontierRunner,
        "run",
        "engine.frontier.run",
        before=cache_snapshot,
        after=cache_delta,
    )

    for name in RECURRENCE_FUNCTIONS:
        patch_function(tracer, recurrence, name, "theory.recurrence")

    patch_function(
        tracer,
        kcompile,
        "compile_instance",
        "kernel.compile",
        after=_count("kernel.compiles", lambda a, k, r, t: 1),
    )
    patch_function(
        tracer,
        kcompile,
        "simulate_batch",
        "kernel.batch",
        after=_count("kernel.rows", lambda a, k, r, t: len(r)),
    )
    patch_function(
        tracer,
        kcompile,
        "simulate_many",
        "kernel.batch",
        after=_count("kernel.rows", lambda a, k, r, t: sum(len(block) for block in r)),
    )
    patch_method(
        tracer,
        kcompile.CompiledInstance,
        "batch_radii",
        "kernel.batch",
        after=_count("kernel.rows", lambda a, k, r, t: len(r)),
    )

    def batched_draws(args, kwargs, result, token):
        return sum(cell.samples for cell in args[1])

    def resumed_draws(args, kwargs, result, token):
        state = kwargs.get("state") if "state" in kwargs else (args[5] if len(args) > 5 else None)
        return int(result[1]["draws"]) - (int(state["draws"]) if state else 0)

    patch_function(
        tracer,
        campaign,
        "dist_cell_rows_batched",
        "dist.sample",
        after=_count("dist.draws", batched_draws),
    )
    patch_function(
        tracer,
        campaign,
        "dist_cell_row_resumed",
        "dist.sample",
        after=_count("dist.draws", resumed_draws),
    )
    patch_function(tracer, dist_exact, "exact_round_distribution", "dist.exact")

    def nodes_expanded(args, kwargs, result, token):
        certificate = getattr(result, "certificate", None)
        return int(getattr(certificate, "nodes_expanded", 0) or 0)

    pending = [Adversary]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "maximise" in cls.__dict__ and not getattr(cls.maximise, "__isabstractmethod__", False):
            patch_method(
                tracer,
                cls,
                "maximise",
                "search.maximise",
                after=_count("search.nodes_expanded", nodes_expanded),
            )

    def shard_tasks(args, kwargs, result, token):
        executor, samples = args[0], (args[1] if len(args) > 1 else kwargs["samples"])
        blocks = math.ceil(samples / executor.row_block)
        return blocks * math.ceil(executor.csr.n / executor.center_chunk)

    patch_method(
        tracer,
        shard.ShardedKernelExecutor,
        "sample_measures",
        "kernel.shard.sample",
        after=_count("kernel.shard.tasks", shard_tasks),
    )

    def pool_snapshot(args, kwargs):
        return dict(args[0].stats)

    def pool_delta(tracer, args, kwargs, result, nested, token):
        stats = args[0].stats
        tracer.add("engine.pool.tasks", len(result))
        tracer.add("engine.pool.shm_bytes", stats["bytes_shared"] - token["bytes_shared"])
        tracer.add("engine.pool.respawns", stats["respawns"] - token["respawns"])

    patch_method(
        tracer, pool.WorkerPool, "map", "engine.pool.map", before=pool_snapshot, after=pool_delta
    )

    if service:
        _install_service(tracer)


def _install_service(tracer: Tracer) -> None:
    """Service-layer boundaries (installed inside the server process)."""
    from repro.service.http import ServiceRequestHandler
    from repro.service.service import QueryService
    from repro.service.store import ResultStore
    from repro.service.workers import QueryWorkerPool

    patch_method(tracer, QueryService, "execute", "service.execute")

    def tier(tracer, args, kwargs, result, nested, token):
        tracer.add(f"service.tier.{result[1]}")

    patch_method(tracer, ResultStore, "get", "service.store.get", after=tier)
    patch_method(tracer, ResultStore, "get_state", "service.store.get")
    patch_method(
        tracer,
        ResultStore,
        "put",
        "service.store.put",
        after=_count("service.store.puts", lambda a, k, r, t: 1),
    )
    patch_method(tracer, ResultStore, "put_state", "service.store.put")
    patch_method(tracer, QueryWorkerPool, "run_many", "service.compute")

    original = ServiceRequestHandler.__dict__["do_POST"]

    def do_post(handler):
        tracer.set_request(handler.headers.get(REQUEST_HEADER))
        try:
            return original(handler)
        finally:
            tracer.set_request(None)

    ServiceRequestHandler.do_POST = do_post



def layer_metrics(tracer: Tracer, since: int, wall_s: float, names) -> dict:
    """Per-layer metrics (all of ``names``) of the spans after ``since`` in ``wall_s``.

    The self times plus ``trace.unattributed_s`` add up to ``trace.wall_s``.
    """
    metrics = {name: 0.0 for name in names}
    self_times = tracer.self_times(since)
    for span, metric in SELF_TIME_METRICS.items():
        metrics[metric] = self_times.get(span, 0.0)
    counts = tracer.counts
    for metric in (
        "engine.frontier.plans_built",
        "kernel.compiles",
        "kernel.rows",
        "dist.draws",
        "search.nodes_expanded",
        "kernel.shard.tasks",
        "engine.pool.tasks",
        "engine.pool.shm_bytes",
        "engine.pool.respawns",
    ):
        metrics[metric] = counts.get(metric, 0)
    lookups = counts.get("engine.cache.hits", 0) + counts.get("engine.cache.misses", 0)
    metrics["engine.cache.hit_ratio"] = counts.get("engine.cache.hits", 0) / lookups if lookups else 0.0
    metrics["trace.wall_s"] = wall_s
    metrics["trace.unattributed_s"] = wall_s - tracer.root_time(since)
    return metrics
