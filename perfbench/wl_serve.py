"""Workload ``serve-mixed``: ``repro serve`` under one cold and one open-loop hit client.

The server is ``python -m repro serve`` in a child process with default
settings (``max_parallel=1``, ``REPRO_OBS`` unset).  It starts on a copy of
a pre-populated store of ``CORPUS_SIZE`` objects, built once per checkout
through the service's own API (``QueryService.execute``) and cached under
``.perfbench_work``; building it is preparation, not set-up, and is not
timed.  The corpus is the same for every seed; the seed picks the hit set,
the hit schedule and every cold query.

Two clients in one generator process (two threads, each opening a
connection per request like ``urllib``):

* **cold**, closed loop: distinct ``simulate`` and ``worst-case`` queries
  (tier ``miss``) and larger-budget repeats of stored sampling families
  (tier ``resume``), in the repeating order of ``COLD_PATTERN``;
* **hit**, open loop at ``HIT_RATE`` per second (one hit at a seeded
  offset in each ``1 / HIT_RATE`` slot): stored query documents
  from a hit set of ``HIT_SET`` digests, larger than the server's default
  L1 of 128 entries, so both L1 and L2 answer.  Each hit is timed from the
  moment it was due, so a stall counts against every hit it delays.

Every answer's ``X-Repro-Cache`` tier must match the schedule, and a seeded
sample of answers must equal, in canonical JSON without run-dependent
fields, what a fresh in-process ``Session`` answers for the same query.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
from common import WORK, Outcome, derive_rng, latency_summary, percentile, program_env
from tracer import Tracer

CORPUS_VERSION = 3
CORPUS_SEED = 20150721
CORPUS_SIZE = 2000
#: Corpus composition: simulate / worst-case / sampling-family documents.
CORPUS_SHARES = {"simulate": 1500, "worst-case": 250, "family": 250}
FAMILY_SAMPLES = 64

HIT_RATE = 15.0
HIT_SET = 384
#: Half of the hits go to the first HOT_SET digests of the hit set, so the
#: hottest documents stay in L1 between repeats while the rest come from L2.
HOT_SET = 16
#: Latency limit on the hit tail percentile (reported as the share of hits over it).
HIT_LIMIT_MS = 250.0
#: The cold client's repeating sequence of query kinds.  Each kind cycles
#: through its own parameters (below), so every run sends the same mix.
#: Worst cases use shapes whose branch-and-bound takes 10-20 ms, about as
#: long as a simulate plus its store put, so hits wait behind cold requests
#: of similar length.
COLD_PATTERN = ("simulate", "worst-case", "simulate", "resume")
COLD_WORST_CASE_SHAPES = (("cycle", 7, "largest-id"), ("path", 6, "greedy-mis"),
                          ("path", 6, "greedy-coloring"), ("path", 6, "largest-id"))
#: Resumed budgets, as multiples of the stored family budget.
RESUME_FACTORS = (2, 4)
VERIFY_SAMPLE = 24
SERVER_STARTS = 3

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


def describe() -> dict:
    return {
        "why": "the served-request path: head-of-line blocking on the service lock and "
        "store-size-dependent puts",
        "server": "python -m repro serve (max_parallel=1, REPRO_OBS unset)",
        "store_objects_at_start": CORPUS_SIZE,
        "corpus": CORPUS_SHARES,
        "hit_client": {"loop": "open", "rate_per_s": HIT_RATE, "hit_set": HIT_SET,
                       "hot_set": HOT_SET, "hot_share": 0.5, "latency_limit_ms": HIT_LIMIT_MS},
        "cold_client": {"loop": "closed", "pattern": COLD_PATTERN,
                        "worst_case_shapes": COLD_WORST_CASE_SHAPES},
        "task": "one cold or resumed answer (tasks_per_s is cold_per_s)",
        "latency": "hit latency from its due time",
    }


# ----------------------------------------------------------------------------
# queries
# ----------------------------------------------------------------------------
SIMULATE_ALGORITHMS = ("largest-id", "greedy-mis", "greedy-coloring")


def _simulate(rng, sizes, algorithm):
    from repro import Query

    return Query(mode="simulate", topologies=rng.choice(("cycle", "path")), sizes=rng.choice(sizes),
                 algorithms=algorithm, seed=rng.randrange(1 << 40))


def _worst_case(rng, shape):
    from repro import Query

    topology, n, algorithm = shape
    return Query(mode="worst-case", topologies=topology, sizes=n, algorithms=algorithm,
                 adversaries="branch-and-bound", measure=rng.choice(("average", "sum")),
                 seed=rng.randrange(1 << 40))


def _family(rng):
    from repro import Query

    return Query(mode="distribution", topologies="cycle", sizes=rng.choice((16, 24, 32)),
                 algorithms=rng.choice(("largest-id", "cole-vishkin")), methods="sample",
                 samples=FAMILY_SAMPLES, seed=rng.randrange(1 << 40))


def corpus_queries() -> list:
    """``(kind, Query)`` of the pre-populated store, independent of the workload seed."""
    rng = derive_rng(CORPUS_SEED, "corpus")
    queries = [("simulate", _simulate(rng, (16, 24, 32, 48), rng.choice(SIMULATE_ALGORITHMS)))
               for _ in range(CORPUS_SHARES["simulate"])]
    queries += [
        ("worst-case", _worst_case(rng, (rng.choice(("cycle", "path")), rng.choice((5, 6)),
                                         rng.choice(("largest-id", "greedy-mis")))))
        for _ in range(CORPUS_SHARES["worst-case"])
    ]
    queries += [("family", _family(rng)) for _ in range(CORPUS_SHARES["family"])]
    return queries


def ensure_corpus() -> Path:
    """The cached pre-populated store (built through ``QueryService`` on first use)."""
    from repro.service import QueryService

    final = WORK / f"serve-corpus-v{CORPUS_VERSION}"
    if (final / "corpus.json").is_file():
        return final
    building = WORK / f"serve-corpus-building-{os.getpid()}"
    shutil.rmtree(building, ignore_errors=True)
    service = QueryService(root=building / "store")
    entries = []
    for kind, query in corpus_queries():
        outcome = service.execute(query)
        entries.append({"kind": kind, "digest": outcome.digest, "query": query.to_dict()})
    if len({entry["digest"] for entry in entries}) != CORPUS_SIZE:
        raise RuntimeError("corpus digests collide")
    (building / "corpus.json").write_text(json.dumps(entries))
    try:
        os.rename(building, final)
    except OSError:  # another run finished first
        shutil.rmtree(building, ignore_errors=True)
    return final


# ----------------------------------------------------------------------------
# the server
# ----------------------------------------------------------------------------
class Server:
    """One ``repro serve`` child process on ``store``."""

    def __init__(self, store: Path, trace_out: Path = None) -> None:
        env = program_env()
        env.pop("REPRO_OBS", None)
        serve_args = ["serve", "--host", "127.0.0.1", "--port", "0", "--store", str(store), "--quiet"]
        if trace_out is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [sys.executable, str(Path(__file__).with_name("serve_traced.py")),
                       str(trace_out), *serve_args]
        started = time.perf_counter()
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)
        try:
            match = None
            for line in self.process.stdout:
                match = _LISTENING.search(line)
                if match:
                    break
            if match is None:
                raise RuntimeError("repro serve exited before listening")
            self.host, self.port = match.group(1), int(match.group(2))
            while True:
                try:
                    status, _, _ = self.request("GET", "/v1/healthz")
                    if status == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() - started > 60:
                    raise RuntimeError("repro serve never became healthy")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started

    def request(self, method: str, path: str, body: bytes = None, request_id=None):
        """One request on a fresh connection: ``(status, headers, body)``."""
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            headers = {"Connection": "close"}
            if body is not None:
                headers["Content-Type"] = "application/json"
            if request_id is not None:
                headers[layers.REQUEST_HEADER] = str(request_id)
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, dict(response.getheaders()), response.read()
        finally:
            connection.close()

    def healthz(self) -> dict:
        return json.loads(self.request("GET", "/v1/healthz")[2])

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.process.stdout.close()


# ----------------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------------
def setup(seed: int, trace: bool = False):
    corpus = ensure_corpus()
    run_dir = WORK / f"serve-run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    shutil.copytree(corpus / "store", run_dir / "store")
    entries = json.loads((corpus / "corpus.json").read_text())
    starts = []
    if not trace:
        # Extra cold starts on the same store, for the median set-up time.
        for _ in range(SERVER_STARTS - 1):
            probe = Server(run_dir / "store")
            starts.append(probe.ready_s)
            probe.stop()
    trace_out = run_dir / "server-trace.json" if trace else None
    server = Server(run_dir / "store", trace_out=trace_out)
    starts.append(server.ready_s)
    return {"server": server, "run_dir": run_dir, "entries": entries, "starts": starts,
            "trace_out": trace_out}


def setup_samples(state) -> list:
    return state["starts"]


def rss_root(state) -> int:
    return state["server"].process.pid


# ----------------------------------------------------------------------------
# the schedule
# ----------------------------------------------------------------------------
def schedule(seed: int, entries: list, seconds: float):
    """The hit schedule ``[(due_s, entry)]`` and an endless cold-query generator."""
    rng = derive_rng(seed, "serve", "hits")
    hit_set = rng.sample(entries, HIT_SET)
    # One hit per 1/HIT_RATE slot at a seeded offset inside the slot: the
    # rate stays fixed, but hits do not phase-lock with the cold requests.
    hits = [
        ((index + rng.random()) / HIT_RATE,
         rng.choice(hit_set[:HOT_SET] if rng.random() < 0.5 else hit_set))
        for index in range(int(seconds * HIT_RATE))
    ]
    corpus_digests = {entry["digest"] for entry in entries}
    families = [entry for entry in entries if entry["kind"] == "family"]

    def cold():
        from repro import Query

        cold_rng = derive_rng(seed, "serve", "cold")
        unused = cold_rng.sample(families, len(families))
        algorithms = itertools.cycle(SIMULATE_ALGORITHMS)
        shapes = itertools.cycle(COLD_WORST_CASE_SHAPES)
        factors = itertools.cycle(RESUME_FACTORS)
        seen = set()
        for kind in itertools.cycle(COLD_PATTERN):
            if kind == "resume" and unused:
                stored = Query.from_dict(unused.pop()["query"])
                query = stored.with_changes(samples=FAMILY_SAMPLES * next(factors))
                expected = "resume"
            elif kind == "worst-case":
                query, expected = _worst_case(cold_rng, next(shapes)), "miss"
            else:
                query, expected = _simulate(cold_rng, (64, 96, 128), next(algorithms)), "miss"
            digest = query.canonical_hash()
            if digest in corpus_digests or digest in seen:
                continue
            seen.add(digest)
            yield kind, query.to_dict(), digest, expected

    return hits, cold()


# ----------------------------------------------------------------------------
# the measured window
# ----------------------------------------------------------------------------
def _call(server: Server, document: dict, request_id: str) -> dict:
    sent = time.perf_counter()
    try:
        status, headers, body = server.request("POST", "/v1/query", json.dumps(document).encode(), request_id)
    except OSError as exc:
        status, headers, body = None, {}, repr(exc).encode()
    return {"sent": sent, "done": time.perf_counter(), "status": status,
            "tier": headers.get("X-Repro-Cache"), "digest": headers.get("X-Repro-Hash"),
            "body": body, "id": request_id}


def measure(state, seed: int, seconds: float) -> Outcome:
    server = state["server"]
    hits, cold = schedule(seed, state["entries"], seconds)
    cold_records: list = []
    stop = threading.Event()

    def cold_loop():
        for index, (kind, document, digest, expected) in enumerate(cold):
            if stop.is_set():
                break
            record = _call(server, document, f"c{index}")
            record.update(kind=kind, query=document, expected_digest=digest, expected_tier=expected)
            cold_records.append(record)

    started = time.perf_counter()
    worker = threading.Thread(target=cold_loop, name="cold-client")
    worker.start()
    hit_records = []
    free_at = started
    try:
        for index, (due_s, entry) in enumerate(hits):
            due = started + due_s
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            record = _call(server, entry["query"], f"h{index}")
            record.update(kind="hit", query=entry["query"], expected_digest=entry["digest"],
                          expected_tier="hit", due=due, own_late=record["sent"] - max(due, free_at))
            free_at = record["done"]
            hit_records.append(record)
        remaining = started + seconds - time.perf_counter()
        if remaining > 0:
            time.sleep(remaining)
    finally:
        stop.set()
        worker.join(timeout=120)
    elapsed = time.perf_counter() - started
    if worker.is_alive():
        raise RuntimeError("cold client did not finish")
    state["objects_at_end"] = server.healthz()["store"]["objects"]
    state["records"] = hit_records + cold_records

    outcome = Outcome(elapsed_s=elapsed)
    problems = []
    for record in hit_records + cold_records:
        outcome.attempted += 1
        error = _check_record(record)
        record["ok"] = error is None
        if error:
            outcome.failed += 1
            problems.append(error)
        elif record["kind"] != "hit":
            outcome.tasks += 1
    latencies = [record["done"] - record["due"] for record in hit_records]
    # A failed hit counts as missing the latency limit.
    outcome.latencies_s = [
        latency if record["ok"] else max(latency, HIT_LIMIT_MS / 1000.0 + 1.0)
        for latency, record in zip(latencies, hit_records)
    ]
    own_late = sorted(record["own_late"] * 1000.0 for record in hit_records)
    third = max(1, len(latencies) // 3)
    tiers: dict = {}
    for record in hit_records + cold_records:
        tiers[record["tier"]] = tiers.get(record["tier"], 0) + 1
    outcome.info.update(
        hits=len(hit_records),
        cold_answers=len(cold_records),
        cold_per_s=outcome.tasks / elapsed,
        cold_ms_per_kind={
            kind: latency_summary([r["done"] - r["sent"] for r in cold_records if r["kind"] == kind])
            for kind in set(COLD_PATTERN) if any(r["kind"] == kind for r in cold_records)
        },
        tiers=tiers,
        hit_share=len(hit_records) / max(1, len(hit_records) + len(cold_records)),
        over_limit_share=sum(l * 1000.0 > HIT_LIMIT_MS for l in outcome.latencies_s) / max(1, len(hit_records)),
        backlog_growth_ms=(statistics.mean(latencies[-third:]) - statistics.mean(latencies[:third])) * 1000.0,
        gen_late_ms=percentile(own_late, 95.0) if own_late else 0.0,
        store_objects_at_end=state["objects_at_end"],
        problems=problems[:5],
    )
    return outcome


def _check_record(record) -> str:
    if record["status"] != 200:
        return f"{record['id']}: status {record['status']}: {record['body'][:200]!r}"
    if record["digest"] != record["expected_digest"]:
        return f"{record['id']}: digest {record['digest']} != {record['expected_digest']}"
    if record["tier"] != record["expected_tier"]:
        return f"{record['id']}: tier {record['tier']}, schedule expects {record['expected_tier']}"
    return None


def canonical(document: dict) -> str:
    """Canonical JSON of a result without its run-dependent fields."""
    from repro.api.results import VOLATILE_ROW_KEYS

    stable = {key: value for key, value in document.items() if key not in ("cache", "timing", "profile")}
    stable["rows"] = [
        {key: value for key, value in row.items() if key not in VOLATILE_ROW_KEYS}
        for row in document["rows"]
    ]
    return json.dumps(stable, sort_keys=True, separators=(",", ":"))


def verify(state, seed: int, outcome: Outcome) -> Outcome:
    """Compare a seeded sample of answers with a fresh in-process Session."""
    from repro import Query
    from repro.api import Session

    session = Session()
    answered = [record for record in state["records"] if record["ok"]]
    rng = derive_rng(seed, "serve", "verify")
    sample = rng.sample(answered, min(VERIFY_SAMPLE, len(answered)))
    mismatches = 0
    for record in sample:
        direct = session.run(Query.from_dict(record["query"])).as_dict()
        if canonical(json.loads(record["body"])) != canonical(direct):
            mismatches += 1
            outcome.info.setdefault("problems", []).append(f"{record['id']}: differs from Session answer")
    outcome.attempted += len(sample)
    outcome.failed += mismatches
    outcome.info["verified_against_session"] = len(sample)
    return outcome


def teardown(state) -> None:
    """Stop the server (which then writes its spans in a traced run)."""
    state["server"].stop()
    if state["trace_out"] is not None and state["trace_out"].is_file():
        state["server_trace"] = json.loads(state["trace_out"].read_text())
    shutil.rmtree(state["run_dir"], ignore_errors=True)


def layer_metrics(state, names) -> dict:
    """Per-layer metrics of a traced server run, attributed per request.

    The traced wall time is the sum of client-seen request latencies (the
    two connections overlap, so their latencies are summed, not the window).
    It splits into ``service.http_s`` (client latency minus the server's
    ``service.execute``), the server spans' self times and the remainder.
    """
    dumped = state["server_trace"]
    tracer = Tracer()
    tracer.spans = [tuple(span) for span in dumped["spans"]]
    tracer.counts.update(dumped["counts"])
    records = state["records"]
    wall = sum(record["done"] - record["sent"] for record in records)
    metrics = layers.layer_metrics(tracer, 0, wall, names)
    totals = tracer.totals()
    execute_by_request: dict = {}
    for _, _, name, start, end, request in tracer.spans:
        if name == "service.execute":
            execute_by_request[request] = execute_by_request.get(request, 0.0) + (end - start)
    http = sum(record["done"] - record["sent"] - execute_by_request.get(record["id"], 0.0)
               for record in records)
    self_times = tracer.self_times()
    metrics.update({
        "service.execute_s": totals.get("service.execute", 0.0),
        "service.lock_wait_s": self_times.get("service.execute", 0.0),
        "service.compute_s": totals.get("service.compute", 0.0) + totals.get("dist.sample", 0.0),
        "service.http_s": http,
        "service.store.puts": tracer.counts.get("service.store.puts", 0),
        "service.store.objects": state["objects_at_end"],
        "service.tier.l1": tracer.counts.get("service.tier.l1", 0),
        "service.tier.l2": tracer.counts.get("service.tier.l2", 0),
        "service.tier.resume": sum(record["tier"] == "resume" for record in records),
        "service.tier.miss": sum(record["tier"] == "miss" for record in records),
        "trace.unattributed_s": wall - http - tracer.root_time(),
    })
    return metrics
