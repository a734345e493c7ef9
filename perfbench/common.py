"""Shared helpers: statistics, process-tree memory, set-up probes, environment."""

from __future__ import annotations

import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Checkout root (the benchmark runs from it) and the program's sources.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, traces and reports (git-ignored).
WORK = ROOT / ".perfbench_work"

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


@dataclass
class Outcome:
    """What one measured window did: counts, timings and extra report lines."""

    attempted: int = 0
    failed: int = 0
    tasks: float = 0.0
    elapsed_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


def another_unit(started: float, units: int, seconds: float) -> bool:
    """Whether a window of ``seconds`` begun at ``started`` starts another whole unit.

    The first unit always runs; after that, another one starts while the
    window, at the mean unit length so far, would end nearer to ``seconds``
    with it than without it.  Runs thus last about ``seconds`` on a fast or a
    slow host, and every unit (a round, a pair) is measured whole.
    """
    if units == 0:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / units / 2.0 <= seconds


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def derive_rng(seed: int, *labels) -> random.Random:
    """An independent generator per (workload seed, label) pair."""
    return random.Random(f"{seed}|" + "|".join(str(label) for label in labels))


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    index = max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)
    return sorted_values[index]


def latency_summary(latencies_s) -> dict:
    """Median and the highest percentile with at least ten samples beyond it.

    With fewer than 20 samples no percentile qualifies and the maximum is
    reported (labelled ``max``).
    """
    values = sorted(latencies_s)
    count = len(values)
    tail_label, tail = "max", values[-1]
    for p in TAIL_PERCENTILES:
        if count * (1.0 - p / 100.0) >= 10:
            tail_label, tail = f"p{p:g}", percentile(values, p)
            break
    return {
        "count": count,
        "p50_ms": statistics.median(values) * 1000.0,
        "tail_ms": tail * 1000.0,
        "tail_percentile": tail_label,
    }


def _children(pid: int) -> list[int]:
    found = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        for task in task_dir.iterdir():
            text = (task / "children").read_text()
            found.extend(int(child) for child in text.split())
    except OSError:
        pass
    return found


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb(root_pid: int) -> float:
    """Summed peak RSS (VmHWM) of a live process and all its descendants.

    The sum of per-process peaks bounds the tree's simultaneous peak from
    above; pool workers and server children are included while they live.
    """
    total_kb = 0
    pending = [root_pid]
    seen = set()
    while pending:
        pid = pending.pop()
        if pid in seen:
            continue
        seen.add(pid)
        total_kb += _vm_hwm_kb(pid)
        pending.extend(_children(pid))
    return total_kb / 1024.0


#: ``prctl`` option from ``<linux/prctl.h>``.
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``).

    A process that outlives its parent, such as the ``multiprocessing``
    resource tracker of a server or set-up probe, is then re-parented to this
    process, so :func:`reap_descendants` can wait for it.  A no-op where
    ``prctl`` is unavailable.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def live_descendants() -> list[int]:
    """PIDs of every process below this one."""
    found, pending = [], _children(os.getpid())
    while pending:
        pid = pending.pop()
        found.append(pid)
        pending.extend(_children(pid))
    return found


def _reap_exited() -> bool:
    """Reap every exited child; ``True`` once no child is left."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            return False


def reap_descendants(grace_s: float = 10.0) -> None:
    """Close the warm pools, stop the resource tracker, wait for every descendant.

    The ``multiprocessing`` resource tracker (started by shared-memory
    segments) exits once every holder of its pipe has closed it, normally
    only when this process exits; closing this process's end here lets it
    exit before.  Descendants still running after ``grace_s`` get SIGTERM,
    then SIGKILL five seconds later.
    """
    from multiprocessing import resource_tracker

    pool = sys.modules.get("repro.engine.pool")
    if pool is not None:
        pool.shutdown_pools()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        try:
            os.close(tracker._fd)
        except OSError:
            pass
        tracker._fd = tracker._pid = None
    deadline = time.monotonic() + grace_s
    for sig in (None, signal.SIGTERM, signal.SIGKILL):
        if sig is not None:
            for pid in live_descendants():
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if _reap_exited():
                return
            time.sleep(0.02)


def program_env() -> dict:
    """Environment for child processes that import the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def probe_setup(workload: str, seed: int, probes: int) -> list[float]:
    """Seconds from process start to ready, for ``probes`` fresh processes.

    Each probe is ``run.py --probe-setup``: a new interpreter that performs
    the workload's set-up, prints ``READY`` and tears down.  The clock runs
    from spawning the process to reading that line.
    """
    samples = []
    command = [sys.executable, str(Path(__file__).with_name("run.py")), "--probe-setup",
               "--workload", workload, "--seed", str(seed)]
    for _ in range(probes):
        started = time.perf_counter()
        ready = None
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=program_env(), cwd=ROOT
        )
        try:
            for line in process.stdout:
                if line.strip() == "READY":
                    ready = time.perf_counter() - started
                    break
            process.stdout.read()
        finally:
            process.wait(timeout=120)
        if process.returncode != 0 or ready is None:
            raise RuntimeError(f"set-up probe for {workload} failed (exit {process.returncode})")
        samples.append(ready)
    return samples


def environment() -> dict:
    """The settings that change what is measured."""
    from repro.kernel.backend import active_backend

    return {
        "REPRO_KERNEL": os.environ.get("REPRO_KERNEL", "(unset)"),
        "kernel_backend": active_backend(),
        "REPRO_OBS": os.environ.get("REPRO_OBS", "(unset)"),
        "REPRO_WORKERS": os.environ.get("REPRO_WORKERS", "(unset)"),
        "nproc": nproc(),
        "python": sys.version.split()[0],
    }
