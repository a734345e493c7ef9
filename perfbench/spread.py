"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workloads serve-mixed --seeds 1 2 3 4 5

Runs ``run.py`` once per (workload, seed), sequentially, with the settings of
``BENCHMARK.json``, and prints per metric the median, the quartile spread
(``statistics.quantiles(values, n=4)``: third minus first quartile, as a
share of the median) and that spread against a third of the metric's bound.
It adopts orphaned processes, so a run that leaves one behind is reported
(``LEFTOVER``) and fails the check.
Raw results are kept in ``.perfbench_work/spread-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import ROOT, WORK, become_subreaper, live_descendants, reap_descendants


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args(argv)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    results = {}
    all_steady = True
    become_subreaper()
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            command = [*spec["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            started = time.perf_counter()
            completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            document = json.loads(completed.stdout.strip().splitlines()[-1])
            document["run_s"] = time.perf_counter() - started
            leftover = live_descendants()
            if leftover:
                print(f"LEFTOVER {workload} seed={seed}: processes {leftover}", flush=True)
                reap_descendants(grace_s=0.0)
                all_steady = False
            runs.append(document)
            print(f"{workload} seed={seed} run_s={document['run_s']:.1f} correct={document['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in document["metrics"].items()), flush=True)
        results[workload] = runs
        for metric, bound in bounds.items():
            values = [run["metrics"][metric]["value"] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            steady = spread < bound / 3 or metric == "setup_s"
            all_steady &= steady
            print(f"  {workload:13s} {metric:16s} median={median:<10.4g} spread={spread:.3f} "
                  f"bound/3={bound / 3:.3f} {'ok' if steady else 'TOO WIDE'}")
    WORK.mkdir(exist_ok=True)
    (WORK / f"spread-{int(time.time())}.json").write_text(json.dumps(results, indent=1))
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
