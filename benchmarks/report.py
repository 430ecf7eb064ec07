"""Run every workload untraced and traced, and print one summary per workload.

    python3 benchmarks/report.py --seed 1 --seconds 20

Prints the end-to-end metrics and fail ratio of the untraced run, the
per-layer busy and self time of the traced run, and its tracing overhead.
Each run is a separate `benchmarks/run.py` process, started one at a time.
"""

import argparse
import json
import os
import subprocess
import sys

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
KEY_COUNTERS = ("qsearch.queries_per_detection", "mud.cf_evals_per_detection",
                "trace.overhead_ratio")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    args = p.parse_args()
    for name in workloads.WORKLOADS:
        plain = run(name, args.seed, args.seconds, 0)
        traced = run(name, args.seed, args.seconds, 1)
        m = traced["metrics"]
        print(f"== {name} (seed {args.seed})")
        print(f"  fail_ratio = {plain['failed'] / plain['attempted']} ops failed/ops "
              f"attempted ({plain['attempted']} ops; traced run {traced['failed']} of "
              f"{traced['attempted']})")
        for key, metric in plain["metrics"].items():
            print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
        with open(os.path.join(BENCH_DIR, "out", f"result-{name}-trace0.json")) as fh:
            wall = json.load(fh)["wall_trials_per_s"]
        print(f"  wall_trials_per_s = {wall:.6g} trials/s (not scaled to host speed)")
        for key in KEY_COUNTERS:
            print(f"  {key} = {m[key]['value']:.6g} {m[key]['unit']}")
        spans = sorted({k.rsplit(".", 1)[0] for k in m if k.endswith(".calls_per_trial")})
        busy = [(m[f"{span}.total_us_per_trial"]["value"],
                 m[f"{span}.self_us_per_trial"]["value"],
                 m[f"{span}.calls_per_trial"]["value"], span) for span in spans]
        wall = m["cli.main.total_us_per_trial"]["value"]
        for total, self_us, calls, span in sorted(busy, reverse=True):
            if calls:
                print(f"  {span:30s} calls/trial {calls:10.4g}  busy {total / wall:6.1%}  "
                      f"self {self_us / wall:6.1%} of traced wall")
    return 0


if __name__ == "__main__":
    sys.exit(main())
