"""Self-tests of the benchmark: tracer coverage, determinism, contract.

    python3 -m pytest -q benchmarks

Kept out of the tier-1 suite (pyproject's testpaths is `tests`); the traced
runs take about two minutes in all.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import tracer
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
# cli.main self time as a share of op wall time: under 1% on ber-* and
# qmud-agree, about 7% on bsc, whose per-bit loop in qchannel.run_demo is
# not a span of its own
MAX_CLI_SELF_SHARE = 0.15


def run(workload, seed, trace, cwd=ROOT, seconds=1, check=True):
    cmd = [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    if not check:
        return done
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT_DIR, f"result-{workload}-trace{trace}.json")) as fh:
        return result, json.load(fh)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_spec_lists_the_workloads_the_runner_knows(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_covers_every_assigned_span(workload, spec):
    result, record = run(workload, seed=3, trace=1)
    assert result["correct"] and result["failed"] == 0, record["problems"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {m["name"]: m["unit"] for m in spec["per_layer"]}

    for span, (assigned, _) in tracer.SPANS.items():
        calls = metrics[f"{span}.calls_per_trial"]["value"]
        if workload in assigned:
            assert calls > 0, f"{span} recorded no calls on {workload}"
        total = metrics[f"{span}.total_us_per_trial"]["value"]
        assert metrics[f"{span}.self_us_per_trial"]["value"] <= total + 1e-3

    spans = np.load(os.path.join(OUT_DIR, f"trace-{workload}.npz"))
    dur = spans["end"] - spans["start"]
    assert np.all(dur >= 0) and np.all(spans["self"] >= -1e-9)
    overhead = max(metrics["trace.overhead_ratio"]["value"], 0.0)
    for op_id in spans["op_id"][spans["op_traced"]]:
        top = (spans["op"] == op_id) & (spans["parent"] == -1)
        wall = spans["op_end"][op_id] - spans["op_start"][op_id]
        covered = dur[top].sum() / wall
        assert 1.0 - max(overhead, 0.01) <= covered <= 1.0 + 1e-9, (op_id, covered)
        # the layer spans under cli.main must account for the op
        cli_self = spans["self"][top].sum() / wall
        assert cli_self <= MAX_CLI_SELF_SHARE, (op_id, cli_self)


@pytest.mark.parametrize("workload", ["ber-mf", "bsc"])
def test_same_seed_gives_same_output_bytes(workload, spec):
    first, first_record = run(workload, seed=5, trace=0)
    second, second_record = run(workload, seed=5, trace=0)
    assert first["correct"] and second["correct"]
    assert first_record["op0_output_sha256"] == second_record["op0_output_sha256"]
    assert list(first["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(v["value"] > 0 for v in first["metrics"].values())
    # every untraced op was scaled by host-speed slices taken while it ran
    assert all(t > 0 for t in first_record["op_reference_slice_s"])


def test_refuses_to_run_without_the_program():
    bare = os.path.join(OUT_DIR, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "benchmarks"),
                    # no test files, so a later pytest run does not collect them
                    ignore=shutil.ignore_patterns("out", "__pycache__", "test_*.py"))
    done = run("ber-mf", seed=1, trace=0, cwd=bare, check=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
