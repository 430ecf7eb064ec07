"""qmudsim benchmark: one workload, in-process through `qmudsim.cli.main`.

    python3 benchmarks/run.py --workload ber-mf --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and imports qmudsim from its `src/`.
Set-up (imports, workload preparation, one small untimed warm-up call) is
timed in this process and, in untraced runs, in eight fresh processes started
one after another; each time is scaled to the reference host speed (below) by
reference slices timed right after it, and `setup_s` is their median.  The
timed loop then runs CLI calls ("ops"), each with its own seed, until
`--seconds` of op time have passed and at least the workload's minimum op
count has run.  Each op's output is checked afterwards,
outside the timed region, and op 0 is run again to check that its output
files are byte-identical.

On a shared host the CPU speed drifts by 10-30% over seconds to minutes, more
than the regression bound on throughput.  Untraced runs therefore sample the
host's speed during each op: a SIGALRM timer interrupts the op every
SLICE_INTERVAL_S and its handler times one reference slice, a fixed mix of
pure-Python and numpy work that runs no qmudsim code.  The handler's time is
taken out of the op's time.  `norm_trials_per_s` is each op's trials per second
scaled by (mean slice time during the op) / REFERENCE_SLICE_S, i.e. the op's
rate on a host that runs the slice in REFERENCE_SLICE_S: a slower program
reads lower, a host that is slower for everything does not.  The plain
wall-clock rate is kept in the printout and the result record as
`wall_trials_per_s`.  Traced runs take no slices, so spans hold program time
only.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced ops: traced ops give the per-layer spans and counters, and the two
halves give the tracing overhead.  Spans are kept in memory and written to
benchmarks/out/trace-<workload>.npz when the run ends.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The full record (environment, module line counts, output digests)
goes to benchmarks/out/result-<workload>-trace<0|1>.json.
"""

import os
import sys
import time

_T0 = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join("benchmarks", "out")
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60
SLICE_INTERVAL_S = 0.05
SETUP_SLICES = 10
# median time of reference_slice() on a 2.1 GHz Xeon VM (2 vCPUs, shared host)
REFERENCE_SLICE_S = 0.0021


_SLICE_RNG = np.random.default_rng(12345)
_SLICE_SMALL = np.ones(16)
_SLICE_VEC = np.ones(1024, dtype=complex)


def reference_slice() -> float:
    """Seconds taken by a fixed mix of interpreter, small-array and 1024-amplitude
    numpy work, roughly the kinds of work the workloads do; no qmudsim code."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i
    for _ in range(200):
        _ = _SLICE_SMALL * 2.0 + _SLICE_SMALL
        int(_SLICE_RNG.integers(0, 2))
    for _ in range(30):
        vec = _SLICE_VEC * (1 + 1j)
        vec.sum()
        np.abs(vec)
    return time.perf_counter() - t0


class SpeedSampler:
    """Times reference slices from a SIGALRM timer while an op runs."""

    def __init__(self):
        self.slices = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.slices.append(reference_slice())
        self.spent += time.perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self):
        self.slices, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SLICE_INTERVAL_S, SLICE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time set-up and print it (used by the main run)")
    return p.parse_args(argv)


def import_program():
    """Import qmudsim from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "qmudsim", "__init__.py")):
        raise SystemExit(f"error: no qmudsim sources under {SRC}")
    sys.path.insert(0, SRC)
    import qmudsim
    from qmudsim import cli, mud
    if os.path.dirname(os.path.dirname(os.path.abspath(qmudsim.__file__))) != SRC:
        raise SystemExit(f"error: qmudsim imported from {qmudsim.__file__}")
    return cli, mud


def call_cli(cli, argv) -> tuple:
    """One CLI call; returns its exit code and captured console output.

    An exception escaping `cli.main` fails the op instead of the run.
    """
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(argv)
        except Exception as exc:
            print(f"op raised {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    return code, sink.getvalue()


def set_up(workload_name, tag):
    """Everything before the first timed op; returns (cli, mud, workload, dir)."""
    cli, mud = import_program()
    workload = workloads.WORKLOADS[workload_name]
    work_dir = os.path.join(OUT_DIR, "work", f"{workload_name}-{tag}")
    os.makedirs(work_dir, exist_ok=True)
    warm = workload.make_op(0, work_dir, True)
    code, console = call_cli(cli, warm.argv)
    if code != 0:
        raise SystemExit(f"error: warm-up call {warm.argv} failed: {console}")
    return cli, mud, workload, work_dir


def setup_time() -> tuple:
    """(wall seconds since this script started, the same at the reference
    host speed, scaled by SETUP_SLICES reference slices timed right after)."""
    wall = time.perf_counter() - _T0
    reference_slice()  # warm-up
    speed = statistics.fmean(reference_slice() for _ in range(SETUP_SLICES))
    return wall, wall * REFERENCE_SLICE_S / speed


def probe_setup(args) -> tuple:
    """Set-up times of a fresh process running this script in probe mode."""
    cmd = [sys.executable, os.path.join("benchmarks", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    wall, norm = done.stdout.strip().splitlines()[-1].split()
    return float(wall), float(norm)


def read_outputs(paths) -> dict:
    outputs = {}
    for path in paths:
        with open(path, "rb") as fh:
            outputs[path] = fh.read()
    return outputs


def line_counts() -> dict:
    pkg = os.path.join(SRC, "qmudsim")
    counts = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                counts[name] = fh.read().count(b"\n")
    counts["total"] = sum(counts.values())
    return counts


def environment(seed) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "workload_seed": seed,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def run_ops(args, cli, workload, work_dir, tracer):
    """The timed loop.  Returns per-op records and their output bytes."""
    ops = []
    timed = 0.0
    i = 0
    # a traced run needs at least one untraced and one traced op
    min_ops = max(workload.min_ops, 2 if tracer is not None else 1)
    sampler = SpeedSampler() if tracer is None else None
    reference_slice()  # warm-up
    while timed < args.seconds or i < min_ops:
        op = workload.make_op(workloads.op_seed(args.seed, i), work_dir, False)
        traced = tracer is not None and i % 2 == 1
        if sampler is not None:
            ctx = sampler.sampling()
        else:
            ctx = tracer.installed(i) if traced else contextlib.nullcontext()
        with ctx:
            t0 = time.perf_counter()
            code, console = call_cli(cli, op.argv)
            t1 = time.perf_counter()
        rec = {"op": op, "code": code, "console": console, "start": t0, "end": t1,
               "traced": traced, "outputs": read_outputs(op.outputs) if code == 0 else {},
               "op_s": t1 - t0}
        if sampler is not None:
            # an op shorter than the timer interval gets one slice just after it
            rec["op_s"] -= sampler.spent
            rec["slice_s"] = statistics.fmean(sampler.slices or [reference_slice()])
        ops.append(rec)
        timed += rec["op_s"]
        i += 1
    return ops


def check_ops(ops, cli, mud, workload, work_dir):
    """Correctness per op, then determinism of op 0.  Marks failed ops."""
    for rec in ops:
        if rec["code"] != 0:
            rec["problems"] = [f"exit code {rec['code']}: {rec['console'][-300:]}"]
            continue
        try:
            rec["problems"] = workload.check(rec["op"], rec["outputs"],
                                             lambda argv: call_cli(cli, argv), mud)
        except (KeyError, ValueError) as exc:
            rec["problems"] = [f"unreadable output: {type(exc).__name__}: {exc}"]
    first = ops[0]
    if first["code"] == 0:
        # make_op again: later ops overwrote the config file op 0 read
        rerun = workload.make_op(first["op"].seed, work_dir, False)
        again, _ = call_cli(cli, rerun.argv)
        if again != 0 or read_outputs(rerun.outputs) != first["outputs"]:
            first["problems"].append("rerun with the same seed changed the output bytes")
    return sum(1 for rec in ops if rec["problems"])


def digest(outputs: dict) -> str:
    h = hashlib.sha256()
    for path in sorted(outputs):
        h.update(path.encode() + b"\0" + outputs[path])
    return h.hexdigest()


def wall_rate(records) -> float:
    return statistics.median(r["op"].trials / r["op_s"] for r in records)


def norm_rate(records) -> float:
    """Median over ops of trials/s at the reference host speed."""
    return statistics.median(r["op"].trials / r["op_s"] * r["slice_s"] / REFERENCE_SLICE_S
                             for r in records)


def end_to_end(ops, setups):
    return {
        "norm_trials_per_s": (norm_rate(ops), "trials/s"),
        "setup_s": (statistics.median(norm for _, norm in setups), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def csv_column(records, column) -> list:
    """One column of every CSV row the given ops wrote."""
    return [float(row[column]) for r in records
            if r["outputs"] and r["op"].outputs[0].endswith(".csv")
            for row in workloads.read_csv(r["outputs"][r["op"].outputs[0]])
            if column in row]


def per_layer(ops, tracer, spans, workload):
    """Span statistics and counters of the traced ops, plus tracing overhead.

    Span statistics and `qcore.amp_bytes_computed` are per trial of the
    traced ops; `qsearch.bbht_success_ratio` and `qsearch.budget_giveups` are
    taken over the same ops, with one detection per trial.  The CSV counters
    come from the first workload.min_ops ops, traced or not, so they repeat
    exactly for one seed.
    """
    traced = [r for r in ops if r["traced"]]
    untraced = [r for r in ops if not r["traced"]]
    trials = sum(r["op"].trials for r in traced)
    metrics = tracer.span_stats(spans, trials)
    c = tracer.counts
    first = ops[:workload.min_ops]

    def per_detection(column):
        values = csv_column(first, column)
        return statistics.fmean(values) if values else 0.0, "1/detection"

    metrics.update({
        "mud.cf_evals_per_detection": per_detection("mean_cf_evals"),
        "qsearch.queries_per_detection": per_detection("mean_grover_queries"),
        "qsearch.rounds_per_detection": per_detection("mean_threshold_rounds"),
        "qsearch.verifications_per_detection": per_detection("mean_verification_queries"),
        "qsearch.bbht_success_ratio": (c["bbht_succeeded"] / max(c["bbht_calls"], 1),
                                       "ratio"),
        "qsearch.budget_giveups": ((c["bbht_calls"] - c["bbht_succeeded"]) / trials,
                                   "1/detection"),
        "qcore.amp_bytes_computed": (c["amp_bytes"] / trials, "B/trial"),
        "trace.overhead_ratio": (1.0 - wall_rate(traced) / wall_rate(untraced), "ratio"),
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        set_up(args.workload, "probe")
        print(*setup_time())
        return 0

    cli, mud, workload, work_dir = set_up(args.workload, "run")
    setups = [setup_time()]
    tracer = tracing.Tracer() if args.trace else None
    if tracer is None:
        setups += [probe_setup(args) for _ in range(SETUP_PROBES)]
    ops = run_ops(args, cli, workload, work_dir, tracer)
    failed = check_ops(ops, cli, mud, workload, work_dir)

    if tracer is None:
        metrics = end_to_end(ops, setups)
    else:
        spans = tracer.arrays()
        np.savez(os.path.join(OUT_DIR, f"trace-{args.workload}.npz"),
                 op_id=np.arange(len(ops)),
                 op_start=np.array([r["start"] for r in ops]),
                 op_end=np.array([r["end"] for r in ops]),
                 op_traced=np.array([r["traced"] for r in ops]),
                 **spans)
        metrics = per_layer(ops, tracer, spans, workload)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(args.seed), "src_line_counts": line_counts(),
        "ops": len(ops), "failed": failed, "fail_ratio": failed / len(ops),
        "op0_output_sha256": digest(ops[0]["outputs"]),
        "op_seconds": [r["op_s"] for r in ops],
        "setup_wall_s": [wall for wall, _ in setups],
        "setup_norm_s": [norm for _, norm in setups],
        "op_trials": [r["op"].trials for r in ops],
        "op_reference_slice_s": [r.get("slice_s") for r in ops],
        "wall_trials_per_s": wall_rate(ops),
        "problems": {i: r["problems"] for i, r in enumerate(ops) if r["problems"]},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(ops)}  failed {failed}  fail_ratio {failed / len(ops)} ops/ops")
    print(f"  wall_trials_per_s = {record['wall_trials_per_s']} trials/s (not normalised)")
    for i, problems in record["problems"].items():
        print(f"  op {i} failed: {'; '.join(problems)}")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
