"""The benchmark's four workloads: one CLI call per op, and its output check.

Each op is one `qmudsim.cli.main(argv)` call with its own seed, derived from
the workload seed and the op index.  `ber` takes its seed through the config
file's `seed =` key, because `ber --seed` does not override the config seed.
Checks read only the files the op wrote and run outside the timed region; each
returns a list of problems, empty when the op's output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import bdtr, bdtrc

# A correct program fails a binomial check with at most this probability per
# point (about 6 sigma), so a changed RNG stream never trips it in practice.
TAIL_ALPHA = 1e-9


def op_seed(workload_seed: int, op_index: int) -> int:
    return int(np.random.SeedSequence([workload_seed, op_index]).generate_state(1)[0])


def binomial_ok(errors: int, n: int, p: float) -> bool:
    """Two-sided exact binomial test of `errors` in `n` draws at rate p."""
    low = bdtr(errors, n, p)
    high = bdtrc(errors - 1, n, p) if errors > 0 else 1.0
    return min(low, high) >= TAIL_ALPHA


@dataclass
class Op:
    """One CLI call: its argv, the files it writes and its trial count."""

    argv: list
    outputs: tuple
    trials: int
    seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # ops run before the timed loop may stop; qsearch.queries_per_detection
    # is taken over exactly these, so it repeats for one workload seed
    min_ops: int
    # make_op(seed, work_dir, warm): warm=True gives the small untimed
    # warm-up call that set-up makes
    make_op: Callable[[int, str, bool], Op]
    # check(op, outputs, run_cli, mud) -> problems; run_cli(argv) returns
    # (exit code, console text) for untimed reference calls
    check: Callable[..., list]


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def read_csv(data: bytes) -> list:
    return list(csv.DictReader(io.StringIO(data.decode())))


# --- ber ------------------------------------------------------------------

BER_MF = {"signature_kind": "walsh", "k_users": "1", "n_chips": "2",
          "sync_mode": "synchronous", "gain_model": "fixed", "detector": "mf",
          "ebn0_db_list": "0,2,4,6,8", "trials": "500"}
BER_ML = {"signature_kind": "random_bipolar", "k_users": "8", "n_chips": "16",
          "sync_mode": "chip-asynchronous", "gain_model": "rayleigh",
          "detector": "ml_exhaustive", "ebn0_db_list": "0,4,8", "trials": "40"}


def _ber_op(cfg: dict, seed: int, work_dir: str, warm: bool = False,
            tag: str = "op") -> Op:
    if warm:
        cfg = {**cfg, "trials": "2"}
    cfg_path = os.path.join(work_dir, f"{tag}.cfg")
    out_path = os.path.join(work_dir, f"{tag}.csv")
    _write(cfg_path, "".join(f"{k} = {v}\n" for k, v in {**cfg, "seed": seed}.items()))
    points = len(cfg["ebn0_db_list"].split(","))
    return Op(argv=["ber", "--config", cfg_path, "--out", out_path],
              outputs=(out_path, out_path + ".manifest.json"),
              trials=points * int(cfg["trials"]), seed=seed)


def _ber_rows_problems(rows: list, cfg: dict, cf_evals: int) -> list:
    problems = []
    points = [float(v) for v in cfg["ebn0_db_list"].split(",")]
    if [float(r["ebn0_db"]) for r in rows] != points:
        problems.append(f"ebn0 points {[r['ebn0_db'] for r in rows]}")
    for r in rows:
        if int(r["trials"]) != int(cfg["trials"]):
            problems.append(f"{r['ebn0_db']} dB: trials {r['trials']}")
        if float(r["mean_cf_evals"]) != cf_evals or float(r["mean_grover_queries"]) != 0:
            problems.append(f"{r['ebn0_db']} dB: work counters {r['mean_cf_evals']}, "
                            f"{r['mean_grover_queries']}")
    return problems


def _bits_and_errors(row: dict, cfg: dict) -> tuple:
    n = int(cfg["k_users"]) * int(row["trials"])
    return n, round(float(row["ber"]) * n)


def _check_ber_mf(op: Op, outputs: dict, run_cli, mud) -> list:
    rows = read_csv(outputs[op.outputs[0]])
    problems = _ber_rows_problems(rows, BER_MF, 0)
    for r in rows:
        n, errors = _bits_and_errors(r, BER_MF)
        p = mud.analytic_bpsk_ber(float(r["ebn0_db"]))
        if not binomial_ok(errors, n, p):
            problems.append(f"{r['ebn0_db']} dB: {errors}/{n} errors vs analytic {p:.3g}")
    return problems


def _check_ber_ml(op: Op, outputs: dict, run_cli, mud) -> list:
    """ML BER <= MF BER + 3 sigma per point, on identical frames.

    The MF side reruns the op's config with detector = mf.  Neither detector
    draws from the RNG, so both see the same channels, bits and noise.
    """
    rows = read_csv(outputs[op.outputs[0]])
    problems = _ber_rows_problems(rows, BER_ML, 1 << int(BER_ML["k_users"]))
    work_dir = os.path.dirname(op.outputs[0])
    ref = _ber_op({**BER_ML, "detector": "mf"}, op.seed, work_dir, tag="mf-ref")
    if run_cli(ref.argv)[0] != 0:
        return problems + ["MF reference run failed"]
    with open(ref.outputs[0], "rb") as fh:
        mf_rows = read_csv(fh.read())
    for r, m in zip(rows, mf_rows):
        n, _ = _bits_and_errors(r, BER_ML)
        p_mf = float(m["ber"])
        sigma = math.sqrt(max(p_mf, 1.0 / n) * (1.0 - p_mf) / n)
        if float(r["ber"]) > p_mf + 3.0 * sigma:
            problems.append(f"{r['ebn0_db']} dB: ML {r['ber']} > MF {p_mf} + 3 sigma")
    return problems


# --- qmud-agree ----------------------------------------------------------

QMUD_K = 10
QMUD_TRIALS = 200


def _qmud_op(seed: int, work_dir: str, warm: bool = False) -> Op:
    out_path = os.path.join(work_dir, "op.csv")
    trials = 2 if warm else QMUD_TRIALS
    return Op(argv=["qmud-agree", "--k", str(QMUD_K), "--n-chips", "16",
                    "--ebn0", "8", "--trials", str(trials), "--seed", str(seed),
                    "--out", out_path],
              outputs=(out_path, out_path + ".manifest.json"),
              trials=trials, seed=seed)


def _check_qmud(op: Op, outputs: dict, run_cli, mud) -> list:
    (row,) = read_csv(outputs[op.outputs[0]])
    problems = []
    if int(row["trials"]) != QMUD_TRIALS or int(row["exhaustive_evaluations"]) != 1 << QMUD_K:
        problems.append(f"trials {row['trials']}, exhaustive {row['exhaustive_evaluations']}")
    if float(row["agreement"]) < 0.99:
        problems.append(f"agreement {row['agreement']} < 0.99")
    if float(row["mean_grover_queries"]) >= (1 << QMUD_K) / 4:
        problems.append(f"mean grover queries {row['mean_grover_queries']} >= 2^K/4")
    return problems


# --- bsc -----------------------------------------------------------------

BSC_BITS = 5000


def _bsc_op(seed: int, work_dir: str, warm: bool = False) -> Op:
    out_path = os.path.join(work_dir, "op.json")
    bits = 100 if warm else BSC_BITS
    return Op(argv=["bsc", "--p", "0.5", "--bits", str(bits), "--seed", str(seed),
                    "--out", out_path],
              outputs=(out_path, out_path + ".manifest.json"),
              trials=bits, seed=seed)


def _check_bsc(op: Op, outputs: dict, run_cli, mud) -> list:
    report = json.loads(outputs[op.outputs[0]])
    problems = []
    if report["n_bits"] != BSC_BITS:
        problems.append(f"n_bits {report['n_bits']}")
    if report["quantum_error_rate"] != 0.0:
        problems.append(f"quantum error rate {report['quantum_error_rate']}")
    if abs(report["classical_capacity"]) > 1e-12:
        problems.append(f"classical capacity {report['classical_capacity']}")
    errors = round(report["classical_error_rate"] * BSC_BITS)
    if not binomial_ok(errors, BSC_BITS, 0.5):
        problems.append(f"classical errors {errors}/{BSC_BITS} at p = 0.5")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload("ber-mf",
             "K=1 Walsh MF BER sweep: per-trial harness and cdma synthesis dominate, "
             "qsearch/qcore idle; a batched trial engine shows here",
             1, lambda seed, d, warm: _ber_op(BER_MF, seed, d, warm), _check_ber_mf),
    Workload("ber-ml",
             "K=8 async Rayleigh exhaustive ML: 2^K per-index cost evaluations dominate, "
             "no qsearch; a table-based exhaustive path shows here",
             1, lambda seed, d, warm: _ber_op(BER_ML, seed, d, warm), _check_ber_ml),
    Workload("qmud-agree",
             "K=10 quantum-assisted vs exhaustive agreement: qsearch/qcore on "
             "1024-amplitude registers dominate; a closed-form Grover sampler shows here",
             5, _qmud_op, _check_qmud),
    Workload("bsc",
             "p=0.5 flip channel: the only qchannel user, 1-qubit registers, so per-op "
             "qcore construction and validation dominate over vector arithmetic",
             1, _bsc_op, _check_bsc),
)}
