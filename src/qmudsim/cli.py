"""Command-line front end.

Subcommands:
  grover      success-probability curve for a marked search space, or the
              query-scaling sweep with --scaling
  ber         Monte-Carlo BER sweep driven by a flat key=value config file
  bsc         flip-channel demo: classical bits vs phase-basis qubits
  qmud-agree  quantum-assisted vs exhaustive detector agreement experiment

Every run is reproducible: seeds default to a fixed constant, --seed
overrides, and runs that write an output file also write a JSON manifest
(<out>.manifest.json) capturing the resolved configuration.  Exit codes:
0 success; 2 usage or configuration error, including negative seeds and
config or output paths that cannot be read or written; 1 internal failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

import numpy as np

from . import __version__, cdma, config, mud, qchannel, qcore, qsearch
from .errors import ConfigError, ShapeError, SizeError, as_count, run_size


def _emit(args, write, subcommand: str, resolved: dict, **results) -> None:
    """Call write(fh) on --out, or on stdout without --out; with --out, also
    write a JSON manifest of the resolved configuration (and results) by it."""
    if args.out is None:
        write(sys.stdout)
        return
    with open(args.out, "w", newline="") as fh:
        write(fh)
    manifest = {
        "subcommand": subcommand,
        "config": resolved,
        "version": __version__,
        "out": str(args.out),
        **results,
    }
    with open(str(args.out) + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_grover(args) -> int:
    if args.scaling:
        return _grover_scaling(args)
    # the library checks each flag: --n by the qcore rules and --marked by
    # optimal_iterations (run even with --k-max), before the mask is built,
    # and --trials and --k-max by measured_success_curve
    n = args.n
    qcore.check_qubits(qcore.length_qubits(n, "--n"))
    k_optimal = qsearch.optimal_iterations(n, args.marked)
    k_max = k_optimal if args.k_max is None else args.k_max
    rng = np.random.default_rng(args.seed)
    oracle = qsearch.MarkingOracle(np.arange(n) < args.marked)
    rows = [["k", "predicted_success", "measured_success", "trials"]]
    curve = qsearch.measured_success_curve(oracle, k_max, args.trials, rng)
    for k, measured in enumerate(curve):
        predicted = qsearch.success_probability(n, args.marked, k)
        rows.append([k, repr(predicted), repr(measured), args.trials])
    _emit(args, lambda fh: csv.writer(fh).writerows(rows), "grover", {
        "n": n, "marked": args.marked, "trials": args.trials,
        "k_max": k_max, "seed": args.seed})
    return 0


def _grover_scaling(args) -> int:
    rng = np.random.default_rng(args.seed)
    n_min = 64 if args.n is None else args.n
    low = qcore.length_qubits(n_min, "--n")
    # bbht_ranks rejects a --marked above --n, but takes 0 (nothing marked)
    as_count(args.marked, "--marked", 1)
    max_exp = 14 if args.scaling_max_exp is None else args.scaling_max_exp
    exponents = range(low, qcore.check_qubits(max(low, max_exp)) + 1)
    trials, batch = run_size(args.trials, "--trials", 16 * len(exponents))
    rows = [["n", "mean_grover_queries", "mean_verifications",
             "exhaustive_evaluations", "trials"]]
    for exp in exponents:
        g_sum = v_sum = 0
        for start in range(0, trials, batch):
            _, queries, verifications = qsearch.bbht_ranks(
                np.full(min(batch, trials - start), args.marked), 1 << exp,
                rng)
            g_sum += int(queries.sum())
            v_sum += int(verifications.sum())
        rows.append([1 << exp, repr(g_sum / trials), repr(v_sum / trials),
                     1 << exp, trials])
    _emit(args, lambda fh: csv.writer(fh).writerows(rows), "grover-scaling", {
        "n_min": n_min, "max_exp": max_exp,
        "marked": args.marked, "trials": args.trials, "seed": args.seed})
    return 0


BER_SWEEP_KEYS = ("detector", "ebn0_db_list", "trials")


def cmd_ber(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        cfg = cdma.parse_kv_config(fh.read())
    missing = set(BER_SWEEP_KEYS) - set(cfg)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    try:
        ebn0_list = [float(v) for v in cfg["ebn0_db_list"].split(",") if v.strip()]
        trials = int(cfg["trials"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # the other keys describe the scenario, read with the resolved seed;
    # ebn0_db_list sets each point's noise
    scenario_cfg = {key: value for key, value in cfg.items()
                    if key not in BER_SWEEP_KEYS}
    seed = args.seed if args.seed is not None else scenario_cfg.get(
        "seed", config.DEFAULT_SEED)
    scenario = cdma.scenario_from_config({**scenario_cfg, "seed": str(seed)})
    curve = mud.ber_sweep(scenario, cfg["detector"], ebn0_list, trials,
                          np.random.default_rng(scenario.seed))
    _emit(args, curve.write_csv, "ber", {**cfg, "seed": scenario.seed})
    return 0


def cmd_bsc(args) -> int:
    rng = np.random.default_rng(args.seed)
    report = qchannel.run_demo(args.bits, args.p, rng)
    print(report.format_table())
    print(report.to_json())
    if args.out:
        _emit(args, lambda fh: fh.write(report.to_json() + "\n"), "bsc", {
            "p": args.p, "bits": args.bits, "seed": args.seed})
    return 0


def cmd_qmud_agree(args) -> int:
    # agreement and counters depend on K alone (mud.qmud_agreement), so
    # --n-chips and --ebn0 feed no computation; they are still checked and
    # recorded in the manifest, and existing command lines that pass them run
    as_count(args.n_chips, "--n-chips", 1)
    cdma.ebn0_db_to_noise_variance(args.ebn0)
    result = mud.qmud_agreement(args.k, args.trials,
                                np.random.default_rng(args.seed))
    print(f"agreement {result.agreement:.4f} over {result.trials} trials; "
          f"mean grover queries {result.mean_grover_queries:.1f} "
          f"vs {result.exhaustive_evaluations} exhaustive evaluations")
    rows = [["k_users", "trials", "agreement", "mean_grover_queries",
             "mean_verification_queries", "mean_threshold_rounds",
             "exhaustive_evaluations"],
            [result.k_users, result.trials, repr(result.agreement),
             repr(result.mean_grover_queries),
             repr(result.mean_verification_queries),
             repr(result.mean_threshold_rounds),
             result.exhaustive_evaluations]]
    _emit(args, lambda fh: csv.writer(fh).writerows(rows), "qmud-agree", {
        "k": args.k, "n_chips": args.n_chips, "trials": args.trials,
        "ebn0": args.ebn0, "seed": args.seed})
    return 0


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each parse_args call
    fills a fresh namespace, so no parsed state is shared between calls."""
    parser = argparse.ArgumentParser(
        prog="qmudsim",
        description="DS-CDMA quantum-assisted detection experiments")

    def add_common(sub, seed_default=config.DEFAULT_SEED,
                   seed_help=f"RNG seed (default {config.DEFAULT_SEED})"):
        sub.add_argument("--seed", type=int, default=seed_default,
                         help=seed_help)
        sub.add_argument("--out", default=None, help="output file path")

    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("grover", help="success curve / query scaling")
    g.add_argument("--n", type=int, default=None,
                   help="search-space size (power of 2)")
    g.add_argument("--marked", type=int, default=1,
                   help="number of marked indices (default 1)")
    g.add_argument("--trials", type=int, default=10000)
    g.add_argument("--k-max", type=int, default=None,
                   help="top of the iteration sweep (default: optimal count)")
    g.add_argument("--scaling", action="store_true",
                   help="sweep mean queries against the search-space size")
    g.add_argument("--scaling-max-exp", type=int, default=None,
                   help="largest exponent for --scaling (default 14)")
    add_common(g)
    g.set_defaults(func=cmd_grover)

    b = subs.add_parser("ber", help="Monte-Carlo BER sweep from a config file")
    b.add_argument("--config", required=True, help="flat key=value config file")
    add_common(b, seed_default=None,
               seed_help="RNG seed (default: the config's seed key, else "
                         f"{config.DEFAULT_SEED})")
    b.set_defaults(func=cmd_ber)

    c = subs.add_parser("bsc", help="zero-capacity flip-channel demo")
    c.add_argument("--p", type=float, required=True, help="flip probability")
    c.add_argument("--bits", type=int, default=100000)
    add_common(c)
    c.set_defaults(func=cmd_bsc)

    q = subs.add_parser("qmud-agree",
                        help="quantum-assisted vs exhaustive agreement")
    q.add_argument("--k", type=int, default=10, help="users (default 10)")
    q.add_argument("--n-chips", type=int, default=16,
                   help="checked (>= 1) and recorded; feeds no computation")
    q.add_argument("--trials", type=int, default=200)
    q.add_argument("--ebn0", type=float, default=8.0,
                   help="checked as an Eb/N0 and recorded; feeds no "
                        "computation")
    add_common(q)
    q.set_defaults(func=cmd_qmud_agree)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "grover":
            if not args.scaling and args.n is None:
                parser.error("grover requires --n")
            if args.scaling and args.k_max is not None:
                parser.error("--k-max applies only without --scaling")
            if not args.scaling and args.scaling_max_exp is not None:
                parser.error("--scaling-max-exp applies only with --scaling")
        if args.seed is not None and args.seed < 0:
            parser.error(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except (ConfigError, ShapeError, SizeError, OSError,
            UnicodeDecodeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure contract
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
