"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 1 and 4 carry runtime budgets; the statistical criteria run
at their stated trial counts and tolerances under fixed seeds.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from qmudsim import cdma, cli, mud, qcore, qsearch
from test_mud import index_from_bits


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_grover_success_curve():
    """N=64, M=1: measured success matches sin²((2k+1)·asin(1/8)) ± 0.02."""
    rng = np.random.default_rng(101)
    oracle = qsearch.MarkingOracle(np.arange(64) == 21)
    t0 = time.perf_counter()
    worst = 0.0
    curve = qsearch.measured_success_curve(oracle, 12, 10000, rng)
    for k, measured in enumerate(curve):
        predicted = qsearch.success_probability(64, 1, k)
        worst = max(worst, abs(measured - predicted))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.02 and elapsed < 10.0
    report(1, ok, f"max |measured−sin²((2k+1)θ)| = {worst:.4f} (≤ 0.02) "
                  f"over k=0..12, 10⁴ trials each, {elapsed:.1f}s (< 10s)")


def test_criterion_2_query_scaling():
    """Mean search queries vs N fits slope 0.50 ± 0.05 on log-log axes.

    Queries are query-evaluation pairs: oracle applications to the register
    plus the classical verification per measurement.
    """
    rng = np.random.default_rng(102)
    trials = 400
    sizes, means = [], []
    for exp in range(6, 15):
        n_states = 1 << exp
        # one marked index, all trials of a size in one lock-step call
        _, queries, verifications = qsearch.bbht_ranks(
            np.ones(trials, dtype=int), n_states, rng)
        sizes.append(n_states)
        means.append(float((queries + verifications).mean()))
    slope = float(np.polyfit(np.log(sizes), np.log(means), 1)[0])
    constants = [m / math.sqrt(n) for m, n in zip(means, sizes)]
    exhaustive_slope = float(np.polyfit(np.log(sizes), np.log(sizes), 1)[0])
    ok = abs(slope - 0.5) <= 0.05 and max(constants) <= 5.0
    report(2, ok, f"BBHT log-log slope = {slope:.3f} (0.50 ± 0.05), "
                  f"c = mean/√N ≤ {max(constants):.2f} (≤ 5); "
                  f"exhaustive contrast slope = {exhaustive_slope:.1f}")


def test_criterion_3_single_shot_failure_scaling():
    """Uniform-state measurement accepts marked outcomes at rate M/N ± 3σ."""
    rng = np.random.default_rng(103)
    trials = 100000
    details = []
    ok = True
    for n_states, marked in [(64, 1), (64, 8), (256, 16)]:
        n_qubits = n_states.bit_length() - 1
        mask = np.zeros(n_states, dtype=bool)
        mask[:marked] = True
        oracle = qsearch.MarkingOracle(mask)
        rate = qsearch.measured_success_rate(oracle, 0, trials, rng)
        p = marked / n_states
        sigma = math.sqrt(p * (1 - p) / trials)
        ok = ok and abs(rate - p) <= 3 * sigma
        details.append(f"(N={n_states},M={marked}): {rate:.5f} vs {p:.5f} "
                       f"[{abs(rate - p) / sigma:.1f}σ]")
    report(3, ok, "; ".join(details))


def test_criterion_4_qmud_exhaustive_agreement():
    """10³ random K=10 instances: agreement ≥ 99%, mean queries < 0.25·2¹⁰."""
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    result = mud.qmud_agreement(10, 1000, rng)
    elapsed = time.perf_counter() - t0
    bound = 0.25 * (1 << 10)
    ok = (result.agreement >= 0.99
          and result.mean_grover_queries < bound
          and elapsed < 120.0)
    report(4, ok, f"agreement = {result.agreement:.3f} (≥ 0.99), "
                  f"mean oracle applications = {result.mean_grover_queries:.1f} "
                  f"(< {bound:.0f}; verifications {result.mean_verification_queries:.1f} "
                  f"tracked separately), {elapsed:.1f}s (< 120s)")


def test_criterion_5_single_user_ber_calibration():
    """K=1 BER matches Φ(−√(2·Eb/N0)) within 3σ, 10⁵ bits per point."""
    scenario = cdma.make_scenario("walsh", 1, 2)
    points = [0.0, 2.0, 4.0, 6.0, 8.0]
    trials = 100000
    curve = mud.ber_sweep(scenario, "mf", points, trials,
                          np.random.default_rng(105))
    details = []
    ok = True
    for point in curve.points:
        p = mud.analytic_bpsk_ber(point.ebn0_db)
        sigma = math.sqrt(p * (1 - p) / trials)
        ok = ok and abs(point.ber - p) <= 3 * sigma
        details.append(f"{point.ebn0_db:.0f}dB: {point.ber:.5f} vs {p:.5f} "
                       f"[{abs(point.ber - p) / sigma:.1f}σ]")
    report(5, ok, "; ".join(details))


def test_criterion_6_detector_ordering_and_near_far():
    """K=4 async random codes: BER(ML) ≤ BER(MF) + 3σ; near-far flip exact."""
    scenario = cdma.make_scenario(
        "random_bipolar", 4, 16, sync_mode=cdma.CHIP_ASYNC,
        gain_model=cdma.GAIN_RAYLEIGH, seed=2)
    points = [0.0, 4.0, 8.0]
    trials = 3000
    mf_curve = mud.ber_sweep(scenario, "mf", points, trials,
                             np.random.default_rng(106))
    ml_curve = mud.ber_sweep(scenario, "ml_exhaustive", points, trials,
                             np.random.default_rng(106))
    ordering_ok = True
    details = []
    for pm, pl in zip(mf_curve.points, ml_curve.points):
        n_bits = 4 * trials
        sigma = math.sqrt(max(pm.ber * (1 - pm.ber), 1 / n_bits) / n_bits)
        ordering_ok = ordering_ok and pl.ber <= pm.ber + 3 * sigma
        details.append(f"{pm.ebn0_db:.0f}dB: ML {pl.ber:.4f} ≤ MF {pm.ber:.4f}")

    # Hand-computed near-far case: correlated codes, 20 dB power imbalance.
    chips1 = np.array([1.0, 1, 1, 1]) / 2
    chips2 = np.array([1.0, 1, 1, -1]) / 2
    nf = cdma.CdmaScenario(signatures=np.array([chips1, chips2]))
    channel = cdma.ChannelState(gains=np.array([1.0, 10.0]),
                                delay=np.zeros(2, dtype=int))
    bits = np.array([1, -1])
    frame = cdma.synthesize_received(nf, channel, bits, [1, 1], 0.0, None)
    y = cdma.matched_filter_bank(frame, nf, channel)
    mf_rep = mud.mf_detect(y, channel, true_bits=bits)
    ml_rep = mud.exhaustive_ml_detect(mud.make_mls_cost(frame, nf, channel),
                                      true_bits=bits)
    near_far_ok = (abs(y[0] - (-4.0)) < 1e-12 and not mf_rep.correct
                   and mf_rep.detected_bits[0] == -1 and ml_rep.correct)
    ok = ordering_ok and near_far_ok
    report(6, ok, "; ".join(details) +
           f"; near-far: y₁ = {y[0].real:.0f} flips MF while ML is exact")


def test_criterion_7_bsc_demo():
    """p = 1/2, 10⁵ bits: classical ≈ 0.5, quantum exactly 0, capacity 0."""
    from qmudsim import qchannel
    rng = np.random.default_rng(107)
    report_demo = qchannel.run_demo(100000, 0.5, rng)
    sigma = math.sqrt(0.25 / 100000)
    ok = (abs(report_demo.classical_error_rate - 0.5) <= 3 * sigma
          and report_demo.quantum_error_rate == 0.0
          and report_demo.classical_capacity == 0.0)
    report(7, ok, f"classical = {report_demo.classical_error_rate:.4f} "
                  f"(0.5 ± {3 * sigma:.4f}), quantum = "
                  f"{report_demo.quantum_error_rate} (exactly 0), capacity = "
                  f"{report_demo.classical_capacity}")


def test_criterion_8_invariant_suites():
    """Norm/unitarity, chi-square, tensor convention, round trip, product
    detector, evaluation counter."""
    rng = np.random.default_rng(108)

    # Norm preservation under 1000 random unitaries, n ≤ 6, tolerance 1e−9.
    worst_norm = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        dim = 1 << n
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, _ = np.linalg.qr(z)
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state = qcore.StateVector(n, amps / np.linalg.norm(amps))
        out = qcore.apply_unitary(qcore.DenseUnitary(q), state)
        worst_norm = max(worst_norm, abs(np.linalg.norm(out.amplitudes) - 1))
    norm_ok = worst_norm < 1e-9

    # Measurement statistics: chi-square at significance 0.001, 10⁵ draws.
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    state = qcore.StateVector(4, amps / np.linalg.norm(amps))
    counts = np.zeros(16)
    draws = 100000
    for _ in range(draws):
        counts[qcore.measure(state, rng).outcome] += 1
    chi_ok = stats.chisquare(
        counts, f_exp=qcore.probabilities(state) * draws).pvalue > 0.001

    # Tensor little-endian convention: high bits from the left operand.
    a = qcore.basis_state(1, 0)
    b = qcore.basis_state(1, 1)
    tensor_ok = bool(np.argmax(np.abs(qcore.tensor(a, b).amplitudes)) == 1)
    x = qcore.StateVector(1, np.array([0.6, 0.8]))
    y = qcore.StateVector(1, np.array([1, 1j]) / np.sqrt(2))
    joint = qcore.tensor(x, y)
    for i in range(2):
        for j in range(2):
            tensor_ok = tensor_ok and abs(
                joint.amplitudes[(i << 1) + j]
                - x.amplitudes[i] * y.amplitudes[j]) < 1e-15

    # Hypothesis round trip over all m at K=10.
    round_trip_ok = all(
        index_from_bits(mud.bits_from_index(m, 10)) == m
        for m in range(1 << 10))

    # Product detector: Bell entangled, random tensor products not.
    bell = qcore.StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
    product_ok = not qcore.is_product_2qubit(bell)
    for _ in range(20):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        su = qcore.StateVector(1, u / np.linalg.norm(u))
        sv = qcore.StateVector(1, v / np.linalg.norm(v))
        product_ok = product_ok and qcore.is_product_2qubit(qcore.tensor(su, sv))

    # Exhaustive evaluation counter is exactly 2^K.
    table = rng.standard_normal(256)
    cf = mud.CostFunction(table)
    counter_ok = mud.exhaustive_ml_detect(cf).cf_evaluations == 256

    ok = (norm_ok and chi_ok and tensor_ok and round_trip_ok and product_ok
          and counter_ok)
    report(8, ok, f"norm drift {worst_norm:.2e} (< 1e−9); chi-square "
                  f"{'pass' if chi_ok else 'fail'}; tensor convention "
                  f"{'pass' if tensor_ok else 'fail'}; round trip "
                  f"{'pass' if round_trip_ok else 'fail'}; product detector "
                  f"{'pass' if product_ok else 'fail'}; counter "
                  f"{'pass' if counter_ok else 'fail'}")


def test_criterion_9_cli_reproducibility(tmp_path):
    """Fixed-seed CLI runs emit byte-identical CSV on repeated execution."""
    all_ok = True
    details = []

    g1, g2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
    assert cli.main(["grover", "--n", "64", "--trials", "3000",
                     "--out", str(g1)]) == 0
    assert cli.main(["grover", "--n", "64", "--trials", "3000",
                     "--out", str(g2)]) == 0
    grover_same = g1.read_bytes() == g2.read_bytes()
    all_ok = all_ok and grover_same
    details.append(f"grover {'identical' if grover_same else 'DIFFERS'}")

    cfg = tmp_path / "ber.cfg"
    cfg.write_text("signature_kind = random_bipolar\nk_users = 2\n"
                   "n_chips = 8\nsync_mode = chip-asynchronous\n"
                   "gain_model = rayleigh\ndetector = ml_exhaustive\n"
                   "ebn0_db_list = 0,6\ntrials = 400\nseed = 5\n")
    b1, b2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    assert cli.main(["ber", "--config", str(cfg), "--out", str(b1)]) == 0
    assert cli.main(["ber", "--config", str(cfg), "--out", str(b2)]) == 0
    ber_same = b1.read_bytes() == b2.read_bytes()
    all_ok = all_ok and ber_same
    details.append(f"ber {'identical' if ber_same else 'DIFFERS'}")

    q1, q2 = tmp_path / "q1.csv", tmp_path / "q2.csv"
    assert cli.main(["qmud-agree", "--k", "6", "--trials", "40",
                     "--out", str(q1)]) == 0
    assert cli.main(["qmud-agree", "--k", "6", "--trials", "40",
                     "--out", str(q2)]) == 0
    agree_same = q1.read_bytes() == q2.read_bytes()
    all_ok = all_ok and agree_same
    details.append(f"qmud-agree {'identical' if agree_same else 'DIFFERS'}")

    report(9, all_ok, "byte-identical reruns: " + ", ".join(details))
