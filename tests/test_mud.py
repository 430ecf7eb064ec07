"""Detection layer: hypothesis indexing, cost functions, detectors, harness."""

import hashlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from qmudsim import cdma, config, mud, qsearch
from qmudsim.errors import ConfigError, ShapeError, SizeError
from test_qsearch import (EQUIVALENCE_ALPHA, SEARCH_ERRORS,
                          exact_maximum_search, homogeneity_p,
                          reference_maximum_search)


def fixed_channel(gains, delays):
    return cdma.ChannelState(gains=np.asarray(gains, dtype=complex),
                             delay=np.asarray(delays, dtype=int))


def walsh2_frame():
    sc = cdma.make_scenario("walsh", 2, 2)
    ch = fixed_channel([1, 1], [0, 0])
    frame = cdma.synthesize_received(sc, ch, [1, -1], [1, 1], 0.0, None)
    return frame, sc, ch


def reference_table(frame, scenario, channel):
    """Image-based MLS table: synthesize all 2^K noiseless windows and score
    each against the observation."""
    images = cdma.synthesize(scenario, channel.gains, channel.delay,
                             mud.all_bit_vectors(scenario.k_users),
                             frame.prev_bits)
    diff = images - frame.samples
    return -np.sum(diff.real**2 + diff.imag**2, axis=1)


def stacked_split_half_scores(rows, target):
    """mud._split_half_scores with each half's 2·b·z − bᵀGb taken as one
    (2^c, c) @ (c, c) product per table, the form the flat GEMM replaced."""
    k = rows.shape[-2]
    c = (k + 1) // 2
    z = (rows @ target[..., None])[..., 0]
    gram = rows @ np.swapaxes(rows, -1, -2)
    b_lo, b_hi = mud.all_bit_vectors(c), mud.all_bit_vectors(k - c)

    def half_scores(bits, users):
        return ((2.0 * z[..., None, users] - bits @ gram[..., users, users])
                * bits).sum(axis=-1)

    table = (b_hi @ (-2.0 * gram[..., c:, :c])) @ b_lo.T
    table += half_scores(b_lo, slice(0, c))[..., None, :]
    table += (half_scores(b_hi, slice(c, k))
              - (target[..., None, :] @ target[..., None])[..., 0])[..., None]
    return table.reshape(table.shape[:-2] + (-1,))


def random_instance(k_users, n_chips, sigma2, sync_mode, gain_model, seed):
    rng = np.random.default_rng(seed)
    sc = cdma.make_scenario("random_bipolar", k_users, n_chips,
                            sync_mode=sync_mode, gain_model=gain_model,
                            seed=seed)
    ch = cdma.sample_channel(sc, rng)
    bits = rng.choice((-1, 1), size=k_users)
    prev = rng.choice((-1, 1), size=k_users)
    return cdma.synthesize_received(sc, ch, bits, prev, sigma2, rng), sc, ch


def reference_draw_trial(scenario, noise_variance, rng):
    """One random trial as the per-trial harness drew it: (channel, current
    bits, received frame).  Draws the channel, then the current and previous
    bits, then the noise of variance noise_variance per chip."""
    channel = cdma.sample_channel(scenario, rng)
    size = (scenario.k_users,)
    # the same draws as rng.choice((-1, 1), size=size), at half the cost
    bits = 2 * rng.integers(0, 2, size=size) - 1
    prev = 2 * rng.integers(0, 2, size=size) - 1
    frame = cdma.synthesize_received(scenario, channel, bits, prev,
                                     noise_variance, rng)
    return channel, bits, frame


@settings(max_examples=200, deadline=None)
@given(k_users=st.integers(1, 6), n_chips=st.integers(1, 8),
       sync_mode=st.sampled_from(cdma.SYNC_MODES),
       gain_model=st.sampled_from(cdma.GAIN_MODELS),
       noise_variance=st.sampled_from([0.0, 0.3, 2.5]),
       n=st.sampled_from([1, 2, 7]), seed=st.integers(0, 2**32 - 1))
def test_draw_trials_is_the_per_trial_loop(k_users, n_chips, sync_mode,
                                           gain_model, noise_variance, n,
                                           seed):
    # the chunk source makes the per-trial draws in the per-trial order, so
    # its stacks equal n reference_draw_trial calls bit for bit and both
    # leave the generator in the same state
    sc = cdma.make_scenario("random_bipolar", k_users, n_chips,
                            sync_mode=sync_mode, gain_model=gain_model,
                            seed=seed)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    channel, bits, frame = cdma.draw_trials(sc, noise_variance, n, rng)
    draws = [reference_draw_trial(sc, noise_variance, twin)
             for _ in range(n)]
    expected = {
        "gains": [c.gains for c, _, _ in draws],
        "delay": [c.delay for c, _, _ in draws],
        "bits": [b for _, b, _ in draws],
        "samples": [f.samples for _, _, f in draws],
        "prev_bits": [f.prev_bits for _, _, f in draws]}
    got = {"gains": channel.gains, "delay": channel.delay, "bits": bits,
           "samples": frame.samples, "prev_bits": frame.prev_bits}
    for name, rows in expected.items():
        want = np.stack(rows)
        assert got[name].dtype == want.dtype, name
        np.testing.assert_array_equal(got[name], want, err_msg=name)
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("shape, seed", [((), 31), ((16,), 32),
                                         ((3, 5), 33)])
def test_draw_trial_bits_are_the_choice_draws(shape, seed):
    # draw_trials takes its bits as float32 words >= 0.5 (the word rule);
    # twin generators that draw them with rng.choice((-1, 1)) give the same
    # trials and end in the same state, so seeded outputs do not depend on
    # which form is used.
    # A stack of shape `shape` is math.prod(shape) trials in C order.
    sc = cdma.make_scenario("random_bipolar", 10, 16,
                            sync_mode="chip-asynchronous",
                            gain_model="rayleigh", seed=seed)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    channel, bits, frame = cdma.draw_trials(sc, 0.3, math.prod(shape), rng)
    bits = bits.reshape(shape + (10,))
    prev_bits = frame.prev_bits.reshape(shape + (10,))
    samples = frame.samples.reshape(shape + (16,))
    gains = channel.gains.reshape(shape + (10,))
    for t in np.ndindex(shape):
        twin_channel = cdma.sample_channel(sc, twin)
        twin_bits = twin.choice((-1, 1), size=10)
        twin_prev = twin.choice((-1, 1), size=10)
        twin_frame = cdma.synthesize_received(sc, twin_channel, twin_bits,
                                              twin_prev, 0.3, twin)
        assert bits.dtype == twin_bits.dtype
        np.testing.assert_array_equal(bits[t], twin_bits)
        np.testing.assert_array_equal(prev_bits[t], twin_prev)
        np.testing.assert_array_equal(samples[t], twin_frame.samples)
        np.testing.assert_array_equal(gains[t], twin_channel.gains)
    assert rng.bit_generator.state == twin.bit_generator.state


def reference_ber_qmud(scenario, noise_variance, trials, rng):
    """The work counters of ber_sweep's qmud trials at one point, as a
    per-trial loop: one draw, one make_mls_cost table and one reference
    threshold loop per trial.  Returns (grover_queries, cf_evaluations)."""
    queries, rounds = [], []
    for _ in range(trials):
        channel, _, frame = reference_draw_trial(scenario, noise_variance,
                                                 rng)
        report = reference_maximum_search(
            mud.make_mls_cost(frame, scenario, channel).table(), rng)
        queries.append(report.grover_queries)
        rounds.append(report.iterations_used)
    return queries, rounds


def reference_ber(scenario, detector, ebn0_db_list, trials, rng):
    """ber_sweep's CSV text and trace text for mf or ml_exhaustive, as a
    per-trial loop: one reference_draw_trial and one single-frame detector
    call per trial."""
    k = scenario.k_users
    points, trace = [], io.StringIO()
    for ebn0_db, point_rng in zip(ebn0_db_list,
                                  rng.spawn(len(ebn0_db_list))):
        sigma2 = cdma.ebn0_db_to_noise_variance(ebn0_db)
        bit_errors = cf_total = 0
        for trial in range(trials):
            channel, bits, frame = reference_draw_trial(scenario, sigma2,
                                                        point_rng)
            if detector == "mf":
                report = mud.mf_detect(
                    cdma.matched_filter_bank(frame, scenario, channel),
                    channel)
            else:
                report = mud.exhaustive_ml_detect(
                    mud.make_mls_cost(frame, scenario, channel))
            errors = int(np.sum(report.detected_bits != bits))
            bit_errors += errors
            cf_total += int(report.cf_evaluations)
            trace.write(json.dumps({
                "ebn0_db": float(ebn0_db), "trial": trial,
                "true_bits": [int(b) for b in bits],
                "detected_bits": [int(b) for b in report.detected_bits],
                "bit_errors": errors,
                "cf_evaluations": int(report.cf_evaluations),
                "grover_queries": int(report.grover_queries)}) + "\n")
        points.append(mud.BerPoint(float(ebn0_db), bit_errors / (k * trials),
                                   trials, cf_total / trials, 0.0))
    csv_text = io.StringIO()
    mud.BerCurve(detector, tuple(points)).write_csv(csv_text)
    return csv_text.getvalue(), trace.getvalue()


def index_from_bits(bits):
    """Inverse of mud.bits_from_index: bit k of the index is set exactly
    when user k sent -1."""
    negative = (np.asarray(bits) < 0).astype(np.int64)
    return int(np.sum(negative << np.arange(negative.size)))


def traced_sweep(*args):
    """ber_sweep(*args) with a trace; its JSON lines, parsed."""
    buf = io.StringIO()
    mud.ber_sweep(*args, trace_fh=buf)
    return [json.loads(line) for line in buf.getvalue().splitlines()]


class TestHypothesisIndexing:
    def test_index_zero_is_all_plus(self):
        np.testing.assert_array_equal(mud.bits_from_index(0, 3), [1, 1, 1])

    def test_index_five_sets_users_0_and_2(self):
        np.testing.assert_array_equal(mud.bits_from_index(5, 3), [-1, 1, -1])

    def test_round_trip_all_indices_k10(self):
        for m in range(1 << 10):
            assert index_from_bits(mud.bits_from_index(m, 10)) == m

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mud.bits_from_index(8, 3)
        with pytest.raises(ValueError):
            mud.bits_from_index(-1, 3)

    @pytest.mark.parametrize("m, k_users", [(2.5, 3), (3, 2.5)])
    def test_non_integer_sizes_rejected(self, m, k_users):
        with pytest.raises(ConfigError):
            mud.bits_from_index(m, k_users)

    @settings(max_examples=200, deadline=None)
    @given(k_users=st.integers(1, 20), data=st.data())
    def test_round_trip_both_ways(self, k_users, data):
        m = data.draw(st.integers(0, (1 << k_users) - 1))
        bits = mud.bits_from_index(m, k_users)
        assert bits.shape == (k_users,)
        assert index_from_bits(bits) == m
        signs = data.draw(st.lists(st.sampled_from((-1, 1)),
                                   min_size=k_users, max_size=k_users))
        np.testing.assert_array_equal(
            mud.bits_from_index(index_from_bits(signs), k_users), signs)


class TestMlsCost:
    def test_true_hypothesis_scores_zero_and_wins(self):
        frame, sc, ch = walsh2_frame()
        cf = mud.make_mls_cost(frame, sc, ch)
        truth = index_from_bits([1, -1])
        assert cf.evaluate(truth) == pytest.approx(0.0, abs=1e-12)
        table = cf.table()
        assert int(np.argmax(table)) == truth

    def test_hand_computed_score_table(self):
        frame, sc, ch = walsh2_frame()
        cf = mud.make_mls_cost(frame, sc, ch)
        # Scores by bit pattern: (+,+) -> -4, (+,-) -> 0, (-,+) -> -8,
        # (-,-) -> -4; index order interleaves via the bit convention.
        by_pattern = {tuple(mud.bits_from_index(m, 2)): cf.table()[m]
                      for m in range(4)}
        assert by_pattern[(1, 1)] == pytest.approx(-4.0, abs=1e-12)
        assert by_pattern[(1, -1)] == pytest.approx(0.0, abs=1e-12)
        assert by_pattern[(-1, 1)] == pytest.approx(-8.0, abs=1e-12)
        assert by_pattern[(-1, -1)] == pytest.approx(-4.0, abs=1e-12)
        np.testing.assert_allclose(cf.table(), [-4.0, -8.0, 0.0, -4.0],
                                   atol=1e-12)

    def test_zero_gain_scores_all_equal(self):
        sc = cdma.make_scenario("walsh", 2, 2)
        ch = fixed_channel([0, 0], [0, 0])
        frame = cdma.ReceivedFrame(samples=np.array([0.3 + 1j, -0.4j]),
                                   prev_bits=np.array([1, 1]))
        cf = mud.make_mls_cost(frame, sc, ch)
        expected = -float(np.sum(np.abs(frame.samples) ** 2))
        np.testing.assert_allclose(cf.table(), np.full(4, expected))

    @settings(max_examples=40, deadline=None)
    @given(k_users=st.integers(1, 4), n_chips=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1))
    def test_table_matches_per_index_evaluation(self, k_users, n_chips, seed):
        # Reference: score each hypothesis against its own noiseless frame,
        # one synthesize_received call per index.
        rng = np.random.default_rng(seed)
        sc = cdma.make_scenario("random_bipolar", k_users, n_chips,
                                sync_mode=cdma.CHIP_ASYNC,
                                gain_model=cdma.GAIN_RAYLEIGH, seed=seed)
        ch = cdma.sample_channel(sc, rng)
        bits = rng.choice((-1, 1), size=k_users)
        prev = rng.choice((-1, 1), size=k_users)
        frame = cdma.synthesize_received(sc, ch, bits, prev, 0.2, rng)
        chip_ref = []
        for m in range(1 << k_users):
            image = cdma.synthesize_received(
                sc, ch, mud.bits_from_index(m, k_users), prev, 0.0, None)
            chip_ref.append(-np.sum(np.abs(frame.samples - image.samples) ** 2))
        cf = mud.make_mls_cost(frame, sc, ch)
        np.testing.assert_allclose(cf.table(), chip_ref, rtol=1e-12, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(k_users=st.integers(1, 10), n_chips=st.integers(1, 16),
           sigma2=st.floats(0.01, 2.0),
           sync_mode=st.sampled_from(cdma.SYNC_MODES),
           gain_model=st.sampled_from(cdma.GAIN_MODELS),
           seed=st.integers(0, 2**32 - 1))
    @example(k_users=1, n_chips=4, sigma2=0.1, sync_mode=cdma.CHIP_ASYNC,
             gain_model=cdma.GAIN_RAYLEIGH, seed=1)
    @example(k_users=7, n_chips=16, sigma2=0.1, sync_mode=cdma.SYNCHRONOUS,
             gain_model=cdma.GAIN_FIXED, seed=2)
    def test_split_half_table_matches_image_reference(
            self, k_users, n_chips, sigma2, sync_mode, gain_model, seed):
        frame, sc, ch = random_instance(k_users, n_chips, sigma2, sync_mode,
                                        gain_model, seed)
        ref = reference_table(frame, sc, ch)
        table = mud.make_mls_cost(frame, sc, ch).table()
        # the closed form cancels terms as large as the largest score,
        # so its rounding error scales with that, not with each entry
        tol = 1e-12 * np.max(np.abs(ref))
        np.testing.assert_allclose(table, ref, rtol=1e-12, atol=tol)
        # equal argmax, up to exact ties in the reference (codes that
        # coincide at small N_c make different hypotheses score alike)
        assert ref[np.argmax(table)] >= ref.max() - tol
        if np.count_nonzero(ref >= ref.max() - tol) == 1:
            assert np.argmax(table) == np.argmax(ref)

    @settings(max_examples=100, deadline=None)
    @given(k_users=st.integers(1, 10), n_chips=st.integers(1, 16),
           sigma2=st.floats(0.01, 2.0),
           sync_mode=st.sampled_from(cdma.SYNC_MODES),
           gain_model=st.sampled_from(cdma.GAIN_MODELS),
           shape=st.sampled_from([(1,), (5,), (2, 3)]),
           shared_channel=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_batched_tables_match_per_frame_tables(
            self, k_users, n_chips, sigma2, sync_mode, gain_model, shape,
            shared_channel, seed):
        sc = cdma.make_scenario("random_bipolar", k_users, n_chips,
                                sync_mode=sync_mode, gain_model=gain_model,
                                seed=seed)
        channel, _, frame = cdma.draw_trials(sc, sigma2, math.prod(shape),
                                             np.random.default_rng(seed))
        channel = cdma.ChannelState(
            gains=channel.gains.reshape(shape + (k_users,)),
            delay=channel.delay.reshape(shape + (k_users,)))
        frame = cdma.ReceivedFrame(
            samples=frame.samples.reshape(shape + (n_chips,)),
            prev_bits=frame.prev_bits.reshape(shape + (k_users,)))
        if shared_channel:
            # one (K,) channel broadcast over every frame
            first = (0,) * len(shape)
            channel = cdma.ChannelState(gains=channel.gains[first],
                                        delay=channel.delay[first])
        tables = mud.mls_tables(frame, sc, channel)
        assert tables.shape == shape + (1 << k_users,)
        for t in np.ndindex(shape):
            one = cdma.ReceivedFrame(samples=frame.samples[t],
                                     prev_bits=frame.prev_bits[t])
            ch = channel if shared_channel else cdma.ChannelState(
                gains=channel.gains[t], delay=channel.delay[t])
            ref = mud.make_mls_cost(one, sc, ch).table()
            tol = 1e-12 * np.max(np.abs(ref))
            np.testing.assert_allclose(tables[t], ref, rtol=1e-12, atol=tol)

    @settings(max_examples=100, deadline=None)
    @given(k_users=st.integers(1, 12), n_chips=st.integers(1, 8),
           shape=st.sampled_from([(), (1,), (5,), (2, 3)]),
           seed=st.integers(0, 2**32 - 1))
    def test_flat_half_scores_match_stacked_reference(
            self, k_users, n_chips, shape, seed):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal(shape + (k_users, 2 * n_chips))
        target = rng.standard_normal(shape + (2 * n_chips,))
        tables = mud._split_half_scores(rows, target)
        ref = stacked_split_half_scores(rows, target)
        assert tables.shape == ref.shape == shape + (1 << k_users,)
        tol = 1e-12 * np.max(np.abs(ref))
        np.testing.assert_allclose(tables, ref, rtol=1e-12, atol=tol)

    def test_k20_table_memory_is_bounded(self):
        frame, sc, ch = random_instance(20, 16, 0.1, cdma.CHIP_ASYNC,
                                        cdma.GAIN_RAYLEIGH, seed=20)
        cf = mud.make_mls_cost(frame, sc, ch)
        tracemalloc.start()
        try:
            table = cf.table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (1 << 20,)
        assert peak < 32 * 2**20  # the table itself is 8 MiB

    def test_chip_and_mf_kinds_agree_on_argmax_synchronous(self):
        # Nonsingular Gram + synchronous + clean frames: the table peaks at
        # the transmitted index, exhaustively over all bit vectors.
        for k_users in (2, 3, 4):
            sc = cdma.make_scenario("random_bipolar", k_users, 16, seed=7)
            ch = fixed_channel(np.ones(k_users), np.zeros(k_users))
            gram = sc.signatures @ sc.signatures.T
            assert np.linalg.matrix_rank(gram) == k_users
            for m in range(1 << k_users):
                bits = mud.bits_from_index(m, k_users)
                frame = cdma.synthesize_received(sc, ch, bits,
                                                 np.ones(k_users), 0.0, None)
                chip = mud.make_mls_cost(frame, sc, ch)
                assert int(np.argmax(chip.table())) == m

    def test_argmax_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(4)
        transforms = [lambda x: 2.0 * x + 3.0,
                      lambda x: np.exp(0.05 * x),
                      lambda x: x ** 3]
        for _ in range(100):
            table = rng.standard_normal(16)
            cf = mud.CostFunction(table)
            base = mud.exhaustive_ml_detect(cf)
            for f in transforms:
                warped = mud.CostFunction(f(table))
                out = mud.exhaustive_ml_detect(warped)
                np.testing.assert_array_equal(out.detected_bits,
                                              base.detected_bits)


class TestMfDetect:
    def test_orthogonal_synchronous_exhaustive(self):
        for k_users in (2, 3, 4):
            sc = cdma.make_scenario("walsh", k_users, 4)
            ch = fixed_channel(np.ones(k_users), np.zeros(k_users))
            for m in range(1 << k_users):
                bits = mud.bits_from_index(m, k_users)
                frame = cdma.synthesize_received(sc, ch, bits,
                                                 np.ones(k_users), 0.0, None)
                y = cdma.matched_filter_bank(frame, sc, ch)
                report = mud.mf_detect(y, ch, true_bits=bits)
                assert report.correct
                assert report.cf_evaluations == 0
                assert report.grover_queries == 0

    def test_near_far_flip_while_ml_correct(self):
        chips1 = np.array([1.0, 1, 1, 1]) / 2
        chips2 = np.array([1.0, 1, 1, -1]) / 2
        assert np.dot(chips1, chips2) == pytest.approx(0.5)
        sc = cdma.CdmaScenario(signatures=np.array([chips1, chips2]))
        ch = fixed_channel([1, 10], [0, 0])
        bits = np.array([1, -1])
        frame = cdma.synthesize_received(sc, ch, bits, [1, 1], 0.0, None)
        y = cdma.matched_filter_bank(frame, sc, ch)
        assert y[0] == pytest.approx(1 - 5, abs=1e-12)  # strong user swamps
        mf_report = mud.mf_detect(y, ch, true_bits=bits)
        assert not mf_report.correct
        assert mf_report.detected_bits[0] == -1
        ml_report = mud.exhaustive_ml_detect(
            mud.make_mls_cost(frame, sc, ch), true_bits=bits)
        assert ml_report.correct

    def test_zero_outputs_slice_to_plus_one(self):
        ch = fixed_channel([1, 1, 1], [0, 0, 0])
        y = np.zeros(3, dtype=complex)
        report = mud.mf_detect(y, ch)
        np.testing.assert_array_equal(report.detected_bits, [1, 1, 1])
        assert report.correct is None


class TestExhaustiveDetect:
    def test_walsh_case_and_counter(self):
        frame, sc, ch = walsh2_frame()
        cf = mud.make_mls_cost(frame, sc, ch)
        report = mud.exhaustive_ml_detect(cf, true_bits=[1, -1])
        np.testing.assert_array_equal(report.detected_bits, [1, -1])
        assert report.cf_evaluations == 4
        assert report.correct

    def test_counter_exact_for_k8(self):
        rng = np.random.default_rng(7)
        table = rng.standard_normal(256)
        cf = mud.CostFunction(table)
        report = mud.exhaustive_ml_detect(cf)
        assert report.cf_evaluations == 256
        assert cf.evaluations == 256

    def test_evaluate_reads_the_table_and_counts_each_index(self):
        table = np.arange(8.0)
        cf = mud.CostFunction(table)
        assert cf.evaluate(5) == 5.0
        np.testing.assert_array_equal(cf.evaluate([7, 0]), [7.0, 0.0])
        assert cf.evaluations == 3
        with pytest.raises(ValueError):
            cf.evaluate(8)
        with pytest.raises(ValueError):
            cf.evaluate(-1)
        with pytest.raises(ValueError):
            mud.CostFunction(np.zeros(7))

    @pytest.mark.parametrize("table", [np.zeros(6), np.zeros(0),
                                       np.zeros((4, 6)), np.float64(1.0)])
    def test_table_must_be_1d_of_power_of_two_length(self, table):
        with pytest.raises(ShapeError):
            mud.CostFunction(table)

    def test_keeps_a_copy_of_the_callers_scores(self):
        scores = np.arange(8.0)
        cf = mud.CostFunction(scores)
        scores[0] = 99.0
        assert cf.table()[0] == 0.0
        np.testing.assert_array_equal(
            mud.exhaustive_ml_detect(cf).detected_bits,
            mud.bits_from_index(7, 3))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_scores_rejected(self, bad):
        # a NaN first score used to win the exhaustive argmax
        with pytest.raises(ValueError, match="finite"):
            mud.exhaustive_ml_detect(mud.CostFunction([bad, 1.0]))

    def test_table_is_read_only(self):
        cf = mud.CostFunction(np.arange(8.0))
        with pytest.raises(ValueError):
            cf.table()[0] = 1
        assert cf.table()[0] == 0.0

    def test_k_read_from_the_table(self):
        cf = mud.CostFunction(np.arange(16.0))
        assert cf.k_users == 4
        report = mud.exhaustive_ml_detect(cf)
        np.testing.assert_array_equal(report.detected_bits,
                                      mud.bits_from_index(15, 4))
        assert report.cf_evaluations == 16

    def test_constant_cost_ties_to_index_zero(self):
        cf = mud.CostFunction(np.ones(8))
        report = mud.exhaustive_ml_detect(cf)
        np.testing.assert_array_equal(report.detected_bits, [1, 1, 1])

    def test_noiseless_detection_exact(self):
        rng = np.random.default_rng(8)
        sc = cdma.make_scenario("random_bipolar", 4, 16, seed=3)
        ch = fixed_channel(np.ones(4), np.zeros(4))
        for _ in range(20):
            bits = rng.choice((-1, 1), size=4)
            frame = cdma.synthesize_received(sc, ch, bits, np.ones(4), 0.0,
                                             None)
            report = mud.exhaustive_ml_detect(
                mud.make_mls_cost(frame, sc, ch), true_bits=bits)
            assert report.correct

    def test_k_guard(self):
        cf = mud.CostFunction(np.zeros(1 << 21))
        with pytest.raises(SizeError):
            mud.exhaustive_ml_detect(cf)


class TestQmudDetect:
    def test_matches_exhaustive_on_walsh_case(self):
        frame, sc, ch = walsh2_frame()
        rng = np.random.default_rng(9)
        for _ in range(25):
            report = mud.qmud_detect(mud.make_mls_cost(frame, sc, ch), rng,
                                     true_bits=[1, -1])
            np.testing.assert_array_equal(report.detected_bits, [1, -1])
            assert report.correct

    def test_constant_cost_accepts_any_hypothesis(self):
        cf = mud.CostFunction(np.full(8, 2.5))
        report = mud.qmud_detect(cf, np.random.default_rng(10))
        assert report.detected_bits.shape == (3,)
        assert report.cf_evaluations >= 1  # threshold rounds attempted

    def test_round_count_reported_as_cf_evaluations(self):
        rng = np.random.default_rng(11)
        cf = mud.CostFunction(np.arange(64.0))
        report = mud.qmud_detect(cf, rng)
        rounds = report.cf_evaluations
        assert rounds >= qsearch.MAXIMUM_SEARCH_CONFIG.max_failures
        assert report.grover_queries > 0

    def test_bits_read_from_the_table(self):
        report = mud.qmud_detect(mud.CostFunction(np.arange(32.0)),
                                 np.random.default_rng(14))
        np.testing.assert_array_equal(report.detected_bits,
                                      mud.bits_from_index(31, 5))

    def test_agreement_with_exhaustive_k8(self):
        rng = np.random.default_rng(12)
        result = mud.qmud_agreement(8, 300, rng)
        assert result.agreement >= 0.98
        assert result.mean_grover_queries < result.exhaustive_evaluations

    @pytest.mark.parametrize("k_users", [6, 10])
    def test_agreement_matches_exact_means(self, k_users):
        # per-call means over 40 calls of 50 trials; agreement by an exact
        # binomial test over all trials, the mean counters by z-tests with
        # the standard error of the per-call means
        exact = exact_maximum_search(1 << k_users)
        calls, trials = 40, 50
        results = [mud.qmud_agreement(k_users, trials,
                                      np.random.default_rng(s))
                   for s in range(100, 100 + calls)]
        misses = sum(round((1 - r.agreement) * trials) for r in results)
        assert stats.binomtest(misses, calls * trials,
                               1 - exact["agreement"]).pvalue > EQUIVALENCE_ALPHA
        for field, key in (("mean_grover_queries", "queries"),
                           ("mean_verification_queries", "verifications"),
                           ("mean_threshold_rounds", "rounds")):
            means = np.array([getattr(r, field) for r in results])
            z = ((means.mean() - exact[key])
                 / (means.std(ddof=1) / math.sqrt(calls)))
            assert 2 * stats.norm.sf(abs(z)) > EQUIVALENCE_ALPHA, (field, z)

    def test_chunked_agreement_memory_is_bounded(self):
        tracemalloc.start()
        try:
            result = mud.qmud_agreement(12, 200, np.random.default_rng(21))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # no table is built; all 200 K = 12 tables would take 6.5 MB
        assert peak < 2 * 2**20
        assert result.agreement >= 0.98

    def test_agreement_memory_does_not_grow_with_trials(self):
        peaks = []
        for trials in (5_000, 100_000):
            tracemalloc.start()
            try:
                mud.qmud_agreement(2, trials, np.random.default_rng(22))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # both peak at one batch of config.MAX_BATCH searches (about
        # 2.8 MiB at K = 2); running all 100,000 searches at once peaks
        # 47 MiB higher
        assert peaks[1] < peaks[0] + 2**20

    def test_every_unique_maximum_row_takes_the_lock_step_search(
            self, monkeypatch):
        # every trial's first rank reaches threshold_search, in batches of
        # config.MAX_BATCH, and no table is searched
        searched = {"rows": 0, "batches": []}
        maximum_search = qsearch.maximum_search
        threshold_search = qsearch.threshold_search

        def per_row(table, rng):
            searched["rows"] += 1
            return maximum_search(table, rng)

        def lock_step(first_ranks, n_states, rng):
            searched["batches"].append(len(first_ranks))
            return threshold_search(first_ranks, n_states, rng)

        monkeypatch.setattr(qsearch, "maximum_search", per_row)
        monkeypatch.setattr(qsearch, "threshold_search", lock_step)
        monkeypatch.setattr(config, "MAX_BATCH", 16)
        result = mud.qmud_agreement(3, 40, np.random.default_rng(31))
        assert searched == {"rows": 0, "batches": [16, 16, 8]}
        assert result.agreement > 0.9

    def test_tied_maximum_detected_as_exhaustive_detects_it(self):
        # every score ties: both detectors aim at index 0
        cf = mud.CostFunction(np.zeros(8))
        exhaustive = mud.exhaustive_ml_detect(cf).detected_bits
        same = sum(np.array_equal(
            mud.qmud_detect(cf, np.random.default_rng(seed)).detected_bits,
            exhaustive) for seed in range(200))
        assert same >= 0.99 * 200

    @pytest.mark.parametrize("ebn0_db", [-3070.0, -3080.0])
    def test_ebn0_above_the_noise_ceiling_rejected(self, ebn0_db):
        # these used to give finite variances whose tables overflowed
        sc = cdma.make_scenario("random_bipolar", 6, 16,
                                sync_mode=cdma.CHIP_ASYNC,
                                gain_model=cdma.GAIN_RAYLEIGH, seed=3)
        for detector in ("ml_exhaustive", "qmud"):
            with pytest.raises(ConfigError, match="noise variance"):
                mud.ber_sweep(sc, detector, [0.0, ebn0_db], 2,
                              np.random.default_rng(14))

    @settings(max_examples=60, deadline=None)
    @given(k_users=st.one_of(st.integers(-2, 8), st.floats(-1, 8),
                             st.booleans(),
                             st.just(mud.EXHAUSTIVE_K_LIMIT + 1)),
           trials=st.one_of(st.integers(-2, 40), st.floats(-1, 40),
                            st.booleans()),
           seed=st.integers(0, 2**32 - 1))
    def test_agreement_fuzz(self, k_users, trials, seed):
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        try:
            result = mud.qmud_agreement(k_users, trials, rng)
        except SEARCH_ERRORS:
            assert rng.bit_generator.state == state
            return
        assert (result.k_users, result.trials) == (k_users, trials)
        assert 0 <= result.agreement <= 1
        for counter in (result.mean_grover_queries,
                        result.mean_verification_queries,
                        result.mean_threshold_rounds):
            assert math.isfinite(counter) and counter >= 0


class TestStackedDetection:
    """Each detector on a (..., K) stack gives what per-row calls give, with
    counters and `correct` of the stack's leading shape."""

    def test_mf_stack_matches_rows(self):
        rng = np.random.default_rng(40)
        y = rng.standard_normal((3, 5, 4)) + 1j * rng.standard_normal(
            (3, 5, 4))
        ch = fixed_channel(np.exp(1j * rng.uniform(0, 6, (3, 5, 4))),
                           np.zeros((3, 5, 4)))
        truth = rng.choice((-1, 1), size=(3, 5, 4))
        report = mud.mf_detect(y, ch, true_bits=truth)
        for i in np.ndindex(3, 5):
            row = mud.mf_detect(y[i], fixed_channel(ch.gains[i], ch.delay[i]),
                                true_bits=truth[i])
            np.testing.assert_array_equal(report.detected_bits[i],
                                          row.detected_bits)
            assert report.correct[i] == row.correct
        for counter in (report.cf_evaluations, report.grover_queries):
            np.testing.assert_array_equal(counter, np.zeros((3, 5)))

    def test_ml_stack_matches_rows(self):
        rng = np.random.default_rng(41)
        tables = rng.standard_normal((6, 7, 64))
        tables[0, 0] = 1.0  # a tie goes to index 0 in a stack too
        truth = rng.choice((-1, 1), size=(6, 7, 6))
        cf = mud.CostFunction(tables)
        assert cf.k_users == 6
        report = mud.exhaustive_ml_detect(cf, true_bits=truth)
        assert cf.evaluations == 64
        np.testing.assert_array_equal(report.cf_evaluations,
                                      np.full((6, 7), 64))
        np.testing.assert_array_equal(report.grover_queries,
                                      np.zeros((6, 7)))
        for i in np.ndindex(6, 7):
            row = mud.exhaustive_ml_detect(mud.CostFunction(tables[i]),
                                           true_bits=truth[i])
            np.testing.assert_array_equal(report.detected_bits[i],
                                          row.detected_bits)
            assert report.correct[i] == row.correct
            assert row.cf_evaluations == 64
        np.testing.assert_array_equal(report.detected_bits[0, 0],
                                      mud.bits_from_index(0, 6))

    def test_evaluate_reads_every_table(self):
        cf = mud.CostFunction(np.arange(16.0).reshape(2, 8))
        np.testing.assert_array_equal(cf.evaluate(5), [5.0, 13.0])
        np.testing.assert_array_equal(cf.evaluate([7, 0]),
                                      [[7.0, 0.0], [15.0, 8.0]])
        assert cf.evaluations == 3

    def test_qmud_stack_finds_the_argmax_except_on_misses(self):
        # a stack's searches land on each table's argmax unless they miss
        # it, at the exact miss rate; counters take the stack's shape
        rng = np.random.default_rng(42)
        tables = rng.standard_normal((50, 40, 64))
        argmax_bits = mud.exhaustive_ml_detect(
            mud.CostFunction(tables)).detected_bits
        report = mud.qmud_detect(mud.CostFunction(tables),
                                 np.random.default_rng(43),
                                 true_bits=argmax_bits)
        assert report.detected_bits.shape == (50, 40, 6)
        for counter in (report.cf_evaluations, report.grover_queries,
                        report.correct):
            assert counter.shape == (50, 40)
        assert (report.cf_evaluations
                >= qsearch.MAXIMUM_SEARCH_CONFIG.max_failures).all()
        misses = int(np.count_nonzero(~report.correct))
        p = stats.binomtest(misses, 2000,
                            1 - exact_maximum_search(64)["agreement"]).pvalue
        assert p > EQUIVALENCE_ALPHA
        one = mud.qmud_detect(mud.CostFunction(tables[0, 0]),
                              np.random.default_rng(44))
        assert one.detected_bits.shape == (6,)
        assert one.cf_evaluations.shape == one.grover_queries.shape == ()


class TestBerSweep:
    def test_noiseless_ml_is_error_free(self):
        sc = cdma.make_scenario("random_bipolar", 3, 16, seed=2)
        curve = mud.ber_sweep(sc, "ml_exhaustive", [float("inf")], 200,
                              np.random.default_rng(13))
        assert curve.points[0].ber == 0.0
        assert curve.points[0].mean_cf_evaluations == 8.0

    def test_single_user_matches_analytic(self):
        sc = cdma.make_scenario("walsh", 1, 2)
        curve = mud.ber_sweep(sc, "mf", [0.0, 6.0], 20000,
                              np.random.default_rng(14))
        for point in curve.points:
            p = mud.analytic_bpsk_ber(point.ebn0_db)
            sigma = math.sqrt(p * (1 - p) / 20000)
            assert abs(point.ber - p) <= 3 * sigma

    def test_deterministic_under_seed(self):
        sc = cdma.make_scenario("random_bipolar", 2, 8, seed=4)
        c1 = mud.ber_sweep(sc, "ml_exhaustive", [4.0], 300,
                           np.random.default_rng(15))
        c2 = mud.ber_sweep(sc, "ml_exhaustive", [4.0], 300,
                           np.random.default_rng(15))
        assert c1.points == c2.points

    def test_qmud_tracks_exhaustive_within_3_sigma(self):
        sc = cdma.make_scenario("random_bipolar", 8, 16,
                                sync_mode=cdma.CHIP_ASYNC,
                                gain_model=cdma.GAIN_RAYLEIGH, seed=6)
        trials = 400
        ml = mud.ber_sweep(sc, "ml_exhaustive", [2.0, 8.0], trials,
                           np.random.default_rng(16))
        qm = mud.ber_sweep(sc, "qmud", [2.0, 8.0], trials,
                           np.random.default_rng(16))
        for pm, pq in zip(ml.points, qm.points):
            n_bits = 8 * trials
            p = max(pm.ber, 1 / n_bits)
            sigma = math.sqrt(p * (1 - p) / n_bits)
            assert abs(pq.ber - pm.ber) <= 3 * sigma
            assert pm.mean_cf_evaluations == 256.0
            assert pq.mean_grover_queries < 256.0

    def test_carried_half_word_crosses_the_chunk_boundary(self,
                                                          monkeypatch):
        # an asynchronous K = 11 trial takes 33 32-bit words (11 delays, 22
        # bit words), and N_c = 187 makes a chunk 509 trials, so the bit
        # generator carries half of a 64-bit draw into every second trial
        # and into each point's second chunk.  The CSV, the trace and each
        # point's final generator state were computed with rng.integers(0,
        # 2, K) bit draws.
        sc = cdma.make_scenario("random_bipolar", 11, 187,
                                sync_mode=cdma.CHIP_ASYNC,
                                gain_model=cdma.GAIN_RAYLEIGH, seed=27)
        draw_trials, calls = cdma.draw_trials, []

        def recording(scenario, noise_variance, n, rng):
            calls.append((rng, n, rng.bit_generator.state["has_uint32"]))
            return draw_trials(scenario, noise_variance, n, rng)

        monkeypatch.setattr(cdma, "draw_trials", recording)
        trace = io.StringIO()
        curve = mud.ber_sweep(sc, "mf", [2.0, 6.0], 600,
                              np.random.default_rng(27), trace_fh=trace)
        assert [(n, carry) for _, n, carry in calls] == [(509, 0),
                                                         (91, 1)] * 2
        csv = io.StringIO()
        curve.write_csv(csv)
        digests = [hashlib.sha256(buf.getvalue().encode()).hexdigest()
                   for buf in (csv, trace)]
        assert digests == [
            "ba89ceddc5f7a8e14def2fcaadae665cfbc643ae9ea560f99bec490b0f4a46ba",
            "34ab46bbcaf41f8dfca3bb2e40b0fa5a5855fd25b3708cb1c3ef8059af671a7b"]
        assert calls[1][0] is calls[0][0] and calls[3][0] is calls[2][0]
        assert [calls[i][0].bit_generator.state for i in (0, 2)] == [
            {"bit_generator": "PCG64",
             "state": {"state": 266630904303732566349294092915271672436,
                       "inc": 91570558540468798193234679038771571897},
             "has_uint32": 0, "uinteger": 314684874},
            {"bit_generator": "PCG64",
             "state": {"state": 324523967315036760773243004130274077958,
                       "inc": 323620707328562576610107498391663508065},
             "has_uint32": 0, "uinteger": 1900219617}]

    def test_trace_lines_written(self):
        sc = cdma.make_scenario("walsh", 2, 2)
        buf = io.StringIO()
        mud.ber_sweep(sc, "mf", [4.0], 10, np.random.default_rng(17),
                      trace_fh=buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 10
        record = json.loads(lines[0])
        assert set(record) == {"ebn0_db", "trial", "true_bits", "detected_bits",
                               "bit_errors", "cf_evaluations", "grover_queries"}

    def test_detectors_see_the_same_frames(self, monkeypatch):
        # 3 trials a chunk at K = 6 and N_c = 16 (K·N_c = 96 chips), so 23
        # trials take 8 chunks, the last one short
        monkeypatch.setattr(config, "BATCH_SCORES", 5 << 6)
        sc = cdma.make_scenario("random_bipolar", 6, 16,
                                sync_mode=cdma.CHIP_ASYNC,
                                gain_model=cdma.GAIN_RAYLEIGH, seed=7)
        traces = {detector: traced_sweep(sc, detector, [2.0, 6.0], 23,
                                         np.random.default_rng(20))
                  for detector in mud.DETECTORS}
        for records in traces.values():
            assert [(r["ebn0_db"], r["trial"]) for r in records] == [
                (db, t) for db in (2.0, 6.0) for t in range(23)]
        bits = {detector: [r["true_bits"] for r in records]
                for detector, records in traces.items()}
        assert bits["mf"] == bits["ml_exhaustive"] == bits["qmud"]

    def test_qmud_misses_ml_at_the_exact_rate(self):
        # qmud lands on ML's hypothesis unless its search misses the
        # maximum, which happens with 1 − agreement of the exact reference
        sc = cdma.make_scenario("random_bipolar", 8, 16,
                                sync_mode=cdma.CHIP_ASYNC,
                                gain_model=cdma.GAIN_RAYLEIGH, seed=8)
        ml, qm = (traced_sweep(sc, detector, [4.0], 3000,
                               np.random.default_rng(21))
                  for detector in ("ml_exhaustive", "qmud"))
        misses = sum(a["detected_bits"] != b["detected_bits"]
                     for a, b in zip(ml, qm))
        p = stats.binomtest(misses, len(qm),
                            1 - exact_maximum_search(256)["agreement"]).pvalue
        assert p > EQUIVALENCE_ALPHA

    def test_qmud_counters_match_per_trial_reference(self):
        sc = cdma.make_scenario("random_bipolar", 6, 16,
                                sync_mode=cdma.CHIP_ASYNC,
                                gain_model=cdma.GAIN_RAYLEIGH, seed=9)
        trials = 2000
        new = traced_sweep(sc, "qmud", [4.0], trials,
                           np.random.default_rng(22))
        queries, rounds = reference_ber_qmud(
            sc, cdma.ebn0_db_to_noise_variance(4.0), trials,
            np.random.default_rng(23))
        assert homogeneity_p([r["grover_queries"] for r in new],
                             queries) > EQUIVALENCE_ALPHA
        assert homogeneity_p([r["cf_evaluations"] for r in new],
                             rounds) > EQUIVALENCE_ALPHA

    @pytest.mark.parametrize("detector, k_users, n_chips, trials", [
        ("mf", 12, 16, (300, 1200)),
        ("ml_exhaustive", 12, 16, (300, 1200)),
        ("qmud", 12, 16, (300, 1200)),
        ("mf", 1, 1 << 17, (8, 40)),
    ], ids=["mf", "ml_exhaustive", "qmud", "mf-large-frames"])
    def test_memory_does_not_grow_with_trials(self, detector, k_users,
                                              n_chips, trials):
        # a chunk holds 256 K = 12 tables (8 MiB; all 1,200 at once would
        # peak 29 MiB higher), or 8 frames of 2^17 chips (16 MiB; 40 at
        # once would peak 64 MiB higher)
        sc = cdma.make_scenario("random_bipolar", k_users, n_chips,
                                sync_mode=cdma.CHIP_ASYNC,
                                gain_model=cdma.GAIN_RAYLEIGH, seed=10)
        peaks = []
        for n in trials:
            tracemalloc.start()
            try:
                mud.ber_sweep(sc, detector, [8.0], n,
                              np.random.default_rng(24))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2**20

    @pytest.mark.parametrize("detector", ["mf", "ml_exhaustive"])
    def test_matches_per_trial_reference(self, detector, monkeypatch):
        # 3 trials a chunk at K = 6 and N_c = 16, so 23 trials take 8
        # chunks, the last one short; the default bound takes one
        sc = cdma.make_scenario("random_bipolar", 6, 16,
                                sync_mode=cdma.CHIP_ASYNC,
                                gain_model=cdma.GAIN_RAYLEIGH, seed=11)
        expected = reference_ber(sc, detector, [0.0, 4.0, 8.0], 23,
                                 np.random.default_rng(25))
        for bound in (3 * 96, config.BATCH_SCORES):
            monkeypatch.setattr(config, "BATCH_SCORES", bound)
            csv_text, trace = io.StringIO(), io.StringIO()
            mud.ber_sweep(sc, detector, [0.0, 4.0, 8.0], 23,
                          np.random.default_rng(25),
                          trace_fh=trace).write_csv(csv_text)
            assert (csv_text.getvalue(), trace.getvalue()) == expected

    def test_float32_ebn0_traces_as_the_float_list(self):
        # the trace used to write the caller's float32 and fail in json
        sc = cdma.make_scenario("walsh", 2, 2)
        traces = []
        for ebn0 in ([4.0, 0.5], np.array([4.0, 0.5], np.float32)):
            buf = io.StringIO()
            mud.ber_sweep(sc, "mf", ebn0, 3, np.random.default_rng(17),
                          trace_fh=buf)
            traces.append(buf.getvalue())
        assert traces[0] == traces[1]
        assert len(traces[0].splitlines()) == 6

    def test_generator_of_points(self):
        sc = cdma.make_scenario("walsh", 1, 2)
        from_list = mud.ber_sweep(sc, "mf", [0.0, 2.0], 50,
                                  np.random.default_rng(19))
        from_gen = mud.ber_sweep(sc, "mf", (db for db in (0.0, 2.0)), 50,
                                 np.random.default_rng(19))
        assert len(from_gen.points) == 2
        assert from_gen.points == from_list.points

    def test_detector_validated(self):
        sc = cdma.make_scenario("walsh", 1, 2)
        with pytest.raises(ValueError):
            mud.ber_sweep(sc, "zf", [0.0], 10, np.random.default_rng(0))

    def test_csv_shape(self):
        sc = cdma.make_scenario("walsh", 1, 2)
        curve = mud.ber_sweep(sc, "mf", [0.0, 2.0], 50,
                              np.random.default_rng(18))
        buf = io.StringIO()
        curve.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "ebn0_db,ber,trials,mean_cf_evals,mean_grover_queries"
        assert len(lines) == 3

    @settings(max_examples=60, deadline=None)
    @given(k_users=st.integers(1, 6), n_chips=st.integers(1, 8),
           sync_mode=st.sampled_from(cdma.SYNC_MODES),
           gain_model=st.sampled_from(cdma.GAIN_MODELS),
           detector=st.sampled_from(mud.DETECTORS + ("zf",)),
           ebn0_db_list=st.lists(st.one_of(
               st.sampled_from([-400.0, 0.0, 8.0, float("inf")]),
               st.floats(allow_nan=True, allow_infinity=True)), max_size=3),
           trials=st.one_of(st.integers(-2, 20), st.floats(-1, 20),
                            st.booleans()),
           seed=st.integers(0, 2**32 - 1))
    def test_sweep_fuzz(self, k_users, n_chips, sync_mode, gain_model,
                        detector, ebn0_db_list, trials, seed):
        sc = cdma.make_scenario("random_bipolar", k_users, n_chips,
                                sync_mode=sync_mode, gain_model=gain_model,
                                seed=3)
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        try:
            curve = mud.ber_sweep(sc, detector, ebn0_db_list, trials, rng)
        except SEARCH_ERRORS:
            assert rng.bit_generator.state == state
            return
        assert len(curve.points) == len(ebn0_db_list)
        for point in curve.points:
            assert point.trials == trials
            assert 0 <= point.ber <= 1
            for counter in (point.mean_cf_evaluations,
                            point.mean_grover_queries):
                assert math.isfinite(counter) and counter >= 0


class TestAnalyticBaseline:
    def test_matches_gaussian_tail(self):
        for db in (0.0, 4.0, 8.0):
            gamma = 10 ** (db / 10)
            expected = stats.norm.sf(math.sqrt(2 * gamma))
            assert mud.analytic_bpsk_ber(db) == pytest.approx(expected, rel=1e-12)


class TestInputChecks:
    """Bad sweep and agreement inputs raise ConfigError before any draw."""

    def test_agreement_rejects_zero_trials(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError):
            mud.qmud_agreement(2, 0, rng)
        assert rng.bit_generator.state == state

    def test_agreement_rejects_non_integer_trials(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match="trials"):
            mud.qmud_agreement(2, 2.5, rng)
        assert rng.bit_generator.state == state

    def test_agreement_rejects_k_above_limit(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError):
            mud.qmud_agreement(mud.EXHAUSTIVE_K_LIMIT + 1, 1, rng)
        assert rng.bit_generator.state == state

    def test_sweep_rejects_empty_ebn0_list(self):
        sc = cdma.make_scenario("walsh", 2, 4)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        trace = io.StringIO()
        with pytest.raises(ConfigError):
            mud.ber_sweep(sc, "mf", [], 5, rng, trace_fh=trace)
        assert rng.bit_generator.state == state
        assert trace.getvalue() == ""

    @pytest.mark.parametrize("detector, k_users, trials", [
        ("zf", 2, 1),
        ("mf", 2, 0),
        ("mf", 2, 2.5),
        ("ml_exhaustive", mud.EXHAUSTIVE_K_LIMIT + 1, 1),
        ("qmud", mud.EXHAUSTIVE_K_LIMIT + 1, 1),
    ])
    def test_sweep_rejects_before_any_trial(self, detector, k_users, trials):
        sc = cdma.make_scenario("random_bipolar", k_users, 4)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        trace = io.StringIO()
        with pytest.raises(ConfigError):
            mud.ber_sweep(sc, detector, [0.0], trials, rng, trace_fh=trace)
        assert rng.bit_generator.state == state
        assert trace.getvalue() == ""

    @pytest.mark.parametrize("bad", ["x", None, [], object(), 1j])
    def test_sweep_rejects_an_eb_n0_that_is_no_number(self, bad):
        # a point that is no number fails before any trial, even after a
        # good point
        sc = cdma.make_scenario("walsh", 2, 4)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        trace = io.StringIO()
        with pytest.raises(ConfigError, match="noise variance"):
            mud.ber_sweep(sc, "mf", [4.0, bad], 3, rng, trace_fh=trace)
        assert rng.bit_generator.state == state
        assert trace.getvalue() == ""
