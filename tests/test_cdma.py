"""Baseband CDMA model: signatures, channels, synthesis, matched filters."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from qmudsim import cdma
from qmudsim.errors import ConfigError, ShapeError
from test_qsearch import SEARCH_ERRORS


def fixed_channel(gains, delays):
    return cdma.ChannelState(gains=np.asarray(gains, dtype=complex),
                             delay=np.asarray(delays, dtype=int))


class TestGenerateSignatures:
    def test_walsh_order2(self):
        s1, s2 = cdma.generate_signatures("walsh", 2, 2, seed=0)
        np.testing.assert_allclose(s1, [1, 1] / np.sqrt(2))
        np.testing.assert_allclose(s2, [1, -1] / np.sqrt(2))
        assert abs(np.dot(s1, s2)) < 1e-12

    def test_walsh_gram_identity(self):
        mat = cdma.generate_signatures("walsh", 4, 4, seed=0)
        np.testing.assert_allclose(mat @ mat.T, np.eye(4), atol=1e-12)

    def test_random_bipolar_reproducible(self):
        a = cdma.generate_signatures("random_bipolar", 3, 8, seed=9)
        b = cdma.generate_signatures("random_bipolar", 3, 8, seed=9)
        c = cdma.generate_signatures("random_bipolar", 3, 8, seed=10)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        assert any(not np.array_equal(x, z) for x, z in zip(a, c))

    def test_unit_energy(self):
        for sig in cdma.generate_signatures("random_bipolar", 4, 16, seed=1):
            assert abs(np.sum(sig**2) - 1) < 1e-12

    def test_walsh_requires_power_of_two(self):
        with pytest.raises(ConfigError):
            cdma.generate_signatures("walsh", 2, 6, seed=0)

    def test_walsh_user_cap(self):
        with pytest.raises(ConfigError):
            cdma.generate_signatures("walsh", 5, 4, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            cdma.generate_signatures("gold", 2, 8, seed=0)

    @pytest.mark.parametrize("kind", cdma.SIGNATURE_KINDS)
    @pytest.mark.parametrize("k_users, n_chips", [(2.5, 4), (2, 4.0)])
    def test_non_integer_sizes_rejected(self, kind, k_users, n_chips):
        with pytest.raises(ConfigError, match="must be an integer"):
            cdma.make_scenario(kind, k_users, n_chips)

    def test_walsh_rows_equal_scipy_hadamard(self):
        for n_chips in (1 << e for e in range(9)):
            full = hadamard(n_chips) / np.sqrt(n_chips)
            for k_users in range(1, n_chips + 1):
                np.testing.assert_array_equal(
                    cdma.generate_signatures("walsh", k_users, n_chips, 0),
                    full[:k_users])

    def test_walsh_builds_only_the_requested_rows(self):
        # the full 2048 x 2048 Hadamard matrix alone would take 32 MiB
        tracemalloc.start()
        try:
            sigs = cdma.generate_signatures("walsh", 1, 2048, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sigs.shape == (1, 2048)
        assert peak < 256 * 1024

    @pytest.mark.parametrize("kind", cdma.SIGNATURE_KINDS)
    def test_signature_size_capped(self, kind):
        cap = cdma.MAX_SIGNATURE_ENTRIES
        for k_users, n_chips in ((1, cap + 1), (2, cap // 2 + 1),
                                 (1 << 30, 1 << 30)):
            with pytest.raises(ConfigError, match="exceeds the cap"):
                cdma.generate_signatures(kind, k_users, n_chips, 0)
        with pytest.raises(ConfigError, match="exceeds the cap"):
            cdma.scenario_from_config({
                "signature_kind": kind, "k_users": "1",
                "n_chips": str(1 << 30)})

    def test_import_leaves_scipy_linalg_unloaded(self):
        # no module of the package imports scipy, so none may be loaded
        code = ("import sys, qmudsim; "
                "print(any(m == 'scipy' or m.startswith('scipy.') "
                "for m in sys.modules))")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "False"


class TestScenarioSignatures:
    def test_sizes_come_from_the_array(self):
        sc = cdma.make_scenario("random_bipolar", 3, 8, seed=1)
        assert sc.signatures.shape == (3, 8)
        assert (sc.k_users, sc.n_chips) == (3, 8)

    def test_stores_a_read_only_copy(self):
        chips = np.array([[1.0, 1, 1, 1], [1.0, -1, 1, -1]]) / 2
        sc = cdma.CdmaScenario(signatures=chips)
        ch = fixed_channel([1, 1], [0, 1])
        before = cdma.synthesize_received(sc, ch, [1, -1], [1, 1], 0.0, None)
        chips[0] = -chips[0]
        np.testing.assert_array_equal(sc.signatures[0], [0.5] * 4)
        after = cdma.synthesize_received(sc, ch, [1, -1], [1, 1], 0.0, None)
        np.testing.assert_array_equal(after.samples, before.samples)
        with pytest.raises(ValueError):
            sc.signatures[0, 0] = 1.0

    @pytest.mark.parametrize("chips", [
        np.ones((2, 4)) / 2 * [[1], [1.1]],     # one row off unit energy
        np.full((1, 4), np.nan),
        np.ones(4) / 2,                          # not (K, N_c)
        np.zeros((0, 4)),
    ])
    def test_bad_signatures_rejected(self, chips):
        with pytest.raises(ConfigError):
            cdma.CdmaScenario(signatures=chips)


class TestSampleChannel:
    def test_degenerate_fixed_synchronous(self):
        sc = cdma.make_scenario("walsh", 3, 4)
        ch = cdma.sample_channel(sc, np.random.default_rng(0))
        np.testing.assert_array_equal(ch.gains, np.ones(3, dtype=complex))
        np.testing.assert_array_equal(ch.delay, np.zeros(3, dtype=int))

    def test_asynchronous_reproducible(self):
        sc = cdma.make_scenario("random_bipolar", 4, 8,
                                sync_mode=cdma.CHIP_ASYNC,
                                gain_model=cdma.GAIN_RAYLEIGH)
        ch1 = cdma.sample_channel(sc, np.random.default_rng(5))
        ch2 = cdma.sample_channel(sc, np.random.default_rng(5))
        np.testing.assert_array_equal(ch1.gains, ch2.gains)
        np.testing.assert_array_equal(ch1.delay, ch2.delay)
        assert np.all(ch1.delay < 8)

    def test_rayleigh_gains_draw_amplitude_then_phase(self):
        sc = cdma.make_scenario("random_bipolar", 3, 8,
                                gain_model=cdma.GAIN_RAYLEIGH)
        ch = cdma.sample_channel(sc, np.random.default_rng(2), (4,))
        rng = np.random.default_rng(2)
        amplitude = rng.rayleigh(scale=1.0 / np.sqrt(2.0), size=(4, 3))
        phase = rng.uniform(0.0, 2.0 * np.pi, size=(4, 3))
        np.testing.assert_array_equal(ch.gains, amplitude * np.exp(1j * phase))

    def test_rayleigh_second_moment(self):
        sc = cdma.make_scenario("random_bipolar", 5, 8,
                                gain_model=cdma.GAIN_RAYLEIGH)
        rng = np.random.default_rng(11)
        sq = [abs(cdma.sample_channel(sc, rng).gains)**2 for _ in range(20000)]
        assert abs(np.mean(sq) - 1.0) < 0.02


class TestChannelState:
    def test_fields_are_gains_and_delay(self):
        ch = cdma.ChannelState(gains=[1, 2j], delay=[0, 3])
        assert ch.gains.dtype == complex
        np.testing.assert_array_equal(ch.gains, [1, 2j])
        np.testing.assert_array_equal(ch.delay, [0, 3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_gains_rejected(self, bad):
        with pytest.raises(ValueError):
            cdma.ChannelState(gains=np.array([1.0, bad]), delay=[0, 0])

    @pytest.mark.parametrize("gains, delay", [
        (np.ones(3), np.zeros(2, dtype=int)),
        (np.ones((2, 3)), np.zeros(3, dtype=int)),
    ])
    def test_mismatched_shapes_rejected(self, gains, delay):
        with pytest.raises(ShapeError):
            cdma.ChannelState(gains=gains, delay=delay)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            cdma.ChannelState(gains=np.ones(2), delay=[0, -1])

    @pytest.mark.parametrize("delay", [[0, 1.5], [0.0, 1.0], [True, False],
                                       np.array([0, 2], dtype=float)])
    def test_non_integer_delays_rejected(self, delay):
        # the index rule: integers, not bools, so nothing is truncated
        with pytest.raises(ValueError):
            cdma.ChannelState(gains=np.ones(2), delay=delay)

    def test_integer_delays_kept(self):
        ch = cdma.ChannelState(gains=np.ones(2),
                               delay=np.array([0, 3], dtype=np.uint8))
        assert ch.delay.dtype == np.int64
        np.testing.assert_array_equal(ch.delay, [0, 3])


class TestSynthesizeReceived:
    def test_two_user_walsh_difference(self):
        sc = cdma.make_scenario("walsh", 2, 2)
        ch = fixed_channel([1, 1], [0, 0])
        frame = cdma.synthesize_received(sc, ch, [1, -1], [1, 1], 0.0, None)
        np.testing.assert_allclose(frame.samples, [0, np.sqrt(2)], atol=1e-12)

    def test_single_clean_user_reproduces_signature(self):
        sc = cdma.make_scenario("walsh", 1, 4)
        ch = fixed_channel([1], [0])
        frame = cdma.synthesize_received(sc, ch, [1], [1], 0.0, None)
        np.testing.assert_allclose(frame.samples, sc.signatures[0])

    def test_zero_gain_gives_zero_frame(self):
        sc = cdma.make_scenario("random_bipolar", 3, 8)
        ch = fixed_channel([0, 0, 0], [0, 0, 0])
        frame = cdma.synthesize_received(sc, ch, [1, 1, 1], [1, 1, 1], 0.0,
                                         None)
        np.testing.assert_array_equal(frame.samples, np.zeros(8))

    def test_asynchronous_spill_in_by_hand(self):
        sc = cdma.make_scenario("random_bipolar", 1, 4,
                                sync_mode=cdma.CHIP_ASYNC, seed=4)
        s = sc.signatures[0]
        gain = 0.7 - 0.2j
        ch = fixed_channel([gain], [2])
        frame = cdma.synthesize_received(sc, ch, [-1], [1], 0.0, None)
        expected = gain * np.array([s[2], s[3], -s[0], -s[1]])
        np.testing.assert_allclose(frame.samples, expected, atol=1e-12)

    def test_bit_length_checked(self):
        sc = cdma.make_scenario("walsh", 2, 2)
        ch = fixed_channel([1, 1], [0, 0])
        with pytest.raises(ShapeError):
            cdma.synthesize_received(sc, ch, [1], [1, 1], 0.0, None)

    def test_noise_requires_rng(self):
        sc = cdma.make_scenario("walsh", 1, 2)
        ch = fixed_channel([1], [0])
        with pytest.raises(ValueError):
            cdma.synthesize_received(sc, ch, [1], [1], 0.1, None)

    @pytest.mark.parametrize("sigma2", [-0.5, float("nan"), float("inf"),
                                        1e201])
    def test_noise_variance_out_of_range_rejected(self, sigma2):
        # checked before any draw: the rng state is left as it was
        sc = cdma.make_scenario("walsh", 1, 2)
        ch = fixed_channel([1], [0])
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match="noise_variance"):
            cdma.synthesize_received(sc, ch, [1], [1], sigma2, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("sigma2", [-0.5, float("nan"), float("inf"),
                                        1e201])
    def test_draw_trials_noise_variance_checked_before_any_draw(self,
                                                                sigma2):
        sc = cdma.make_scenario("walsh", 1, 2)
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match="noise_variance"):
            cdma.draw_trials(sc, sigma2, 3, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("n", [0, -1, 2.0, True, None])
    def test_draw_trials_count_checked_before_any_draw(self, n):
        sc = cdma.make_scenario("walsh", 1, 2)
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match="n must be"):
            cdma.draw_trials(sc, 0.1, n, rng)
        assert rng.bit_generator.state == state

    def test_draw_trials_noiseless_frames_are_the_synthesis(self):
        sc = cdma.make_scenario("random_bipolar", 3, 8,
                                sync_mode=cdma.CHIP_ASYNC,
                                gain_model=cdma.GAIN_RAYLEIGH, seed=4)
        channel, bits, frame = cdma.draw_trials(sc, 0.0, 5,
                                                np.random.default_rng(6))
        assert bits.shape == frame.prev_bits.shape == (5, 3)
        assert frame.samples.shape == (5, 8)
        np.testing.assert_array_equal(frame.samples, cdma.synthesize(
            sc, channel.gains, channel.delay, bits, frame.prev_bits))

    @pytest.mark.parametrize("seed", [0, 7, 27, 2**32 - 1])
    def test_float32_words_are_the_integer_bits(self, seed):
        # draw_trials takes its bits as float32 words >= 0.5, where the
        # per-trial reference calls rng.integers(0, 2).  Both take one 32-bit
        # word of the bit generator per value (float32 keeps its top 24
        # bits, integers its top bit) and share the half of a 64-bit draw
        # that the bit generator keeps, so twin generators give the same
        # bits and end in the same state, with normals and Rayleigh draws
        # (64 bits each) in between and odd counts that leave a half-word.
        # A numpy release that changes either form fails here.
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for m in range(1, 18):
            for gen in (rng, twin):
                gen.standard_normal(m)
                gen.rayleigh(size=m)
            for _ in range(2):
                np.testing.assert_array_equal(
                    rng.integers(0, 2, size=m),
                    twin.random(m, dtype=np.float32) >= 0.5)
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_delay_out_of_window_rejected(self):
        sc = cdma.make_scenario("walsh", 1, 4)
        with pytest.raises(ValueError):
            cdma.synthesize_received(sc, fixed_channel([1], [4]), [1], [1],
                                     0.0, None)
        with pytest.raises(ValueError):
            cdma.delay_aligned(sc, [-1])


class TestBatchedModel:
    """delay_aligned and synthesize against per-user, per-frame references."""

    @settings(max_examples=60, deadline=None)
    @given(k_users=st.integers(1, 5), n_chips=st.integers(1, 12),
           batch=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_delay_aligned_matches_roll_and_mask(self, k_users, n_chips,
                                                 batch, seed):
        rng = np.random.default_rng(seed)
        sc = cdma.make_scenario("random_bipolar", k_users, n_chips,
                                seed=seed)
        delay = rng.integers(0, n_chips, size=(batch, k_users))
        current, spill = cdma.delay_aligned(sc, delay)
        assert current.shape == spill.shape == (batch, k_users, n_chips)
        t = np.arange(n_chips)
        for i in range(batch):
            for k in range(k_users):
                tau = delay[i, k]
                rolled = np.roll(sc.signatures[k], tau)
                np.testing.assert_array_equal(current[i, k],
                                              np.where(t >= tau, rolled, 0.0))
                np.testing.assert_array_equal(spill[i, k],
                                              np.where(t >= tau, 0.0, rolled))

    @settings(max_examples=40, deadline=None)
    @given(k_users=st.integers(1, 5), n_chips=st.integers(1, 12),
           trials=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_batched_synthesize_matches_per_frame_calls(self, k_users, n_chips,
                                                        trials, seed):
        rng = np.random.default_rng(seed)
        sc = cdma.make_scenario("random_bipolar", k_users, n_chips,
                                sync_mode=cdma.CHIP_ASYNC,
                                gain_model=cdma.GAIN_RAYLEIGH, seed=seed)
        channels = [cdma.sample_channel(sc, rng) for _ in range(trials)]
        bits = rng.choice((-1, 1), size=(trials, k_users))
        prev = rng.choice((-1, 1), size=(trials, k_users))
        batched = cdma.synthesize(sc, np.stack([c.gains for c in channels]),
                                  np.stack([c.delay for c in channels]),
                                  bits, prev)
        assert batched.shape == (trials, n_chips)
        for i, ch in enumerate(channels):
            frame = cdma.synthesize_received(sc, ch, bits[i], prev[i], 0.0,
                                             None)
            np.testing.assert_allclose(batched[i], frame.samples,
                                       rtol=1e-12, atol=1e-12)

        channel = cdma.sample_channel(sc, rng, (trials,))
        assert channel.gains.shape == channel.delay.shape == (trials, k_users)
        frames = cdma.synthesize_received(sc, channel, bits, prev, 0.0, None)
        y = cdma.matched_filter_bank(frames, sc, channel)
        assert y.shape == (trials, k_users)
        for i in range(trials):
            ch = cdma.ChannelState(channel.gains[i], channel.delay[i])
            frame = cdma.synthesize_received(sc, ch, bits[i], prev[i], 0.0,
                                             None)
            np.testing.assert_allclose(frames.samples[i], frame.samples,
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(
                y[i], cdma.matched_filter_bank(frame, sc, ch),
                rtol=1e-12, atol=1e-12)


class TestMatchedFilterBank:
    def test_walsh_two_user_outputs(self):
        sc = cdma.make_scenario("walsh", 2, 2)
        ch = fixed_channel([1, 1], [0, 0])
        frame = cdma.synthesize_received(sc, ch, [1, -1], [1, 1], 0.0, None)
        y = cdma.matched_filter_bank(frame, sc, ch)
        np.testing.assert_allclose(y, [1, -1], atol=1e-12)

    def test_unit_autocorrelation(self):
        sc = cdma.make_scenario("random_bipolar", 1, 16, seed=2)
        ch = fixed_channel([1], [0])
        frame = cdma.synthesize_received(sc, ch, [1], [1], 0.0, None)
        y = cdma.matched_filter_bank(frame, sc, ch)
        assert y[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_frame(self):
        sc = cdma.make_scenario("walsh", 2, 4)
        ch = fixed_channel([1, 1], [0, 0])
        frame = cdma.ReceivedFrame(samples=np.zeros(4, dtype=complex),
                                   prev_bits=np.array([1, 1]))
        y = cdma.matched_filter_bank(frame, sc, ch)
        np.testing.assert_array_equal(y, np.zeros(2, dtype=complex))

    def test_delay_aligned_inner_product_by_hand(self):
        sc = cdma.make_scenario("random_bipolar", 1, 4,
                                sync_mode=cdma.CHIP_ASYNC, seed=3)
        s = sc.signatures[0]
        ch = fixed_channel([1], [2])
        frame = cdma.synthesize_received(sc, ch, [1], [-1], 0.0, None)
        y = cdma.matched_filter_bank(frame, sc, ch)
        # Only the current symbol's chips overlap the aligned filter.
        expected = s[0] * s[0] + s[1] * s[1]
        assert y[0] == pytest.approx(expected, abs=1e-12)


class TestModelInvariants:
    def test_linearity_of_superposition(self):
        sc2 = cdma.make_scenario("random_bipolar", 2, 8,
                                 sync_mode=cdma.CHIP_ASYNC, seed=6)
        gains = [0.9 + 0.1j, 0.3 - 0.8j]
        delays = [3, 5]
        both = cdma.synthesize_received(
            sc2, fixed_channel(gains, delays), [1, -1], [-1, 1], 0.0, None)

        singles = np.zeros(8, dtype=complex)
        for k in range(2):
            sc1 = cdma.CdmaScenario(signatures=sc2.signatures[k:k + 1],
                                    sync_mode=cdma.CHIP_ASYNC)
            frame = cdma.synthesize_received(
                sc1, fixed_channel([gains[k]], [delays[k]]),
                [[1, -1][k]], [[-1, 1][k]], 0.0, None)
            singles += frame.samples
        np.testing.assert_allclose(both.samples, singles, atol=1e-12)

    def test_orthogonal_code_decoupling_exhaustive(self):
        for k_users in (2, 3, 4):
            sc = cdma.make_scenario("walsh", k_users, 4)
            gains = np.exp(1j * np.linspace(0.3, 1.9, k_users)) * \
                np.linspace(0.5, 1.5, k_users)
            ch = fixed_channel(gains, np.zeros(k_users))
            for m in range(1 << k_users):
                bits = 1 - 2 * ((m >> np.arange(k_users)) & 1)
                frame = cdma.synthesize_received(sc, ch, bits, np.ones(k_users),
                                                 0.0, None)
                y = cdma.matched_filter_bank(frame, sc, ch)
                np.testing.assert_allclose(y, gains * bits, atol=1e-12)

    def test_noise_calibration(self):
        sigma2 = 0.37
        sc = cdma.make_scenario("walsh", 1, 2)
        ch = fixed_channel([0], [0])
        rng = np.random.default_rng(8)
        outputs = np.empty(100000, dtype=complex)
        for i in range(outputs.size):
            frame = cdma.synthesize_received(sc, ch, [1], [1], sigma2, rng)
            outputs[i] = cdma.matched_filter_bank(frame, sc, ch)[0]
        measured = np.mean(np.abs(outputs) ** 2)
        assert abs(measured - sigma2) / sigma2 < 0.02

    def test_reproducible_frames(self):
        sc = cdma.make_scenario("random_bipolar", 3, 16, seed=1)
        ch = fixed_channel([1, 1, 1], [0, 0, 0])
        f1 = cdma.synthesize_received(sc, ch, [1, -1, 1], [1, 1, 1], 0.25,
                                      np.random.default_rng(99))
        f2 = cdma.synthesize_received(sc, ch, [1, -1, 1], [1, 1, 1], 0.25,
                                      np.random.default_rng(99))
        np.testing.assert_array_equal(f1.samples, f2.samples)


class TestSerialization:
    def test_scenario_config_round_trip(self):
        sc = cdma.make_scenario("walsh", 4, 8,
                                sync_mode=cdma.CHIP_ASYNC,
                                gain_model=cdma.GAIN_RAYLEIGH, seed=12)
        back = cdma.scenario_from_config({
            "signature_kind": "walsh", "k_users": "4", "n_chips": "8",
            "sync_mode": "chip-asynchronous", "gain_model": "rayleigh",
            "seed": "12"})
        assert back.k_users == sc.k_users
        assert back.n_chips == sc.n_chips
        assert back.sync_mode == sc.sync_mode
        assert back.gain_model == sc.gain_model
        np.testing.assert_array_equal(back.signatures, sc.signatures)

    def test_random_bipolar_round_trip(self):
        sc = cdma.make_scenario("random_bipolar", 3, 8, seed=12)
        back = cdma.scenario_from_config({
            "signature_kind": "random_bipolar", "k_users": "3",
            "n_chips": "8", "seed": "12"})
        np.testing.assert_array_equal(back.signatures, sc.signatures)
        assert back.seed == 12

    @pytest.mark.parametrize("kind", ["walsh", "random_bipolar"])
    def test_negative_seed_rejected(self, kind):
        with pytest.raises(ConfigError):
            cdma.scenario_from_config({"signature_kind": kind, "k_users": "2",
                                       "n_chips": "4", "seed": "-1"})

    def test_parse_kv_config(self):
        cfg = cdma.parse_kv_config("a = 1\n# comment\n\nb = two words\n")
        assert cfg == {"a": "1", "b": "two words"}

    def test_parse_rejects_duplicates_and_garbage(self):
        with pytest.raises(ConfigError):
            cdma.parse_kv_config("a = 1\na = 2\n")
        with pytest.raises(ConfigError):
            cdma.parse_kv_config("not a pair\n")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            cdma.scenario_from_config({"signature_kind": "walsh", "k_users": "1",
                                       "n_chips": "2", "bogus": "1"})

    def test_noise_keys_are_unknown(self):
        # the noise level is an operating point, not part of the scenario
        base = {"signature_kind": "walsh", "k_users": "1", "n_chips": "2"}
        assert not hasattr(cdma.scenario_from_config(base), "noise_variance")
        for key, value in (("sigma2", "0.1"), ("ebn0_db", "3")):
            with pytest.raises(ConfigError, match="unknown scenario keys"):
                cdma.scenario_from_config({**base, key: value})


class TestEbn0Conversion:
    def test_known_values(self):
        assert cdma.ebn0_db_to_noise_variance(0.0) == pytest.approx(1.0)
        assert cdma.ebn0_db_to_noise_variance(10.0) == pytest.approx(0.1)
        assert cdma.ebn0_db_to_noise_variance(float("inf")) == 0.0

    @pytest.mark.parametrize("ebn0_db", [float("nan"), float("-inf"), -4000.0])
    def test_no_finite_noise_variance_rejected(self, ebn0_db):
        with pytest.raises(ConfigError):
            cdma.ebn0_db_to_noise_variance(ebn0_db)

    def test_variance_capped_at_the_ceiling(self):
        # -3070 and -3080 dB give finite variances whose tables overflow
        assert cdma.ebn0_db_to_noise_variance(-400.0) == pytest.approx(1e40)
        assert (cdma.ebn0_db_to_noise_variance(-2000.0)
                == cdma.MAX_NOISE_VARIANCE)
        for ebn0_db in (-2000.001, -3070.0, -3080.0):
            with pytest.raises(ConfigError, match="noise variance"):
                cdma.ebn0_db_to_noise_variance(ebn0_db)


# Counts and seeds: small integers, negatives, floats, bools, None and text,
# so no value asks for a large signature array.
FUZZ_COUNTS = st.one_of(st.integers(-2, 40), st.floats(-1, 40),
                        st.booleans(), st.none(), st.just("4"))


class TestCdmaFuzz:
    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(cdma.SIGNATURE_KINDS + ("gold",)),
           k_users=FUZZ_COUNTS, n_chips=FUZZ_COUNTS,
           sync_mode=st.sampled_from(cdma.SYNC_MODES + ("async",)),
           gain_model=st.sampled_from(cdma.GAIN_MODELS + ("rician",)),
           seed=st.one_of(FUZZ_COUNTS, st.integers(0, 2**70)))
    def test_make_scenario(self, kind, k_users, n_chips, sync_mode,
                           gain_model, seed):
        try:
            sc = cdma.make_scenario(kind, k_users, n_chips, sync_mode,
                                    gain_model, seed)
        except SEARCH_ERRORS:
            return
        assert sc.signatures.shape == (k_users, n_chips)
        assert not sc.signatures.flags.writeable
        np.testing.assert_allclose(np.sum(sc.signatures**2, axis=1), 1.0)
        # a seed that passes the check reproduces the scenario
        twin = cdma.make_scenario(kind, k_users, n_chips, sync_mode,
                                  gain_model, seed)
        np.testing.assert_array_equal(twin.signatures, sc.signatures)

    @settings(max_examples=300, deadline=None)
    @given(noise_variance=st.one_of(
               st.sampled_from([0.0, -0.0, cdma.MAX_NOISE_VARIANCE, 1e201,
                                1e306]),
               st.floats(allow_nan=True, allow_infinity=True)),
           with_rng=st.booleans(),
           shape=st.sampled_from([(), (3,), (2, 2)]),
           seed=st.integers(0, 2**32 - 1))
    @example(noise_variance=cdma.MAX_NOISE_VARIANCE, with_rng=True,
             shape=(3,), seed=0)
    def test_synthesize_received_noise(self, noise_variance, with_rng, shape,
                                       seed):
        sc = cdma.make_scenario("random_bipolar", 3, 8,
                                sync_mode=cdma.CHIP_ASYNC,
                                gain_model=cdma.GAIN_RAYLEIGH, seed=1)
        rng = np.random.default_rng(seed)
        channel = cdma.sample_channel(sc, rng, shape)
        bits = np.ones(shape + (3,))
        state = rng.bit_generator.state
        try:
            frame = cdma.synthesize_received(sc, channel, bits, -bits,
                                             noise_variance,
                                             rng if with_rng else None)
        except SEARCH_ERRORS:
            assert rng.bit_generator.state == state
            return
        assert 0 <= noise_variance <= cdma.MAX_NOISE_VARIANCE
        assert frame.samples.shape == shape + (8,)
        assert np.isfinite(frame.samples).all()
