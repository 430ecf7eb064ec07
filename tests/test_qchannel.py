"""Flip-channel demo: capacity formula, both transports, exactness grid."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmudsim import qchannel, qcore
from qmudsim.errors import ConfigError
from test_qsearch import SEARCH_ERRORS


class TestBscCapacity:
    def test_half_is_zero(self):
        assert qchannel.bsc_capacity(0.5) == 0.0

    def test_noiseless_is_one(self):
        assert qchannel.bsc_capacity(0.0) == 1.0
        assert qchannel.bsc_capacity(1.0) == 1.0

    def test_p_011(self):
        assert qchannel.bsc_capacity(0.11) == pytest.approx(0.5000, abs=5e-4)

    def test_symmetry(self):
        for p in np.linspace(0.0, 1.0, 21):
            assert qchannel.bsc_capacity(p) == pytest.approx(
                qchannel.bsc_capacity(1.0 - p), abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            qchannel.bsc_capacity(-0.1)
        with pytest.raises(ValueError):
            qchannel.bsc_capacity(1.1)
        with pytest.raises(ValueError):
            qchannel.FlipChannel(2.0)


class TestTransmitClassical:
    def test_p_zero_is_identity(self):
        rng = np.random.default_rng(0)
        ch = qchannel.FlipChannel(0.0)
        assert all(qchannel.transmit_classical(b, ch, rng) == b
                   for b in (0, 1) for _ in range(50))

    def test_p_one_always_flips(self):
        rng = np.random.default_rng(1)
        ch = qchannel.FlipChannel(1.0)
        assert all(qchannel.transmit_classical(b, ch, rng) == 1 - b
                   for b in (0, 1) for _ in range(50))

    def test_flip_rate_binomial(self):
        rng = np.random.default_rng(2)
        ch = qchannel.FlipChannel(0.5)
        n = 100000
        flips = sum(qchannel.transmit_classical(0, ch, rng) for _ in range(n))
        sigma = np.sqrt(0.25 / n)
        assert abs(flips / n - 0.5) <= 3 * sigma

    def test_bit_validated(self):
        with pytest.raises(ValueError):
            qchannel.transmit_classical(2, qchannel.FlipChannel(0.5),
                                        np.random.default_rng(0))


# a bit is an integer in {0, 1}: bools, floats and other types are not bits
NON_BITS = [True, False, 1.0, 0.0, 0.5, -1, "1", None]


@pytest.mark.parametrize("transmit", [qchannel.transmit_classical,
                                      qchannel.transmit_quantum])
class TestBitRule:
    @pytest.mark.parametrize("bit", NON_BITS)
    def test_non_bits_are_config_errors(self, transmit, bit):
        with pytest.raises(ConfigError):
            transmit(bit, qchannel.FlipChannel(0.5), np.random.default_rng(0))

    def test_above_one_rejected(self, transmit):
        with pytest.raises(ValueError):
            transmit(2, qchannel.FlipChannel(0.5), np.random.default_rng(0))

    @pytest.mark.parametrize("bit", [0, 1, np.int64(0), np.uint8(1)])
    def test_integer_bits_come_back_as_ints(self, transmit, bit):
        out = transmit(bit, qchannel.FlipChannel(0.0),
                       np.random.default_rng(0))
        assert type(out) is int and out == bit


class TestTransmitQuantum:
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_output_equals_input(self, p):
        rng = np.random.default_rng(3)
        ch = qchannel.FlipChannel(p)
        for _ in range(200):
            bit = int(rng.integers(0, 2))
            assert qchannel.transmit_quantum(bit, ch, rng) == bit

    def test_eigenstate_invariance(self):
        # |<±| X |±>| = 1 at machine precision: the flip only contributes a
        # global phase to either code state.
        x = qcore.DenseUnitary(qcore.PAULI_X)
        h = qcore.DenseUnitary(qcore.HADAMARD)
        for bit in (0, 1):
            encoded = qcore.apply_unitary(h, qcore.basis_state(1, bit))
            flipped = qcore.apply_unitary(x, encoded)
            overlap = np.vdot(encoded.amplitudes, flipped.amplitudes)
            assert abs(abs(overlap) - 1.0) < 1e-12

    def test_zero_error_across_p_grid(self):
        rng = np.random.default_rng(4)
        for p in np.arange(0.0, 1.01, 0.1):
            ch = qchannel.FlipChannel(float(p))
            errors = sum(qchannel.transmit_quantum(int(b), ch, rng) != b
                         for b in rng.integers(0, 2, size=10000))
            assert errors == 0


def reference_run_demo(n_bits, p, rng):
    """run_demo as a per-bit loop: draw a bit, then send it through
    transmit_classical and transmit_quantum."""
    ch = qchannel.FlipChannel(p)
    classical_errors = quantum_errors = 0
    for _ in range(n_bits):
        bit = int(rng.integers(0, 2))
        classical_errors += qchannel.transmit_classical(bit, ch, rng) != bit
        quantum_errors += qchannel.transmit_quantum(bit, ch, rng) != bit
    return qchannel.DemoReport(n_bits=n_bits,
                               classical_error_rate=classical_errors / n_bits,
                               quantum_error_rate=quantum_errors / n_bits,
                               classical_capacity=qchannel.bsc_capacity(p))


class TestRunDemo:
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("n_bits", [1, 2, 3, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 2, 25])
    def test_matches_per_bit_reference(self, p, n_bits, seed):
        # the same report and the same final generator state: run_demo
        # makes every draw of the per-bit calls, in their order
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert (qchannel.run_demo(n_bits, p, rng)
                == reference_run_demo(n_bits, p, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_p_half(self):
        rng = np.random.default_rng(5)
        report = qchannel.run_demo(20000, 0.5, rng)
        assert report.quantum_error_rate == 0.0
        sigma = np.sqrt(0.25 / 20000)
        assert abs(report.classical_error_rate - 0.5) <= 3 * sigma
        assert report.classical_capacity == 0.0

    def test_p_zero(self):
        report = qchannel.run_demo(10, 0.0, np.random.default_rng(6))
        assert report.classical_error_rate == 0.0
        assert report.quantum_error_rate == 0.0

    def test_p_quarter(self):
        rng = np.random.default_rng(7)
        report = qchannel.run_demo(20000, 0.25, rng)
        sigma = np.sqrt(0.25 * 0.75 / 20000)
        assert abs(report.classical_error_rate - 0.25) <= 3 * sigma
        assert report.quantum_error_rate == 0.0

    def test_n_bits_validated(self):
        with pytest.raises(ValueError):
            qchannel.run_demo(0, 0.5, np.random.default_rng(0))

    @pytest.mark.parametrize("n_bits, p", [
        (0, 0.5), (-3, 0.5), (2.5, 0.5), ("10", 0.5), (10, -0.1), (10, 1.5),
        (10, float("nan"))])
    def test_bad_input_is_config_error(self, n_bits, p):
        with pytest.raises(ConfigError):
            qchannel.run_demo(n_bits, p, np.random.default_rng(0))

    @settings(max_examples=200, deadline=None)
    @given(n_bits=st.one_of(st.integers(-2, 50), st.floats(-1, 50),
                            st.booleans()),
           p=st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                       st.floats(allow_nan=True, allow_infinity=True)),
           seed=st.integers(0, 2**32 - 1))
    def test_fuzz(self, n_bits, p, seed):
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        try:
            report = qchannel.run_demo(n_bits, p, rng)
        except SEARCH_ERRORS:
            assert rng.bit_generator.state == state
            return
        assert report.n_bits == n_bits
        assert 0 <= report.classical_error_rate <= 1
        assert 0 <= report.classical_capacity <= 1
        assert report.quantum_error_rate == 0.0

    def test_n_bits_reported_as_an_int(self):
        # a numpy integer count comes back as a plain int (a bool is no
        # count: test_bools_are_not_counts)
        report = qchannel.run_demo(np.int64(3), 0.5, np.random.default_rng(0))
        assert type(report.n_bits) is int and report.n_bits == 3

    def test_report_serialization(self):
        report = qchannel.DemoReport(n_bits=10, classical_error_rate=0.5,
                                     quantum_error_rate=0.0,
                                     classical_capacity=0.0)
        data = json.loads(report.to_json())
        assert data["n_bits"] == 10
        table = report.format_table()
        assert "quantum error rate" in table
        assert "0.000000" in table
