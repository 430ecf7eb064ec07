"""State-vector simulator: operations, error paths, statistical invariants."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qmudsim import config, qcore
from qmudsim.errors import ConfigError, ShapeError, SizeError


def random_state(n_qubits, rng):
    amps = rng.standard_normal(1 << n_qubits) + 1j * rng.standard_normal(1 << n_qubits)
    return qcore.StateVector(n_qubits, amps / np.linalg.norm(amps))


def random_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    return qcore.DenseUnitary(q)


class TestUniformSuperposition:
    def test_two_qubits_equal_weights(self):
        s = qcore.uniform_superposition(2)
        np.testing.assert_allclose(s.amplitudes, np.full(4, 0.5), atol=1e-15)
        assert np.all(s.amplitudes.imag == 0)

    def test_single_qubit(self):
        s = qcore.uniform_superposition(1)
        np.testing.assert_allclose(s.amplitudes, np.full(2, 1 / np.sqrt(2)))

    def test_ten_qubits_hypothesis_probability(self):
        # Each of the 2^10 hypotheses is measured with probability 1/1024.
        s = qcore.uniform_superposition(10)
        np.testing.assert_allclose(qcore.probabilities(s), np.full(1024, 1 / 1024))

    @pytest.mark.parametrize("n", [0, -1, 25])
    def test_out_of_range(self, n):
        with pytest.raises(SizeError):
            qcore.uniform_superposition(n)


class TestApplyUnitary:
    def test_identity_leaves_state(self):
        rng = np.random.default_rng(0)
        s = random_state(3, rng)
        out = qcore.apply_unitary(qcore.DenseUnitary(np.eye(8)), s)
        np.testing.assert_allclose(out.amplitudes, s.amplitudes)

    def test_hadamard_on_zero(self):
        out = qcore.apply_unitary(qcore.DenseUnitary(qcore.HADAMARD),
                                  qcore.basis_state(1, 0))
        np.testing.assert_allclose(out.amplitudes, np.full(2, 1 / np.sqrt(2)))

    def test_pauli_x_swaps_amplitudes(self):
        s = qcore.StateVector(1, np.array([0.6, 0.8]))
        out = qcore.apply_unitary(qcore.DenseUnitary(qcore.PAULI_X), s)
        np.testing.assert_allclose(out.amplitudes, [0.8, 0.6])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            qcore.apply_unitary(qcore.DenseUnitary(np.eye(4)),
                                qcore.basis_state(1, 0))

    def test_non_unitary_rejected_at_construction(self):
        with pytest.raises(ValueError):
            qcore.DenseUnitary(np.array([[1, 0], [0, 2]]))

    def test_dense_size_cap(self):
        with pytest.raises(SizeError):
            qcore.DenseUnitary(np.eye(2048))

    def test_diagonal_unit_modulus_required(self):
        with pytest.raises(ValueError):
            qcore.DiagonalUnitary(np.array([1.0, 0.5]))


class TestTensor:
    def test_zero_tensor_one_is_01(self):
        out = qcore.tensor(qcore.basis_state(1, 0), qcore.basis_state(1, 1))
        np.testing.assert_array_equal(out.amplitudes, [0, 1, 0, 0])

    def test_general_product_amplitudes(self):
        a1, b1 = 0.6, 0.8j
        a2, b2 = 1 / np.sqrt(3), np.sqrt(2 / 3)
        x = qcore.StateVector(1, np.array([a1, b1]))
        y = qcore.StateVector(1, np.array([a2, b2]))
        out = qcore.tensor(x, y)
        np.testing.assert_allclose(
            out.amplitudes, [a1 * a2, a1 * b2, b1 * a2, b1 * b2])

    def test_zero_tensor_uniform(self):
        out = qcore.tensor(qcore.basis_state(1, 0), qcore.uniform_superposition(1))
        np.testing.assert_allclose(
            out.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0])

    def test_size_overflow(self):
        a = qcore.uniform_superposition(13)
        with pytest.raises(SizeError):
            qcore.tensor(a, qcore.uniform_superposition(13))


class TestMeasure:
    def test_born_rule_frequency(self):
        s = qcore.StateVector(1, np.array([np.sqrt(0.3), np.sqrt(0.7)]))
        rng = np.random.default_rng(42)
        draws = 20000
        zeros = sum(qcore.measure(s, rng).outcome == 0 for _ in range(draws))
        sigma = np.sqrt(0.3 * 0.7 / draws)
        assert abs(zeros / draws - 0.3) < 4 * sigma

    def test_basis_state_is_certain(self):
        s = qcore.basis_state(2, 3)  # |11>
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = qcore.measure(s, rng)
            assert out.outcome == 3
            np.testing.assert_array_equal(out.post_state.amplitudes,
                                          [0, 0, 0, 1])

    def test_entangled_state_never_yields_01_or_10(self):
        bell = qcore.StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
        rng = np.random.default_rng(7)
        outcomes = {qcore.measure(bell, rng).outcome for _ in range(1000)}
        assert outcomes == {0, 3}

    @settings(max_examples=200, deadline=None)
    @given(n_qubits=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           zeros=st.lists(st.integers(0, 15), max_size=15))
    def test_outcome_and_state_match_rng_choice(self, n_qubits, seed, zeros):
        # measure draws as rng.choice(dim, p=pmf / pmf.sum()) does, so both
        # give the same outcome and leave the generator in the same state;
        # zeroed amplitudes put flat steps into the cdf
        rng = np.random.default_rng(seed)
        amps = random_state(n_qubits, rng).amplitudes.copy()
        amps[[z for z in zeros if z < amps.size][:amps.size - 1]] = 0
        s = qcore.StateVector(n_qubits, amps / np.linalg.norm(amps))
        pmf = qcore.probabilities(s)
        ours, theirs = (np.random.default_rng(seed + 1) for _ in range(2))
        for _ in range(5):
            expected = int(theirs.choice(s.dim, p=pmf / pmf.sum()))
            assert qcore.measure(s, ours).outcome == expected
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_post_state_collapsed(self):
        rng = np.random.default_rng(3)
        s = random_state(3, rng)
        out = qcore.measure(s, rng)
        expected = np.zeros(8)
        expected[out.outcome] = 1
        np.testing.assert_array_equal(out.post_state.amplitudes, expected)


class TestProbabilities:
    def test_uniform(self):
        np.testing.assert_allclose(
            qcore.probabilities(qcore.uniform_superposition(2)), np.full(4, 0.25))

    def test_basis(self):
        np.testing.assert_array_equal(
            qcore.probabilities(qcore.basis_state(2, 1)), [0, 1, 0, 0])

    def test_general(self):
        s = qcore.StateVector(1, np.array([np.sqrt(0.3), np.sqrt(0.7)]))
        np.testing.assert_allclose(qcore.probabilities(s), [0.3, 0.7])

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = qcore.probabilities(random_state(4, rng))
            assert abs(p.sum() - 1) < 1e-10


class TestIsProduct2Qubit:
    def test_bell_is_entangled(self):
        bell = qcore.StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert not qcore.is_product_2qubit(bell)

    def test_explicit_product(self):
        s = qcore.tensor(qcore.basis_state(1, 0), qcore.uniform_superposition(1))
        assert qcore.is_product_2qubit(s)

    def test_weighted_diagonal_state_vs_svd_oracle(self):
        # Independent oracle: the 2x2 amplitude matrix of a product state is
        # rank 1, so its second singular value vanishes.
        a, b = np.sqrt(0.4), np.sqrt(0.6)
        s = qcore.StateVector(2, np.array([a, 0, 0, b]))
        singular = np.linalg.svd(s.amplitudes.reshape(2, 2), compute_uv=False)
        assert singular[1] > 1e-3  # genuinely rank 2
        assert not qcore.is_product_2qubit(s)

    def test_wrong_register_size(self):
        with pytest.raises(ShapeError):
            qcore.is_product_2qubit(qcore.uniform_superposition(3))


class TestInvariants:
    def test_norm_preserved_over_random_unitaries(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            s = random_state(n, rng)
            out = qcore.apply_unitary(random_unitary(1 << n, rng), s)
            norm = np.linalg.norm(out.amplitudes)
            assert abs(norm - 1) < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_every_unitary_form_preserves_norm(self, n, seed):
        rng = np.random.default_rng(seed)
        s = random_state(n, rng)
        phases = np.exp(2j * np.pi * rng.random(1 << n))
        for u in (random_unitary(1 << n, rng), qcore.DiagonalUnitary(phases)):
            out = qcore.apply_unitary(u, s)
            assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12

    def test_measurement_chi_square(self):
        rng = np.random.default_rng(123)
        s = random_state(4, rng)
        p = qcore.probabilities(s)
        draws = 100000
        counts = np.zeros(16)
        for _ in range(draws):
            counts[qcore.measure(s, rng).outcome] += 1
        result = stats.chisquare(counts, f_exp=p * draws)
        assert result.pvalue > 0.001

    def test_tensor_measure_independence(self):
        rng = np.random.default_rng(17)
        a = random_state(2, rng)
        b = random_state(1, rng)
        joint = qcore.tensor(a, b)
        draws = 20000
        table = np.zeros((4, 2))
        for _ in range(draws):
            out = qcore.measure(joint, rng).outcome
            table[out >> 1, out & 1] += 1
        # marginals follow the component distributions
        res_a = stats.chisquare(table.sum(axis=1),
                                f_exp=qcore.probabilities(a) * draws)
        res_b = stats.chisquare(table.sum(axis=0),
                                f_exp=qcore.probabilities(b) * draws)
        assert res_a.pvalue > 0.001
        assert res_b.pvalue > 0.001
        # and high/low bits are independent
        res = stats.chi2_contingency(table + 1e-9)
        assert res.pvalue > 0.001

    def test_product_detector_on_random_products_and_bell_family(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            x = random_state(1, rng)
            y = random_state(1, rng)
            assert qcore.is_product_2qubit(qcore.tensor(x, y))
        for small in (1e-3, 0.1, 0.5):
            a = small
            b = np.sqrt(1 - a * a)
            s = qcore.StateVector(2, np.array([a, 0, 0, b]))
            assert not qcore.is_product_2qubit(s)


class TestStateVectorValidation:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            qcore.StateVector(1, np.array([1.0, 1.0]))

    def test_length_enforced(self):
        with pytest.raises(ShapeError):
            qcore.StateVector(2, np.array([1.0, 0, 0]))

    def test_immutability(self):
        s = qcore.basis_state(1, 0)
        with pytest.raises(AttributeError):
            s.n_qubits = 2
        with pytest.raises(ValueError):
            s.amplitudes[0] = 5


NON_FINITE = [np.nan, np.inf, -np.inf]


class TestNonFiniteRejected:
    # each check reads "not (good <= tol)", so a NaN defect fails it
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_state_vector(self, bad):
        with pytest.raises(ValueError):
            qcore.StateVector(1, np.array([bad, 1.0]))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_diagonal_unitary(self, bad):
        with pytest.raises(ValueError):
            qcore.DiagonalUnitary(np.array([bad, 1.0]))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_dense_unitary(self, bad):
        # finiteness is checked before the U†U product, so no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                qcore.DenseUnitary(np.array([[bad, 0.0], [0.0, 1.0]]))


class TestSharedRules:
    @pytest.mark.parametrize("n", [0, -1, config.MAX_QUBITS + 1, 40])
    def test_qubit_rule_rejects(self, n):
        with pytest.raises(SizeError):
            qcore.check_qubits(n)

    @pytest.mark.parametrize("n", [1, config.MAX_QUBITS])
    def test_qubit_rule_accepts(self, n):
        assert qcore.check_qubits(n) == n

    @pytest.mark.parametrize("length", [-4, 0, 1, 3, 6, 100])
    def test_length_rule_rejects(self, length):
        with pytest.raises(ShapeError):
            qcore.length_qubits(length, "length")

    @pytest.mark.parametrize("n", [1, 2, 10, 40])
    def test_length_rule_accepts(self, n):
        assert qcore.length_qubits(1 << n, "length") == n

    @pytest.mark.parametrize("make", [
        lambda: qcore.DenseUnitary(np.eye(1)),
        lambda: qcore.DenseUnitary(np.eye(3)),
        lambda: qcore.DiagonalUnitary(np.ones(1)),
        lambda: qcore.DiagonalUnitary(np.ones(6)),
        lambda: qcore.DiagonalUnitary(np.ones((2, 2))),
    ])
    def test_operators_follow_the_length_rule(self, make):
        with pytest.raises(ShapeError):
            make()

    def test_basis_state_size_checked_before_allocation(self):
        # 2^40 amplitudes would take 16 TiB
        tracemalloc.start()
        try:
            with pytest.raises(SizeError):
                qcore.basis_state(40, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("index", [True, False, 0.5, 1.0, -1, "1", None])
    def test_basis_index_follows_the_count_rule(self, index):
        with pytest.raises(ConfigError):
            qcore.basis_state(1, index)

    def test_basis_index_range(self):
        with pytest.raises(ValueError):
            qcore.basis_state(1, 2)
        assert qcore.probabilities(qcore.basis_state(2, np.int64(3)))[3] == 1
