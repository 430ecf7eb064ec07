"""Ideal state-vector quantum simulator.

Registers are immutable vectors of 2^n complex amplitudes; evolution is by
unitary operators (dense up to a size cap, structured beyond); measurement is
full projective measurement in the computational basis.

Bit convention: qubit k corresponds to bit k of the basis-state integer, so
qubit 0 is the least significant bit.  ``tensor(a, b)`` places ``a``'s qubits
in the high bits and ``b``'s in the low bits, i.e. the amplitude of
``tensor(a, b)`` at index ``i * 2**b.n_qubits + j`` is ``a[i] * b[j]``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import ShapeError, SizeError, as_count


def check_qubits(n_qubits: int) -> int:
    """n_qubits, unless it falls outside [1, config.MAX_QUBITS] (SizeError):
    the register-size rule, checked before any register is allocated."""
    if not 1 <= n_qubits <= config.MAX_QUBITS:
        raise SizeError(
            f"n_qubits={n_qubits} outside [1, {config.MAX_QUBITS}]")
    return n_qubits


def length_qubits(length: int, name: str) -> int:
    """n for a length of 2^n with n >= 1, else ShapeError: the length rule
    of every vector or table over the indices of a register."""
    n = length.bit_length() - 1
    if n < 1 or length != 1 << n:
        raise ShapeError(f"{name} {length} is not 2^n with n >= 1")
    return n


class StateVector:
    """Immutable n-qubit register holding 2^n complex amplitudes."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray):
        check_qubits(n_qubits)
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.shape != (1 << n_qubits,):
            raise ShapeError(
                f"expected {1 << n_qubits} amplitudes, got {amps.shape}")
        norm_sq = float(np.sum(amps.real**2 + amps.imag**2))
        if not abs(norm_sq - 1.0) <= config.NORM_TOL:
            raise ValueError(f"state norm² = {norm_sq!r}, not 1")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def __repr__(self):
        return f"StateVector(n_qubits={self.n_qubits})"


@dataclass(frozen=True)
class MeasurementOutcome:
    """Result of a projective measurement: classical index plus collapsed state."""

    outcome: int
    post_state: StateVector


class UnitaryOp:
    """Base for norm-preserving operators; subclasses implement `_apply`."""

    dim: int

    def _apply(self, amps: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class DenseUnitary(UnitaryOp):
    """Explicit matrix form, validated as unitary on construction."""

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError(f"matrix must be square, got {m.shape}")
        dim = m.shape[0]
        length_qubits(dim, "matrix dimension")
        if dim > config.MAX_DENSE_DIM:
            raise SizeError(
                f"dense form capped at dim {config.MAX_DENSE_DIM}; "
                "use a structured unitary")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        defect = np.linalg.norm(m.conj().T @ m - np.eye(dim))
        if not defect <= config.UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (‖U†U − I‖ = {defect:.3g})")
        self.matrix = m
        self.dim = dim

    def _apply(self, amps):
        return self.matrix @ amps


class DiagonalUnitary(UnitaryOp):
    """Diagonal phase operator; entries must have unit modulus."""

    def __init__(self, phases: np.ndarray):
        d = np.asarray(phases, dtype=np.complex128)
        if d.ndim != 1:
            raise ShapeError(f"need a 1-D phase vector, got {d.shape}")
        length_qubits(d.size, "phase vector length")
        if not np.max(np.abs(np.abs(d) - 1.0)) <= config.UNITARY_TOL:
            raise ValueError("diagonal entries must have unit modulus")
        self.phases = d
        self.dim = d.size

    def _apply(self, amps):
        return self.phases * amps


# Standard 2x2 gates.
HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def basis_state(n_qubits: int, index: int) -> StateVector:
    """Register collapsed onto one computational basis state; a bad size
    (check_qubits) or index (as_count; ValueError >= 2^n) raises before any
    allocation."""
    dim = 1 << check_qubits(n_qubits)
    index = as_count(index, "basis index", 0)
    if index >= dim:
        raise ValueError(f"basis index {index} outside [0, {dim})")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(n_qubits, amps)


def uniform_superposition(n_qubits: int) -> StateVector:
    """All 2^n basis states with equal real positive amplitude 1/sqrt(2^n)."""
    dim = 1 << check_qubits(n_qubits)
    amps = np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)
    return StateVector(n_qubits, amps)


def apply_unitary(u: UnitaryOp, s: StateVector) -> StateVector:
    """Evolve `s` by `u`, returning a fresh register."""
    if u.dim != s.dim:
        raise ShapeError(f"operator dim {u.dim} != state dim {s.dim}")
    return StateVector(s.n_qubits, u._apply(s.amplitudes))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Combine registers; `a` supplies the high bits, `b` the low bits."""
    n_total = check_qubits(a.n_qubits + b.n_qubits)
    return StateVector(n_total, np.kron(a.amplitudes, b.amplitudes))


def probabilities(s: StateVector) -> np.ndarray:
    """Measurement distribution |amplitude|² per basis index."""
    a = s.amplitudes
    return a.real**2 + a.imag**2


def outcome_cdf(s: StateVector) -> np.ndarray:
    """The cdf that measuring `s` samples, built as rng.choice(s.dim,
    p=pmf / pmf.sum()) builds it: the cumulative sum of the normalized pmf
    (which absorbs float drift), divided by its last entry."""
    p = probabilities(s)
    cdf = (p / p.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def sample_outcome(cdf, rng: np.random.Generator) -> int:
    """One outcome from an outcome_cdf (or its tolist()), drawn as
    rng.choice draws it, without its per-call checks: one rng.random() and
    a right-side search, so the outcome and the generator state match that
    call's."""
    return bisect.bisect_right(cdf, rng.random())


def measure(s: StateVector, rng: np.random.Generator) -> MeasurementOutcome:
    """Projective measurement: sample an index, collapse the register."""
    outcome = sample_outcome(outcome_cdf(s), rng)
    return MeasurementOutcome(outcome, basis_state(s.n_qubits, outcome))


def is_product_2qubit(s: StateVector) -> bool:
    """True iff a 2-qubit state factors into two single-qubit states.

    Viewing the amplitudes as a 2x2 matrix, the state is a product exactly
    when that matrix has rank 1, i.e. its determinant vanishes.
    """
    if s.n_qubits != 2:
        raise ShapeError(f"need a 2-qubit register, got {s.n_qubits}")
    a = s.amplitudes
    det = a[0] * a[3] - a[1] * a[2]
    return bool(abs(det) < config.PRODUCT_TOL)
