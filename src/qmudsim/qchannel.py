"""Zero-capacity flip channel versus single-qubit phase encoding.

A binary symmetric channel that flips with probability 1/2 carries no
classical information: C = 1 − H₂(1/2) = 0.  Encoding the classical bit in
the Hadamard basis, 0 → (|0⟩+|1⟩)/√2 and 1 → (|0⟩−|1⟩)/√2, makes both code
states eigenvectors of the bit-flip operator X (eigenvalues +1 and −1), so a
random X leaves the measurement statistics untouched and every bit decodes
correctly for any flip probability.  The channel is realized stochastically:
sample the flip, then apply the unitary.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import qcore
from .errors import ConfigError, as_count, run_size


@dataclass(frozen=True)
class FlipChannel:
    """Bit-flip process with probability p per use."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"flip probability {self.p} outside [0, 1]")


@dataclass(frozen=True)
class DemoReport:
    """Measured error rates of both transports over the same flip process."""

    n_bits: int
    classical_error_rate: float
    quantum_error_rate: float
    classical_capacity: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def format_table(self) -> str:
        rows = [
            ("bits transmitted", f"{self.n_bits}"),
            ("classical error rate", f"{self.classical_error_rate:.6f}"),
            ("quantum error rate", f"{self.quantum_error_rate:.6f}"),
            ("classical BSC capacity", f"{self.classical_capacity:.6f}"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)


def binary_entropy(p: float) -> float:
    """H₂(p) in bits, with 0·log0 taken as 0."""
    return -sum(x * math.log(x) for x in (p, 1.0 - p) if x > 0) / math.log(2.0)


def bsc_capacity(p: float) -> float:
    """Shannon capacity 1 − H₂(p) of the binary symmetric channel; p is
    checked by the FlipChannel rule."""
    FlipChannel(p)
    return 1.0 - binary_entropy(p)


def transmit_classical(bit: int, ch: FlipChannel,
                       rng: np.random.Generator) -> int:
    """Send a raw bit through the flip process; a bit that is not an
    integer >= 0 (a bool included) raises ConfigError, one above 1
    ValueError."""
    bit = as_count(bit, "bit", 0)
    if bit > 1:
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    if rng.random() < ch.p:
        return 1 - bit
    return bit


_H = qcore.DenseUnitary(qcore.HADAMARD)
_X = qcore.DenseUnitary(qcore.PAULI_X)


def _encode(bit: int) -> qcore.StateVector:
    """The code state H|bit⟩; the bit is checked as a basis index
    (qcore.basis_state)."""
    return qcore.apply_unitary(_H, qcore.basis_state(1, bit))


def _decode(state: qcore.StateVector, flipped: bool) -> qcore.StateVector:
    """The register the receiver measures: X if the channel flipped, then
    the decoding H."""
    if flipped:
        state = qcore.apply_unitary(_X, state)
    return qcore.apply_unitary(_H, state)


def transmit_quantum(bit: int, ch: FlipChannel,
                     rng: np.random.Generator) -> int:
    """Send a bit through the flip process under the phase-basis encoding.

    Encode |bit⟩ → H|bit⟩, pass it through the channel (apply X with
    probability p), decode with H, measure.  Both code states are X
    eigenstates up to a global phase, so the output equals the input for
    every p.  The bit is checked as a basis index (qcore.basis_state).
    """
    state = _encode(bit)  # a bad bit raises before any draw
    return qcore.measure(_decode(state, rng.random() < ch.p), rng).outcome


def run_demo(n_bits: int, p: float, rng: np.random.Generator) -> DemoReport:
    """Push random bits through both transports and tally error rates.

    Each bit makes the draws of rng.integers(0, 2), transmit_classical and
    transmit_quantum, in that order, so a seed gives the same report and
    the same final generator state as those per-bit calls.  The four
    (bit, flip) registers are evolved once per call, and each bit samples
    its case's outcome_cdf.  n_bits that errors.run_size refuses and p
    outside [0, 1] raise ConfigError."""
    n_bits, _ = run_size(n_bits, "n_bits", 32)
    ch = FlipChannel(p)
    cdfs = [[qcore.outcome_cdf(_decode(_encode(bit), flipped)).tolist()
             for flipped in (False, True)] for bit in (0, 1)]
    classical_errors = 0
    quantum_errors = 0
    for _ in range(n_bits):
        bit = int(rng.integers(0, 2))
        if rng.random() < ch.p:
            classical_errors += 1
        if qcore.sample_outcome(cdfs[bit][rng.random() < ch.p], rng) != bit:
            quantum_errors += 1
    return DemoReport(n_bits=n_bits,
                      classical_error_rate=classical_errors / n_bits,
                      quantum_error_rate=quantum_errors / n_bits,
                      classical_capacity=bsc_capacity(p))
