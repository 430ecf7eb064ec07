"""Grover-family search over an index space of size N = 2^n.

Provides the single amplitude-amplification step, fixed-iteration search for
a known number of marked items, the randomized growing-schedule search for an
unknown count (giving up on a query budget), one-sided existence testing, and
threshold-driven maximum finding.  Every oracle application to the register
is counted; classical verifications are counted separately.

The fixed-count search and `measured_success_rate` evolve a state vector step
by step.  The randomized search samples each round's measurement from its
closed form instead: the oracle is a ±1 diagonal and the start state is
uniform, so after j steps the outcome is marked with probability
sin²((2j+1)θ), θ = asin(√(M/N)), and uniform within the marked or unmarked
set (Boyer–Brassard–Høyer–Tapp, quant-ph/9605034).  The j queries are still
counted one per step.  Only a marked outcome is ever reported, so a round
draws two uniforms and no unmarked index: one picks j, the other decides the
hit and, rescaled, which marked index it lands on.  A search draws the
uniforms of ROUND_BLOCK rounds with one rng.random call, and draws another
block when those run out; uniforms left over when it stops are discarded.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import qcore
from .errors import ConfigError, ShapeError


def _count(value, name: str, low: int) -> int:
    """value as an int; ConfigError unless it is an integer >= low."""
    try:
        count = operator.index(value)
    except TypeError:
        count = low - 1
    if count < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
    return count


@dataclass(frozen=True)
class SearchConfig:
    """Tunables for the randomized searches.

    growth_factor: schedule multiplier for the unknown-count search; the
        cited analysis allows any value in (1, 4/3).
    budget_factor: a search gives up after budget_factor * sqrt(N) oracle
        queries (rounded up); finite and > 0.
    max_failures: consecutive failed rounds (an integer >= 1) after which
        maximum_search stops.

    Values outside these ranges raise ConfigError.
    """

    growth_factor: float = 6 / 5
    budget_factor: float = 4.0
    max_failures: int = 3

    def __post_init__(self):
        if not 1 < self.growth_factor < 4 / 3:
            raise ConfigError("growth_factor must be in (1, 4/3), got "
                              f"{self.growth_factor!r}")
        if not (math.isfinite(self.budget_factor) and self.budget_factor > 0):
            raise ConfigError("budget_factor must be finite and > 0, got "
                              f"{self.budget_factor!r}")
        _count(self.max_failures, "max_failures", 1)


DEFAULT_CONFIG = SearchConfig()

# Threshold rounds in maximum_search ramp the schedule as fast as the cited
# analysis permits and give up earlier; this keeps the total query count well
# under the exhaustive-evaluation count while leaving the miss probability of
# a final improvement negligible over max_failures rounds.
MAXIMUM_SEARCH_CONFIG = SearchConfig(growth_factor=1.33, budget_factor=1.8)


def index_bits(values: np.ndarray, name: str) -> int:
    """n for a 1-D array over the 2^n register indices; ShapeError otherwise."""
    n = values.size.bit_length() - 1
    if values.ndim != 1 or n < 0 or values.size != 1 << n:
        raise ShapeError(f"{name} of shape {values.shape} is not 1-D of "
                         "power-of-2 length")
    return n


def score_bits(table: np.ndarray) -> int:
    """index_bits of a score table; ValueError unless every score is finite."""
    n = index_bits(table, "cost table")
    if not np.isfinite(table).all():
        raise ValueError("cost table scores must be finite")
    return n


class MarkingOracle:
    """Boolean mask over basis-state indices, applied as a phase flip.

    `query_count` increments once per application to the register;
    `verification_count` once per classical check of one index.  The flip
    operator's diagonal and the marked index set are built from the mask on
    first use.
    """

    def __init__(self, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool)
        self.n_qubits = index_bits(mask, "mask")
        self.mask = mask
        self.query_count = 0
        self.verification_count = 0
        self._diag: Optional[qcore.DiagonalUnitary] = None
        self._marked: Optional[np.ndarray] = None

    @property
    def n_states(self) -> int:
        return 1 << self.n_qubits

    def apply_to(self, s: qcore.StateVector) -> qcore.StateVector:
        """Flip the sign of marked amplitudes; one oracle query."""
        if self._diag is None:
            self._diag = qcore.DiagonalUnitary(np.where(self.mask, -1.0, 1.0))
        self.query_count += 1
        return qcore.apply_unitary(self._diag, s)

    def marked_indices(self) -> np.ndarray:
        """Marked basis-state indices in increasing order."""
        if self._marked is None:
            self._marked = self.mask.nonzero()[0]
        return self._marked

    def verify(self, index: int) -> bool:
        """Classical check of one index; counted separately from queries."""
        self.verification_count += 1
        return bool(self.mask[index])


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one search run.

    `iterations_used` is the number of amplitude-amplification steps for the
    fixed and randomized searches, and the number of threshold rounds for
    maximum_search.  `succeeded` implies `found` passed classical
    verification.
    """

    found: Optional[int]
    grover_queries: int
    verification_queries: int
    iterations_used: int
    succeeded: bool


def grover_iterate(oracle: MarkingOracle, s: qcore.StateVector) -> qcore.StateVector:
    """One amplification step: oracle phase flip, then inversion about the mean."""
    if oracle.n_qubits != s.n_qubits:
        raise ShapeError(
            f"oracle on {oracle.n_qubits} qubits, state on {s.n_qubits}")
    flipped = oracle.apply_to(s).amplitudes
    mean = flipped.mean()
    return qcore.StateVector(s.n_qubits, 2.0 * mean - flipped)


def optimal_iterations(n_states: int, n_marked: int) -> int:
    """Iteration count maximizing success probability for a known M."""
    theta = math.asin(math.sqrt(n_marked / n_states))
    return max(0, round(math.pi / (4.0 * theta) - 0.5))


def success_probability(n_states: int, n_marked: int, k: int) -> float:
    """Closed-form success probability sin²((2k+1)·asin(sqrt(M/N)))."""
    theta = math.asin(math.sqrt(n_marked / n_states))
    return math.sin((2 * k + 1) * theta) ** 2


def grover_search(oracle: MarkingOracle, m_known: int,
                  rng: np.random.Generator) -> SearchReport:
    """Search with the iteration count tuned for a known number of marked items."""
    n = oracle.n_states
    if not 1 <= m_known <= n:
        raise ValueError(f"m_known={m_known} outside [1, {n}]")
    g0, v0 = oracle.query_count, oracle.verification_count
    k = optimal_iterations(n, m_known)
    s = qcore.uniform_superposition(oracle.n_qubits)
    for _ in range(k):
        s = grover_iterate(oracle, s)
    outcome = qcore.measure(s, rng).outcome
    ok = oracle.verify(outcome)
    return SearchReport(found=outcome if ok else None,
                        grover_queries=oracle.query_count - g0,
                        verification_queries=oracle.verification_count - v0,
                        iterations_used=k,
                        succeeded=ok)


# Rounds whose uniforms bbht_search draws with one rng.random call; a call
# takes 7.7 rounds on average in the K = 10 threshold search.
ROUND_BLOCK = 16


def _round_uniforms(rng: np.random.Generator):
    """Endless (u_steps, u_hit) pairs, drawn ROUND_BLOCK rounds at a time."""
    while True:
        yield from rng.random((ROUND_BLOCK, 2)).tolist()


def bbht_search(oracle: MarkingOracle, rng: np.random.Generator,
                cfg: SearchConfig = DEFAULT_CONFIG) -> SearchReport:
    """Randomized search when the number of marked items is unknown.

    Schedule: m starts at 1; each round runs j ~ Uniform{0..ceil(m)-1}
    amplification steps, measures, and classically verifies; on failure m
    grows by cfg.growth_factor up to sqrt(N).  Gives up (succeeded=False,
    not an error) once cfg.budget_factor * sqrt(N) queries are spent, which
    covers the case of zero marked items.  Each round counts its j oracle
    queries and samples the measurement from the closed-form distribution
    after j steps (see the module docstring) from one pair of uniforms, taken
    from blocks of ROUND_BLOCK pairs drawn with one rng.random call each, so
    no register is built.
    """
    n_states = oracle.n_states
    sqrt_n = math.sqrt(n_states)
    budget = math.ceil(cfg.budget_factor * sqrt_n)
    g0, v0 = oracle.query_count, oracle.verification_count
    marked = oracle.marked_indices()
    theta = math.asin(math.sqrt(marked.size / n_states))

    def report(found, succeeded):
        return SearchReport(found=found,
                            grover_queries=oracle.query_count - g0,
                            verification_queries=oracle.verification_count - v0,
                            iterations_used=oracle.query_count - g0,
                            succeeded=succeeded)

    m = 1.0
    used = 0
    for u_steps, u_hit in _round_uniforms(rng):
        j = min(int(u_steps * math.ceil(m)), budget - used)
        oracle.query_count += j
        used += j
        # sin² is exactly 0 for M = 0 and exactly 1 in the first (j = 0)
        # round for M = N, so M = 0 never hits and M = N never misses.
        p_hit = math.sin((2 * j + 1) * theta) ** 2
        if u_hit < p_hit:
            # given a hit, u_hit / p_hit is uniform on [0, 1), and stays
            # below 1 in floating point, so it picks a marked index
            outcome = int(marked[int(u_hit / p_hit * marked.size)])
            oracle.verify(outcome)
            return report(outcome, True)
        # a miss lands on some unmarked index, which fails its (counted)
        # verification; it is never reported, so no index is drawn
        oracle.verification_count += 1
        if used >= budget:
            return report(None, False)
        m = min(cfg.growth_factor * m, sqrt_n)


def existence_test(oracle: MarkingOracle, rng: np.random.Generator,
                   confidence_rounds: int) -> bool:
    """One-sided test of whether any index is marked.

    True is always correct (the hit is verified); False is wrong with a
    probability that decays geometrically in confidence_rounds when at least
    one marked item exists.
    """
    if confidence_rounds < 1:
        raise ValueError("confidence_rounds must be >= 1")
    for _ in range(confidence_rounds):
        if bbht_search(oracle, rng).succeeded:
            return True
    return False


def maximum_search(table: np.ndarray,
                   rng: np.random.Generator) -> SearchReport:
    """Locate an index maximizing a score table by iterated threshold search.

    The table holds one score per index of an n-qubit register, so its
    length must be 2^n and its scores finite (ValueError otherwise).  Keeps a
    best-so-far threshold t seeded from one random sample, then repeatedly
    searches the oracle mask "table > t" with the randomized schedule of
    MAXIMUM_SEARCH_CONFIG; every verified hit raises the threshold.  Stops after max_failures consecutive rounds find
    nothing and returns the incumbent.  Ties are kept by the first index
    found.
    """
    table = np.asarray(table, dtype=float)
    score_bits(table)

    incumbent = int(rng.integers(0, table.size))
    threshold = table[incumbent]
    grover_total = 0
    verify_total = 0
    rounds = 0
    failures = 0
    while failures < MAXIMUM_SEARCH_CONFIG.max_failures:
        oracle = MarkingOracle(table > threshold)
        rounds += 1
        rep = bbht_search(oracle, rng, MAXIMUM_SEARCH_CONFIG)
        grover_total += rep.grover_queries
        verify_total += rep.verification_queries
        if rep.succeeded:
            incumbent = rep.found
            threshold = table[incumbent]
            failures = 0
        else:
            failures += 1
    return SearchReport(found=incumbent,
                        grover_queries=grover_total,
                        verification_queries=verify_total,
                        iterations_used=rounds,
                        succeeded=True)


def measured_success_rate(oracle: MarkingOracle, k: int, trials: int,
                          rng: np.random.Generator) -> float:
    """Fraction of measurements hitting a marked index after k iterations.

    Evolves the register once and draws the outcome counts of `trials`
    measurements as one multinomial sample, so memory is O(N) for any
    `trials`; statistics are identical to re-preparing the state per trial.
    A non-integer k or trials, k < 0 and trials < 1 raise ConfigError before
    the register is built.
    """
    k = _count(k, "k", 0)
    trials = _count(trials, "trials", 1)
    s = qcore.uniform_superposition(oracle.n_qubits)
    for _ in range(k):
        s = grover_iterate(oracle, s)
    p = qcore.probabilities(s)
    counts = rng.multinomial(trials, p / p.sum())
    return float(counts[oracle.mask].sum() / trials)
