"""Grover-family search over an index space of size N = 2^n.

Provides the single amplitude-amplification step, fixed-iteration search for
a known number of marked items, the randomized growing-schedule search for an
unknown count (giving up on a query budget), one-sided existence testing, and
threshold-driven maximum finding.  Every oracle application to the register
is counted; classical verifications are counted separately.

The fixed-count search and `measured_success_curve` evolve a state vector
step by step.  The randomized search samples each round's measurement from
its closed form instead: the oracle is a ±1 diagonal and the start state is
uniform, so after j steps the outcome is marked with probability
sin²((2j+1)θ), θ = asin(√(M/N)), and uniform within the marked or unmarked
set (Boyer–Brassard–Høyer–Tapp, quant-ph/9605034).  The j queries are still
counted one per step.  Only a marked outcome is ever reported, so a round
draws two uniforms and no unmarked index: one picks j, the other decides the
hit.  Given a hit, the outcome is uniform on the marked indices whatever
the round drew, so a search depends on M alone, and the rank of its hit
among the marked indices is drawn apart, uniform on 0..M-1.

Maximum finding runs threshold rounds of that search, each marking the
entries ahead of the incumbent in one total order: higher scores first,
equal scores by lower index, as np.argmax breaks ties.  The incumbent's
rank M is the number of entries ahead of it, so a round depends only on M:
the hit lands uniformly on the M entries ahead, so the next rank is uniform
on 0..M-1 (Dürr–Høyer, quant-ph/9607014).  The order maps the N indices
one-to-one onto the ranks 0..N-1, so a uniform first incumbent has a
uniform first rank, whatever the scores.  threshold_search runs many such
searches at once in rank space, from first ranks drawn directly, with no
table, mask, oracle or register: it draws each search's descent of ranks
up front and runs the rounds at all its levels at once.  maximum_search
maps each final rank back to an index of its score table; bbht_ranks runs
on the same kernel, each BBHT search over M marked indices as one
threshold round at rank M, and existence_test runs its rounds as one job.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import qcore
from .errors import ConfigError, ShapeError, as_count, as_indices, run_size


class _Schedule(NamedTuple):
    """Schedule and stop rule of BBHT (DEFAULT_CONFIG) or threshold searches
    (MAXIMUM_SEARCH_CONFIG); both are fixed, so no search takes one.

    growth_factor: schedule multiplier for the unknown-count search; the
        cited analysis allows any value in (1, 4/3).
    budget_factor: a search gives up after budget_factor * sqrt(N) oracle
        queries (rounded up).
    max_failures: the threshold rounds in a row without a hit that end a
        search at one rank; 1 ends a BBHT search at its first give-up.
    """

    growth_factor: float
    budget_factor: float
    max_failures: int


DEFAULT_CONFIG = _Schedule(growth_factor=6 / 5, budget_factor=4.0,
                           max_failures=1)

# Threshold rounds in maximum_search ramp the schedule as fast as the cited
# analysis permits and give up earlier; this keeps the total query count well
# under the exhaustive-evaluation count while leaving the miss probability of
# a final improvement negligible over max_failures rounds.
MAXIMUM_SEARCH_CONFIG = _Schedule(growth_factor=1.33, budget_factor=1.8,
                                  max_failures=3)


def score_bits(tables: np.ndarray) -> int:
    """n for a (..., 2^n) stack of score tables, or one table: ShapeError
    unless n >= 1 (qcore.length_qubits; a search over one index would never
    spend its budget, as every round's j is 0), ValueError unless every
    score is finite."""
    n = qcore.length_qubits(tables.shape[-1] if tables.ndim else 0,
                            "cost table length")
    if not np.isfinite(tables).all():
        raise ValueError("cost table scores must be finite")
    return n


class MarkingOracle:
    """Boolean mask over basis-state indices, applied as a phase flip.

    `query_count` increments once per application to the register;
    `verification_count` once per classical check of one index.  The flip
    operator's diagonal is built from the mask on first use.
    """

    def __init__(self, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 1:
            raise ShapeError(f"mask must be 1-D, got shape {mask.shape}")
        self.n_qubits = qcore.length_qubits(mask.size, "mask length")
        self.mask = mask
        self.query_count = 0
        self.verification_count = 0
        self._diag: Optional[qcore.DiagonalUnitary] = None
        self._marked = mask.nonzero()[0]

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
        return self._marked

    def verify(self, index: int) -> bool:
        """Classical check of one index; counted separately from queries."""
        self.verification_count += 1
        return bool(self.mask[index])


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one grover_search or bbht_search run: the verified index
    (None if the search found none), the oracle queries and the classical
    verifications it spent."""

    found: Optional[int]
    grover_queries: int
    verification_queries: int

    @property
    def succeeded(self) -> bool:
        """Whether the search found an index that passed verification."""
        return self.found is not None


def grover_iterate(oracle: MarkingOracle, s: qcore.StateVector) -> qcore.StateVector:
    """One amplification step: oracle phase flip, then inversion about the mean."""
    if oracle.n_qubits != s.n_qubits:
        raise ShapeError(
            f"oracle on {oracle.n_qubits} qubits, state on {s.n_qubits}")
    flipped = oracle.apply_to(s).amplitudes
    mean = flipped.mean()
    return qcore.StateVector(s.n_qubits, 2.0 * mean - flipped)


def _grover_angle(n_states, n_marked, low: int) -> float:
    """θ = asin(sqrt(M/N)); ConfigError unless N >= 1 and M in [low, N]."""
    n_states = as_count(n_states, "n_states", 1)
    n_marked = as_count(n_marked, "n_marked", low)
    if n_marked > n_states:
        raise ConfigError(f"n_marked must be at most n_states = {n_states}, "
                          f"got {n_marked}")
    return math.asin(math.sqrt(n_marked / n_states))


def optimal_iterations(n_states: int, n_marked: int) -> int:
    """Iteration count maximizing success probability for a known M in
    [1, N]; other counts raise ConfigError."""
    theta = _grover_angle(n_states, n_marked, 1)
    return max(0, round(math.pi / (4.0 * theta) - 0.5))


def success_probability(n_states: int, n_marked: int, k: int) -> float:
    """Closed-form success probability sin²((2k+1)·asin(sqrt(M/N))) for M
    in [0, N] and k >= 0; other counts raise ConfigError."""
    theta = _grover_angle(n_states, n_marked, 0)
    k = as_count(k, "k", 0)
    return math.sin((2 * k + 1) * theta) ** 2


def grover_search(oracle: MarkingOracle, m_known: int,
                  rng: np.random.Generator) -> SearchReport:
    """Search with the iteration count tuned for a known number of marked
    items; an m_known outside [1, N] raises ConfigError (optimal_iterations)."""
    k = optimal_iterations(oracle.n_states, m_known)
    g0, v0 = oracle.query_count, oracle.verification_count
    s = qcore.uniform_superposition(oracle.n_qubits)
    for _ in range(k):
        s = grover_iterate(oracle, s)
    outcome = qcore.measure(s, rng).outcome
    ok = oracle.verify(outcome)
    return SearchReport(found=outcome if ok else None,
                        grover_queries=oracle.query_count - g0,
                        verification_queries=oracle.verification_count - v0)


@functools.lru_cache(maxsize=128)
def _schedule(n_states: int, cfg: _Schedule):
    """(caps, budget) of a BBHT search under cfg: ceil(m) of each round
    after a (re)start, later rounds taking caps[-1], and its query budget."""
    sqrt_n = math.sqrt(n_states)
    caps = [1]
    m = 1.0
    while m < sqrt_n:
        m = min(cfg.growth_factor * m, sqrt_n)
        caps.append(math.ceil(m))
    return tuple(caps), math.ceil(cfg.budget_factor * sqrt_n)


def _rank_space(values, n_states, name: str, top: int):
    """(values, n_states) checked as in bbht_ranks; values < n_states + top."""
    n_states = as_count(n_states, "n_states", 2)
    qcore.check_qubits((n_states - 1).bit_length())  # qubits to index N
    try:
        values = as_indices(values, n_states + top, name)
    except ValueError as exc:  # caller input, so exit 2 in the CLI
        raise ConfigError(str(exc)) from None
    if values.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {values.shape}")
    return values, n_states


def _below(counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Where a hit from each rank M >= 1 of counts lands: a rank uniform on
    0..M-1, from one rng.random call (u·M stays below M in floating point
    for every M up to 2^53)."""
    return (rng.random(counts.size) * counts).astype(np.int64)


def bbht_ranks(counts, n_states: int, rng: np.random.Generator):
    """bbht_search in rank space: for each entry M of counts, a search
    over M of n_states indices, one _lockstep_search job at rank M under
    DEFAULT_CONFIG, and for a hit its rank below M (_below).  Returns
    int64 arrays of the rank (below M for a hit, uniform on 0..M-1; M for a
    give-up), the oracle queries and the verifications.  n_states not an
    integer >= 2 raises ConfigError, above 2^config.MAX_QUBITS SizeError,
    counts that are not integers in [0, n_states] ConfigError and counts
    that are not 1-D ValueError, all before any allocation or draw.
    """
    counts, n_states = _rank_space(counts, n_states, "counts", 1)
    hit, queries, verifications, _ = _lockstep_search(
        counts, n_states, DEFAULT_CONFIG, rng)
    ranks = counts.copy()
    ranks[hit] = _below(counts[hit], rng)
    return ranks, queries, verifications


def bbht_search(oracle: MarkingOracle,
                rng: np.random.Generator) -> SearchReport:
    """Randomized search when the number of marked items is unknown.

    Schedule (_schedule under DEFAULT_CONFIG): m starts at 1; each round
    runs j ~ Uniform{0..ceil(m)-1} amplification steps, measures, and
    classically verifies; on failure m grows by growth_factor up to
    sqrt(N).  Gives up (succeeded=False, not an error) once budget_factor *
    sqrt(N) queries are spent, which covers the case of zero marked items.
    Runs one bbht_ranks search, whose rank indexes marked_indices(), and
    adds its counts to the oracle's; many searches cost less as one
    bbht_ranks call.
    """
    marked = oracle.marked_indices()
    rank, queries, verifications = (
        int(a[0]) for a in bbht_ranks([marked.size], oracle.n_states, rng))
    oracle.query_count += queries
    oracle.verification_count += verifications
    found = int(marked[rank]) if rank < marked.size else None
    return SearchReport(found=found, grover_queries=queries,
                        verification_queries=verifications)


def existence_test(oracle: MarkingOracle, rng: np.random.Generator,
                   confidence_rounds: int) -> bool:
    """One-sided test of whether any index is marked.

    Runs up to confidence_rounds bbht_search rounds, up to the first
    success, as one _lockstep_search job under DEFAULT_CONFIG with
    max_failures = confidence_rounds, and adds the queries and
    verifications of the rounds it ran to the oracle's.  True is always
    correct (the hit is verified); False is wrong with a probability that
    decays geometrically in confidence_rounds when at least one marked
    item exists.  confidence_rounds that errors.run_size refuses raises
    ConfigError before any draw.
    """
    rounds, _ = run_size(confidence_rounds, "confidence_rounds",
                         128 * (12 + oracle.n_qubits))
    cfg = DEFAULT_CONFIG._replace(max_failures=rounds)
    counts, n_states = _rank_space([oracle.marked_indices().size],
                                   oracle.n_states, "counts", 1)
    hit, queries, verifications, _ = _lockstep_search(counts, n_states, cfg,
                                                       rng)
    oracle.query_count += int(queries[0])
    oracle.verification_count += int(verifications[0])
    return bool(hit[0])


# BBHT rounds that _lockstep_search gives each unfinished job per loop
# step, drawn with one rng.random call.  Longer blocks take fewer steps, but
# they draw and score more rounds that a stop discards.  At K = 10, calls
# of 1, 200 and 4,096 searches took 1194, 946, 749, 730 and 704; 13.3,
# 11.6, 11.0, 11.5 and 12.4; and 7.0, 7.3, 7.7, 8.5 and 9.6 us per search
# with blocks of 4, 6, 8, 10 and 12 rounds, and at K = 4 the 4,096-search
# calls 2.5 us with 4 rounds against 3.6 with 8 (medians of 15 calls, 45
# for one search, on a 2-vCPU VM).  8 is the fastest at 200 searches, the
# size of a qmud-agree call.
THRESHOLD_BLOCK = 8

# Jobs that _lockstep_search runs at once; the others wait for a place,
# which keeps a step's arrays in cache.  A K = 10 call of 4,096 searches
# (about 30,000 jobs) took 7.4, 6.7, 6.6 and 7.0 us per search with 1,024,
# 2,048, 4,096 and 8,192 places, and 8.4 with every job at once (medians
# of 11 calls on a 2-vCPU VM).
LOCKSTEP_WIDTH = 4096


def threshold_search(first_ranks, n_states: int, rng: np.random.Generator):
    """maximum_search's threshold rounds, in rank space, for many searches.

    An incumbent of rank M leaves exactly M marked indices, a threshold
    round depends on M alone, and a hit lands uniformly on ranks 0..M-1
    whatever the round drew (see the module docstring).  So each search's
    ranks form a descent chain from its first rank down to 0, drawn up
    front with one _below call per level, and the rounds at one level
    depend on that level's rank alone.  All levels of all searches run as
    the jobs of one _lockstep_search call under MAXIMUM_SEARCH_CONFIG; a
    search ends at its first level whose job did not hit (rank 0 never
    hits), with that level's rank and the counters of the levels up to it.
    Returns int64 arrays of the final rank, queries, verifications and
    threshold rounds, one entry per entry of first_ranks.  Inputs are
    checked as in bbht_ranks, with first_ranks in [0, n_states).
    """
    first, n_states = _rank_space(first_ranks, n_states, "first_ranks", 0)
    # the jobs, level by level and in search order within a level
    ranks, owners = [first], [np.arange(first.size)]
    while True:
        descending = ranks[-1].nonzero()[0]
        if not descending.size:
            break
        owners.append(owners[-1][descending])
        ranks.append(_below(ranks[-1][descending], rng))
    ranks, owners = np.concatenate(ranks), np.concatenate(owners)
    hit, *counters = _lockstep_search(ranks, n_states, MAXIMUM_SEARCH_CONFIG,
                                      rng)
    # a search's first miss is its miss at the lowest position
    end = np.full(first.size, ranks.size)
    misses = (~hit).nonzero()[0]
    np.minimum.at(end, owners[misses], misses)
    counted = np.arange(ranks.size) <= end[owners]
    owners = owners[counted]
    return (ranks[end], *(np.bincount(owners, weights=c[counted],
                                      minlength=first.size).astype(np.int64)
                          for c in counters))


def _lockstep_search(ranks: np.ndarray, n_states: int, cfg: _Schedule,
                     rng: np.random.Generator):
    """Threshold rounds of BBHT searches in rank space, in lock-step, one
    job per entry of ranks (int64 ranks M in [0, n_states]), which keeps
    its rank M throughout.

    Each loop step gives every unfinished job a block of THRESHOLD_BLOCK
    rounds, drawn with one rng.random call.  A round under cfg's _schedule
    runs j = floor(u_steps · cap) steps, cut to the budget left, and hits
    when u_hit < sin²((2j + 1)θ).  A hit or spent budget (a stop) ends a
    threshold round, discards the block's later uniforms and restarts the
    schedule.  A job ends at its first hit, or after cfg.max_failures
    stops without one.  Returns a bool array of hits and int64 arrays of
    queries, verifications (one per round) and threshold rounds.
    """
    caps, budget = _schedule(n_states, cfg)
    # caps[b, t]: the cap of round b of a block that starts at schedule
    # step t; steps from the last on all take the last cap
    last_step = len(caps) - 1
    caps = np.array(caps, dtype=float).take(
        np.arange(THRESHOLD_BLOCK)[:, None] + np.arange(last_step + 1),
        mode="clip")
    # a product with this lower-triangular matrix sums a block's rows up
    # to each round, exactly for these small integers, and much faster
    # than np.cumsum along the rounds
    running = np.tri(THRESHOLD_BLOCK)
    # 2^(B-1-b) for round b: a block's stops, read as binary digits
    digits = 2.0 ** np.arange(THRESHOLD_BLOCK - 1, -1, -1)
    # 2θ = 2·asin(√(M/N)) up to the largest rank
    m = np.arange(ranks.max(initial=0) + 1)
    two_theta = 2.0 * np.arcsin(np.sqrt(m / n_states))

    # one column per job; rows: M, schedule step since the (re)start (held
    # at the last step), queries spent since it, queries, threshold rounds,
    # verifications and its index.  The first LOCKSTEP_WIDTH columns run,
    # and each finished one hands its place to the next waiting job.
    jobs = np.zeros((7, ranks.size), dtype=np.int64)
    jobs[0] = ranks
    jobs[6] = np.arange(ranks.size)
    admitted = min(ranks.size, LOCKSTEP_WIDTH)
    state = jobs[:, :admitted].copy()
    hits = np.zeros(ranks.size, dtype=bool)
    while state.shape[1]:
        marked, t, used, spent, ended, verified = state[:6]
        cols = np.arange(state.shape[1])
        # one row per round of the block, one column per job; these
        # arrays are updated in place, because allocating a fresh one cost
        # more than the arithmetic at 4,096 jobs
        u_steps, u_hit = rng.random((2, THRESHOLD_BLOCK, cols.size))
        j = u_steps
        j *= caps.take(t, axis=1)
        np.floor(j, out=j)
        # queries spent by the end of each round
        total = running @ j
        total += used
        # the round that reaches the budget runs only the queries left
        # (later rounds, which the budget stop discards, get j < 0)
        left = np.subtract(budget, total)
        np.minimum(left, 0, out=left)
        j += left
        # sin² is exactly 0 for M = 0 and exactly 1 in a j = 0 round for
        # M = N, so M = 0 never hits and M = N never misses in round one
        j += 0.5
        j *= two_theta[marked]
        p_hit = np.sin(j, out=j)
        p_hit *= p_hit
        hit = u_hit < p_hit
        # each job's last round this step: its first hit or budget stop,
        # else the block's last round.  The stops go into p_hit's buffer as
        # 0 and 1, and read as binary digits, round 0 the highest, they
        # make a number whose binary exponent (np.frexp; 0 for 0) is B
        # minus the round of the first stop.
        stop = np.greater_equal(total, budget, out=p_hit)
        np.logical_or(stop, hit, out=stop)
        clear = THRESHOLD_BLOCK - np.frexp(digits @ stop)[1]
        stops = clear < THRESHOLD_BLOCK
        going = ~stops
        last = np.minimum(clear, THRESHOLD_BLOCK - 1)
        pick = last * cols.size + cols
        hit, total = hit.take(pick), total.take(pick)
        total = np.minimum(total, budget).astype(np.int64)
        spent += total - used
        verified += last + 1  # one verification per BBHT round
        ended += stops
        # a stop restarts the schedule; otherwise the next block goes on
        t += THRESHOLD_BLOCK
        np.minimum(t, last_step, out=t)
        t *= going
        np.multiply(total, going, out=used)
        done = ended >= cfg.max_failures
        done |= hit
        if done.any():
            # integer takes, which cost less than boolean masks here
            finished = done.nonzero()[0]
            index = state[6].take(finished)
            jobs[:, index] = state.take(finished, axis=1)
            hits[index] = hit.take(finished)
            waiting = jobs[:, admitted:admitted + index.size]
            admitted += waiting.shape[1]
            state = np.concatenate(
                (state.take((~done).nonzero()[0], axis=1), waiting), axis=1)
    return hits, jobs[3], jobs[5], jobs[4]


def maximum_search(tables, rng: np.random.Generator):
    """Locate an index maximizing each of the (..., 2^n) score tables.

    Every score must be finite (ShapeError and ValueError otherwise, before
    any draw).  A uniform first incumbent has a uniform first rank (see the
    module docstring), so the first ranks are drawn with one rng.integers
    call, without reading the tables, and run through one threshold_search
    call.  Rank 0 maps to np.argmax's index; the rare search that ends
    elsewhere reads its index from a stable descending argsort of its table
    (one argsort per table would cost more than the search).  Returns
    int64 arrays of the tables' leading shape (0-d for one table): the
    found index, oracle queries, verifications and threshold rounds, as
    threshold_search returns them with the index in place of the rank.
    """
    tables = np.asarray(tables, dtype=float)
    n_states = 1 << score_bits(tables)
    shape, tables = tables.shape[:-1], tables.reshape(-1, n_states)
    final, queries, verifications, rounds = threshold_search(
        rng.integers(0, n_states, size=tables.shape[0]), n_states, rng)
    found = tables.argmax(axis=-1).astype(np.int64)
    elsewhere = final.nonzero()[0]
    order = np.argsort(-tables[elsewhere], axis=-1, kind="stable")
    found[elsewhere] = order[np.arange(elsewhere.size), final[elsewhere]]
    return tuple(a.reshape(shape)
                 for a in (found, queries, verifications, rounds))


def measured_success_curve(oracle: MarkingOracle, k_max: int, trials: int,
                           rng: np.random.Generator) -> list:
    """Fraction of `trials` measurements hitting a marked index after k
    iterations, for k = 0..k_max.

    Evolves one register and measures it after each step, with one
    multinomial sample of `trials` outcomes per k, so memory is O(N) for
    any `trials`; the statistics, and the draws, are those of a fresh
    register per k.  A non-integer k_max or trials, k_max < 0, trials < 1
    or >= 2^63 and (k_max + 1)·N amplitude updates above config.MAX_WORK
    raise ConfigError before the register is built.
    """
    k_max, _ = run_size(k_max, "k_max", oracle.n_states, low=0,
                        fixed=oracle.n_states)
    trials, _ = run_size(trials, "trials", 0)
    s = qcore.uniform_superposition(oracle.n_qubits)
    rates = []
    for k in range(k_max + 1):
        if k:
            s = grover_iterate(oracle, s)
        p = qcore.probabilities(s)
        counts = rng.multinomial(trials, p / p.sum())
        rates.append(float(counts[oracle.mask].sum() / trials))
    return rates
