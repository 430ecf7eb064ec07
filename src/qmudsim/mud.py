"""Multi-user detection layer.

Maps the 2^K bipolar hypothesis vectors onto register indices, scores them
with the chip-level maximum-likelihood cost, and detects with three receivers:
the matched-filter slicer, exhaustive maximum-likelihood search, and the
quantum-assisted detector that drives the threshold maximum search over a
K-qubit register.  A Monte-Carlo harness sweeps bit error rate against
Eb/N0 while accounting cost-function evaluations and oracle queries.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import cdma, qsearch
from .cdma import CdmaScenario, ChannelState, ReceivedFrame
from .errors import ConfigError, SizeError, as_count, as_indices, run_size

EXHAUSTIVE_K_LIMIT = 20

DETECTORS = ("mf", "ml_exhaustive", "qmud")


def bits_from_index(m: int, k_users: int) -> np.ndarray:
    """±1 vector for hypothesis index m.

    Bit k of m is 0 exactly when user k sent +1 (little-endian, user k on
    bit k), matching the register convention of the quantum modules.  m
    and k_users that are not integers >= 0 raise ConfigError, and
    m >= 2^K raises ValueError.
    """
    m = as_count(m, "index", 0)
    k_users = as_count(k_users, "k_users", 0)
    if m >= 1 << k_users:
        raise ValueError(f"index {m} outside [0, {1 << k_users})")
    return _index_bits(m, k_users)


def _index_bits(m, k_users: int) -> np.ndarray:
    """(..., K) int8 bits_from_index rows of the unchecked index array m."""
    set_bits = (np.asarray(m)[..., None] >> np.arange(k_users)) & 1
    return (1 - 2 * set_bits).astype(np.int8)


@functools.lru_cache(maxsize=None)
def all_bit_vectors(k_users: int) -> np.ndarray:
    """(2^K, K) float matrix whose row m is bits_from_index(m, K).

    Cached per K and read-only; the cost tables ask for at most ⌈K/2⌉ bits,
    so the cache holds small arrays.
    """
    bits = _index_bits(np.arange(1 << k_users), k_users).astype(float)
    bits.setflags(write=False)
    return bits


class CostFunction:
    """Score map over hypothesis indices; higher means more likely.

    Holds a read-only float copy of the scores of all 2^K indices of one
    table or a (..., 2^K) stack, so later writes to the caller's array do
    not reach it; K is read from the last axis's length, which must be a
    power of 2 (ShapeError), and a non-finite score raises ValueError.
    `table` returns the scores without touching the counter, so
    quantum-detector reports count oracles (one per threshold round)
    instead.  `evaluate` reads scores from every table and counts one
    evaluation per index read.
    """

    def __init__(self, table):
        table = np.array(table, dtype=float)
        self.k_users = qsearch.score_bits(table)
        table.setflags(write=False)
        self._table = table
        self.evaluations = 0

    def evaluate(self, m):
        """Scores of index m or an index array in every table; counted."""
        m = as_indices(m, self._table.shape[-1], "index")
        self.evaluations += m.size
        return self._table[..., m]

    def table(self) -> np.ndarray:
        return self._table


@dataclass(frozen=True, eq=False)
class DetectionReport:
    """Detection outcomes of (..., K) bits with their work accounting; the
    counters and `correct` are arrays of the leading shape, 0-d for one.

    `cf_evaluations` is the exact evaluation count for classical detectors
    and the number of oracles compiled from the table (one per threshold
    round) for the quantum-assisted detector; `grover_queries` is 0 for
    classical detectors.  `correct` is None without the true bits.
    """

    detected_bits: np.ndarray
    cf_evaluations: np.ndarray
    grover_queries: np.ndarray
    correct: Optional[np.ndarray] = None


def make_mls_cost(frame: ReceivedFrame, scenario: CdmaScenario,
                  channel: ChannelState) -> CostFunction:
    """Maximum-likelihood cost function of frames: the mls_tables scores."""
    return CostFunction(mls_tables(frame, scenario, channel))


def mls_tables(frame: ReceivedFrame, scenario: CdmaScenario,
               channel: ChannelState) -> np.ndarray:
    """Maximum-likelihood scores under white Gaussian chip noise, (..., 2^K)
    for frames of shape (..., N_c) and channels of shape (..., K): hypothesis
    m scores −‖r − ŝ_m‖² against its noiseless chip-level reconstruction ŝ_m,
    a strictly increasing transform of the log-likelihood.

    Each table is built in closed form, not from 2^K images: the previous
    bits' spill-in is subtracted once, giving the spill-free window r′ = r −
    Σ_k a_k·p_k·spill_k, and every score is the quadratic form of
    _split_half_scores in the users' rows a_k·current_k (..., K, 2·N_c) and
    the target r′ (..., 2·N_c), both stacked as real [Re | Im].  Leading
    axes broadcast the way synthesize_received and matched_filter_bank do:
    the rows take the targets' leading shape, to which frames and channels
    broadcast.
    """
    current, spill = cdma.delay_aligned(scenario, channel.delay)
    gains = channel.gains
    target = frame.samples - ((gains * frame.prev_bits)[..., None, :]
                              @ spill)[..., 0, :]
    rows = np.multiply(gains[..., None], current, out=np.empty(
        target.shape[:-1] + current.shape[-2:], complex))
    return _split_half_scores(
        np.concatenate((rows.real, rows.imag), axis=-1),
        np.concatenate((target.real, target.imag), axis=-1))


@functools.lru_cache(maxsize=None)
def _half_features(c: int) -> np.ndarray:
    """(c + c², 2^c) read-only matrix whose column m is [b ; vec(b·bᵀ)] for
    b = bits_from_index(m, c), so that [2z ; −vec(G)]ᵀ times it gives
    2·b·z − bᵀGb for every b with one GEMM."""
    bits = all_bit_vectors(c)
    outer = (bits[:, :, None] * bits[:, None, :]).reshape(len(bits), -1)
    features = np.concatenate((bits, outer), axis=1).T.copy()
    features.setflags(write=False)
    return features


def _split_half_scores(rows: np.ndarray, target: np.ndarray) -> np.ndarray:
    """−‖target − bᵀ·rows‖² for every b = bits_from_index(m, K), in index
    order, per leading index of the (..., K, D) rows and (..., D) targets.

    Expanded as 2·b·z − bᵀGb − ‖target‖² with z = rows·target and G =
    rows·rowsᵀ.  The users split into the low c = ⌈K/2⌉ bits of m and the
    high K − c, so with m = hi·2^c + lo the table is s_lo[lo] + s_hi[hi] −
    2·(B_hi·G_hl·B_loᵀ)[hi, lo] − ‖target‖²: one (2^(K−c), 2^c) GEMM per
    table.  Each half's scores s = 2·b·z − bᵀGb come from one flat GEMM over
    all leading indices, [2z ; −vec(G)] times the cached _half_features of
    that half, whose O(2^c·c²) memory is 0.9 MB at c = 10 and is held once
    per c for the process.  Besides the 2^K scores each table holds
    O(2^c·K) memory; no (2^K, K) bit matrix and no 2^K images are formed.
    """
    k = rows.shape[-2]
    c = (k + 1) // 2
    z = (rows @ target[..., None])[..., 0]
    lead = z.shape[:-1]
    gram = rows @ np.swapaxes(rows, -1, -2)

    def half_scores(users):
        n = users.stop - users.start
        weights = np.concatenate(
            (2.0 * z[..., users],
             -gram[..., users, users].reshape(lead + (n * n,))), axis=-1)
        return (weights.reshape(math.prod(lead), n + n * n)
                @ _half_features(n)).reshape(lead + (1 << n,))

    table = ((all_bit_vectors(k - c) @ (-2.0 * gram[..., c:, :c]))
             @ all_bit_vectors(c).T)
    table += half_scores(slice(0, c))[..., None, :]
    table += (half_scores(slice(c, k))
              - (target[..., None, :] @ target[..., None])[..., 0])[..., None]
    return table.reshape(table.shape[:-2] + (-1,))


# ---------------------------------------------------------------------------
# Detectors.

def mf_detect(y: np.ndarray, channel: ChannelState,
              true_bits=None) -> DetectionReport:
    """Per-user slicer on phase-derotated (..., K) outputs; 0 slices to +1."""
    metric = np.real(np.conj(channel.gains) * y)
    detected = np.where(metric < 0, -1, 1).astype(np.int8)
    zeros = np.zeros(detected.shape[:-1], np.int64)
    return DetectionReport(detected, zeros, zeros,
                           _correct(detected, true_bits))


def exhaustive_ml_detect(cf: CostFunction, true_bits=None) -> DetectionReport:
    """Evaluate every hypothesis of each table; first index wins ties."""
    if cf.k_users > EXHAUSTIVE_K_LIMIT:
        raise SizeError(f"exhaustive search capped at K={EXHAUSTIVE_K_LIMIT}")
    scores = cf.evaluate(np.arange(1 << cf.k_users))
    detected = _index_bits(scores.argmax(axis=-1), cf.k_users)
    counts = np.full(scores.shape[:-1], scores.shape[-1])
    return DetectionReport(detected, counts, 0 * counts,
                           _correct(detected, true_bits))


def qmud_detect(cf: CostFunction, rng: np.random.Generator,
                true_bits=None) -> DetectionReport:
    """Quantum-assisted detection via threshold maximum search.

    The K-qubit register holds all 2^K hypotheses at once; each threshold
    round compiles the score table into one oracle (counted once per round
    in cf_evaluations) and the randomized search amplifies the hypotheses
    ahead of the incumbent.  One qsearch.maximum_search call runs those
    rounds in rank space, for every table of the stack; ties go to the
    lower index, as in exhaustive_ml_detect.  Returns the incumbent even
    when the final rounds exhaust their budgets.
    """
    rep = qsearch.maximum_search(cf.table(), rng)
    detected = _index_bits(rep.found, cf.k_users)
    return DetectionReport(detected, rep.iterations_used, rep.grover_queries,
                           _correct(detected, true_bits))


def _correct(detected: np.ndarray, true_bits):
    if true_bits is None:
        return None
    return (detected == np.asarray(true_bits)).all(axis=-1)


# ---------------------------------------------------------------------------
# Monte-Carlo BER harness.

@dataclass(frozen=True)
class BerPoint:
    ebn0_db: float
    ber: float
    trials: int
    mean_cf_evaluations: float
    mean_grover_queries: float


@dataclass(frozen=True)
class BerCurve:
    """Swept detector performance; serializes to a flat CSV."""

    detector: str
    points: tuple

    CSV_HEADER = ("ebn0_db", "ber", "trials", "mean_cf_evals",
                  "mean_grover_queries")

    def write_csv(self, fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(self.CSV_HEADER)
        for p in self.points:
            writer.writerow([repr(float(p.ebn0_db)), repr(float(p.ber)),
                             p.trials, repr(float(p.mean_cf_evaluations)),
                             repr(float(p.mean_grover_queries))])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            self.write_csv(fh)


def _detections(detector: str, scenario: CdmaScenario, noise_variance: float,
                trials: int, chunk: int, rng: np.random.Generator):
    """(true bits, DetectionReport) of each chunk of one ber_sweep point's
    trials, in trial order, drawn from rng at the point's noise_variance.
    ber_sweep's chunk depends on K and N_c alone, so every detector reads
    the same frames; qmud's searches draw from rng.spawn(1)[0], which leaves
    rng's stream as it is."""
    search_rng = rng.spawn(1)[0]
    for start in range(0, trials, chunk):
        channel, bits, frame = cdma.draw_trials(
            scenario, noise_variance, min(chunk, trials - start), rng)
        if detector == "mf":
            report = mf_detect(
                cdma.matched_filter_bank(frame, scenario, channel), channel)
        elif detector == "ml_exhaustive":
            report = exhaustive_ml_detect(
                make_mls_cost(frame, scenario, channel))
        else:
            report = qmud_detect(make_mls_cost(frame, scenario, channel),
                                 search_rng)
        del channel, frame  # so the next draw holds one chunk, not two
        yield bits, report


def ber_sweep(scenario: CdmaScenario, detector: str, ebn0_db_list,
              trials: int, rng: np.random.Generator,
              trace_fh=None) -> BerCurve:
    """Monte-Carlo bit-error-rate sweep for one detector.

    The scenario fixes the uplink and each Eb/N0 point its noise variance
    (ebn0_db_to_noise_variance).  Per point: draw each trial's channel,
    current and previous bits, and noise at that variance; detect them
    chunk by chunk (_detections); sum bit errors over K·trials bits and the
    work counters.  Deterministic under the passed rng.  trace_fh, when
    given, receives one JSON line per trial.  An unknown detector, a K
    above EXHAUSTIVE_K_LIMIT for the table detectors, an empty or bad Eb/N0
    list and trials that errors.run_size refuses raise ConfigError before
    any trial runs.
    """
    if detector not in DETECTORS:
        raise ConfigError(f"detector must be one of {DETECTORS}")
    k = scenario.k_users
    if detector != "mf" and k > EXHAUSTIVE_K_LIMIT:
        raise ConfigError(f"detector {detector} supports at most "
                          f"k_users = {EXHAUSTIVE_K_LIMIT}")
    ebn0_db_list = list(ebn0_db_list)
    if not ebn0_db_list:
        raise ConfigError("ebn0_db_list is empty")
    # convert every point first, so a bad Eb/N0 fails before any trial runs
    sigma2_list = [cdma.ebn0_db_to_noise_variance(e) for e in ebn0_db_list]
    # a trial holds K·N_c chips or 2^K scores, whatever the detector, so all
    # see the same frames; its work is 128 + K·N_c units, + 2^K/4 for tables
    chips = k * scenario.n_chips
    scores = max(1 << k, chips)
    work = 128 + chips + (0 if detector == "mf" else (1 << k) // 4)
    trials, chunk = run_size(trials, "trials", len(sigma2_list) * work, scores)
    points = []
    point_rngs = rng.spawn(len(ebn0_db_list))
    for ebn0_db, sigma2, point_rng in zip(ebn0_db_list, sigma2_list,
                                          point_rngs):
        bit_errors = cf_total = grover_total = trial = 0
        for bits, report in _detections(detector, scenario, sigma2, trials,
                                        chunk, point_rng):
            errors = (report.detected_bits != bits).sum(axis=-1)
            bit_errors += int(errors.sum())
            cf_total += int(report.cf_evaluations.sum())
            grover_total += int(report.grover_queries.sum())
            if trace_fh is not None:
                columns = (bits, report.detected_bits, errors,
                           report.cf_evaluations, report.grover_queries)
                for i, row in enumerate(zip(*(c.tolist() for c in columns))):
                    trace_fh.write(json.dumps(dict(zip(
                        ("ebn0_db", "trial", "true_bits", "detected_bits",
                         "bit_errors", "cf_evaluations", "grover_queries"),
                        (float(ebn0_db), trial + i) + row))) + "\n")
            trial += len(bits)
        points.append(BerPoint(ebn0_db=float(ebn0_db),
                               ber=bit_errors / (k * trials),
                               trials=trials,
                               mean_cf_evaluations=cf_total / trials,
                               mean_grover_queries=grover_total / trials))
    return BerCurve(detector=detector, points=tuple(points))


def analytic_bpsk_ber(ebn0_db: float) -> float:
    """Textbook coherent BPSK error rate Q(sqrt(2·Eb/N0))."""
    gamma = 10.0 ** (ebn0_db / 10.0)
    return 0.5 * math.erfc(math.sqrt(gamma))


@dataclass(frozen=True)
class AgreementResult:
    """Quantum-assisted vs exhaustive detection over random instances."""

    k_users: int
    trials: int
    agreement: float
    mean_grover_queries: float
    mean_verification_queries: float
    mean_threshold_rounds: float
    exhaustive_evaluations: int


def qmud_agreement(k_users: int, trials: int,
                   rng: np.random.Generator) -> AgreementResult:
    """Fraction of random K-user instances where the quantum-assisted
    detector lands on the exhaustive argmax, with its mean work counters.

    Under the one search order (see qsearch) the 2^K indices of any table
    map one-to-one onto the ranks 0..2^K−1, so a uniform first incumbent has
    a uniform first rank, and each threshold round depends on the rank
    alone.  Agreement and counters therefore depend on K only, and no
    channel, frame or table is drawn: one rng.integers call draws the first
    ranks of a batch of trials (errors.run_size), one
    qsearch.threshold_search call runs them, and a trial agrees when its
    search ends on rank 0.  k_users not in [1, EXHAUSTIVE_K_LIMIT] and
    trials that errors.run_size refuses raise ConfigError before any draw.
    """
    k = as_count(k_users, "k_users", 1)
    if k > EXHAUSTIVE_K_LIMIT:
        raise ConfigError(f"k_users must be in [1, {EXHAUSTIVE_K_LIMIT}], "
                          f"got {k}")
    trials, batch = run_size(trials, "trials", 32 + (1 << k // 2) // 4)
    agree = grover_total = verify_total = rounds_total = 0
    for start in range(0, trials, batch):
        first = rng.integers(0, 1 << k, size=min(batch, trials - start))
        final, queries, verifications, rounds = qsearch.threshold_search(
            first, 1 << k, rng)
        agree += int(np.count_nonzero(final == 0))
        grover_total += int(queries.sum())
        verify_total += int(verifications.sum())
        rounds_total += int(rounds.sum())
    return AgreementResult(k_users=k, trials=trials,
                           agreement=agree / trials,
                           mean_grover_queries=grover_total / trials,
                           mean_verification_queries=verify_total / trials,
                           mean_threshold_rounds=rounds_total / trials,
                           exhaustive_evaluations=1 << k)
