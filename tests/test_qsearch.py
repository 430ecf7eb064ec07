"""Grover-family search: amplification step, schedules, query accounting.

`reference_bbht_search` is the randomized search evolved on a state vector,
one `grover_iterate` per oracle query; `qsearch.bbht_search` samples the
same measurement from its closed form and is tested against it.
`scalar_bbht_search` samples the closed form one BBHT round per loop step;
`qsearch.bbht_ranks`, which runs many searches in lock-step, is tested
against it.
`reference_maximum_search` is the threshold loop on one table, a
`MarkingOracle` of the entries ahead of the incumbent per round searched by
`reference_bbht_search`; `qsearch.maximum_search`, which runs the rounds in
rank space, is tested against it.  `reference_threshold_search` runs the
rank-space searches one BBHT round per loop step; `qsearch.threshold_search`,
which runs every level of each search's descent at once and a block of
rounds per step, is tested against it.  `reference_existence_test` runs one
`bbht_search` per confidence round; `qsearch.existence_test`, which runs its
rounds as one lock-step job, is tested against it.
`reference_success_rate` measures a fresh register after k steps;
`qsearch.measured_success_curve`, which measures one register after each
step, is tested against it.  `rank` defines the search order that every
maximum search follows.
"""

import functools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from qmudsim import cli, config, mud, qchannel, qcore, qsearch
from qmudsim.cdma import make_scenario
from qmudsim.errors import ConfigError, ShapeError, SizeError, as_indices

# Fixed-seed equivalence tests reject at this p-value.
EQUIVALENCE_ALPHA = 1e-3


def oracle_marking(n_qubits, indices):
    return qsearch.MarkingOracle(
        np.isin(np.arange(1 << n_qubits), list(indices)))


def rank(tables, index):
    """Number of entries ahead of `index` in each of the (..., N) tables:
    higher scores, and equal scores at lower indices.  This is the search
    order of every maximum search; rank 0 is the maximum np.argmax picks,
    and the order maps the N indices one-to-one onto the ranks 0..N-1.  An
    index array not of the tables' leading shape raises ShapeError, and an
    index that is not an integer in [0, N) raises ValueError."""
    tables, index = np.asarray(tables), np.asarray(index)
    if not tables.ndim or index.shape != tables.shape[:-1]:
        raise ShapeError(f"index shape {index.shape}, tables {tables.shape}")
    index = as_indices(index, tables.shape[-1], "index")[..., None]
    score = np.take_along_axis(tables, index, axis=-1)
    return np.count_nonzero(np.where(np.arange(tables.shape[-1]) < index,
                                     tables >= score, tables > score), axis=-1)


def reference_bbht_search(oracle, rng, cfg=qsearch.DEFAULT_CONFIG):
    """State-vector BBHT: the schedule of qsearch.bbht_search, with each
    round's j steps applied to a register and the outcome measured from it."""
    n_states = oracle.n_states
    sqrt_n = math.sqrt(n_states)
    budget = math.ceil(cfg.budget_factor * sqrt_n)
    g0, v0 = oracle.query_count, oracle.verification_count
    uniform = qcore.uniform_superposition(oracle.n_qubits)

    def report(found):
        return qsearch.SearchReport(
            found=found,
            grover_queries=oracle.query_count - g0,
            verification_queries=oracle.verification_count - v0)

    m = 1.0
    used = 0
    while True:
        j = int(rng.integers(0, math.ceil(m)))
        j = min(j, budget - used)
        s = uniform
        for _ in range(j):
            s = qsearch.grover_iterate(oracle, s)
        used += j
        outcome = qcore.measure(s, rng).outcome
        if oracle.verify(outcome):
            return report(outcome)
        if used >= budget:
            return report(None)
        m = min(cfg.growth_factor * m, sqrt_n)


# Rounds whose uniforms scalar_bbht_search draws with one rng.random call.
ROUND_BLOCK = 16


def scalar_bbht_search(oracle, rng):
    """The closed-form BBHT search as a scalar loop over its rounds, drawing
    the (u_steps, u_hit) pairs of ROUND_BLOCK rounds with one rng.random
    call and discarding those left when it stops."""
    caps, budget = qsearch._schedule(oracle.n_states, qsearch.DEFAULT_CONFIG)
    g0, v0 = oracle.query_count, oracle.verification_count
    marked = oracle.marked_indices()
    theta = math.asin(math.sqrt(marked.size / oracle.n_states))

    def round_uniforms():
        while True:
            yield from rng.random((ROUND_BLOCK, 2)).tolist()

    found = None
    used = 0
    for t, (u_steps, u_hit) in enumerate(round_uniforms()):
        j = min(int(u_steps * caps[min(t, len(caps) - 1)]), budget - used)
        oracle.query_count += j
        used += j
        p_hit = math.sin((2 * j + 1) * theta) ** 2
        if u_hit < p_hit:
            # given a hit, u_hit / p_hit is uniform on [0, 1)
            found = int(marked[int(u_hit / p_hit * marked.size)])
            oracle.verify(found)
            break
        # a miss fails its verification on some unmarked index
        oracle.verification_count += 1
        if used >= budget:
            break
    return qsearch.SearchReport(
        found=found, grover_queries=oracle.query_count - g0,
        verification_queries=oracle.verification_count - v0)


def reference_maximum_search(table, rng, search=reference_bbht_search):
    """The threshold loop on one table.  Keeps an incumbent seeded from one
    random sample; each round marks the entries ahead of it (rank's
    order) in a MarkingOracle and runs `search` on it under
    MAXIMUM_SEARCH_CONFIG.  Every verified hit becomes the incumbent, and
    max_failures failed rounds in a row stop the search.  Returns the
    incumbent, queries, verifications and rounds, as maximum_search does
    for one table."""
    cfg = qsearch.MAXIMUM_SEARCH_CONFIG
    table = np.asarray(table, dtype=float)
    incumbent = int(rng.integers(0, table.size))
    queries = verifications = rounds = failures = 0
    while failures < cfg.max_failures:
        if failures == 0:
            score = table[incumbent]
            ahead = table > score
            ahead[:incumbent] = table[:incumbent] >= score
            oracle = qsearch.MarkingOracle(ahead)
        rounds += 1
        rep = search(oracle, rng, cfg)
        queries += rep.grover_queries
        verifications += rep.verification_queries
        if rep.succeeded:
            incumbent, failures = rep.found, 0
        else:
            failures += 1
    return incumbent, queries, verifications, rounds


def reference_threshold_search(first_ranks, n_states, rng):
    """qsearch.threshold_search advanced one BBHT round per loop step: every
    unfinished search draws one (u_steps, u_hit) pair per step, so a
    search's verifications are the steps it ran."""
    cfg = qsearch.MAXIMUM_SEARCH_CONFIG
    first = np.array(first_ranks, dtype=np.int64)
    caps, budget = qsearch._schedule(n_states, cfg)
    caps = np.array(caps)  # take(..., mode="clip") serves later rounds
    two_theta = 2.0 * np.arcsin(np.sqrt(np.arange(n_states) / n_states))

    # one column per unfinished search; rows: M, rounds since the
    # (re)start, queries spent since it, failures in a row, queries,
    # threshold rounds, verifications (set when it stops) and its index
    state = np.zeros((8, first.size), dtype=np.int64)
    state[0] = first
    state[7] = np.arange(first.size)
    finished = []
    step = 0
    marked, t, used, failures, spent, ended = state[:6]
    while state.shape[1]:
        step += 1
        u_steps, u_hit = rng.random((state.shape[1], 2)).T
        j = (u_steps * caps.take(t, mode="clip")).astype(np.int64)
        np.minimum(j, budget - used, out=j)
        used += j
        spent += j
        p_hit = np.sin((j + 0.5) * two_theta[marked]) ** 2
        hit = u_hit < p_hit
        np.divide(u_hit, p_hit, out=u_steps, where=hit)
        u_steps *= marked
        np.copyto(marked, u_steps, casting="unsafe", where=hit)
        over = used >= budget
        failures[hit.nonzero()[0]] = 0
        failures += over > hit
        restart = (over | hit).nonzero()[0]
        ended[restart] += 1
        t += 1
        t[restart] = 0
        used[restart] = 0
        done = failures >= cfg.max_failures
        if done.any():
            state[6, done] = step
            finished.append(state[:, done])
            state = state[:, ~done]
            marked, t, used, failures, spent, ended = state[:6]
    stopped = np.concatenate(finished or [state], axis=1)
    results = np.empty_like(stopped)
    results[:, stopped[7]] = stopped
    return results[0], results[4], results[6], results[5]


@functools.lru_cache(maxsize=None)
def exact_maximum_search(n_states):
    """Exact means of maximum_search on a table of n_states distinct scores:
    agreement (the chance it ends on the maximum), oracle queries,
    verifications and threshold rounds.

    With distinct scores a search depends only on M, the number of entries
    above the incumbent, and M starts uniform on 0..N-1.  A dynamic program
    over (schedule step, queries used), vectorised over M, gives for each M
    the chance h that a threshold round hits and the expected queries and
    BBHT rounds (one verification each) that it spends; j = 0 misses at the
    last schedule step, which return to the same state, are summed as a
    geometric series.  From M the search runs 1 + g + g² rounds on average
    (g = 1 − h) and leaves on a hit with chance 1 − g³, landing uniformly on
    0..M-1, so a prefix sum over M gives the totals.
    """
    cfg = qsearch.MAXIMUM_SEARCH_CONFIG
    sqrt_n = math.sqrt(n_states)
    budget = math.ceil(cfg.budget_factor * sqrt_n)
    caps = [1]
    m = 1.0
    while m < sqrt_n:
        m = min(cfg.growth_factor * m, sqrt_n)
        caps.append(math.ceil(m))
    last = len(caps) - 1
    theta = np.arcsin(np.sqrt(np.arange(n_states) / n_states))
    p_hit = np.sin(np.outer(2 * np.arange(max(caps) + 1) + 1, theta)) ** 2
    # reach[t, used]: chance of starting a BBHT round at schedule step t
    # with `used` queries spent in this threshold round, per M
    reach = np.zeros((last + 1, budget, n_states))
    reach[0, 0] = 1.0
    hit = np.zeros(n_states)
    queries = np.zeros(n_states)
    bbht_rounds = np.zeros(n_states)
    for used in range(budget):
        for t, cap in enumerate(caps):
            visits = reach[t, used]
            if t == last:
                visits = visits / (1 - (1 - p_hit[0]) / cap)
            bbht_rounds += visits
            for drawn in range(cap):
                j = min(drawn, budget - used)
                hit += visits * p_hit[j] / cap
                queries += visits * j / cap
                if used + j < budget and (t, j) != (last, 0):
                    reach[min(t + 1, last), used + j] += (
                        visits * (1 - p_hit[j]) / cap)
    stop = (1 - hit) ** cfg.max_failures
    rounds_here = sum((1 - hit) ** f for f in range(cfg.max_failures))
    # rows: agreement, queries, verifications, threshold rounds
    cost = rounds_here * np.stack([np.zeros(n_states), queries, bbht_rounds,
                                   np.ones(n_states)])
    totals = np.zeros((4, n_states))
    below = np.zeros(4)
    for marked in range(n_states):
        totals[:, marked] = cost[:, marked]
        if marked == 0:
            totals[0, 0] = 1.0
        else:
            totals[:, marked] += (1 - stop[marked]) * below / marked
        below += totals[:, marked]
    return dict(zip(("agreement", "queries", "verifications", "rounds"),
                    totals.mean(axis=1)))


def assert_matches_exact(n_states, final_ranks, queries, verifications,
                         rounds):
    """Agreement by an exact binomial test, the mean counters by z-tests
    with the sample's standard error, against exact_maximum_search."""
    exact = exact_maximum_search(n_states)
    final_ranks = np.asarray(final_ranks)
    misses = int(np.count_nonzero(final_ranks != 0))
    p = stats.binomtest(misses, final_ranks.size,
                        1 - exact["agreement"]).pvalue
    assert p > EQUIVALENCE_ALPHA, "agreement"
    for field, sample in (("queries", queries),
                          ("verifications", verifications),
                          ("rounds", rounds)):
        sample = np.asarray(sample, dtype=float)
        z = ((sample.mean() - exact[field])
             / (sample.std(ddof=1) / math.sqrt(sample.size)))
        assert 2 * stats.norm.sf(abs(z)) > EQUIVALENCE_ALPHA, (field, z)


def homogeneity_p(a, b, min_count=10):
    """Chi-square p-value that two samples of discrete outcomes share one
    distribution.  Outcomes seen fewer than min_count times in the two
    samples together are pooled into one category."""
    ca, cb = Counter(a), Counter(b)
    total = ca + cb
    common = [o for o in total if total[o] >= min_count]
    rare = [o for o in total if total[o] < min_count]
    rows = np.array([[c[o] for o in common] + [sum(c[o] for o in rare)]
                     for c in (ca, cb)])
    rows = rows[:, rows.sum(axis=0) > 0]
    if rows.shape[1] < 2:
        return 1.0
    return stats.chi2_contingency(rows).pvalue


class TestGroverIterate:
    def test_single_step_n4_matches_dense_oracle(self):
        # Independent oracle: build the flip and reflection as explicit
        # matrices and apply them to the uniform state.
        flip = np.diag([1.0, 1.0, -1.0, 1.0])
        reflect = np.full((4, 4), 0.5) - np.eye(4)
        u = np.full(4, 0.5)
        expected = reflect @ flip @ u

        out = qsearch.grover_iterate(oracle_marking(2, [2]),
                                     qcore.uniform_superposition(2))
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)
        np.testing.assert_allclose(out.amplitudes[2], 1.0, atol=1e-12)

    def test_empty_oracle_fixes_uniform(self):
        s = qcore.uniform_superposition(3)
        out = qsearch.grover_iterate(oracle_marking(3, []), s)
        np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-12)

    def test_full_oracle_changes_nothing_observable(self):
        s = qcore.uniform_superposition(3)
        out = qsearch.grover_iterate(oracle_marking(3, range(8)), s)
        np.testing.assert_allclose(qcore.probabilities(out),
                                   qcore.probabilities(s), atol=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ShapeError):
            qsearch.grover_iterate(oracle_marking(3, [0]),
                                   qcore.uniform_superposition(2))

    def test_query_counter_exact(self):
        oracle = oracle_marking(4, [3])
        s = qcore.uniform_superposition(4)
        for expected_count in range(1, 8):
            s = qsearch.grover_iterate(oracle, s)
            assert oracle.query_count == expected_count


class TestClosedForms:
    def test_optimal_iterations(self):
        assert qsearch.optimal_iterations(4, 1) == 1
        assert qsearch.optimal_iterations(8, 1) == 2
        assert qsearch.optimal_iterations(1024, 1) == 25
        assert qsearch.optimal_iterations(4, 4) == 0

    def test_success_probability_formula(self):
        theta = math.asin(math.sqrt(1 / 8))
        assert qsearch.success_probability(8, 1, 2) == pytest.approx(
            math.sin(5 * theta) ** 2)
        assert qsearch.success_probability(4, 1, 1) == pytest.approx(1.0)
        assert qsearch.success_probability(64, 0, 3) == 0.0

    @pytest.mark.parametrize("formula, args", [
        pytest.param(qsearch.optimal_iterations, (64, 0), id="optimal-M0"),
        pytest.param(qsearch.optimal_iterations, (64, 65), id="optimal-M>N"),
        pytest.param(qsearch.optimal_iterations, (0, 0), id="optimal-N0"),
        pytest.param(qsearch.optimal_iterations, (64.0, 1),
                     id="optimal-float-N"),
        pytest.param(qsearch.optimal_iterations, (64, 1.5),
                     id="optimal-float-M"),
        pytest.param(qsearch.success_probability, (64, 65, 1),
                     id="success-M>N"),
        pytest.param(qsearch.success_probability, (64, -1, 1),
                     id="success-M<0"),
        pytest.param(qsearch.success_probability, (0, 0, 0), id="success-N0"),
        pytest.param(qsearch.success_probability, (64, 1, -1),
                     id="success-k<0"),
        pytest.param(qsearch.success_probability, (64, 1, 2.5),
                     id="success-float-k"),
    ])
    def test_bad_counts_rejected(self, formula, args):
        # these used to raise ZeroDivisionError or a math domain ValueError
        with pytest.raises(ConfigError):
            formula(*args)


class TestGroverSearch:
    def test_n4_always_succeeds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            rep = qsearch.grover_search(oracle_marking(2, [2]), 1, rng)
            assert rep.succeeded and rep.found == 2
            assert rep.grover_queries == 1
            assert rep.verification_queries == 1

    def test_n8_success_rate_matches_formula(self):
        rng = np.random.default_rng(5)
        hits = sum(qsearch.grover_search(oracle_marking(3, [6]), 1, rng).succeeded
                   for _ in range(4000))
        predicted = qsearch.success_probability(8, 1, 2)
        assert predicted == pytest.approx(0.9453, abs=1e-3)
        assert abs(hits / 4000 - predicted) < 0.025

    def test_n1024_high_success_with_25_iterations(self):
        rng = np.random.default_rng(8)
        oracle = oracle_marking(10, [777])
        rate = qsearch.measured_success_curve(oracle, 25, 4000, rng)[25]
        assert qsearch.success_probability(1024, 1, 25) > 0.999
        assert rate > 0.995

    def test_m_known_out_of_range(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            qsearch.grover_search(oracle_marking(2, [0]), 0, rng)
        with pytest.raises(ValueError):
            qsearch.grover_search(oracle_marking(2, [0]), 5, rng)


class TestBbhtSearch:
    def test_everything_marked_verifies_immediately(self):
        rng = np.random.default_rng(1)
        rep = qsearch.bbht_search(oracle_marking(4, range(16)), rng)
        assert rep.succeeded
        assert rep.grover_queries == 0
        assert rep.verification_queries == 1

    def test_nothing_marked_gives_up_within_budget(self):
        rng = np.random.default_rng(2)
        rep = qsearch.bbht_search(oracle_marking(6, []), rng)
        assert not rep.succeeded
        assert rep.found is None
        assert rep.grover_queries <= 32  # 4·√N at N = 64

    def test_mean_queries_n16_m4(self):
        rng = np.random.default_rng(3)
        total = 0
        for _ in range(10000):
            oracle = oracle_marking(4, [1, 5, 9, 13])
            total += qsearch.bbht_search(oracle, rng).grover_queries
        assert total / 10000 <= 4.5 * math.sqrt(16 / 4)

    def test_success_implies_verified_hit(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(3, 7))
            mask = rng.random(1 << n) < 0.1
            oracle = qsearch.MarkingOracle(mask)
            rep = qsearch.bbht_search(oracle, rng)
            if rep.succeeded:
                assert mask[rep.found]
            else:
                assert not mask.any() or rep.grover_queries > 0

    def test_nothing_marked_spends_exactly_the_budget(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            oracle = oracle_marking(6, [])
            rep = qsearch.bbht_search(oracle, rng)
            assert not rep.succeeded and rep.found is None
            assert rep.grover_queries == math.ceil(4.0 * 8) == oracle.query_count
            assert rep.verification_queries == oracle.verification_count

    def test_everything_marked_hits_in_round_one(self):
        rng = np.random.default_rng(18)
        for n_qubits in range(1, 11):
            rep = qsearch.bbht_search(oracle_marking(n_qubits, range(1 << n_qubits)),
                                      rng)
            assert rep.succeeded and 0 <= rep.found < 1 << n_qubits
            assert (rep.grover_queries, rep.verification_queries) == (0, 1)


@pytest.mark.parametrize("n_qubits, n_marked, seed", [
    (4, 0, 101), (6, 1, 102), (8, 1, 103), (5, 7, 104), (4, 16, 105)])
def test_bbht_matches_state_vector_reference(n_qubits, n_marked, seed):
    rng = np.random.default_rng(seed)
    marked = rng.choice(1 << n_qubits, size=n_marked, replace=False)
    new, ref = ([search(oracle_marking(n_qubits, marked), rng)
                 for _ in range(2000)]
                for search in (qsearch.bbht_search, reference_bbht_search))
    for rep in new + ref:
        assert rep.succeeded == (rep.found is not None)
        assert not rep.succeeded or rep.found in marked
    assert homogeneity_p([r.found for r in new],
                         [r.found for r in ref]) > EQUIVALENCE_ALPHA
    assert stats.ks_2samp([r.grover_queries for r in new],
                          [r.grover_queries for r in ref]).pvalue > EQUIVALENCE_ALPHA
    assert homogeneity_p([r.verification_queries for r in new],
                         [r.verification_queries for r in ref]) > EQUIVALENCE_ALPHA


@pytest.mark.parametrize("n_qubits, seed", [(6, 161), (10, 162), (14, 163)])
def test_bbht_ranks_match_scalar_reference(n_qubits, seed):
    n = 1 << n_qubits
    rng = np.random.default_rng(seed)
    for m in (0, 1, 7, n):
        # marking 0..M-1 makes each found index its rank
        oracle = oracle_marking(n_qubits, range(m))
        ref = [scalar_bbht_search(oracle, rng) for _ in range(2000)]
        ref = [[m if r.found is None else r.found for r in ref],
               [r.grover_queries for r in ref],
               [r.verification_queries for r in ref]]
        new = qsearch.bbht_ranks(np.full(2000, m), n, rng)
        for field, a, b in zip(("ranks", "queries", "verifications"),
                               new, ref):
            if field == "ranks" and m > 16:
                # 16 bins of hit ranks, and the give-up rank M as the 17th
                a, b = (np.asarray(r) * 16 // m for r in (a, b))
            assert homogeneity_p(list(a), list(b)) > EQUIVALENCE_ALPHA, (
                m, field)


def test_maximum_search_matches_state_vector_reference():
    rng = np.random.default_rng(106)
    tables = rng.random((1500, 64))
    new = qsearch.maximum_search(tables, rng)
    ref = list(zip(*(reference_maximum_search(t, rng) for t in tables)))
    for found in (new[0], ref[0]):
        agree = np.mean([t[f] == t.max() for t, f in zip(tables, found)])
        assert agree >= 0.99
    for field, a, b in zip(("queries", "verifications", "rounds"), new[1:],
                           ref[1:]):
        assert stats.ks_2samp(a, b).pvalue > EQUIVALENCE_ALPHA, field


def test_exact_reference_matches_criterion_4():
    # K = 10: the exact means, and acceptance criterion 4's bound on them
    exact = exact_maximum_search(1 << 10)
    assert exact["agreement"] == pytest.approx(0.99994, abs=5e-6)
    assert exact["queries"] == pytest.approx(224.31, abs=0.005)
    assert exact["verifications"] == pytest.approx(73.41, abs=0.005)
    assert exact["rounds"] == pytest.approx(9.545, abs=0.0005)
    assert exact["queries"] < 0.25 * (1 << 10)


@pytest.mark.parametrize("k, seed", [(4, 131), (6, 132), (8, 133),
                                     (10, 134)])
def test_threshold_search_matches_exact_means(k, seed):
    n = 1 << k
    rng = np.random.default_rng(seed)
    assert_matches_exact(
        n, *qsearch.threshold_search(rng.integers(0, n, 100_000), n, rng))


@pytest.mark.parametrize("k, seed", [(6, 151), (10, 152)])
def test_threshold_search_matches_per_round_reference(k, seed):
    n = 1 << k
    rng = np.random.default_rng(seed)
    first = rng.integers(0, n, 20_000)
    new = qsearch.threshold_search(first, n, rng)
    ref = reference_threshold_search(first, n, rng)
    for field, a, b in zip(("ranks", "queries", "verifications", "rounds"),
                           new, ref):
        assert homogeneity_p(a, b) > EQUIVALENCE_ALPHA, field


class CountingGenerator:
    """A generator that counts its rng.random calls, and apart those that
    draw a lock-step block: a (2, THRESHOLD_BLOCK, jobs) array, one per
    loop step of the kernel."""

    def __init__(self, rng):
        self.rng = rng
        self.random_calls = 0
        self.block_calls = 0

    def random(self, size=None, *args, **kwargs):
        self.random_calls += 1
        self.block_calls += np.ndim(size) == 1 and len(size) == 3
        return self.rng.random(size, *args, **kwargs)


def test_threshold_search_draws_a_block_of_rounds_per_call():
    # all levels of every descent run at once, so a 200-search K = 10 call
    # takes about as many loop steps as one search's longest level (the
    # three give-ups at rank 0); one level per step took a median of 23,
    # and one BBHT round per step about 120
    rng = np.random.default_rng(153)
    steps = []
    for _ in range(11):
        counting = CountingGenerator(rng)
        qsearch.threshold_search(rng.integers(0, 1024, 200), 1024, counting)
        steps.append(counting.block_calls)
    assert 0 < np.median(steps) <= 8 and max(steps) <= 10, steps


def test_threshold_search_does_not_depend_on_the_call_size():
    # lone searches against one call of 4,096, whose levels (about 21,000
    # jobs at K = 6) wait for a place in the kernel's lock-step width
    n = 1 << 6
    rng = np.random.default_rng(154)
    lone = [qsearch.threshold_search(rng.integers(0, n, 1), n, rng)
            for _ in range(2000)]
    lone = [np.concatenate(field) for field in zip(*lone)]
    shared = qsearch.threshold_search(rng.integers(0, n, 4096), n, rng)
    for field, a, b in zip(("ranks", "queries", "verifications", "rounds"),
                           lone, shared):
        assert homogeneity_p(a, b) > EQUIVALENCE_ALPHA, field


@pytest.mark.parametrize("m, seed", [(1, 155), (3, 156), (64, 157)])
def test_bbht_ranks_hit_ranks_are_uniform(m, seed):
    # a give-up keeps rank M; a hit lands on 0..M-1, each equally likely
    ranks = qsearch.bbht_ranks(np.full(20_000, m), 256,
                               np.random.default_rng(seed))[0]
    assert ((ranks >= 0) & (ranks <= m)).all()
    hits = ranks[ranks < m]
    assert hits.size > 10_000
    if m > 1:
        counts = np.bincount(hits, minlength=m)
        assert stats.chisquare(counts).pvalue > EQUIVALENCE_ALPHA


def test_grover_scaling_draws_do_not_grow_with_trials(monkeypatch, tmp_path):
    # every size runs its trials in lock-step, so 100x the trials take
    # about as many rng.random calls; one search per call would take at
    # least one per trial and size (6,000 here)
    default_rng = np.random.default_rng
    calls = {}
    for trials in (20, 2000):
        rngs = []
        monkeypatch.setattr(np.random, "default_rng", lambda seed: rngs.append(
            CountingGenerator(default_rng(seed))) or rngs[-1])
        assert cli.main(["grover", "--scaling", "--n", "64",
                         "--scaling-max-exp", "8", "--trials", str(trials),
                         "--out", str(tmp_path / "s.csv")]) == 0
        calls[trials] = sum(rng.random_calls for rng in rngs)
    assert 0 < calls[2000] <= 2 * calls[20] < 100


def stable_rank(table, index):
    """Position of index when the table is sorted by descending score, equal
    scores keeping index order: the search order, computed by sorting."""
    return int(np.flatnonzero(np.argsort(-table, kind="stable") == index)[0])


@pytest.mark.parametrize("k, seed, levels", [
    pytest.param(4, 141, None, id="4-141"),
    pytest.param(6, 142, None, id="6-142"),
    pytest.param(8, 143, None, id="8-143"),
    pytest.param(10, 144, None, id="10-144"),
    pytest.param(6, 145, 6, id="tied-6-145")])
def test_maximum_search_matches_exact_means(k, seed, levels):
    # levels=None: distinct scores; otherwise scores in {0..levels-1}, which
    # tie often (about 11 entries per table share the maximum at K = 6), and
    # the search is exact in rank space only under the tie rule
    n = 1 << k
    rng = np.random.default_rng(seed)
    if levels is None:
        tables = rng.permutation(
            np.tile(np.arange(n, dtype=float), (2000, 1)), axis=1)
    else:
        tables = rng.integers(0, levels, (2000, n)).astype(float)
    found, *counters = qsearch.maximum_search(tables, rng)
    final = [stable_rank(t, f) for t, f in zip(tables, found)]
    # rank 0 in this order is np.argmax's index
    np.testing.assert_array_equal(np.equal(final, 0),
                                  found == tables.argmax(axis=1))
    assert_matches_exact(n, final, *counters)


class TestSearchOrder:
    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 8), rows=st.integers(1, 4),
           levels=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_rank_is_the_stable_descending_position(self, k, rows, levels,
                                                    seed):
        rng = np.random.default_rng(seed)
        tables = rng.integers(0, levels, (rows, 1 << k)).astype(float)
        index = rng.integers(0, 1 << k, rows)
        expected = [stable_rank(t, i) for t, i in zip(tables, index)]
        np.testing.assert_array_equal(rank(tables, index), expected)
        # one table and one index
        assert rank(tables[0], int(index[0])) == expected[0]

    @pytest.mark.parametrize("index", [-1, 8, 9, 2.0, True, [3, 8]])
    def test_rank_rejects_indices_that_are_not_entries(self, index):
        # unchecked, -1 would wrap to the last entry and 9 would overflow
        with pytest.raises(ValueError):
            rank(np.arange(16.0).reshape(2, 8), index)

    def test_rounds_mark_the_entries_ahead_of_the_incumbent(self):
        # in the reference loop with every round failing, each of the three
        # rounds marks the entries of lower rank than the first incumbent,
        # the first draw
        table = np.array([3.0, 5.0, 3.0, 5.0, 1.0, 3.0, 5.0, 0.0])
        ranks = np.array([stable_rank(table, i) for i in range(8)])
        masks = []

        def failing(oracle, rng, cfg):
            masks.append(oracle.mask)
            return qsearch.SearchReport(None, 0, 1)

        for seed in range(20):
            first = np.random.default_rng(seed).integers(0, 8)
            masks.clear()
            reference_maximum_search(table, np.random.default_rng(seed),
                                     search=failing)
            assert len(masks) == 3
            for mask in masks:
                np.testing.assert_array_equal(mask, ranks < ranks[first])


class TestThresholdSearch:
    def test_maximum_first_never_hits(self):
        # M = 0 marks nothing: three rounds that each spend the budget
        rng = np.random.default_rng(15)
        ranks, queries, verifications, rounds = qsearch.threshold_search(
            np.zeros(50, dtype=int), 64, rng)
        budget = math.ceil(qsearch.MAXIMUM_SEARCH_CONFIG.budget_factor * 8)
        np.testing.assert_array_equal(ranks, 0)
        np.testing.assert_array_equal(queries, 3 * budget)
        np.testing.assert_array_equal(rounds, 3)
        assert (verifications >= 3).all()

    def test_a_search_ends_at_its_first_level_that_misses(self,
                                                          monkeypatch):
        # a stand-in kernel whose jobs miss at ranks 0, 1, 4, 7, ... and
        # spend 2^M queries at rank M, so that a search's queries are the
        # set of the levels it counted
        def kernel(ranks, n_states, cfg, rng):
            ones = np.ones_like(ranks)
            return (ranks % 3 != 1) & (ranks > 0), 1 << ranks, ones, ones

        monkeypatch.setattr(qsearch, "_lockstep_search", kernel)
        first = np.arange(32).repeat(20)
        final, queries, verifications, rounds = qsearch.threshold_search(
            first, 32, np.random.default_rng(19))
        np.testing.assert_array_equal(verifications, rounds)
        for start, end, spent, counted in zip(first, final, queries, rounds):
            levels = [m for m in range(32) if spent >> m & 1]
            assert (levels[0], levels[-1], len(levels)) == (end, start,
                                                            counted)
            assert end % 3 == 1 or end == 0
            assert all(m % 3 != 1 for m in levels[1:])

    def test_results_follow_the_input_order(self):
        rng = np.random.default_rng(16)
        first = np.array([0, 1023, 0, 511, 0])
        ranks, queries, _, rounds = qsearch.threshold_search(first, 1024, rng)
        assert ranks.shape == queries.shape == rounds.shape == (5,)
        np.testing.assert_array_equal(rounds[first == 0], 3)
        assert (rounds[first != 0] > 3).all()

    def test_empty_input_draws_nothing(self):
        rng = np.random.default_rng(17)
        state = rng.bit_generator.state
        results = qsearch.threshold_search([], 16, rng)
        assert [r.shape for r in results] == [(0,)] * 4
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("first, n_states, error", [
        ([0, 1], 2.5, ConfigError),
        ([0, 1], 0, ConfigError),
        ([0, 16], 16, ValueError),
        ([-1], 16, ValueError),
        ([[0, 1]], 16, ValueError),
        ([0], 1, ConfigError),
        ([0.5, 3.7], 16, ValueError),
        ([0.0, 3.0], 16, ValueError),
        ([True, False], 16, ValueError),
        # 2θ for 2^40 ranks would take 8 TiB
        ([0], (1 << 24) + 1, SizeError),
        ([0], 1 << 40, SizeError),
    ])
    def test_bad_input_rejected_before_any_draw(self, first, n_states, error):
        rng = np.random.default_rng(18)
        state = rng.bit_generator.state
        with pytest.raises(error):
            qsearch.threshold_search(first, n_states, rng)
        assert rng.bit_generator.state == state


class TestBbhtRanks:
    def test_results_follow_the_input_order(self):
        rng = np.random.default_rng(28)
        counts = np.array([0, 1024, 0, 3, 0])
        ranks, queries, verifications = qsearch.bbht_ranks(counts, 1024, rng)
        assert ranks.shape == queries.shape == verifications.shape == (5,)
        # M = 0 gives up after exactly the budget, 4·√N; M = N hits in
        # round one, as the 2θ table reaches M = N
        np.testing.assert_array_equal(ranks[counts == 0], 0)
        np.testing.assert_array_equal(queries[counts == 0], 4 * 32)
        assert ranks[1] < 1024 and (queries[1], verifications[1]) == (0, 1)

    def test_empty_input_draws_nothing(self):
        rng = np.random.default_rng(29)
        state = rng.bit_generator.state
        results = qsearch.bbht_ranks([], 16, rng)
        assert [r.shape for r in results] == [(0,)] * 3
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("counts, n_states, error", [
        ([0, 1], 2.5, ConfigError),
        ([0], 1, ConfigError),
        ([0, 17], 16, ValueError),
        ([-1], 16, ValueError),
        ([[0, 1]], 16, ValueError),
        (3, 16, ValueError),
        ([0.5, 3.7], 16, ValueError),
        ([1.0], 16, ValueError),
        ([True, False], 16, ValueError),
        ([0], (1 << 24) + 1, SizeError),
    ])
    def test_bad_input_rejected_before_any_draw(self, counts, n_states, error):
        rng = np.random.default_rng(30)
        state = rng.bit_generator.state
        with pytest.raises(error):
            qsearch.bbht_ranks(counts, n_states, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("search, values", [
        (qsearch.bbht_ranks, [0, 17]), (qsearch.bbht_ranks, [-1]),
        (qsearch.bbht_ranks, [1.0]), (qsearch.bbht_ranks, [True]),
        (qsearch.threshold_search, [0, 16]),
        (qsearch.threshold_search, [-1]),
        (qsearch.threshold_search, [0.5])])
    def test_entries_outside_their_range_are_config_errors(self, search,
                                                           values):
        # counts and first ranks are caller input, which the CLI answers
        # with exit 2 (grover --scaling --marked above --n)
        with pytest.raises(ConfigError):
            search(values, 16, np.random.default_rng(0))


def reference_existence_test(oracle, rng, confidence_rounds):
    """existence_test as one bbht_search per round, up to the first
    success."""
    return any(qsearch.bbht_search(oracle, rng).succeeded
               for _ in range(confidence_rounds))


class TestExistenceTest:
    @pytest.mark.parametrize("n_qubits, n_marked, rounds, seed", [
        (4, 0, 2, 171), (6, 1, 3, 172), (8, 1, 2, 173), (10, 3, 3, 174),
        (5, 32, 1, 175)])
    def test_matches_per_round_reference(self, n_qubits, n_marked, rounds,
                                         seed):
        rng = np.random.default_rng(seed)
        samples = []
        for test in (qsearch.existence_test, reference_existence_test):
            sample = []
            for _ in range(1500):
                oracle = oracle_marking(n_qubits, range(n_marked))
                exists = test(oracle, rng, rounds)
                sample.append((exists, oracle.query_count,
                               oracle.verification_count))
            samples.append(sample)
        for field, a, b in zip(("result", "queries", "verifications"),
                               *(zip(*sample) for sample in samples)):
            assert homogeneity_p(a, b) > EQUIVALENCE_ALPHA, field

    def test_empty_oracle_spends_every_round_budget(self):
        rng = np.random.default_rng(176)
        for rounds in (1, 3):
            oracle = oracle_marking(14, [])
            assert not qsearch.existence_test(oracle, rng, rounds)
            assert oracle.query_count == rounds * math.ceil(4 * 128)
            assert oracle.verification_count >= rounds

    def test_empty_is_always_false(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            assert not qsearch.existence_test(oracle_marking(4, []), rng, 2)

    def test_full_is_true_without_grover_queries(self):
        rng = np.random.default_rng(6)
        oracle = oracle_marking(4, range(16))
        assert qsearch.existence_test(oracle, rng, 1)
        assert oracle.query_count == 0

    def test_single_marked_found_reliably(self):
        rng = np.random.default_rng(7)
        hits = sum(
            qsearch.existence_test(oracle_marking(6, [33]), rng, 3)
            for _ in range(1000))
        assert hits / 1000 >= 0.99

    def test_rounds_validated(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            qsearch.existence_test(oracle_marking(2, [0]), rng, 0)

    def test_non_integer_rounds_rejected_before_any_draw(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError):
            qsearch.existence_test(oracle_marking(2, [0]), rng, 2.5)
        assert rng.bit_generator.state == state


class TestMaximumSearch:
    def test_unique_maximum_found(self):
        values = np.array([1.0, 4.0, 2.0, 0.5, 3.9, 9.0, 3.0, 8.0])
        rng = np.random.default_rng(8)
        for _ in range(50):
            assert qsearch.maximum_search(values, rng)[0] == 5

    def test_constant_cost_any_index(self):
        rng = np.random.default_rng(9)
        assert 0 <= qsearch.maximum_search(np.zeros(16), rng)[0] < 16

    def test_identity_cost(self):
        rng = np.random.default_rng(10)
        assert qsearch.maximum_search(np.arange(16.0), rng)[0] == 15

    def test_callable_cost_accepted(self):
        rng = np.random.default_rng(11)
        assert qsearch.maximum_search(-abs(np.arange(16) - 11), rng)[0] == 11

    def test_matches_brute_force_on_random_costs(self):
        rng = np.random.default_rng(12)
        agree = 0
        for _ in range(500):
            n = int(rng.integers(3, 11))
            table = rng.random(1 << n)
            found = qsearch.maximum_search(table, rng)[0]
            agree += int(table[found] == table.max())
        assert agree / 500 >= 0.99

    @pytest.mark.parametrize("tables", [np.zeros(12), np.zeros((4, 3)),
                                        np.zeros((2, 0)), np.float64(1.0)])
    def test_tables_must_have_power_of_two_length(self, tables):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ShapeError):
            qsearch.maximum_search(tables, rng)
        assert rng.bit_generator.state == state

    def test_stacked_tables_are_searched_one_by_one(self):
        rng = np.random.default_rng(23)
        tables = rng.permutation(np.tile(np.arange(16.0), (2, 3, 1)), axis=2)
        report = qsearch.maximum_search(tables, rng)
        assert len(report) == 4
        for value in report:
            assert value.shape == (2, 3) and value.dtype == np.int64
        np.testing.assert_array_equal(report[0], tables.argmax(axis=2))
        one = qsearch.maximum_search(tables[0, 0], rng)[0]
        assert one.shape == () and one == tables[0, 0].argmax()

    def test_no_tables_draw_nothing(self):
        rng = np.random.default_rng(24)
        state = rng.bit_generator.state
        for value in qsearch.maximum_search(np.zeros((0, 8)), rng):
            assert value.shape == (0,)
        assert rng.bit_generator.state == state

    def test_one_entry_rejected_before_any_draw(self):
        # a one-entry search would never end: its j is 0 in every round,
        # so it never spends its budget
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ShapeError):
            qsearch.maximum_search(np.array([1.0]), rng)
        with pytest.raises(ShapeError):
            qsearch.bbht_search(qsearch.MarkingOracle(np.array([False])), rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    def test_non_finite_scores_rejected(self, bad):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="finite"):
            qsearch.maximum_search([bad, 1, 0, 2], rng)
        with pytest.raises(ValueError, match="finite"):
            qsearch.maximum_search([[0, 1, 0, 2], [bad, 1, 0, 2]], rng)
        assert rng.bit_generator.state == state

    def test_reports_rounds_and_queries(self):
        rng = np.random.default_rng(13)
        _, queries, verifications, rounds = qsearch.maximum_search(
            np.arange(64.0), rng)
        assert rounds >= qsearch.MAXIMUM_SEARCH_CONFIG.max_failures
        assert queries > 0
        assert verifications > 0


def reference_success_rate(oracle, k, trials, rng):
    """One point of measured_success_curve from a fresh register: the
    uniform superposition, k grover_iterate calls, and one multinomial
    sample of `trials` measurements."""
    s = qcore.uniform_superposition(oracle.n_qubits)
    for _ in range(k):
        s = qsearch.grover_iterate(oracle, s)
    p = qcore.probabilities(s)
    counts = rng.multinomial(trials, p / p.sum())
    return float(counts[oracle.mask].sum() / trials)


class TestStatisticalInvariants:
    def test_success_curve_small(self):
        # Lighter version of the acceptance criterion: N=64, k = 0..6.
        rng = np.random.default_rng(14)
        oracle = oracle_marking(6, [13])
        curve = qsearch.measured_success_curve(oracle, 6, 4000, rng)
        for k, rate in enumerate(curve):
            assert abs(rate - qsearch.success_probability(64, 1, k)) < 0.03

    @pytest.mark.parametrize("n_states", [16, 64, 256])
    def test_optimal_count_beats_neighbors(self, n_states):
        rng = np.random.default_rng(15)
        n_qubits = n_states.bit_length() - 1
        oracle = oracle_marking(n_qubits, [n_states // 3])
        k_star = qsearch.optimal_iterations(n_states, 1)
        trials = 10000
        curve = qsearch.measured_success_curve(oracle, k_star + 2, trials, rng)
        for k in (k_star - 2, k_star + 2):
            if k < 0:
                continue
            assert curve[k_star] >= curve[k] - 0.02

    def test_trial_count_does_not_bound_memory(self):
        rng = np.random.default_rng(19)
        rate = qsearch.measured_success_curve(oracle_marking(10, [777]), 25,
                                              10**12, rng)[25]
        assert 0.0 <= rate <= 1.0
        assert rate == pytest.approx(qsearch.success_probability(1024, 1, 25),
                                     abs=1e-5)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_must_be_positive(self, trials):
        with pytest.raises(ConfigError):
            qsearch.measured_success_curve(oracle_marking(3, [1]), 1, trials,
                                           np.random.default_rng(20))

    @pytest.mark.parametrize("k, trials", [(-1, 10), (1.5, 10), (1, 2.5)])
    def test_counts_must_be_integers_in_range(self, k, trials):
        with pytest.raises(ConfigError):
            qsearch.measured_success_curve(oracle_marking(3, [1]), k, trials,
                                           np.random.default_rng(21))

    def test_curve_is_the_per_k_rates_in_turn(self):
        # one register measured after each step gives the values and the
        # draws of a fresh register per k
        oracle = oracle_marking(6, [13, 40])
        rng, twin = np.random.default_rng(22), np.random.default_rng(22)
        curve = qsearch.measured_success_curve(oracle, 12, 500, rng)
        assert curve == [reference_success_rate(oracle, k, 500, twin)
                         for k in range(13)]
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("k_max, trials", [(-1, 10), (1.5, 10), (1, 0),
                                               (True, 10), (10**9, 10)])
    def test_curve_rejects_bad_counts_before_any_draw(self, k_max, trials):
        rng = np.random.default_rng(24)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError):
            qsearch.measured_success_curve(oracle_marking(4, [1]), k_max,
                                           trials, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("call", [qsearch.measured_success_curve])
    def test_register_updates_capped(self, call, monkeypatch):
        # (k_max + 1)·N = 64 amplitude updates pass at a cap of 64, 80 do not
        monkeypatch.setattr(config, "MAX_WORK", 64)
        oracle = oracle_marking(4, [1])
        call(oracle, 3, 10, np.random.default_rng(23))
        rng = np.random.default_rng(23)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match="amplitude updates"):
            call(oracle, 4, 10, rng)
        assert rng.bit_generator.state == state

    def test_uniform_measurement_acceptance_rate(self):
        rng = np.random.default_rng(16)
        for n_states, marked in [(64, 1), (64, 8), (256, 16)]:
            n_qubits = n_states.bit_length() - 1
            oracle = oracle_marking(n_qubits, range(marked))
            rate, = qsearch.measured_success_curve(oracle, 0, 50000, rng)
            p = marked / n_states
            sigma = math.sqrt(p * (1 - p) / 50000)
            assert abs(rate - p) <= 3 * sigma


class TestMarkingOracle:
    def test_from_mask_round_trip(self):
        mask = np.array([False, True, False, True])
        oracle = qsearch.MarkingOracle(mask)
        assert oracle.n_qubits == 2
        assert oracle.verify(1) and not oracle.verify(0)
        assert oracle.verification_count == 2

    def test_index_sets_partition_and_cache(self):
        mask = np.array([False, True, False, True, True, False, False, False])
        oracle = qsearch.MarkingOracle(mask)
        marked = oracle.marked_indices()
        unmarked = np.setdiff1d(np.arange(mask.size), marked)
        np.testing.assert_array_equal(marked, [1, 3, 4])
        np.testing.assert_array_equal(unmarked, [0, 2, 5, 6, 7])
        assert oracle.marked_indices() is marked

    def test_bad_mask_length(self):
        with pytest.raises(ShapeError):
            qsearch.MarkingOracle(np.zeros(3, dtype=bool))

    @pytest.mark.parametrize("shape", [(0,), (2, 2), (2, 2, 2), (1,)])
    def test_mask_must_be_one_dimensional_and_nonempty(self, shape):
        with pytest.raises(ShapeError):
            qsearch.MarkingOracle(np.zeros(shape, dtype=bool))


# Every error the search entry points may raise on bad input; anything else
# (IndexError, TypeError, MemoryError, ...) fails the fuzz tests below.
SEARCH_ERRORS = (ConfigError, ShapeError, SizeError, ValueError)

# Score tables of any leading shape, or none, with lengths that include 0, 1
# and non-powers of 2; scores tie often and are now and then NaN or inf.
score_tables = hnp.arrays(
    float,
    st.one_of(st.just(()), st.tuples(
        st.lists(st.integers(0, 3), max_size=2),
        st.sampled_from([0, 1, 2, 3, 4, 6, 8, 16])).map(
            lambda shape: tuple(shape[0]) + (shape[1],))),
    elements=st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]),
                       st.floats(allow_nan=True, allow_infinity=True)))

# Ranks and indices: integers in and out of range, floats, bools, and arrays
# of those of any shape.
index_values = st.one_of(
    st.integers(-3, 20), st.floats(-1, 20), st.booleans(),
    hnp.arrays(st.sampled_from([np.int64, np.float64, np.bool_]),
               hnp.array_shapes(min_dims=0, max_dims=2, min_side=0,
                                max_side=4)))


# Oracle masks: lengths that include 0, 1 and non-powers of 2, marking
# nothing, everything or anything between.
masks = hnp.arrays(bool, st.sampled_from([(0,), (1,), (3,), (2,), (4,),
                                          (16,), (64,), (2, 2)]),
                   elements=st.booleans())


class TestSearchFuzz:
    @settings(max_examples=150, deadline=None)
    @given(tables=score_tables, seed=st.integers(0, 2**32 - 1))
    def test_maximum_search(self, tables, seed):
        try:
            found, *counters = qsearch.maximum_search(
                tables, np.random.default_rng(seed))
        except SEARCH_ERRORS:
            return
        n = tables.shape[-1]
        for counter in counters:
            assert counter.shape == tables.shape[:-1]
            assert (counter >= 0).all()
        found = found.reshape(-1)
        assert ((found >= 0) & (found < n)).all()
        # the kernel's final ranks, replayed from the same seed: one draw of
        # first ranks, passed straight to the rank-space search
        flat = tables.reshape(-1, n)
        twin = np.random.default_rng(seed)
        first = twin.integers(0, n, size=flat.shape[0])
        final = qsearch.threshold_search(first, n, twin)[0]
        np.testing.assert_array_equal(rank(flat, found), final)

    @settings(max_examples=200, deadline=None)
    @given(tables=score_tables, index=index_values)
    def test_rank(self, tables, index):
        try:
            ranks = rank(tables, index)
        except SEARCH_ERRORS:
            return
        assert ranks.shape == tables.shape[:-1]
        assert ((ranks >= 0) & (ranks < tables.shape[-1])).all()

    @settings(max_examples=200, deadline=None)
    @given(first=index_values,
           n_states=st.one_of(st.integers(-2, 300), st.floats(-1, 300),
                              st.booleans()),
           seed=st.integers(0, 2**32 - 1))
    def test_threshold_search(self, first, n_states, seed):
        try:
            results = qsearch.threshold_search(first, n_states,
                                               np.random.default_rng(seed))
        except SEARCH_ERRORS:
            return
        final, _, _, rounds = results
        for result in results:
            assert result.shape == (np.size(first),)
            assert result.dtype == np.int64 and (result >= 0).all()
        # a search never moves to a worse rank, and ends only after
        # max_failures empty rounds
        assert (final <= np.asarray(first)).all()
        assert (rounds >= qsearch.MAXIMUM_SEARCH_CONFIG.max_failures).all()


    @settings(max_examples=200, deadline=None)
    @given(counts=st.one_of(index_values, st.lists(st.integers(0, 300))),
           n_states=st.one_of(st.integers(-2, 300), st.floats(-1, 300),
                              st.booleans()),
           seed=st.integers(0, 2**32 - 1))
    def test_bbht_ranks(self, counts, n_states, seed):
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        try:
            results = qsearch.bbht_ranks(counts, n_states, rng)
        except SEARCH_ERRORS:
            assert rng.bit_generator.state == state
            return
        ranks, queries, verifications = results
        for result in results:
            assert result.shape == (np.size(counts),)
            assert result.dtype == np.int64 and (result >= 0).all()
        assert (ranks <= np.asarray(counts)).all()
        assert (queries <= math.ceil(4 * math.sqrt(n_states))).all()
        assert (verifications >= 1).all()

    @settings(max_examples=200, deadline=None)
    @given(mask=masks, seed=st.integers(0, 2**32 - 1))
    def test_bbht_search(self, mask, seed):
        try:
            oracle = qsearch.MarkingOracle(mask)
        except SEARCH_ERRORS:
            return
        report = qsearch.bbht_search(oracle, np.random.default_rng(seed))
        assert report.succeeded == (report.found is not None)
        assert not report.succeeded or mask[report.found]
        assert report.succeeded or not mask.all()
        assert (report.grover_queries, report.verification_queries) == (
            oracle.query_count, oracle.verification_count)
        assert 0 <= report.grover_queries <= math.ceil(4 * math.sqrt(
            mask.size))
        assert report.verification_queries >= 1

    @settings(max_examples=200, deadline=None)
    @given(mask=masks,
           rounds=st.one_of(st.integers(-2, 4), st.floats(-1, 4),
                            st.booleans()),
           seed=st.integers(0, 2**32 - 1))
    def test_existence_test(self, mask, rounds, seed):
        try:
            oracle = qsearch.MarkingOracle(mask)
        except SEARCH_ERRORS:
            return
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        try:
            exists = qsearch.existence_test(oracle, rng, rounds)
        except SEARCH_ERRORS:
            assert rng.bit_generator.state == state
            return
        assert exists in (True, False) and (mask.any() or not exists)
        # each round is one bbht_search, stopping at the first success
        assert 0 <= oracle.query_count <= rounds * math.ceil(
            4 * math.sqrt(mask.size))
        assert 1 <= oracle.verification_count

    @settings(max_examples=200, deadline=None)
    @given(mask=masks,
           k=st.one_of(st.integers(-2, 8), st.floats(-1, 8), st.booleans()),
           trials=st.one_of(st.integers(-2, 50), st.floats(-1, 50),
                            st.booleans()),
           seed=st.integers(0, 2**32 - 1))
    def test_measured_success(self, mask, k, trials, seed):
        # measured_success_curve with k_max = k
        try:
            oracle = qsearch.MarkingOracle(mask)
        except SEARCH_ERRORS:
            return
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        try:
            rates = qsearch.measured_success_curve(oracle, k, trials, rng)
        except SEARCH_ERRORS:
            assert rng.bit_generator.state == state
            return
        assert len(rates) == k + 1
        for rate in rates:
            assert 0 <= rate <= 1 and (mask.any() or rate == 0)
        assert oracle.query_count == k
        assert oracle.verification_count == 0


BOOL_SCENARIO = make_scenario("walsh", 2, 4)


@pytest.mark.parametrize("call", [
    pytest.param(lambda rng: qchannel.run_demo(True, 0.5, rng),
                 id="run_demo-n_bits"),
    pytest.param(lambda rng: mud.qmud_agreement(2, True, rng),
                 id="qmud_agreement-trials"),
    pytest.param(lambda rng: mud.qmud_agreement(True, 5, rng),
                 id="qmud_agreement-k_users"),
    pytest.param(lambda rng: qsearch.optimal_iterations(64, True),
                 id="optimal_iterations-n_marked"),
    pytest.param(lambda rng: qsearch.success_probability(True, 1, 1),
                 id="success_probability-n_states"),
    pytest.param(lambda rng: qsearch.success_probability(64, 1, True),
                 id="success_probability-k"),
    pytest.param(lambda rng: mud.ber_sweep(BOOL_SCENARIO, "mf", [4.0], True,
                                           rng), id="ber_sweep-trials"),
    pytest.param(lambda rng: qsearch.measured_success_curve(
        oracle_marking(3, [1]), True, 10, rng),
        id="measured_success_curve-k_max"),
    pytest.param(lambda rng: qsearch.measured_success_curve(
        oracle_marking(3, [1]), 1, np.True_, rng),
        id="measured_success_curve-trials"),
    pytest.param(lambda rng: qsearch.existence_test(
        oracle_marking(3, [1]), rng, True), id="existence_test-rounds"),
    pytest.param(lambda rng: qsearch.threshold_search([0], np.True_, rng),
                 id="threshold_search-n_states"),
    pytest.param(lambda rng: qsearch.bbht_ranks([0], np.True_, rng),
                 id="bbht_ranks-n_states"),
])
def test_bools_are_not_counts(call):
    # operator.index(True) is 1, so these ran once before they were checked
    rng = np.random.default_rng(25)
    state = rng.bit_generator.state
    with pytest.raises(ConfigError):
        call(rng)
    assert rng.bit_generator.state == state


# K = 4 users on 2 chips: a trial and point takes 128 + 8 units of work for
# MF, and 128 + 8 + 16 / 4 for the table detectors.
WORK_SCENARIO = make_scenario("random_bipolar", 4, 2)


@pytest.mark.parametrize("call, work", [
    pytest.param(lambda rng, n: mud.ber_sweep(WORK_SCENARIO, "mf", [0.0, 4.0],
                                              n, rng),
                 2 * (128 + 8), id="ber_sweep-mf"),
    pytest.param(lambda rng, n: mud.ber_sweep(WORK_SCENARIO, "ml_exhaustive",
                                              [0.0, 4.0], n, rng),
                 2 * (128 + 12), id="ber_sweep-ml_exhaustive"),
    pytest.param(lambda rng, n: mud.ber_sweep(WORK_SCENARIO, "qmud",
                                              [0.0, 4.0], n, rng),
                 2 * (128 + 12), id="ber_sweep-qmud"),
    pytest.param(lambda rng, n: mud.qmud_agreement(2, n, rng), 32,
                 id="qmud_agreement-trials"),
    pytest.param(lambda rng, n: mud.qmud_agreement(10, n, rng), 32 + 8,
                 id="qmud_agreement-trials-k10"),
    pytest.param(lambda rng, n: qchannel.run_demo(n, 0.5, rng), 32,
                 id="run_demo-n_bits"),
    pytest.param(lambda rng, n: qsearch.existence_test(
        oracle_marking(2, []), rng, n), 128 * (12 + 2),
        id="existence_test-rounds"),
])
def test_work_bound_refuses_before_any_draw(call, work, monkeypatch):
    # 3 items of `work` units fit a bound of 3·work, 4 do not, and the
    # refusal comes before any draw
    monkeypatch.setattr(config, "MAX_WORK", 3 * work)
    call(np.random.default_rng(26), 3)
    rng = np.random.default_rng(26)
    state = rng.bit_generator.state
    with pytest.raises(ConfigError, match="units of work"):
        call(rng, 4)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("call", [qsearch.measured_success_curve])
def test_measurement_trials_run_up_to_int64(call, monkeypatch):
    # one multinomial draw per register costs the same for any trials, so
    # trials take no work, and only numpy's int64 bounds them
    monkeypatch.setattr(config, "MAX_WORK", 2 * 4)
    oracle = oracle_marking(2, [1])
    assert 0 <= np.min(call(oracle, 1, (1 << 63) - 1,
                            np.random.default_rng(27))) <= 1
    rng = np.random.default_rng(27)
    state = rng.bit_generator.state
    with pytest.raises(ConfigError, match="below 2\\^63"):
        call(oracle, 1, 1 << 63, rng)
    assert rng.bit_generator.state == state
