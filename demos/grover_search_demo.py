"""Amplitude amplification at work: the success curve and its optimum.

One marked index in N=64.  A bare measurement of the uniform register finds
it with probability 1/64; each amplification step rotates weight onto the
marked index, peaking near (π/4)·√N steps.  The measured curve follows
sin²((2k+1)·asin(√(1/N))) and overshooting the optimum hurts.
"""

import numpy as np

from qmudsim import qsearch

rng = np.random.default_rng(2)

N = 64
oracle = qsearch.MarkingOracle(np.arange(N) == 42)
k_star = qsearch.optimal_iterations(N, 1)
print(f"search space N={N}, one marked index, optimal steps k* = {k_star}\n")
print(" k   predicted   measured")
curve = qsearch.measured_success_curve(oracle, k_star + 2, 20000, rng)
for k, measured in enumerate(curve):
    predicted = qsearch.success_probability(N, 1, k)
    marker = "  <- k*" if k == k_star else ""
    print(f"{k:2d}   {predicted:.4f}      {measured:.4f}{marker}")

print("\n== fixed-count search with known M ==")
rep = qsearch.grover_search(qsearch.MarkingOracle(np.arange(N) == 42), 1, rng)
print(f"found index {rep.found} after {rep.iterations_used} steps "
      f"({rep.grover_queries} oracle queries, verified classically)")

print("\n== unknown number of marked items ==")
for marked in (1, 4, 16):
    # a search depends only on the count of marked indices
    _, queries, _ = qsearch.bbht_ranks(np.full(2000, marked), N, rng)
    print(f"M={marked:2d}: mean queries {queries.mean():5.2f}   "
          f"(√(N/M) = {np.sqrt(N / marked):.2f})")

print("\n== existence testing ==")
empty = qsearch.MarkingOracle(np.zeros(N, dtype=bool))
something = qsearch.MarkingOracle(np.arange(N) == 7)
print("any marked in empty oracle?  ", qsearch.existence_test(empty, rng, 3))
print("any marked when one exists?  ", qsearch.existence_test(something, rng, 3))
