"""Query complexity: randomized quantum search vs exhaustive evaluation.

Exhaustive search over N candidates costs exactly N evaluations.  The
randomized amplification schedule locates a single marked item in O(√N)
query-evaluation pairs; the log-log slope of mean queries against N is 1/2
versus the classical slope of 1.
"""

import numpy as np

from qmudsim import qsearch

rng = np.random.default_rng(3)
trials = 300

print("      N   mean queries     √N   exhaustive")
sizes, means = [], []
for exp in range(6, 13):
    n = 1 << exp
    # one marked index: every search of a size runs in one lock-step call
    _, queries, verifications = qsearch.bbht_ranks(np.ones(trials, int), n,
                                                   rng)
    sizes.append(n)
    means.append(float((queries + verifications).mean()))
    print(f"{n:7d}   {means[-1]:10.1f}   {np.sqrt(n):6.1f}   {n:10d}")

slope = np.polyfit(np.log(sizes), np.log(means), 1)[0]
print(f"\nlog-log slope of the quantum search: {slope:.3f}  (classical: 1.0)")
print("doubling N multiplies quantum work by √2 but classical work by 2")
