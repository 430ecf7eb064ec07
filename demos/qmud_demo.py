"""Quantum-assisted multi-user detection against the exhaustive baseline.

A K=10 uplink has 1024 candidate bit vectors.  The exhaustive detector
scores every one of them; the quantum-assisted detector loads all
hypotheses into a 10-qubit register and climbs a likelihood threshold with
randomized amplified search, finding the same maximizer with a fraction of
the oracle applications.
"""

import numpy as np

from qmudsim import cdma, mud

rng = np.random.default_rng(4)
K = 10
EBN0_DB = 8.0

scenario = cdma.make_scenario(
    "random_bipolar", K, 16,
    sync_mode=cdma.CHIP_ASYNC, gain_model=cdma.GAIN_RAYLEIGH, seed=3)

print(f"{K} users, chip-asynchronous, Rayleigh fading, Eb/N0 = {EBN0_DB:g} dB")
print(f"hypothesis space: 2^{K} = {2**K} bit vectors\n")

print("one instance in detail:")
channel = cdma.sample_channel(scenario, rng)
bits = rng.choice((-1, 1), size=K)
prev = rng.choice((-1, 1), size=K)
frame = cdma.synthesize_received(scenario, channel, bits, prev,
                                 cdma.ebn0_db_to_noise_variance(EBN0_DB), rng)

cf = mud.make_mls_cost(frame, scenario, channel)
exhaustive = mud.exhaustive_ml_detect(cf, true_bits=bits)
print(f"  exhaustive: {exhaustive.cf_evaluations} evaluations, "
      f"correct = {exhaustive.correct}")

quantum = mud.qmud_detect(mud.make_mls_cost(frame, scenario, channel), rng,
                          true_bits=bits)
print(f"  quantum:    {quantum.grover_queries} oracle applications over "
      f"{quantum.cf_evaluations} threshold rounds, correct = {quantum.correct}")
print(f"  same answer: {np.array_equal(exhaustive.detected_bits, quantum.detected_bits)}")

# Under the one search order the indices of any table map one-to-one onto
# the ranks 0..2^K-1, so agreement and work counts depend on K alone:
# qmud_agreement runs the searches from uniform first ranks and draws no
# channels, frames or tables.
print(f"\n200 searches from uniform first ranks (any K={K} instance):")
result = mud.qmud_agreement(K, 200, rng)
print(f"  agreement with exhaustive argmax: {result.agreement:.3f}")
print(f"  mean oracle applications: {result.mean_grover_queries:.1f} "
      f"(+{result.mean_verification_queries:.1f} classical verifications)")
print(f"  exhaustive always costs:  {result.exhaustive_evaluations}")
print(f"  mean threshold rounds:    {result.mean_threshold_rounds:.1f}")
