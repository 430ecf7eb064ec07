"""The near-far problem: why joint detection beats the matched-filter bank.

Two users share correlated spreading codes (inner product 1/2).  User 2
arrives 20 dB stronger than user 1 and transmits −1 while user 1 transmits
+1.  User 1's matched filter sees 1 − 10·(1/2) = −4 and slices the wrong
way even with zero noise; the joint maximum-likelihood rule reconstructs
both users at once and recovers the weak user exactly.
"""

import numpy as np

from qmudsim import cdma, mud

chips1 = np.array([1.0, 1, 1, 1]) / 2
chips2 = np.array([1.0, 1, 1, -1]) / 2
print("code correlation <s1, s2> =", float(chips1 @ chips2))

scenario = cdma.CdmaScenario(signatures=np.array([chips1, chips2]))
channel = cdma.ChannelState(gains=np.array([1.0, 10.0]),
                            delay=np.zeros(2, dtype=int))
true_bits = np.array([1, -1])

frame = cdma.synthesize_received(scenario, channel, true_bits, [1, 1], 0.0,
                                 None)
y = cdma.matched_filter_bank(frame, scenario, channel)
print("matched-filter outputs:", np.round(y.real, 3))

mf = mud.mf_detect(y, channel)
mf_ok = np.array_equal(mf.detected_bits, true_bits)
print(f"\nmatched-filter decision: {mf.detected_bits}  "
      f"(transmitted {true_bits}) -> {'correct' if mf_ok else 'WRONG'}")

table = mud.mls_tables(frame, scenario, channel)
ml = mud.exhaustive_ml_detect(table)
ml_ok = np.array_equal(ml.detected_bits, true_bits)
print(f"joint ML decision:       {ml.detected_bits}  "
      f"-> {'correct' if ml_ok else 'WRONG'} "
      f"({ml.cf_evaluations} hypothesis evaluations)")

print("\nscore of every hypothesis (0 = perfect reconstruction):")
for m in range(4):
    bits = mud.bits_from_index(m, 2)
    print(f"  bits {bits}: {table[m]:8.2f}")
