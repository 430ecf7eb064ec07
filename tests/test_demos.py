"""The quick demos: each runs to exit 0 with warnings as errors, and prints
the bytes pinned below.

`grover_search_demo.py` and `query_scaling_demo.py` build MarkingOracles;
`qmud_demo.py` runs the quantum-assisted detector through maximum_search;
`near_far_demo.py` builds a scenario from its own signature array and
detects on the bare matched-filter outputs; `ber_comparison_demo.py`
sweeps all three detectors through ber_sweep and writes its CSV into the
test's temporary directory; `quantum_register_basics.py` builds and
measures qcore registers; `zero_capacity_channel_demo.py` sends 125,000
bits through qchannel.run_demo, which evolves its registers once per call,
in under a second.

Every demo is seeded and prints no timing, so its stdout is a ledger of
seeded bytes: a change that alters a demo's output on purpose updates its
digest here and says so.  The digests of `qmud_demo.py`, `near_far_demo.py`
and `ber_comparison_demo.py` (stdout and CSV) read mud.mls_tables scores,
whose last bits follow the BLAS build's rounding, so on another BLAS they
may differ where the seeded decisions do not.
"""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# SHA-256 of each demo's stdout.
PINNED_DEMO_STDOUT_SHA256 = {
    "grover_search_demo.py":
        "1bfa3086c46af3bc7142ee1b85747d8c64932496dbb07c930700ad8873b4b1b7",
    "query_scaling_demo.py":
        "1d8812fadf277eabf1eab5780bfad9cf23ecfb96effc039c78f2f0209ad43a62",
    "qmud_demo.py":
        "30f94ff4b5e5bd9fccf3371fbd57b5595a6d5f5f7a2b9b8976234784b23a761a",
    "near_far_demo.py":
        "1c6fac9da05ba8ec7b869f3522639384ea3b056261a4ada049aa3262a64f4bcc",
    "ber_comparison_demo.py":
        "7e27e9b7623295c910b0401452f970e1441cfb1757e1befdd1e3d133efe91d8c",
    "quantum_register_basics.py":
        "5c225821defd26d24458172d04bb2cefbb922d8c5937e8d43e43bc796cc61e84",
    "zero_capacity_channel_demo.py":
        "22d3ff7319d843e4602163f819bb90d35656d1cb19f462b88af3f472cd16d2a1",
}

# SHA-256 of the ber_comparison.csv that ber_comparison_demo.py writes.
PINNED_BER_COMPARISON_CSV_SHA256 = (
    "78d8309ce54b6abfbb3e6d86883d68d70f1d2cd09b2a43b47da50d8f178ef48b")


@pytest.mark.parametrize("demo", sorted(PINNED_DEMO_STDOUT_SHA256))
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    done = subprocess.run([sys.executable, "-W", "error",
                           os.path.join(ROOT, "demos", demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    assert (hashlib.sha256(done.stdout).hexdigest()
            == PINNED_DEMO_STDOUT_SHA256[demo]), done.stdout.decode()
    if demo == "ber_comparison_demo.py":
        csv_bytes = (tmp_path / "ber_comparison.csv").read_bytes()
        assert (hashlib.sha256(csv_bytes).hexdigest()
                == PINNED_BER_COMPARISON_CSV_SHA256)
