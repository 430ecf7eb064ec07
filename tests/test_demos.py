"""Smoke test of the quick demos: each runs to exit 0.

`grover_search_demo.py` and `query_scaling_demo.py` build MarkingOracles;
`qmud_demo.py` runs the quantum-assisted detector through maximum_search;
`near_far_demo.py` builds a scenario from its own signature array and
detects on the bare matched-filter outputs; `ber_comparison_demo.py`
sweeps all three detectors through ber_sweep and writes its CSV into the
test's temporary directory; `quantum_register_basics.py` builds and
measures qcore registers; `zero_capacity_channel_demo.py` sends 125,000
bits through qchannel.run_demo, which evolves its registers once per call,
in under a second.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["grover_search_demo.py",
                                  "query_scaling_demo.py",
                                  "qmud_demo.py",
                                  "near_far_demo.py",
                                  "ber_comparison_demo.py",
                                  "quantum_register_basics.py",
                                  "zero_capacity_channel_demo.py"])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
