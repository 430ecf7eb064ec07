"""Every name the benchmark tracer patches must exist in qmudsim.

`benchmarks/tracer.py` resolves each `SPANS` key ("<module>.<attribute
path>" under qmudsim) when a `Tracer` is built, and installing it reads the
attribute from its owner's `__dict__`.  A deleted or renamed function would
crash every traced benchmark run before its first op; this test fails first.
"""

import importlib
import pathlib

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracer = importlib.import_module("tracer")
    assert tracer.SPANS
    missing = []
    for name in tracer.SPANS:
        module, *path = name.split(".")
        owner = importlib.import_module(f"qmudsim.{module}")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        if path[-1] not in getattr(owner, "__dict__", {}):
            missing.append(name)
    assert not missing, f"names missing from qmudsim: {missing}"
