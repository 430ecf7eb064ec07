"""Every name the benchmark tracer patches must exist in qmudsim, and every
counting hook must read what its target returns.

`benchmarks/tracer.py` resolves each `SPANS` key ("<module>.<attribute
path>" under qmudsim) when a `Tracer` is built, and installing it reads the
attribute from its owner's `__dict__`.  A deleted or renamed function would
crash every traced benchmark run before its first op; the first test fails
first.  A `HOOKS` entry reads an attribute of its target's arguments or
result (`SearchReport.succeeded`, `StateVector.n_qubits`); the second test
runs each hook on a real call, so a changed result type fails here too.
"""

import importlib
import pathlib

import numpy as np
import pytest

from qmudsim import qcore, qsearch

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return importlib.import_module("tracer")


def test_every_traced_name_exists(tracer):
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


def hook_calls():
    """Span name -> (positional args of a tiny call, the counter values
    its hook adds): a BBHT search over 4 indices, all marked, so it
    succeeds, and a 2-qubit register, 16 bytes per amplitude."""
    rng = np.random.default_rng(0)
    register = qcore.uniform_superposition(2)
    return {
        "qsearch.bbht_search": (
            (qsearch.MarkingOracle(np.ones(4, dtype=bool)), rng),
            {"bbht_calls": 1, "bbht_succeeded": 1}),
        "qcore.apply_unitary": (
            (qcore.DiagonalUnitary(np.ones(4)), register),
            {"amp_bytes": 64}),
        "qcore.measure": ((register, rng), {"amp_bytes": 64}),
    }


def test_every_hook_reads_its_targets_call(tracer):
    calls = hook_calls()
    assert set(tracer.HOOKS) == set(calls)
    for name, hook in tracer.HOOKS.items():
        args, added = calls[name]
        module, attribute = name.split(".")
        result = getattr(importlib.import_module(f"qmudsim.{module}"),
                         attribute)(*args)
        counts = dict.fromkeys(tracer.COUNTERS, 0)
        hook(counts, args, {}, result)
        assert counts == {**dict.fromkeys(tracer.COUNTERS, 0), **added}, name
