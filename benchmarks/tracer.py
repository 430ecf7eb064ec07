"""Per-layer span tracer installed from outside the qmudsim package.

The tracer replaces public module attributes of qmudsim with thin wrappers
that record one span per call (name, start, end, parent span, op id) into
flat in-memory arrays, and restores the originals afterwards.  Because the
package calls across layers through module attributes (`cdma.sample_channel`,
`qcore.apply_unitary`, ...) and through module globals, patching the attribute
catches every call.  A later change that binds a function under another name
(say, `from .qcore import apply_unitary`) bypasses the wrapper; the benchmark
tests then see a span with zero calls instead of silently losing its time.

Nothing here runs while tracing is off: wrappers exist only inside
`Tracer.installed()`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

import workloads

ALL_WORKLOADS = tuple(workloads.WORKLOADS)

# Span name -> (workloads on which it must record calls, end-to-end metric it
# should move).  The span name is "<module>.<attribute path>" under qmudsim.
SPANS = {
    "cli.main": (ALL_WORKLOADS, "norm_trials_per_s"),
    "cdma.sample_channel": (("ber-mf", "ber-ml", "qmud-agree"), "norm_trials_per_s"),
    "cdma.synthesize_received": (("ber-mf", "ber-ml", "qmud-agree"), "norm_trials_per_s"),
    "cdma.matched_filter_bank": (("ber-mf",), "norm_trials_per_s"),
    "mud.ber_sweep": (("ber-mf", "ber-ml"), "norm_trials_per_s"),
    "mud.mf_detect": (("ber-mf",), "norm_trials_per_s"),
    "mud.qmud_agreement": (("qmud-agree",), "norm_trials_per_s"),
    "mud.CostFunction.evaluate": (("ber-ml",), "norm_trials_per_s"),
    "mud.exhaustive_ml_detect": (("ber-ml",), "norm_trials_per_s"),
    "mud.make_mls_cost": (("ber-ml", "qmud-agree"), "norm_trials_per_s"),
    "mud.CostFunction.table": (("qmud-agree",), "peak_rss_mib"),
    "qsearch.maximum_search": (("qmud-agree",), "qsearch.queries_per_detection"),
    "qsearch.bbht_search": (("qmud-agree",), "qsearch.queries_per_detection"),
    "qsearch.grover_iterate": (("qmud-agree",), "norm_trials_per_s"),
    "qcore.apply_unitary": (("qmud-agree", "bsc"), "norm_trials_per_s"),
    "qcore.measure": (("qmud-agree", "bsc"), "norm_trials_per_s"),
    "qcore.basis_state": (("qmud-agree", "bsc"), "norm_trials_per_s"),
    "qcore.uniform_superposition": (("qmud-agree",), "norm_trials_per_s"),
    "qchannel.transmit_quantum": (("bsc",), "norm_trials_per_s"),
    "qchannel.transmit_classical": (("bsc",), "norm_trials_per_s"),
}

# Spans with about one call per op or per detection get too few samples in a
# traced run for a 99th percentile (at least ten samples must lie beyond it).
P90_SPANS = ("qsearch.maximum_search", "mud.CostFunction.table")
NO_TAIL_SPANS = ("cli.main", "mud.ber_sweep", "mud.qmud_agreement")

# Call counts and busy times are divided by the trials of the traced ops, so
# they do not grow with the number of ops that fit into a run; percentiles
# are per call.
STAT_UNITS = {"calls_per_trial": "1/trial", "total_us_per_trial": "us/trial",
              "self_us_per_trial": "us/trial",
              "p50_us": "us", "p90_us": "us", "p99_us": "us"}


def stat_keys(name: str) -> list:
    """Statistics reported for one span name."""
    tail = [] if name in NO_TAIL_SPANS else ["p90_us"] if name in P90_SPANS else ["p99_us"]
    return ["calls_per_trial", "total_us_per_trial", "self_us_per_trial", "p50_us"] + tail


COUNTERS = ("bbht_calls", "bbht_succeeded", "amp_bytes")


def _count_bbht(counts, args, kwargs, result):
    counts["bbht_calls"] += 1
    counts["bbht_succeeded"] += int(result.succeeded)


def _count_amp_bytes(position, keyword):
    def hook(counts, args, kwargs, result):
        state = args[position] if len(args) > position else kwargs[keyword]
        # complex128 amplitudes: 16 bytes per basis state, computed not measured
        counts["amp_bytes"] += 16 << state.n_qubits
    return hook


HOOKS = {
    "qsearch.bbht_search": _count_bbht,
    "qcore.apply_unitary": _count_amp_bytes(1, "s"),
    "qcore.measure": _count_amp_bytes(0, "s"),
}


def _resolve(span_name):
    """(owner object, attribute) that a span name patches."""
    module_name, *path = span_name.split(".")
    owner = importlib.import_module(f"qmudsim.{module_name}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


class Tracer:
    """Collects spans and counters while installed; reduces them at the end."""

    def __init__(self):
        self.names = list(SPANS)
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]
        self._op_id = -1
        self._targets = [_resolve(name) for name in self.names]

    def _wrap(self, name_id, fn):
        tracer = self
        hook = HOOKS.get(self.names[name_id])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(name_id)
            tracer.parent.append(tracer._stack[-1])
            tracer.op.append(tracer._op_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, op_id: int):
        """Wrap every traced attribute for the duration of one op."""
        originals = []
        self._op_id = op_id
        try:
            for name_id, (owner, attr) in enumerate(self._targets):
                fn = owner.__dict__[attr]
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name_id, fn))
            yield
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)
            self._op_id = -1

    def arrays(self) -> dict:
        """Span columns as numpy arrays, plus per-span self time."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        return {"names": np.array(self.names), "name_id": name_id,
                "parent": parent, "op": np.frombuffer(self.op, dtype=np.int32),
                "start": start, "end": end, "self": dur - child}

    def span_stats(self, spans: dict, trials: int) -> dict:
        """"<span>.<stat>" -> (value, unit) for every span name.

        `trials` is the number of trials the traced ops ran.
        """
        dur = spans["end"] - spans["start"]
        stats = {}
        for name_id, name in enumerate(self.names):
            sel = spans["name_id"] == name_id
            d = dur[sel]
            values = {"calls_per_trial": d.size / trials,
                      "total_us_per_trial": d.sum() * 1e6 / trials,
                      "self_us_per_trial": spans["self"][sel].sum() * 1e6 / trials}
            for key in stat_keys(name)[3:]:
                q = float(key[1:3])
                values[key] = np.percentile(d, q) * 1e6 if d.size else 0.0
            for key, value in values.items():
                stats[f"{name}.{key}"] = (value.item() if hasattr(value, "item") else value,
                                          STAT_UNITS[key])
        return stats
