"""Span tracing from outside the engine.

The tracer replaces chosen public functions of ``ci_engine`` with thin
wrappers, at every module attribute the function is bound to (``optheory``
imported ``contract`` by name, ``nogo`` imported the ``exactlp`` solvers by
name, and the package re-exports many names).  Each call made while the
tracer is active becomes one span ``(name, start_ns, end_ns, parent)``.
Spans are kept in compact arrays in memory and written out when the run
ends; self times are derived from them afterwards.
"""

import sys
import time
from array import array

# Layer name -> (module, attribute) of each function that layer is made of,
# and how to read a count from a call.
#   "max_size": largest ``result.size``; "cells": rows x columns of the
#   first argument; "len_result": len(result); "len_arg": len of the first
#   argument (text); "len_result_bytes": byte length of the result.
LAYERS = {
    "tensornet.contract": [("tensornet", "contract", "max_size")],
    "fstheory.generator_tensor": [("fstheory", "generator_tensor", None)],
    "fstheory.denote": [("fstheory", "denote", None)],
    "substoch.map_build": [("substoch", "SubstochMap.__init__", None)],
    "exactlp.lp": [("exactlp", "feasible_nonneg", "cells")],
    "exactlp.vertices": [("exactlp", "polytope_vertices", "len_result")],
    "exactlp.rays": [("exactlp", "cone_extreme_rays", "len_result")],
    "nogo.local_vertices": [("nogo", "local_vertices", "len_result")],
    "nogo.rationalize": [("nogo", "rationalize", None)],
    "nogo.membership": [("nogo", "fs_compatible", None)],
    "nogo.embed": [("nogo", "simplex_embed", None)],
    "optheory.predict": [("optheory", "predict_closed", None)],
    "fileformat.parse": [
        ("fileformat", name, "len_arg")
        for name in (
            "load_diagram",
            "load_model",
            "load_correlation",
            "load_fragment",
            "load_rep",
            "load_pairs",
        )
    ],
    "fileformat.dump": [
        ("fileformat", name, "len_result_bytes")
        for name in (
            "serialize_diagram",
            "dump_model",
            "dump_correlation",
            "dump_fragment",
            "dump_rep",
            "dump_pairs",
        )
    ],
    "cli.run": [("cli", "run", None)],
    # Public engine calls outside the named layers, so that their time is
    # not charged to the caller's self time (cli.run in particular).
    "engine.other": [
        ("fstheory", "normal_form", None),
        ("fstheory", "reconstruct", None),
        ("fstheory", "quotient_normal_form", None),
        ("fstheory", "inferentially_equivalent", None),
        ("fstheory", "apply_representation", None),
        ("fstheory", "is_leibnizian", None),
        ("optheory", "op_equivalent", None),
        ("optheory", "quotient_representative", None),
        ("nogo", "chsh_value", None),
        ("nogo", "no_signalling_check", None),
        ("nogo", "model_correlations", None),
    ],
}

ROOT = "bench.op"


def _count(kind, args, result):
    if kind == "max_size":
        return result.size
    if kind == "cells":
        rows = args[0]
        return len(rows) * (len(rows[0]) if rows else 0)
    if kind == "len_result":
        return len(result)
    if kind == "len_arg":
        return len(args[0].encode("utf-8")) if isinstance(args[0], str) else len(args[0])
    if kind == "len_result_bytes":
        return len(result.encode("utf-8")) if isinstance(result, str) else len(result)
    raise ValueError(kind)


class Tracer:
    """Records spans of wrapped engine calls while ``active`` is true."""

    def __init__(self):
        self.names = [ROOT] + list(LAYERS)
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [-1]
        self.calls = {n: 0 for n in self.names}
        self.count_sum = {n: 0 for n in LAYERS}
        self.count_max = {n: 0 for n in LAYERS}
        self.active = False
        self._patched = []

    # -- span recording -------------------------------------------------

    def _open(self, nid):
        idx = len(self.name_ids)
        self.name_ids.append(nid)
        self.parents.append(self.stack[-1])
        self.starts.append(0)
        self.ends.append(0)
        self.stack.append(idx)
        self.starts[idx] = time.perf_counter_ns()
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter_ns()
        self.stack.pop()

    def run_op(self, fn):
        """Call ``fn`` inside a root span (only while active)."""
        if not self.active:
            return fn()
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)

    def _wrap(self, layer, fn, kind):
        nid = self._name_id[layer]
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.calls[layer] += 1
            if kind is not None:
                n = _count(kind, args, result)
                tracer.count_sum[layer] += n
                if n > tracer.count_max[layer]:
                    tracer.count_max[layer] = n
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing wrappers --------------------------------------------

    def install(self):
        """Wrap every binding of every listed function in ``ci_engine``."""
        engine = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "ci_engine" or name.startswith("ci_engine."))
        ]
        for layer, targets in LAYERS.items():
            for mod_name, attr, kind in targets:
                owner = sys.modules["ci_engine." + mod_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    self._patched.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(layer, original, kind))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original, kind)
                for m in engine:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patched.append((m, key, original))
                            setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- reading the spans ----------------------------------------------

    def self_times_ns(self):
        """Total self time per span name: duration minus direct children."""
        n = len(self.name_ids)
        child = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        totals = {name: 0 for name in self.names}
        for i in range(n):
            totals[self.names[self.name_ids[i]]] += (
                self.ends[i] - self.starts[i] - child[i]
            )
        return totals

    def write(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.name_ids)):
                fh.write(
                    f"{i}\t{self.names[self.name_ids[i]]}\t{self.starts[i]}"
                    f"\t{self.ends[i]}\t{self.parents[i]}\n"
                )
