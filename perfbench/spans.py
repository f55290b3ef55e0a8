"""Span tracing of ddirac's layers, installed from outside the package.

``Tracer.verdict()`` wraps each traced function for the length of one
verdict: every call records a span (verdict id, span id, parent span, name,
start, end), kept in memory and summarized at the end of the run.  Wrapping
replaces the function in every ``ddirac`` module namespace that holds it, so
calls between ddirac's own modules are seen as well as the benchmark's.
Self time is a span's duration minus the durations of its child spans; calls
are strictly nested in this single-threaded process, so children never
overlap.

Nothing in ddirac queues or waits, so no layer has a wait-time metric.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: Traced functions by layer (ddirac module).  ``lattice.Cochain`` is the
#: constructor; ``save`` and ``load`` are Cochain methods.
LAYERS = {
    "lattice": ("Cochain", "save", "load"),
    "calculus": ("delta_mu", "d_c", "star", "codifferential", "dirac_operator",
                 "green_defect"),
    "clifford": ("clifford_mul", "mul_basis_left", "mul_basis_right", "dirac_clifford"),
    "equations": ("dk_residual_operator", "dk_residual_stencil",
                  "hestenes_residual_operator", "hestenes_residual_stencil"),
    "planewave": ("psi", "solution", "solution_basis"),
    "oracle": ("green_boundary_term",),
}

#: Graded components of a form, and bytes of one complex128 value.
NSLOTS = 16
COMPLEX_BYTES = 16
#: Pointwise Clifford product: 16 x 16 complex multiply-adds per site, each
#: 8 real flops; it reads two 16-component operands and writes one.
CLIFFORD_MACS_PER_SITE = NSLOTS * NSLOTS
FLOPS_PER_COMPLEX_MAC = 8
CLIFFORD_BYTES_PER_SITE = 3 * NSLOTS * COMPLEX_BYTES
#: Difference terms each stencil residual reads: 16 lines x 4 terms for the
#: Dirac-Kahler equation, 8 lines x 4 terms for the Hestenes equation.
STENCIL_TERMS = {"equations.dk_residual_stencil": 64,
                 "equations.hestenes_residual_stencil": 32}

VERDICT = "verdict"


def _clifford_counts(args, _result):
    sites = args[0].data[0].size
    return (("clifford.clifford_mul.flops_computed",
             sites * CLIFFORD_MACS_PER_SITE * FLOPS_PER_COMPLEX_MAC),
            ("clifford.clifford_mul.bytes_computed", sites * CLIFFORD_BYTES_PER_SITE))


def _save_counts(args, _result):
    return (("lattice.save.bytes", os.path.getsize(args[1])),)


COUNTERS = {"clifford.clifford_mul": _clifford_counts, "lattice.save": _save_counts}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [verdict, span id, parent id, name, start, end]
        self.counts: list[tuple] = []  # (verdict, counter name, amount)
        self.verdicts = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original, wrapped)
        self.missing: list[str] = []
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"ddirac.{layer}")
            for name in names:
                if layer == "lattice":
                    self._patch_method(module, name)
                elif hasattr(module, name):
                    self._patch_function(f"{layer}.{name}", getattr(module, name))
                else:
                    self.missing.append(f"{layer}.{name}")

    def _patch_function(self, label, original):
        wrapped = self._wrap(label, original)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "ddirac" or mod_name.startswith("ddirac.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original, wrapped))

    def _patch_method(self, module, name):
        cls = module.Cochain
        attr = "__init__" if name == "Cochain" else name
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"lattice.{name}")
            return
        label = f"lattice.{name}"
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(label, original.__func__))
        else:
            wrapped = self._wrap(label, original)
        self._patches.append((cls, attr, original, wrapped))

    def _wrap(self, label, fn):
        counter = COUNTERS.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [self.verdicts, len(self.spans), self._stack[-1], label, 0.0, 0.0]
            self.spans.append(record)
            self._stack.append(record[1])
            record[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = perf_counter()
                self._stack.pop()
            if counter is not None:
                for name, amount in counter(args, result):
                    self.counts.append((record[0], name, amount))
            return result

        return wrapper

    @contextmanager
    def verdict(self):
        """Trace one verdict: wrap the layers, record a root span, unwrap."""
        root = [self.verdicts, len(self.spans), None, VERDICT, 0.0, 0.0]
        self.spans.append(root)
        self._stack.append(root[1])
        for owner, attr, _original, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        root[4] = perf_counter()
        try:
            yield
        finally:
            root[5] = perf_counter()
            for owner, attr, original, _wrapped in self._patches:
                setattr(owner, attr, original)
            self._stack.pop()
            self.verdicts += 1

    def summary(self, count_verdicts: int) -> dict:
        """Per-verdict layer figures.

        Calls and other counts come from the first ``count_verdicts`` traced
        verdicts, whose inputs are fixed by the seed, so they repeat exactly.
        Self times are averaged over every traced verdict.
        """
        n_time = max(self.verdicts, 1)
        n_count = max(min(count_verdicts, self.verdicts), 1)
        child_s: dict[int, float] = defaultdict(float)
        for _v, _sid, parent, _name, start, end in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        names = {record[1]: record[3] for record in self.spans}
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        terms = components = 0
        root_s = covered_s = 0.0
        for v, sid, parent, name, start, end in self.spans:
            if name == VERDICT:
                root_s += end - start
                covered_s += child_s[sid]
                continue
            self_s[name] += end - start - child_s[sid]
            if v < count_verdicts:
                calls[name] += 1
                terms += STENCIL_TERMS.get(name, 0)
                if name == "calculus.delta_mu" and names[parent] in STENCIL_TERMS:
                    components += NSLOTS
        counts: dict[str, float] = defaultdict(float)
        for v, name, amount in self.counts:
            if v < count_verdicts:
                counts[name] += amount

        out = {}
        for layer, fns in LAYERS.items():
            layer_s = 0.0
            for fn in fns:
                label = f"{layer}.{fn}"
                out[f"{label}.calls"] = calls[label] / n_count
                out[f"{label}.self_s"] = self_s[label] / n_time
                layer_s += self_s[label]
            out[f"{layer}.self_s"] = layer_s / n_time
        for name in ("lattice.save.bytes", "clifford.clifford_mul.flops_computed",
                     "clifford.clifford_mul.bytes_computed"):
            out[name] = counts[name] / n_count
        # a stencil that computes only the differences it reads has ratio 1;
        # a workload with no stencil residual reads no terms and reports 0
        out["equations.delta_useful_ratio"] = (
            terms / components if components else (1.0 if terms else 0.0))
        out["trace.span_cover_frac"] = covered_s / root_s if root_s else 0.0
        return out


def metric_table() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric the traced run prints,
    apart from the ``cli.*`` and ``trace.overhead*`` figures added by run.py."""
    rows = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            rows.append((f"{layer}.{fn}.calls", "count/verdict", "lower"))
            rows.append((f"{layer}.{fn}.self_s", "s/verdict", "lower"))
        rows.append((f"{layer}.self_s", "s/verdict", "lower"))
    rows += [
        ("lattice.save.bytes", "B/verdict", "lower"),
        ("clifford.clifford_mul.flops_computed", "flop/verdict", "lower"),
        ("clifford.clifford_mul.bytes_computed", "B/verdict", "lower"),
        ("equations.delta_useful_ratio", "ratio", "higher"),
        ("trace.span_cover_frac", "ratio", "higher"),
    ]
    return rows
