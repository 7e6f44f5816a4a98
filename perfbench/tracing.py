"""Spans and counts around the public functions of each bandres module.

A ``Tracer`` keeps every span in memory as ``(name, start, end, parent,
op)``: ``parent`` is the index of the enclosing span (or -1) and ``op`` the
identifier of the benchmark operation that caused it. ``Hooks`` replaces
the traced functions in every ``bandres`` namespace that holds them and
puts the originals back on exit; nothing under ``src/`` is edited.
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
import time
import warnings

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.op = None
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("span %r closed out of order" % self.spans[idx][0])

    def to_dict(self):
        return {"spans": [list(s) for s in self.spans],
                "counts": dict(self.counts)}


def self_times(spans):
    """Span duration minus the part of its interval that children cover."""
    children = collections.defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _layer(name):
    return name.split(".", 1)[0]


def entry_spans(spans, match):
    """Indices of spans selected by ``match`` with no selected ancestor."""
    keep = []
    for i, span in enumerate(spans):
        if not match(span[0]):
            continue
        p = span[3]
        while p >= 0 and not match(spans[p][0]):
            p = spans[p][3]
        if p < 0:
            keep.append(i)
    return keep


def total_time(spans, match):
    return sum(spans[i][2] - spans[i][1] for i in entry_spans(spans, match))


# --------------------------------------------------------------- counting

def _count_propagation(counts, args, out):
    counts["hill.propagations"] += 1
    counts["hill.energies"] += int(np.size(args[1]))


def _count_nfev(counts, args, out):
    counts["hill.rhs_evals"] += int(out.nfev)


def _count_fast(counts, args, out):
    counts["hill.fast_evals"] += int(np.size(args[1]))


def _count_ladder(counts, args, out):
    counts["solver.ladders"] += 1
    counts["solver.levels"] += len(out)


def _count_grid(counts, args, out):
    counts["oracle.grid_points"] += int(np.size(args[0].diag))


def _counter(key):
    def count(counts, args, out):
        counts[key] += 1
    return count


# (module, attribute, span name or None, count function or None); a dotted
# attribute names a method, and hooks on the same function are listed once.
HOOKS = (
    ("bandres.hill", "band_edges", "hill.band_edges", None),
    ("bandres.hill", "discriminant", None, _count_propagation),
    ("bandres.hill", "discriminant_many", None, _count_propagation),
    ("bandres.hill", "discriminant_with_derivative", None, _count_propagation),
    ("bandres.hill", "integrate_monodromy", None, _count_propagation),
    ("bandres.hill", "solve_ivp", None, _count_nfev),
    ("bandres.hill", "DiscriminantTable.__init__", "hill.table",
     _counter("hill.table.builds")),
    ("bandres.hill", "BandStructure.k_band_fast", "hill.fast", _count_fast),
    ("bandres.hill", "BandStructure.gamma_fast", "hill.fast", _count_fast),
    ("bandres.hill", "BandStructure.kprime_fast", "hill.fast", _count_fast),
    ("bandres.window", "decompose_window", "window.decompose",
     _counter("window.decompose.calls")),
    ("bandres.actions", "phase_integral", "actions.phase_integral", None),
    ("bandres.actions", "phase_integral_derivative",
     "actions.phase_integral_derivative", None),
    ("bandres.actions", "well_phase", "actions.well_phase", None),
    ("bandres.actions", "well_phase_derivative", "actions.well_phase_derivative",
     None),
    ("bandres.actions", "actions_pm", "actions.actions_pm", None),
    ("bandres.actions", "delta_kappa", "actions.delta_kappa", None),
    ("bandres.actions", "tunneling_coefficients",
     "actions.tunneling_coefficients", None),
    ("bandres.actions", "compute_action_data", "actions.compute_action_data",
     None),
    ("bandres.solver", "locate_resonances", "solver.locate_resonances",
     _count_ladder),
    ("bandres.oracle", "oracle_spectrum", "oracle.spectrum", _count_grid),
    ("bandres.oracle", "eigs", "oracle.arpack", _counter("oracle.arpack.solves")),
    ("bandres.oracle", "eigh_tridiagonal", "oracle.tridiag", None),
    ("bandres.momentum", "isoenergy_portrait", "momentum.portrait", None),
    ("bandres.config", "RunConfiguration.load", "config.load", None),
    ("bandres.config", "load_configuration", "config.load", None),
    ("bandres.cli", "main", "cli.main", None),
)


def _call_counting_warnings(tracer, fn, args, kwargs):
    """Count band_edges' closed-gap warnings and pass every warning on."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args, **kwargs)
    for w in caught:
        if "closed within tolerance" in str(w.message):
            tracer.counts["hill.closed_gap_warnings"] += 1
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return out


def _wrap(tracer, fn, name, count):
    if name is None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            count(tracer.counts, args, out)
            return out
        return counted

    counting_warnings = name == "hill.band_edges"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            if counting_warnings:
                out = _call_counting_warnings(tracer, fn, args, kwargs)
            else:
                out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            count(tracer.counts, args, out)
        return out
    return traced


class Hooks:
    """Context manager that installs the ``HOOKS`` wrappers for a tracer.

    A module-level function is replaced in every loaded ``bandres`` module
    that refers to it, because the package imports names across modules.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved = []   # (owner, attribute, original value)

    def __enter__(self):
        try:
            for module_name, attr, name, count in HOOKS:
                self._install(importlib.import_module(module_name), attr, name, count)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _install(self, module, attr, name, count):
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrap(self.tracer, original.__func__, name, count))
            else:
                wrapped = _wrap(self.tracer, original, name, count)
            self._saved.append((cls, meth, original))
            setattr(cls, meth, wrapped)
            return
        original = getattr(module, attr)
        wrapped = _wrap(self.tracer, original, name, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bandres" or mod_name.startswith("bandres.")):
                continue
            if mod.__dict__.get(attr) is original:
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ------------------------------------------------------------- per layer

def layer_metrics(tracer):
    """Per-layer metrics derived from a finished trace."""
    spans, counts = tracer.spans, tracer.counts
    self_s = self_times(spans)

    def named(n):
        return lambda s: s == n

    def self_sum(n):
        return sum(t for t, s in zip(self_s, spans) if s[0] == n)

    def calls_from(child, parent):
        return sum(1 for s in spans
                   if s[0] == child and s[3] >= 0 and spans[s[3]][0] == parent)

    actions = entry_spans(spans, lambda s: _layer(s) == "actions")
    phase_calls = calls_from("actions.well_phase", "solver.locate_resonances")
    levels = counts["solver.levels"]
    return {
        "hill.band_edges.s": total_time(spans, named("hill.band_edges")),
        "hill.propagations": counts["hill.propagations"],
        "hill.energies": counts["hill.energies"],
        "hill.rhs_evals": counts["hill.rhs_evals"],
        "hill.table.builds": counts["hill.table.builds"],
        "hill.table.s": total_time(spans, named("hill.table")),
        "hill.fast_evals": counts["hill.fast_evals"],
        "hill.fast.s": total_time(spans, named("hill.fast")),
        "hill.closed_gap_warnings": counts["hill.closed_gap_warnings"],
        "window.decompose.calls": counts["window.decompose.calls"],
        "window.decompose.s": total_time(spans, named("window.decompose")),
        "actions.calls": len(actions),
        "actions.s": sum(spans[i][2] - spans[i][1] for i in actions),
        "solver.ladders": counts["solver.ladders"],
        "solver.levels": levels,
        "solver.phase_calls": phase_calls,
        "solver.deriv_calls": calls_from("actions.well_phase_derivative",
                                         "solver.locate_resonances"),
        "solver.levels_per_phase_call": levels / phase_calls if phase_calls else 0.0,
        "solver.self_s": self_sum("solver.locate_resonances"),
        "oracle.spectrum.calls": sum(1 for s in spans if s[0] == "oracle.spectrum"),
        "oracle.arpack.solves": counts["oracle.arpack.solves"],
        "oracle.arpack.s": total_time(spans, named("oracle.arpack")),
        "oracle.tridiag.s": total_time(spans, named("oracle.tridiag")),
        "oracle.grid_points": counts["oracle.grid_points"],
        "momentum.portrait.s": total_time(spans, named("momentum.portrait")),
        "config.load.s": total_time(spans, named("config.load")),
        "cli.self_s": self_sum("cli.main"),
    }
