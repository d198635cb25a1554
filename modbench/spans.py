"""Span and counter collection around moditer's public functions.

The tracer wraps each name where its caller looks it up (``forms.horner_many``
for the Horner kernel, ``lfun.conv_complex`` for the convolution kernel,
``quad.iterated_integral`` for one nested sweep, and so on), so nothing in the
package changes.  A wrapped call records a span (request, name, start, end,
parent span) and adds its self time -- its duration minus that of the wrapped
calls inside it -- to its layer.  Counters are taken at the same boundaries.
A name the package no longer has is listed as absent and costs nothing.

Spans and counters stay in memory; ``write`` puts them in a file at the end.
"""

from __future__ import annotations

import importlib
import json
import math
from collections import defaultdict
from time import perf_counter

import numpy as np

MAX_SPANS = 20000
USEFUL = math.log(1e20)  # a Horner term counts as useful above 1e-20 of the largest


def _horner(t, frame, args, kwargs, result):
    coeffs, ws = np.asarray(args[0]), np.asarray(args[1])
    t.count["kernels.horner_terms"] += coeffs.size * ws.size
    if coeffs.size and ws.size:
        r = float(np.abs(ws).max())
        with np.errstate(divide="ignore"):
            logs = np.log(np.abs(coeffs)) + np.arange(coeffs.size) * math.log(max(r, 1e-300))
        useful = int(np.count_nonzero(logs >= logs.max() - USEFUL))
        t.count["forms.horner_useful_terms"] += useful * ws.size


def _conv(t, frame, args, kwargs, result):
    t.count["kernels.conv_macs"] += len(args[0]) * len(args[1])


def _points(t, frame, args, kwargs, result):
    t.count["forms.eval_points"] += np.size(args[1])


def _one_point(t, frame, args, kwargs, result):
    t.count["forms.eval_points"] += 1


def _sweep(t, frame, args, kwargs, result):
    panels, g = args[1], args[2]
    t.count["quad.sweeps"] += 1
    t.count["quad.nodes"] += len(panels) * g


def _adaptive(t, frame, args, kwargs, result):
    # each attempt is a coarse and a fine sweep; every attempt after the
    # first doubled the panels
    t.count["quad.doublings"] += max(0, (t.count["quad.sweeps"] - frame.sweeps) // 2 - 1)


def _report(t, frame, args, kwargs, result):
    t.count["iterint.reports"] += 1
    t.count["iterint.report_sweeps"] += t.count["quad.sweeps"] - frame.sweeps


def _direct(t, frame, args, kwargs, result):
    t.count["lfun.direct_calls"] += 1
    config = args[1] if len(args) > 1 else kwargs.get("config")
    t.count["lfun.shells"] += config.cutoff if config is not None else t.default_cutoff


def _terms(t, frame, args, kwargs, result):
    t.count["identities.terms"] += len(result)


def _build(t, frame, args, kwargs, result):
    t.count["forms.build_calls"] += 1


def _series(t, frame, args, kwargs, result):
    if frame.parent_layer != "qseries":
        t.count["qseries.calls"] += 1
        t.count["qseries.coeffs"] += len(getattr(result, "coeffs", ()))


# (module, attribute, layer, counter); "Class.method" patches the class
WRAPPED = [
    ("moditer.forms", "horner_many", "kernels.horner", _horner),
    ("moditer.iterint", "conv_complex", "kernels.conv", _conv),
    ("moditer.lfun", "conv_complex", "kernels.conv", _conv),
    ("moditer.iterint", "evaluate_many", "forms.eval", _points),
    ("moditer.forms", "evaluate_many", "forms.eval", _points),
    ("moditer.forms", "evaluate_at", "forms.eval", _one_point),
    ("moditer.forms", "builtin", "forms.build", _build),
    ("moditer.forms", "load_form", "forms.build", _build),
    ("moditer.quad", "iterated_integral", "quad", _sweep),
    ("moditer.mzv", "iterated_integral", "quad", _sweep),
    ("moditer.quad", "adaptive_iterated", "quad", _adaptive),
    ("moditer.iterint", "iterint_report", "iterint", _report),
    ("moditer.iterint", "nested_quadrature", "iterint", None),
    ("moditer.iterint", "tilde_I_fourier", "iterint", None),
    ("moditer.mzv", "mzv_modular_integral", "mzv", None),
    ("moditer.mzv", "modular_raw_integral", "mzv", None),
    ("moditer.mzv", "mzv_series", "mzv", None),
    ("moditer.mzv", "mzv_p1_integral", "mzv", None),
    ("moditer.mzv", "p1_word_integral", "mzv", None),
    ("moditer.lfun", "L_direct", "lfun", _direct),
    ("moditer.lfun", "evaluate_L_terms", "lfun", None),
    ("moditer.lfun", "evaluate_I_terms", "lfun", None),
    ("moditer.lfun", "L_continued", "lfun", None),
    ("moditer.identities", "thI_expand", "identities", _terms),
    ("moditer.identities", "thS_expand", "identities", _terms),
    ("moditer.identities", "Coeff.evaluate", "identities.coeff_eval", None),
    ("moditer.qseries", "builtin_form", "qseries", _series),
    ("moditer.qseries", "eta_series", "qseries", _series),
    ("moditer.qseries", "eisenstein_series", "qseries", _series),
    ("moditer.qseries", "logderiv", "qseries", _series),
    ("moditer.qseries", "QSeries.__add__", "qseries", _series),
    ("moditer.qseries", "QSeries.__sub__", "qseries", _series),
    ("moditer.qseries", "QSeries.__mul__", "qseries", _series),
    ("moditer.qseries", "QSeries.__truediv__", "qseries", _series),
    ("moditer.qseries", "QSeries.__pow__", "qseries", _series),
    ("moditer.cli", "main", "cli", None),
]


class _Frame:
    __slots__ = ("layer", "parent_layer", "span", "child", "sweeps")

    def __init__(self, layer, parent_layer, span, sweeps):
        self.layer = layer
        self.parent_layer = parent_layer
        self.span = span
        self.child = 0.0
        self.sweeps = sweeps


class Tracer:
    def __init__(self, default_cutoff: int):
        self.default_cutoff = default_cutoff
        self.self_s = defaultdict(float)
        self.count = defaultdict(int)
        self.spans = []
        self.dropped = 0
        self.request = None
        self.absent = []
        self._stack = []
        self._next_span = 0
        self._patches = []  # (owner, attribute, original, wrapper)
        for module, attr, layer, counter in WRAPPED:
            owner = importlib.import_module(module)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module}.{attr}")
                continue
            self._patches.append((owner, name, original, self._wrap(original, f"{module[8:]}.{attr}", layer, counter)))

    def _wrap(self, original, span_name, layer, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            frame = _Frame(layer, stack[-1].layer if stack else None, tracer._next_span,
                           tracer.count["quad.sweeps"])
            tracer._next_span += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(frame, span_name, t0, perf_counter())
                raise
            t1 = perf_counter()
            if counter is not None:
                counter(tracer, frame, args, kwargs, result)
            tracer._close(frame, span_name, t0, t1)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", span_name)
        return wrapper

    def _close(self, frame, span_name, t0, t1):
        stack = self._stack
        stack.pop()
        self.self_s[frame.layer] += (t1 - t0) - frame.child
        if len(self.spans) < MAX_SPANS:
            parent = stack[-1].span if stack else None
            self.spans.append((self.request, frame.span, parent, span_name, t0, t1))
        else:
            self.dropped += 1
        if stack:
            # the parent is charged neither for this call nor for its bookkeeping
            stack[-1].child += perf_counter() - t0

    def install(self):
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "count": dict(self.count),
                "absent": self.absent, "spans_dropped": self.dropped}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({**self.summary(),
                       "spans": [dict(zip(("request", "id", "parent", "name", "start", "end"), s))
                                 for s in self.spans]}, fh)
