"""Spans around homred's public functions, recorded from outside.

:meth:`Tracer.install` wraps every public module-level function of every
loaded ``homred`` module, the ``__init__`` of every public class, and the
certificate's ``to_json``/``from_json``, then rebinds each name wherever
a homred module holds it (``from .x import f`` copies included), so calls
between modules are seen too.  A span records its name, layer, start,
end, parent span and job; a layer's self time is its spans' durations
minus the part covered by their child spans.  :meth:`uninstall` puts the
originals back.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# one layer per module, with gadgets split by role
LAYERS = ("formats", "graphs", "homcount", "potts", "codes", "csp", "convex",
          "gadgets.build", "gadgets.cuts", "gadgets.emit", "gadgets.load",
          "gadgets.verify", "cli")
GADGET_LAYERS = {
    "multiterminal_cuts": "gadgets.cuts",
    "materialise_cut_to_whom": "gadgets.emit",
    "materialise_potts_to_jq": "gadgets.emit",
    "materialise_cut_to_j3star": "gadgets.emit",
    "ReductionCertificate.to_json": "gadgets.emit",
    "ReductionCertificate.from_json": "gadgets.load",
    "verify_certificate": "gadgets.verify",
    "certificate_value": "gadgets.verify",
    "certificate_oracle": "gadgets.verify",
}

# functions whose arguments and result feed a size counter
NOTED = {
    "count_ewhom", "potts_mono_histogram", "hypergraph_mono_histogram",
    "random_cluster_graph", "weight_enumerator", "multiterminal_cuts", "count_wcsp",
    "parse_graph", "parse_hypergraph", "parse_weights", "parse_csp", "parse_code",
    "ReductionCertificate.to_json", "ReductionCertificate.from_json", "verify_certificate",
}


def layer_of(module: str, name: str) -> str:
    short = module.split(".", 1)[1]
    if short == "gadgets":
        return GADGET_LAYERS.get(name, "gadgets.build")
    return short


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, layer, t0, t1, parent, job)
        self.notes: list[tuple] = []  # (name, args, result)
        self.job = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, layer: str, fn):
        """Run ``fn()`` inside a span; used for the per-job root span."""
        return self._wrap(fn, name, layer)()

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, notes = self.spans, self._stack, self.notes
        noted = name in NOTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (name, layer, t0, t1, parent, self.job)
            if noted:  # a shallow copy, as callers may mutate a returned report
                notes.append((name, args, dict(result) if isinstance(result, dict) else result))
            return result

        return traced

    # -- installing ----------------------------------------------------------

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("homred.")]
        swap = {}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    swap[obj] = self._wrap(obj, name, layer_of(mod.__name__, name))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, mod.__name__)
        for mod in [sys.modules["homred"]] + modules:
            for name, obj in list(vars(mod).items()):
                try:
                    wrapper = swap.get(obj)
                except TypeError:  # unhashable module global
                    continue
                if wrapper is not None:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def _wrap_class(self, cls, module: str):
        for attr in ("__init__", "to_json", "from_json"):
            raw = cls.__dict__.get(attr)
            if raw is None:
                continue
            name = f"{cls.__name__}.{attr}" if attr != "__init__" else cls.__name__
            layer = layer_of(module, name)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, layer))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, name, layer)
            else:
                continue
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        for holder, name, obj in reversed(self._undo):
            setattr(holder, name, obj)
        self._undo.clear()

    # -- summarising ---------------------------------------------------------

    def layer_totals(self, factors=None):
        """Per layer: (calls, self seconds); self = duration - child durations.

        ``factors`` optionally rescales each job's spans (job -> factor).
        """
        child = [0.0] * len(self.spans)
        for name, layer, t0, t1, parent, job in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for sid, (name, layer, t0, t1, parent, job) in enumerate(self.spans):
            f = factors.get(job, 1.0) if factors else 1.0
            calls[layer] = calls.get(layer, 0) + 1
            self_s[layer] = self_s.get(layer, 0.0) + ((t1 - t0) - child[sid]) * f
        return calls, self_s
