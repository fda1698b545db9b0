"""Span tracing around elldiv's public functions, installed from outside.

``Tracer.install`` replaces every public function of the seven elldiv
modules with a wrapper that records a span (layer, name, start, end,
parent). A function is wrapped in every namespace that binds it, not only
the module that defines it: ``factorize`` is bound in ``numtheory``,
``denominators``, ``suites``, ``modp`` and the package itself, and a call
through any of them must be seen. Module-level dicts of functions
(``suites.SUITES``) and the public and operator methods of elldiv's classes
(``Point.__add__``) are wrapped too. Private helpers are not: ``modp._add``
runs close to a million times per sweep and its cost shows as self time of
the public function that called it.

Spans stay in memory; ``metrics`` folds them into per-layer figures and
``write`` dumps them once the operation is over. A span's self time is its
duration minus the durations of its direct child spans.
"""

import functools
import importlib
import json
import math
import time
import types
from collections import Counter, defaultdict

LAYERS = ("cli", "suites", "denominators", "heights", "rational_ec", "modp", "numtheory")
SUITES = ("group", "heights", "parity", "sequence", "modp")
OPERATOR_METHODS = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__")


def _point_bits(_args, point):
    if point.is_identity:
        return 0
    return max(point.x.numerator.bit_length(), point.x.denominator.bit_length(),
               point.y.numerator.bit_length(), point.y.denominator.bit_length())


# Per-call facts recorded from a wrapped function's arguments and result.
NOTES = {
    ("numtheory", "factorize"): lambda _args, fac: fac.is_complete,
    ("heights", "canonical_height"): lambda _args, est: est.iterations_used,
    ("modp", "sweep_primes"): lambda args, res: (len(args[2]), res[0], len(res[2])),
    ("rational_ec", "Point.__add__"): _point_bits,
    ("rational_ec", "Point.__mul__"): _point_bits,
}


class Tracer:
    def __init__(self):
        self.spans = []     # (layer, name, start, end, parent index, note)
        self._stack = []
        self._wrappers = {}

    def _wrap(self, fn):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        layer, name = fn.__module__.rpartition(".")[2], fn.__qualname__
        note = NOTES.get((layer, name))
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, name, start, end, parent,
                                note(args, result) if note and result is not None else None)

        self._wrappers[id(fn)] = traced
        return traced

    @staticmethod
    def _is_public_function(value):
        return (isinstance(value, types.FunctionType) and value.__module__.startswith("elldiv.")
                and not hasattr(value, "__wrapped__"))

    def install(self):
        """Wrap the public functions of every elldiv module, in every namespace binding them."""
        namespaces = [importlib.import_module("elldiv")]
        namespaces += [importlib.import_module(f"elldiv.{layer}") for layer in LAYERS]
        wrapped_classes = set()
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if attr.startswith("_"):
                    continue
                if self._is_public_function(value):
                    setattr(ns, attr, self._wrap(value))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if self._is_public_function(item):
                            value[key] = self._wrap(item)
                elif isinstance(value, type) and value.__module__.startswith("elldiv.") \
                        and id(value) not in wrapped_classes:
                    wrapped_classes.add(id(value))
                    for name, method in list(vars(value).items()):
                        public = not name.startswith("_") or name in OPERATOR_METHODS
                        if public and isinstance(method, types.FunctionType):
                            setattr(value, name, self._wrap(method))

    def metrics(self):
        """Per-layer figures of every span recorded so far."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for layer, name, start, end, parent, note in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        notes = defaultdict(list)
        for i, (layer, name, start, end, parent, note) in enumerate(spans):
            key = (layer, name)
            calls[key] += 1
            total[key] += end - start
            own[key] += end - start - child_time[i]
            layer_self[layer] += end - start - child_time[i]
            if note is not None:
                notes[key].append(note)

        factorized = notes[("numtheory", "factorize")]
        swept = notes[("modp", "sweep_primes")]
        tested = sum(n - skipped for n, _, skipped in swept)
        bits = notes[("rational_ec", "Point.__add__")] + notes[("rational_ec", "Point.__mul__")]
        out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        out.update({
            "heights.canonical_height.calls": calls[("heights", "canonical_height")],
            "heights.doublings": sum(notes[("heights", "canonical_height")]),
            "heights.siegel_ratio.calls": calls[("heights", "siegel_ratio")],
            "rational_ec.add.calls": calls[("rational_ec", "Point.__add__")],
            "rational_ec.mul.calls": calls[("rational_ec", "Point.__mul__")],
            "rational_ec.max_digits": math.ceil(max(bits, default=0) * math.log10(2)),
            "denominators.denom_term.calls": calls[("denominators", "denom_term")],
            "denominators.primitive_part.self_s": own[("denominators", "primitive_part")],
            "numtheory.factorize.calls": calls[("numtheory", "factorize")],
            "numtheory.factorize.self_s": own[("numtheory", "factorize")],
            "numtheory.factorize.complete_ratio": sum(factorized) / max(len(factorized), 1),
            "numtheory.is_prime.calls": calls[("numtheory", "is_prime")],
            "numtheory.primes_upto.self_s": own[("numtheory", "primes_upto")],
            "modp.primes_swept": sum(n for n, _, _ in swept),
            "modp.member_ratio": sum(c for _, c, _ in swept) / max(tested, 1),
            "modp.in_cyclic_subgroup.self_s": own[("modp", "in_cyclic_subgroup")],
            "modp.group_order.self_s": sum(v for (layer, name), v in own.items()
                                           if layer == "modp" and name.startswith("group_order")),
        })
        out.update({f"suites.{s}.s": total[("suites", f"suite_{s}")] for s in SUITES})
        return out

    def write(self, path):
        """Dump the spans, one JSON array per line: index, parent, layer, name, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, (layer, name, start, end, parent, _) in enumerate(self.spans):
                handle.write(json.dumps([i, parent, layer, name, start, end]) + "\n")
