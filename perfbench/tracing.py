"""Spans around the calls into loopbraid's modules, recorded from outside.

``Tracer.install`` replaces the public functions of each layer module, and
the public methods (plus arithmetic dunders) of the classes they define,
with wrappers that record a span: name, start, end, parent span and case
id.  Every reference to a wrapped function in any ``loopbraid`` module is
replaced, so ``from .x import f`` call sites are traced too.  Scalar ring
operations are not spanned (they are too fine-grained); the time they take
counts as self time of the span that performs them.  Spans stay in compact
arrays in memory and are written out by ``Tracer.dump`` after the run.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("cli", "analysis", "tensor", "affine", "words", "braided", "symmetric", "linalg")

# Arithmetic dunders worth a span; constructors, hashing and indexing are not.
DUNDERS = ("__mul__", "__add__", "__sub__", "__eq__")

# Spans that the per-layer metrics name differently from "module.Class.method".
ALIASES = {
    "linalg.Matrix.mul_vec": "linalg.mul_vec",
    "linalg.Matrix.inverse": "linalg.inverse_det",
    "linalg.Matrix.det": "linalg.inverse_det",
    "linalg.RowSpan.insert": "linalg.rowspan",
    "linalg.RowSpan.reduce": "linalg.rowspan",
    "linalg.RowSpan.contains": "linalg.rowspan",
    "linalg.WeightedPerm.__mul__": "linalg.wperm_mul",
    "braided.BVS.yang_baxter": "braided.yang_baxter",
}

# Per-element helpers called once per basis word; spanning them would cost
# more than the work they do, like scalar ops.
UNSPANNED = {"tensor.sigma_action", "tensor.s_action", "tensor.u_action",
             "tensor.right_color_action", "symmetric.compose", "symmetric.inverse",
             "symmetric.sign"}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.case = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.case_id = -1
        self.counts = Counter()
        self.max_width = 0
        self._patches = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, observe=None):
        """fn with a span around each call; name may be a function of the
        call's arguments returning the span name."""
        name_of = name if callable(name) else None
        nid = None if name_of else self._id(name)
        names, parents, cases = self.name, self.parent, self.case
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid if name_of is None else self._id(name_of(args)))
            parents.append(stack[-1])
            cases.append(self.case_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result
        return wrapper

    # -- installing and removing the wrappers ---------------------------------

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "loopbraid" or k.startswith("loopbraid.")]
        observers = self._observers()
        for layer in LAYERS:
            mod = sys.modules["loopbraid." + layer]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._install_methods(layer, obj, observers)
                elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    name = "%s.%s" % (layer, attr)
                    if name in UNSPANNED:
                        continue
                    wrapper = self.wrap(name, obj, observers.get(name))
                    for m in modules:
                        for key, val in list(vars(m).items()):
                            if val is obj:
                                self._patch(m, key, wrapper)

    def _install_methods(self, layer, cls, observers):
        skip_eq = dataclasses.is_dataclass(cls)
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            if attr.startswith("_") and (attr not in DUNDERS or (skip_eq and attr == "__eq__")):
                continue
            full = "%s.%s.%s" % (layer, cls.__name__, attr)
            if full == "linalg.Matrix.__mul__":
                name = _matmul_name
            else:
                name = ALIASES.get(full, full)
            self._patch(cls, attr, self.wrap(name, fn, observers.get(full)))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _observers(self):
        counts = self.counts

        def closure(args, result):
            counts["affine.closure_elements"] += result.order
            counts["affine.closure_new"] += result.order - 1  # the identity seeds it

        def insert(args, result):
            counts["linalg.rowspan.inserts"] += 1
            counts["linalg.rowspan.accepted"] += bool(result)
            self.max_width = max(self.max_width, args[0].width)

        def hom(args, result):
            counts["analysis.hom_space.cells"] += args[2] * args[3]
            counts["analysis.hom_space.live_components"] += len(result)

        def branch(args, result):
            counts["analysis.branch.words_used"] += result.words_used

        def semisimple(args, result):
            counts["analysis.algebra_dim"] += result["algebra_dim"]

        def relations(args, result):
            counts["words.relations_evaluated"] += len(result.results)

        return {"affine.generate_image": closure, "linalg.RowSpan.insert": insert,
                "analysis.hom_space": hom, "analysis.restrict_and_branch": branch,
                "analysis.semisimplicity_check": semisimple,
                "words.check_relations": relations}

    # -- reading the spans ----------------------------------------------------

    def summary(self):
        """Self time per span name and per layer, time of the outermost span
        of each name (recursion counted once), call counts, and the span
        name with the most self time in each case."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        self_by_name = Counter()
        outer_by_name = Counter()
        calls = Counter()
        gen_id = self._ids.get("affine.generate_image")
        zm_id = self._ids.get("linalg.matmul_zm")
        closure_products = 0
        # Spans are stored in start order, so an explicit stack of open
        # spans tells which names enclose each one.
        open_spans, active = [], Counter()
        case_self = Counter()
        for i in range(n):
            nid, p = self.name[i], self.parent[i]
            while open_spans and open_spans[-1] != p:
                active[self.name[open_spans.pop()]] -= 1
            self_by_name[nid] += dur[i] - child[i]
            case_self[self.case[i], nid] += dur[i] - child[i]
            calls[nid] += 1
            if not active[nid]:
                outer_by_name[nid] += dur[i]
            if nid == zm_id and p >= 0 and self.name[p] == gen_id:
                closure_products += 1
            open_spans.append(i)
            active[nid] += 1
        names = self.names
        by_layer = Counter()
        for nid, t in self_by_name.items():
            by_layer[names[nid].split(".")[0]] += t
        case_top = {}
        for (case, nid), t in case_self.items():
            if t > case_top.get(case, (None, -1.0))[1]:
                case_top[case] = (names[nid], t)
        return {"self": {names[k]: v for k, v in self_by_name.items()},
                "case_top": case_top,
                "total": {names[k]: v for k, v in outer_by_name.items()},
                "calls": {names[k]: v for k, v in calls.items()},
                "layer_self": dict(by_layer),
                "closure_products": closure_products,
                "spans": n}

    def dump(self, path, case_ids):
        """Write every span as [name, start, end, parent, case]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"names": %s, "cases": %s, "spans": [\n'
                     % (json.dumps(self.names), json.dumps(case_ids)))
            last = len(self.start) - 1
            for i in range(last + 1):
                fh.write("[%d,%.9f,%.9f,%d,%d]%s\n" % (
                    self.name[i], self.start[i], self.end[i], self.parent[i],
                    self.case[i], "," if i < last else ""))
            fh.write("]}\n")


def _matmul_name(args):
    ring = type(args[0].ring).__name__
    return {"IntegersMod": "linalg.matmul_zm",
            "RationalField": "linalg.matmul_q"}.get(ring, "linalg.matmul_laurent")


def layer_metrics(summary, counts, max_width):
    """The per-layer metric values (seconds and counts) from one traced pass."""
    self_t, total, calls = summary["self"], summary["total"], summary["calls"]
    inserts = counts["linalg.rowspan.inserts"]
    products = summary["closure_products"]
    out = {"%s.self_s" % layer: (summary["layer_self"].get(layer, 0.0), "s")
           for layer in LAYERS}
    out.update({
        "affine.generate_image.self_s": (self_t.get("affine.generate_image", 0.0), "s"),
        "affine.determinant_profile_s": (total.get("affine.determinant_profile", 0.0), "s"),
        "affine.closure_elements": (counts["affine.closure_elements"], "count"),
        "affine.closure_products": (products, "count"),
        "affine.closure_useful_ratio": (counts["affine.closure_new"] / products if products else 0.0,
                                        "ratio"),
        "linalg.matmul_zm.calls": (calls.get("linalg.matmul_zm", 0), "count"),
        "linalg.matmul_zm.s": (total.get("linalg.matmul_zm", 0.0), "s"),
        "linalg.matmul_q.s": (total.get("linalg.matmul_q", 0.0), "s"),
        "linalg.matmul_laurent.s": (total.get("linalg.matmul_laurent", 0.0), "s"),
        "linalg.inverse_det.s": (total.get("linalg.inverse_det", 0.0), "s"),
        "linalg.rowspan.inserts": (inserts, "count"),
        "linalg.rowspan.accepted_ratio": (counts["linalg.rowspan.accepted"] / inserts if inserts else 0.0,
                                          "ratio"),
        "linalg.rowspan.max_width": (max_width, "count"),
        "linalg.rowspan.s": (total.get("linalg.rowspan", 0.0), "s"),
        "linalg.mul_vec.s": (total.get("linalg.mul_vec", 0.0), "s"),
        "linalg.wperm_mul.calls": (calls.get("linalg.wperm_mul", 0), "count"),
        "linalg.wperm_mul.s": (total.get("linalg.wperm_mul", 0.0), "s"),
        "analysis.algebra_dim": (counts["analysis.algebra_dim"], "count"),
        "analysis.hom_space.cells": (counts["analysis.hom_space.cells"], "count"),
        "analysis.hom_space.live_components": (counts["analysis.hom_space.live_components"], "count"),
        "analysis.hom_space.s": (total.get("analysis.hom_space", 0.0), "s"),
        "analysis.branch.words_used": (counts["analysis.branch.words_used"], "count"),
        "analysis.bmw_check.s": (total.get("analysis.bmw_check", 0.0), "s"),
        "tensor.harmonic_decompose.s": (total.get("tensor.harmonic_decompose", 0.0), "s"),
        "tensor.localize.s": (total.get("tensor.localize", 0.0), "s"),
        "tensor.f_operator.s": (total.get("tensor.f_operator", 0.0), "s"),
        "words.check_relations.s": (total.get("words.check_relations", 0.0), "s"),
        "words.relations_evaluated": (counts["words.relations_evaluated"], "count"),
        "braided.yang_baxter.s": (total.get("braided.yang_baxter", 0.0), "s"),
    })
    return out
