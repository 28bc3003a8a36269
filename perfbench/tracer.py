"""In-process tracing of braidties, installed from outside the package.

`Tracer.install` wraps the public functions and methods of each library
module (plus the arithmetic operators of its classes) and patches every
module-level reference to them, so calls across modules go through the
wrappers. Each wrapped call is one span with a start, an end and the
span that caused it. Self time is the span's duration minus the time
its child spans cover, and is summed per module and per counter group.
A span whose caller lies in another module crosses a layer boundary;
those spans are kept in memory (up to a cap) and written out at the end.

Counters read where the work happens:
  rf / cyc     calls and self time of the Q(v) and cyclotomic classes
  echelon      Echelon/TaggedEchelon inserts, and how many gained a pivot
  modp         rows and cells submitted to ModPEchelon, pivots gained
  points       |X| of every finite model constructed
  op_products  operator products in finite_model
  rows         per-class rows produced by coxeter.dimension_rows
"""

from __future__ import annotations

import importlib
import inspect
import time

MODULES = ("scalars", "coxeter", "linalg", "hecke", "btalg", "monodromic",
           "finite_model", "cli")

# operators that are public API of the scalar and element classes
_DUNDERS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
            "__call__"}

_RF_CLASSES = {"LaurentPoly", "RationalFunctionScalar"}
_RF_FUNCS = {"rf_arith", "rf_specialize"}
_CYC_CLASSES = {"Cyclotomic"}
_CYC_FUNCS = {"cyclotomic_poly"}
_OP_PRODUCTS = {"SparseOperator.__mul__", "perm_then_op", "op_then_perm"}


class _Site:
    """Per wrapped callable: where it lives and what it adds up."""
    __slots__ = ("name", "module", "group", "calls", "self_s")

    def __init__(self, name: str, module: str, group: str):
        self.name, self.module, self.group = name, module, group
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self, job_id: int, span_cap: int = 2000):
        self.job_id = job_id
        self.span_cap = span_cap
        self.sites: list[_Site] = []
        self.stack: list[list] = []   # [start, child_s, span_id, site]
        self.spans: list[tuple] = []  # (span, parent, name, start, end)
        self.spans_dropped = 0
        self.next_span = 1
        self.counts = {"echelon_inserts": 0, "echelon_pivots": 0,
                       "modp_rows": 0, "modp_pivots": 0, "modp_cells": 0,
                       "points": 0, "rows": 0}

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn, site: _Site, after=None):
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.next_span
            tracer.next_span = span + 1
            frame = [clock(), 0.0, span, site]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                site.calls += 1
                site.self_s += dur - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                if parent is None or parent[3].module != site.module:
                    if len(spans) < tracer.span_cap:
                        spans.append((span, parent[2] if parent else 0,
                                      site.name, frame[0], end))
                    else:
                        tracer.spans_dropped += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", site.name)
        return traced

    def _hook(self, qualname: str):
        c = self.counts
        if qualname in ("Echelon.insert", "TaggedEchelon.insert"):
            def after(args, result):
                c["echelon_inserts"] += 1
                c["echelon_pivots"] += result is not None
            return after
        if qualname == "ModPEchelon.add_batch":
            def after(args, result):
                rows = args[1].shape[0]
                c["modp_rows"] += rows
                c["modp_cells"] += rows * args[0].ncols
                c["modp_pivots"] += result
            return after
        if qualname == "FiniteModel.__init__":
            def after(args, result):
                c["points"] += args[0].size_x
            return after
        if qualname == "dimension_rows":
            def after(args, result):
                c["rows"] += len(result)
            return after
        return None

    def _group(self, module: str, owner: str, name: str) -> str:
        if module == "scalars":
            if owner in _RF_CLASSES or name in _RF_FUNCS:
                return "rf"
            if owner in _CYC_CLASSES or name in _CYC_FUNCS:
                return "cyc"
        qual = f"{owner}.{name}" if owner else name
        if module == "finite_model" and qual in _OP_PRODUCTS:
            return "op_products"
        return ""

    def _site(self, module: str, owner: str, name: str) -> _Site:
        qual = f"{owner}.{name}" if owner else name
        site = _Site(f"{module}.{qual}", module,
                     self._group(module, owner, name))
        self.sites.append(site)
        return site

    def install(self, package) -> None:
        """Wrap the public callables of every module in MODULES."""
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        replaced: dict[int, object] = {}
        for mname, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(mname, obj)
                elif (inspect.isfunction(obj) or hasattr(obj, "cache_info")) \
                        and obj.__module__ == mod.__name__:
                    site = self._site(mname, "", name)
                    wrapped = self._wrap(obj, site, self._hook(name))
                    replaced[id(obj)] = wrapped
        # patch module-level references: imported names and dispatch dicts
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in replaced:
                            obj[key] = replaced[id(val)]

    def _wrap_class(self, mname: str, cls) -> None:
        for name, raw in list(vars(cls).items()):
            public = not name.startswith("_") or name in _DUNDERS
            hook = self._hook(f"{cls.__name__}.{name}")
            if not public and hook is None:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                site = self._site(mname, cls.__name__, name)
                fn = self._wrap(raw.__func__, site, hook)
                setattr(cls, name, type(raw)(fn))
            elif inspect.isfunction(raw):
                site = self._site(mname, cls.__name__, name)
                setattr(cls, name, self._wrap(raw, site, hook))

    # -- results --------------------------------------------------------

    def summary(self, kl_cache) -> dict:
        modules = {m: {"calls": 0, "self_s": 0.0} for m in MODULES}
        groups: dict[str, dict] = {}
        for s in self.sites:
            agg = modules[s.module]
            agg["calls"] += s.calls
            agg["self_s"] += s.self_s
            if s.group:
                g = groups.setdefault(s.group, {"calls": 0, "self_s": 0.0})
                g["calls"] += s.calls
                g["self_s"] += s.self_s
        info = kl_cache.cache_info()
        return {"modules": modules, "groups": groups, "counts": self.counts,
                "kl_lift_hits": info.hits,
                "kl_lift_lookups": info.hits + info.misses,
                "spans_recorded": len(self.spans),
                "spans_dropped": self.spans_dropped}

    def span_records(self) -> list[dict]:
        return [{"job": self.job_id, "span": s, "parent": p, "name": name,
                 "start": start, "end": end}
                for s, p, name, start, end in self.spans]
