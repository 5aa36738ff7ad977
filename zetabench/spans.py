"""In-memory spans around zetaline's public functions, for traced runs.

``Tracer.install`` replaces each listed function, in every zetaline module
that holds a reference to it, with a wrapper that records a span: name,
start, end, parent span and a few attributes (points, hits, nodes).  Nothing
in src/ changes.  Spans stay in memory; ``write`` dumps them at the end and
``layer_metrics`` turns them into the per-layer figures of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

# (module, function, span name)
TARGETS = (
    ("zeta", "stieltjes", "zeta.stieltjes"),
    ("coefficients", "coeffs_critical", "coefficients.critical"),
    ("cache", "load_values", "cache.load"),
    ("cache", "store_values", "cache.store"),
    ("fastzeta", "zeta_critical", "fastzeta.zeta_critical"),
    ("fastzeta", "zeta_em_line", "fastzeta.zeta_em_line"),
    ("fastzeta", "zeta_rs_line", "fastzeta.zeta_rs_line"),
    ("fastzeta", "hardy_Z", "fastzeta.hardy_Z"),
    ("quadrature", "identity_coffey", "quadrature.coffey"),
    ("quadrature", "log_integral_disk", "quadrature.log_disk"),
    ("quadrature", "bsy_integral", "quadrature.bsy"),
    ("zeros", "ordinates_below", "zeros.ordinates"),
    ("zeros", "coverage_gaps", "zeros.coverage"),
    ("roots", "roots_fN", "roots.roots_fN"),
    ("roots", "winding_count", "roots.winding"),
    ("roots", "tail_radius_certificate", "roots.certificate"),
    ("ergodic", "birkhoff_average", "ergodic.birkhoff"),
)

QUADRATURE_IDS = ("coffey", "log_disk", "bsy")

#: every per-layer metric and its unit, in BENCHMARK.json order (probes last)
LAYER_UNITS = {
    "zeta.stieltjes_s": "s",
    "coefficients.critical_s": "s",
    "cache.loads": "count",
    "cache.hits": "count",
    "cache.stores": "count",
    "cache.load_s": "s",
    "cache.store_s": "s",
    "fastzeta.em_points": "count",
    "fastzeta.rs_points": "count",
    "fastzeta.s": "s",
    **{f"quadrature.{q}.{m}": u for q in QUADRATURE_IDS
       for m, u in (("nodes", "count"), ("native_s", "s"), ("self_s", "s"))},
    "zeros.ordinates_s": "s",
    "zeros.coverage_s": "s",
    "zeros.count": "count",
    "roots.roots_fN_s": "s",
    "roots.winding_s": "s",
    "roots.certificate_s": "s",
    "ergodic.birkhoff_s": "s",
    "ergodic.self_s": "s",
    "ergodic.points": "count",
}


def _points(name: str, args, kwargs, crossover: float) -> tuple:
    """(EM points, RS points) of one outermost fastzeta call."""
    t = np.atleast_1d(np.asarray(args[0] if args else kwargs["t"], dtype=float))
    if name == "fastzeta.zeta_em_line":
        return t.size, 0
    if name == "fastzeta.zeta_rs_line":
        return 0, t.size
    em = int(np.count_nonzero(t < crossover))
    return em, t.size - em


class Tracer:
    """Span recorder: spans[i] = [name, start, end, parent index, attrs]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def span(self, name: str, fn, attrs=None):
        """Call fn() inside a span named ``name``; ``attrs(result)`` adds attributes."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, {}])
        self._stack.append(idx)
        try:
            result = fn()
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()
        if attrs is not None:
            self.spans[idx][4] = attrs(result)
        return result

    def _inside(self, prefix: str) -> bool:
        return any(self.spans[i][0].startswith(prefix) for i in self._stack)

    def _wrap(self, name: str, fn, crossover: float):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            call = lambda: fn(*args, **kwargs)
            if name.startswith("fastzeta.") and not self._inside("fastzeta."):
                em, rs = _points(name, args, kwargs, crossover)
                return self.span(name, call, lambda _: {"em": em, "rs": rs, "outer": 1})
            if name == "cache.load":
                return self.span(name, call, lambda r: {"hit": int(r is not None)})
            if name.startswith("quadrature."):
                return self.span(name, call, lambda r: {"nodes": int(r.nodes_used)})
            if name == "zeros.ordinates":
                return self.span(name, call, lambda r: {"count": int(len(r))})
            if name == "ergodic.birkhoff":
                n_iter = args[2] if len(args) > 2 else kwargs["n_iter"]
                return self.span(name, call, lambda _: {"points": int(n_iter)})
            return self.span(name, call)

        return wrapper

    def install(self) -> None:
        """Wrap every TARGETS function in all loaded zetaline modules."""
        for mod_name in ("cli",) + tuple(t[0] for t in TARGETS):
            importlib.import_module(f"zetaline.{mod_name}")
        modules = [m for k, m in sys.modules.items() if k == "zetaline" or k.startswith("zetaline.")]
        crossover = sys.modules["zetaline.fastzeta"].RS_CROSSOVER
        for mod_name, fn_name, span_name in TARGETS:
            original = getattr(sys.modules[f"zetaline.{mod_name}"], fn_name)
            wrapped = self._wrap(span_name, original, crossover)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"], "spans": self.spans}, fh)

    def layer_metrics(self) -> dict:
        """Per-layer totals over every recorded span (see LAYER_UNITS)."""
        spans = self.spans
        children: dict = {}
        for i, s in enumerate(spans):
            children.setdefault(s[3], []).append(i)
        dur = lambda i: spans[i][2] - spans[i][1]

        def subtree(i):
            stack = list(children.get(i, ()))
            while stack:
                j = stack.pop()
                yield j
                stack.extend(children.get(j, ()))

        def outermost(name_prefix):
            """Spans named with the prefix that have no such ancestor."""
            out = []
            for i, s in enumerate(spans):
                if not s[0].startswith(name_prefix):
                    continue
                p = s[3]
                while p >= 0 and not spans[p][0].startswith(name_prefix):
                    p = spans[p][3]
                if p < 0:
                    out.append(i)
            return out

        def native(i):
            return sum(dur(j) for j in subtree(i) if spans[j][4].get("outer"))

        def self_time(i):
            return dur(i) - sum(dur(j) for j in children.get(i, ()))

        named = lambda n: [i for i, s in enumerate(spans) if s[0] == n]
        m = {k: 0 for k in LAYER_UNITS}
        m["zeta.stieltjes_s"] = sum(dur(i) for i in outermost("zeta.stieltjes"))
        m["coefficients.critical_s"] = sum(dur(i) for i in named("coefficients.critical"))
        loads = named("cache.load")
        m["cache.loads"] = len(loads)
        m["cache.hits"] = sum(spans[i][4].get("hit", 0) for i in loads)
        m["cache.stores"] = len(named("cache.store"))
        m["cache.load_s"] = sum(dur(i) for i in loads)
        m["cache.store_s"] = sum(dur(i) for i in named("cache.store"))
        fz = [i for i, s in enumerate(spans) if s[4].get("outer")]
        m["fastzeta.em_points"] = sum(spans[i][4]["em"] for i in fz)
        m["fastzeta.rs_points"] = sum(spans[i][4]["rs"] for i in fz)
        m["fastzeta.s"] = sum(dur(i) for i in fz)
        for q in QUADRATURE_IDS:
            ids = named(f"quadrature.{q}")
            m[f"quadrature.{q}.nodes"] = sum(spans[i][4].get("nodes", 0) for i in ids)
            m[f"quadrature.{q}.native_s"] = sum(native(i) for i in ids)
            m[f"quadrature.{q}.self_s"] = sum(self_time(i) for i in ids)
        ords = outermost("zeros.ordinates")
        m["zeros.ordinates_s"] = sum(dur(i) for i in ords)
        m["zeros.coverage_s"] = sum(dur(i) for i in named("zeros.coverage"))
        m["zeros.count"] = sum(spans[i][4].get("count", 0) for i in ords)
        m["roots.roots_fN_s"] = sum(dur(i) for i in named("roots.roots_fN"))
        m["roots.winding_s"] = sum(dur(i) for i in named("roots.winding"))
        m["roots.certificate_s"] = sum(dur(i) for i in named("roots.certificate"))
        bk = named("ergodic.birkhoff")
        m["ergodic.birkhoff_s"] = sum(dur(i) for i in bk)
        m["ergodic.self_s"] = sum(dur(i) - native(i) for i in bk)
        m["ergodic.points"] = sum(spans[i][4].get("points", 0) for i in bk)
        return m
