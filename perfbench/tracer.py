"""Per-layer tracing from outside the program.

`Tracer.install` replaces every public function of each `minsurf4` module,
and every method of the public classes defined there, by a wrapper that
counts the call and times it as a span. Module-level functions are replaced
in every `minsurf4` namespace that holds them, because modules import each
other's functions by name. `uninstall` puts the originals back.

A layer is a module. A span's exclusive time is its duration minus the
durations of the spans it encloses; a layer's self time is the sum of the
exclusive times of its spans. Time spent in the standard library or numpy
therefore counts to the layer that called it. Spans are not kept one by
one (a falsify instance makes ~10^4 of them); the tracer keeps per-function
counts and times, the per-layer self times, and one span per item.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = (
    "scalars",
    "poly",
    "rational",
    "laurent",
    "sphere",
    "domains",
    "metric",
    "gaussmap",
    "weierstrass",
    "lagrangian",
    "meshing",
    "nonorientable",
    "report",
    "config",
    "cli",
)

# Methods that are never worth a span: attribute guards and reprs.
_SKIP_METHODS = {"__setattr__", "__repr__", "__init_subclass__"}


class Tracer:
    def __init__(self, package="minsurf4"):
        self.package = package
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.items = []
        self._stack = []
        self._depth = Counter()
        self._patches = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, layer, key, fn):
        stack = self._stack
        depth = self._depth
        calls = self.calls
        total_s = self.total_s
        self_s = self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            depth[key] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                depth[key] -= 1
                calls[key] += 1
                self_s[layer] += dt - inner
                if not depth[key]:
                    total_s[key] += dt
                if stack:
                    stack[-1] += dt

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def item_span(self, name, start, end):
        self.items.append({"name": name, "start": start, "end": end})

    # -- patching -------------------------------------------------------------

    def _modules(self):
        return {
            layer: importlib.import_module(f"{self.package}.{layer}") for layer in LAYERS
        }

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        namespaces = list(modules.values()) + [importlib.import_module(self.package)]
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(layer, f"{layer}.{name}", obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._patch_class(layer, obj)
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((ns, name, obj))
                    setattr(ns, name, hit[1])

    def _patch_class(self, layer, cls):
        made = {}
        for name, attr in list(vars(cls).items()):
            if name in _SKIP_METHODS:
                continue
            if isinstance(attr, (staticmethod, classmethod)):
                fn = attr.__func__
                key = f"{layer}.{cls.__name__}.{fn.__name__}"
                new = type(attr)(made.setdefault(id(fn), self._wrap(layer, key, fn)))
            elif inspect.isfunction(attr):
                key = f"{layer}.{cls.__name__}.{attr.__name__}"
                new = made.setdefault(id(attr), self._wrap(layer, key, attr))
            else:
                continue
            self._patches.append((cls, name, attr))
            setattr(cls, name, new)

    def uninstall(self):
        for ns, name, obj in reversed(self._patches):
            setattr(ns, name, obj)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def layer_metrics(self, complete):
        """The per-layer metrics named in BENCHMARK.json; `complete` is the
        number of complete falsify instances among the draws."""
        c, t, s = self.calls, self.total_s, self.self_s
        draws = c["gaussmap.verify_main_inequality"]
        return {
            "scalars.self_s": (s["scalars"], "s"),
            "scalars.gaussian_rational_new": (c["scalars.GaussianRational.__init__"], "count"),
            "scalars.to_complex_calls": (c["scalars.to_complex"], "count"),
            "poly.self_s": (s["poly"], "s"),
            "poly.divmod_calls": (c["poly.Polynomial.__divmod__"], "count"),
            "poly.multiplicity_at_calls": (c["poly.multiplicity_at"], "count"),
            "poly.multiplicity_at_s": (t["poly.multiplicity_at"], "s"),
            "poly.gcd_calls": (c["poly.gcd"], "count"),
            "poly.gcd_s": (t["poly.gcd"], "s"),
            "poly.eval_calls": (c["poly.Polynomial.eval"], "count"),
            "poly.roots_s": (t["poly.roots"], "s"),
            "rational.self_s": (s["rational"], "s"),
            "rational.construct_calls": (c["rational.RationalFunction.__init__"], "count"),
            "rational.eval_at_calls": (c["rational.RationalFunction.eval_at"], "count"),
            "laurent.self_s": (s["laurent"], "s"),
            "laurent.eval_calls": (c["laurent.LaurentPoly.eval"], "count"),
            "metric.is_complete_s": (t["metric.is_complete"], "s"),
            "gaussmap.exceptional_values_s": (t["gaussmap.exceptional_values"], "s"),
            "gaussmap.draws": (draws, "count"),
            "gaussmap.complete_per_draw": (complete / draws if draws else 0.0, "ratio"),
            "weierstrass.check_conformality_s": (t["weierstrass.check_conformality"], "s"),
            "weierstrass.self_s": (s["weierstrass"], "s"),
            "weierstrass.immerse_s": (t["weierstrass.immerse"], "s"),
            "meshing.export_mesh_s": (t["meshing.export_mesh"], "s"),
            "meshing.mesh_text_s": (t["meshing.mesh_text"], "s"),
            "nonorientable.half_domain_mesh_s": (t["nonorientable.half_domain_mesh"], "s"),
            "nonorientable.loop_periods_psi_s": (t["nonorientable.loop_periods_psi"], "s"),
            "nonorientable.sandwich_check_s": (t["nonorientable.sandwich_check"], "s"),
            "nonorientable.f_bounds_s": (t["nonorientable.f_bounds"], "s"),
            "nonorientable.build_f_s": (t["nonorientable.build_f"], "s"),
            "report.self_s": (s["report"], "s"),
            "config.load_config_s": (t["config.load_config"], "s"),
        }

    def dump(self):
        """JSON-ready record of everything the tracer kept."""
        return {
            "functions": {
                key: {"calls": self.calls[key], "total_s": self.total_s[key]}
                for key in sorted(self.calls)
            },
            "layer_self_s": dict(sorted(self.self_s.items())),
            "item_spans": self.items,
        }
