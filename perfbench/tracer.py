"""Outside-in tracer: wraps finloc's public functions and methods at run time.

Nothing in the library changes.  ``Tracer.install()`` replaces each traced
function or method with a timing wrapper, in its defining module or class
and in every other loaded ``finloc`` module that imported it by name (for
example ``galois`` imports ``power_locale`` and ``induced_morphism``).

Every wrapped call records a span ``(name, start, end, parent, op)``; spans
stay in memory and ``dump()`` writes them out at the end.  Statistics are
kept per phase ("setup" outside timed ops, "ops" inside them): calls, self
time (span time minus child spans) and the counts listed in ``TRACED``.
Generator functions are timed across their iterations: only the time spent
inside the generator counts, not the consumer's work between items.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time

# (module, qualified name, span name, count hooks).  Span names follow
# "<module>.<function>", with the class kept for methods whose name alone is
# ambiguous.  A hook maps (args, result) to the amount added to
# "<span>.<count>"; the "elements" hook of present.lattice is special-cased
# so that a cached lattice returned twice in one op counts once.
TRACED = [
    ("lattice", "FiniteSupLattice.from_order", "lattice.from_order",
     {"elements": lambda a, r: len(r)}),
    ("lattice", "power_locale", "lattice.power_locale",
     {"elements": lambda a, r: len(r)}),
    ("lattice", "function_lattice", "lattice.function_lattice",
     {"elements": lambda a, r: len(r)}),
    ("lattice", "locale_morphisms", "lattice.locale_morphisms",
     {"found": lambda a, r: len(r)}),
    ("lattice", "all_locales", "lattice.all_locales", {}),
    ("present", "PresentedSupLattice.closure", "present.closure", {}),
    ("present", "PresentedSupLattice.lattice", "present.lattice",
     {"elements": None}),
    ("present", "tensor", "present.tensor", {}),
    ("present", "induced_morphism", "present.induced_morphism", {}),
    ("relation", "selfduality", "relation.selfduality", {}),
    ("relation", "images", "relation.images", {}),
    ("modb", "BModule.__init__", "modb.BModule.init", {}),
    ("modb", "DualityData.__init__", "modb.DualityData.init", {}),
    ("modb", "dual_morphism", "modb.dual_morphism", {}),
    ("sheaf", "enumerate_sheaves", "sheaf.enumerate_sheaves", {}),
    ("sheaf", "build_Xd", "sheaf.build_Xd", {}),
    ("sheaf", "selfdual_Xd", "sheaf.selfdual_Xd", {}),
    ("tannaka", "Coend.__init__", "tannaka.Coend.init", {}),
    ("tannaka", "Coend.check_cogebroide", "tannaka.Coend.check_cogebroide", {}),
    ("tannaka", "Coend.cocompose", "tannaka.Coend.cocompose", {}),
    ("galois", "default_site", "galois.default_site", {}),
    ("galois", "etale_module", "galois.etale_module",
     {"elements": lambda a, r: len(r[0].lattice)}),
    ("galois", "GaloisCoend.__init__", "galois.GaloisCoend.init", {}),
    ("galois", "GaloisCoend.verify_hopf", "galois.GaloisCoend.verify_hopf", {}),
    ("galois", "groupoid_to_hopf", "galois.groupoid_to_hopf", {}),
    ("galois", "reconstruct", "galois.reconstruct", {}),
    ("galois", "enumerate_bijection_cones", "galois.enumerate_bijection_cones",
     {}),
    ("galois", "factor_cone", "galois.factor_cone", {}),
    ("galois", "enumerate_actions", "galois.enumerate_actions",
     {"found": lambda a, r: len(r)}),
    ("galois", "enumerate_comodules", "galois.enumerate_comodules",
     {"found": lambda a, r: len(r)}),
    ("galois", "equivalence_check", "galois.equivalence_check",
     {"candidates": lambda a, r: r.candidates_checked}),
    # the set-level cross-checks of equivalence_check, reported together
    ("galois", "restricted_theta_axioms", "galois.set_level", {}),
    ("galois", "comodule_morphism_holds", "galois.set_level", {}),
    ("galois", "relation_is_invariant", "galois.set_level", {}),
    ("galois", "diamond_on_relation", "galois.set_level", {}),
    ("cli", "parse", "cli.parse", {}),
    ("cli", "run", "cli.run", {}),
]

# Functions counted, not timed, while a span of another function is open:
# (module, name) -> (enclosing span, count name).
COUNTED_UNDER = {
    ("lattice", "check_locale_morphism"): ("lattice.locale_morphisms", "checked"),
}


class Tracer:
    def __init__(self):
        self.names = []  # span name table; spans refer to names by index
        self._name_ix = {}
        self.spans = []  # [name index, start, end, parent span, op index]
        self._stack = []  # open frames: [span index, child time, name index]
        self.op = None  # index into self.ops while a timed op runs
        self.ops = []
        self.stats = {"setup": {}, "ops": {}}  # name -> [calls, self_s]
        self.counts = {"setup": {}, "ops": {}}  # "<span>.<count>" -> amount
        self.errors = {"setup": {}, "ops": {}}  # module -> escaped exceptions
        self._open = {}  # span name -> open depth
        self._seen_lattices = set()

    # -- ops -------------------------------------------------------------

    def begin_op(self, op_id: str):
        self.ops.append(op_id)
        self.op = len(self.ops) - 1
        self._seen_lattices.clear()

    def end_op(self):
        self.op = None
        self._seen_lattices.clear()

    def _phase(self):
        return "setup" if self.op is None else "ops"

    # -- spans -----------------------------------------------------------

    def _name(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        return ix

    def _push(self, name_ix: int, start: float, span: int | None = None) -> list:
        """Open a frame on a new span, or on `span` when a generator resumes."""
        if span is None:
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append([name_ix, start, None, parent, self.op])
            span = len(self.spans) - 1
        frame = [span, 0.0, name_ix]
        self._stack.append(frame)
        name = self.names[name_ix]
        self._open[name] = self._open.get(name, 0) + 1
        return frame

    def _pop(self, frame: list, end: float, busy: float) -> None:
        self._stack.pop()
        name = self.names[frame[2]]
        self._open[name] -= 1
        if self._stack:
            self._stack[-1][1] += busy
        st = self.stats[self._phase()].setdefault(name, [0, 0.0])
        st[1] += busy - frame[1]

    def _count(self, key: str, amount) -> None:
        table = self.counts[self._phase()]
        table[key] = table.get(key, 0) + amount

    def _error(self, module: str, exc: BaseException) -> None:
        if getattr(exc, "_perfbench_seen", None) == module:
            return  # already counted where it left this module
        try:
            exc._perfbench_seen = module
        except AttributeError:
            pass
        table = self.errors[self._phase()]
        table[module] = table.get(module, 0) + 1

    def wrap(self, module: str, name: str, fn, hooks: dict):
        tracer = self
        name_ix = self._name(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer._traced_gen(module, name, name_ix,
                                          fn(*args, **kwargs))
            return wrapper

        lattice_hook = "elements" in hooks and hooks["elements"] is None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._push(name_ix, time.perf_counter())
            tracer.stats[tracer._phase()].setdefault(name, [0, 0.0])[0] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                tracer.spans[frame[0]][2] = end
                tracer._pop(frame, end, end - tracer.spans[frame[0]][1])
                tracer._error(module, exc)
                raise
            end = time.perf_counter()
            tracer.spans[frame[0]][2] = end
            tracer._pop(frame, end, end - tracer.spans[frame[0]][1])
            if lattice_hook:  # count each materialized lattice once per op
                if id(result) not in tracer._seen_lattices:
                    tracer._seen_lattices.add(id(result))
                    tracer._count(f"{name}.elements", len(result))
            for key, hook in hooks.items():
                if hook is not None:
                    tracer._count(f"{name}.{key}", hook(args, result))
            return result
        return wrapper

    def _traced_gen(self, module, name, name_ix, inner):
        self.stats[self._phase()].setdefault(name, [0, 0.0])[0] += 1
        span = None
        yielded = 0
        try:
            while True:
                start = time.perf_counter()
                frame = self._push(name_ix, start, span)
                span = frame[0]
                try:
                    item = next(inner)
                except StopIteration:
                    end = time.perf_counter()
                    self.spans[span][2] = end
                    self._pop(frame, end, end - start)
                    break
                except BaseException as exc:
                    end = time.perf_counter()
                    self.spans[span][2] = end
                    self._pop(frame, end, end - start)
                    self._error(module, exc)
                    raise
                end = time.perf_counter()
                self.spans[span][2] = end
                self._pop(frame, end, end - start)
                yielded += 1
                yield item
        finally:
            inner.close()
            self._count(f"{name}.yielded", yielded)

    def counter(self, under: str, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._open.get(under):
                tracer._count(f"{under}.{key}", 1)
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        modules = {m: importlib.import_module(f"finloc.{m}")
                   for m in {t[0] for t in TRACED} | {k[0] for k in COUNTED_UNDER}}
        loaded = [m for n, m in sys.modules.items()
                  if n == "finloc" or n.startswith("finloc.")]
        for module, qualname, name, hooks in TRACED:
            owner = modules[module]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if path else getattr(owner, attr)
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(
                    self.wrap(module, name, raw.__func__, hooks)))
            elif path:
                setattr(owner, attr, self.wrap(module, name, raw, hooks))
            else:
                self._rebind(loaded, raw, self.wrap(module, name, raw, hooks))
        for (module, fname), (under, key) in COUNTED_UNDER.items():
            raw = getattr(modules[module], fname)
            self._rebind(loaded, raw, self.counter(under, key, raw))

    @staticmethod
    def _rebind(loaded, raw, wrapper):
        """Replace every module-level binding of `raw` by `wrapper`."""
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, attr, wrapper)

    # -- output ----------------------------------------------------------

    def summary(self) -> dict:
        return {"stats": self.stats, "counts": self.counts,
                "errors": self.errors}

    def dump(self, path: str, meta: dict) -> None:
        """Write spans and statistics as gzip-compressed JSON."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"meta": meta, "names": self.names, "ops": self.ops,
                       "span_fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, **self.summary()}, fh)
