"""Span tracing for the per-layer run, installed from outside the package.

Every public function of every library module, and the public and
arithmetic methods of the classes they define, is wrapped so that each call
records a span: name, start, end, parent span, and whether it raised.  A
function is wrapped in every namespace that holds it: its own module, each
module that imported it by name (``cfrac.determinant``, ``cli.moments``),
the package re-exports, every alias on its class (``__mul__`` and
``__rmul__``) and the ``scenarios.SCENARIOS`` registry.  ``cli.main`` is
the root span, so time in ``cli`` outside every library span, argument
parsing and rendering, is its self time.  Rendering methods (``__str__``)
and trivial dunders are left unwrapped, so that time counts toward the
caller.

Spans of one command share a trace id, stay in memory while it runs and
are written to one file when it ends.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from types import CodeType, FunctionType, ModuleType

PACKAGE = "riordanlbp"
ROOT_SPAN = "cli.main"

# left unwrapped: rendering belongs to cli, and these are too small to time
_SKIP = frozenset({
    "__str__", "__repr__", "__format__", "__bool__", "__hash__", "__len__",
    "__iter__", "__getitem__", "__setattr__", "__delattr__",
})
# private functions that carry a named metric
_PRIVATE = {"series": {"_series_div"}}

# per-layer metric stem -> span name; each reports `.calls` and/or `.self_s`
SPANS = {
    "scalars.poly_mul": "scalars.BivarPoly.__mul__",
    "scalars.ratfunc_new": "scalars.RationalFunction.__init__",
    "scalars.divexact": "scalars.BivarPoly.divexact",
    "series.div": "series._series_div",
    "series.mul": "series.TruncatedSeries.__mul__",
    "series.sqrt": "series.TruncatedSeries.sqrt",
    "series.compose": "series.TruncatedSeries.compose",
    "series.reversion": "series.TruncatedSeries.reversion",
    "riordan.inverse": "riordan.LowerTriangularMatrix.inverse",
    "riordan.production": "riordan.production_matrix",
    "riordan.matrix": "riordan.RiordanArray.matrix",
    "lbp.rows": "lbp.rows_by_recurrence",
    "lbp.moments": "lbp.moments",
    "hankel_toeplitz.determinant": "hankel_toeplitz.determinant",
    "cfrac.cf_expand": "cfrac.cf_expand",
    "cfrac.jfraction_from_moments": "cfrac.jfraction_from_moments",
    "orthopoly.ortho_array": "orthopoly.ortho_array",
    "orthopoly.verify_factorizations": "orthopoly.verify_factorizations",
    "combinat.path_stats": "combinat.schroeder_path_statistics",
}
SCENARIO_NAMES = (
    "example1", "example2", "example3", "example4",
    "factorizations", "hankel", "toeplitz", "cfrac",
)
# spans whose every referenced binding the coverage check requires entered
NAMED_SPANS = frozenset(SPANS.values()) | {
    f"scenarios.scenario_{name}" for name in SCENARIO_NAMES} | {ROOT_SPAN}
# span name -> computed operation count per call (Bareiss on n x n: n^3 cells)
_WEIGHTS = {"hankel_toeplitz.determinant": lambda args: len(args[0]) ** 3}


def _library_modules() -> list[ModuleType]:
    prefix = PACKAGE + "."
    return sorted(
        (m for name, m in sys.modules.items()
         if name.startswith(prefix) and name != prefix + "__main__"),
        key=lambda m: m.__name__,
    )


def _own_functions(module: ModuleType):
    """(owner, attribute, function) for the module's functions and methods."""
    for attr, obj in vars(module).items():
        if isinstance(obj, FunctionType) and obj.__module__ == module.__name__:
            yield module, attr, obj
        elif isinstance(obj, type) and obj.__module__ == module.__name__:
            for name, meth in vars(obj).items():
                if isinstance(meth, FunctionType):
                    yield obj, name, meth


def _names_used(module: ModuleType) -> set[str]:
    """Global and attribute names referenced by the module's own code."""
    names: set[str] = set()
    todo = [fn.__code__ for _, _, fn in _own_functions(module)]
    while todo:
        code = todo.pop()
        names.update(code.co_names)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return names


class Tracer:
    """Wraps the library in place; records spans only while active."""

    def __init__(self):
        self.span_names: list[str] = []
        self.bindings: list[str] = []
        self.expected: list[int] = []  # binding ids the coverage check needs
        self._state = [False]
        self._reset()

    def _reset(self):
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.raised = array("b")
        self.weights = defaultdict(int)
        self.hits = [0] * len(self.bindings)
        self.stack = [-1]

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = _library_modules()
        package = sys.modules[PACKAGE]
        module_ids = {id(m) for m in modules}
        used = {m.__name__: _names_used(m) for m in modules}
        # modules reachable as attributes: cli calls cfrac.cf_expand
        via = defaultdict(set)
        for m in modules:
            for obj in vars(m).values():
                if id(obj) in module_ids:
                    via[obj.__name__] |= used[m.__name__]

        targets = {}
        for m in modules:
            layer = m.__name__.rpartition(".")[2]
            if layer == "cli":
                continue
            for _, attr, fn in _own_functions(m):
                public = not attr.startswith("_") or (
                    attr.startswith("__") and attr.endswith("__"))
                if attr in _SKIP or not (public or attr in _PRIVATE.get(layer, ())):
                    continue
                targets[id(fn)] = (fn, f"{layer}.{fn.__qualname__}")
        cli = sys.modules[PACKAGE + ".cli"]
        targets[id(cli.main)] = (cli.main, ROOT_SPAN)

        # every namespace holding a target: modules, classes, the registry
        namespaces = [(m.__name__, vars(m), m.__name__) for m in modules]
        namespaces.append((PACKAGE, vars(package), None))
        for m in modules:
            for obj in vars(m).values():
                if isinstance(obj, type) and obj.__module__ == m.__name__:
                    namespaces.append((f"{m.__name__}.{obj.__name__}", obj, "class"))
        scenarios = sys.modules.get(PACKAGE + ".scenarios")
        if scenarios is not None:
            namespaces.append((f"{scenarios.__name__}.SCENARIOS",
                               scenarios.SCENARIOS, "registry"))

        span_ids: dict[str, int] = {}
        for label, space, kind in namespaces:
            items = list(space.items()) if isinstance(space, dict) else list(vars(space).items())
            for attr, obj in items:
                if id(obj) not in targets or targets[id(obj)][0] is not obj:
                    continue
                fn, span = targets[id(obj)]
                sid = span_ids.setdefault(span, len(self.span_names))
                if sid == len(self.span_names):
                    self.span_names.append(span)
                bid = len(self.bindings)
                self.bindings.append(f"{label}.{attr}")
                # a binding must be entered if a class alias or the registry
                # holds it, or if some module's code refers to it by name
                if span in NAMED_SPANS and (kind in ("class", "registry") or (
                        kind is not None and (attr in used[kind] or attr in via[kind]))):
                    self.expected.append(bid)
                wrapper = self._wrapper(fn, sid, bid, _WEIGHTS.get(span))
                if isinstance(space, dict):
                    space[attr] = wrapper
                else:
                    setattr(space, attr, wrapper)
        self._reset()

    def _wrapper(self, fn, sid: int, bid: int, weigh):
        perf = time.perf_counter
        state = self._state
        tracer = self

        def wrapper(*args, **kwargs):
            if not state[0]:
                return fn(*args, **kwargs)
            tracer.hits[bid] += 1
            if weigh is not None:
                tracer.weights[sid] += weigh(args)
            stack = tracer.stack
            idx = len(tracer.starts)
            tracer.names.append(sid)
            tracer.parents.append(stack[-1])
            tracer.raised.append(0)
            tracer.ends.append(0.0)
            stack.append(idx)
            tracer.starts.append(perf())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.raised[idx] = 1
                raise
            finally:
                tracer.ends[idx] = perf()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- one traced command ----------------------------------------------------

    def start(self) -> None:
        self._reset()
        self._state[0] = True

    def stop(self) -> None:
        self._state[0] = False

    def summary(self) -> dict:
        """Per span name: calls, self time, inclusive time, raised calls."""
        n = len(self.starts)
        child = array("d", bytes(8 * n))
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        stats = {}
        for i in range(n):
            name = self.span_names[self.names[i]]
            s = stats.get(name)
            if s is None:
                s = stats[name] = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "raised": 0}
            dur = ends[i] - starts[i]
            s["calls"] += 1
            s["self_s"] += dur - child[i]
            s["total_s"] += dur
            s["raised"] += self.raised[i]
        for sid, weight in self.weights.items():
            stats[self.span_names[sid]]["weight"] = weight
        return {
            "spans": stats,
            "hits": {self.bindings[b]: self.hits[b] for b in self.expected},
        }

    def write(self, path, trace_id: str, argv) -> None:
        """One file per trace: a JSON header line naming the spans and the
        layout, then each column as `count` native-endian array items."""
        header = {
            "trace_id": trace_id,
            "argv": list(argv),
            "count": len(self.starts),
            "names": self.span_names,
            "layout": ["name:i", "parent:i", "start:d", "end:d", "raised:b"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.names, self.parents, self.starts, self.ends, self.raised):
                arr.tofile(fh)

