"""Spans and exact counters around womctl's layers, installed from outside.

Nothing under ``src/`` knows about tracing. ``install`` replaces each traced
function with a wrapper in every womctl module namespace that bound it
(``from .belief import belief_successors`` makes a second binding in
``solver``, ``verify`` and ``cli``), and wraps methods on their class.

Two kinds of wrapper exist:

* a *span* records (name, start, end, parent) for every call, and keeps the
  list in memory until the process ends;
* a *leaf* is for functions called hundreds of thousands of times per pass
  (``belief_linf``, ``act``, the particle engine, InfoSet set operations).
  It keeps only (calls, seconds) per name and adds its time to the enclosing
  span, whose self time then excludes it. A leaf must not call any traced
  function; the tracer counts such nesting and the benchmark rejects a trace
  that has any.

Self time of a span is its duration minus the time covered by its child
spans and by the leaf calls made directly inside it.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from contextlib import contextmanager
from functools import wraps

ROUTES = {
    "brute": "solver.brute_force_optimal",
    "common-info": "solver.common_info_dp",
    "structural": "solver.structural_search",
}

# "<module>.<function>" of womctl; every call is one span
_SPANS = [
    "scenario_io.load_scenario",
    "topology.min_delay_matrix",
    "topology.information_path",
    "infostruct.enumerate_realizations",
    "scenario.enumerate_primitives",
    "scenario.propagate",
    "prescription.strategy_to_policy",
    "prescription.policy_to_strategy",
    "prescription.positional_transfer",
    "belief.belief_successors",
    "belief.expected_cost",
    "belief.belief_update",
    "belief.belief_from_scratch",
    "solver.brute_force_optimal",
    "solver.structural_search",
    "solver.common_info_dp",
    "verify.history_tree",
    "verify.build_inputs",
    "serialize.dump_json",
    "serialize.strategy_json",
    "serialize.policy_json",
]

# module functions kept as aggregated leaves
_LEAVES = ["belief.belief_linf", "prescription.act"]

_SETOPS = ("union", "intersect", "difference", "issubset")

# result size recorded as an exact count next to the span's calls
_ITEMS = {
    "infostruct.enumerate_realizations": "items",
    "scenario.enumerate_primitives": "assignments",
    "belief.belief_successors": "outcomes",
}

_CACHED = ("memory_labels", "accessible_labels")

MODULES = ("scenario_io", "topology", "infostruct", "scenario", "prescription",
           "belief", "solver", "verify", "cli")

# particle stages reported, t0 .. t{PARTICLE_STAGES-1}; the bundled
# instances have horizon 2, the random ones horizon 1
PARTICLE_STAGES = 3


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, leaf seconds]
        self.stack: list[int] = []
        self.leaves: dict[str, list] = {}   # name -> [calls, seconds]
        self.counts: dict[str, float] = {}
        self.check_names: dict[str, str] = {}   # span name -> verify check name
        self.leaf_depth = 0
        self.nesting_errors = 0

    def add(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def keep_max(self, key: str, n: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), n)

    def keep_min(self, key: str, n: float) -> None:
        self.counts[key] = min(self.counts.get(key, n), n)

    def span(self, name: str, fn, post=None):
        """Wrap ``fn`` so that each call is one span; ``post(args, kwargs,
        result)`` runs after the span closes."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if self.leaf_depth:
                self.nesting_errors += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    def leaf(self, name: str, fn, post=None):
        """Wrap ``fn`` as an aggregated leaf: (calls, seconds) per name."""
        agg = self.leaves.setdefault(name, [0, 0.0])
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.leaf_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.leaf_depth -= 1
                agg[0] += 1
                agg[1] += dt
                if stack:
                    spans[stack[-1]][4] += dt
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def root(self, name: str):
        """A span around a block of the benchmark's own code."""
        rec = [name, time.perf_counter(), 0.0,
               self.stack[-1] if self.stack else -1, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def dump(self, path: str) -> None:
        """Write the spans, leaf aggregates and counters as JSON."""
        names = sorted({rec[0] for rec in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "leaf_s"],
                "names": names,
                "spans": [[index[n], s, e, p, lf] for n, s, e, p, lf in self.spans],
                "leaves": self.leaves,
                "counts": self.counts,
            }, fh)


def self_times(spans) -> list[float]:
    """Per span: duration minus the time covered by its direct children and
    by the leaf calls made directly inside it."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _leaf in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] - leaf_s
            for i, (_name, start, end, _parent, leaf_s) in enumerate(spans)]


def _modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "womctl" or n.startswith("womctl."))]


def rebind(obj, wrapper) -> None:
    """Replace ``obj`` by ``wrapper`` in every womctl module namespace that
    binds it, and in ``verify.CHECKS``."""
    n = 0
    for mod in _modules():
        for attr, val in list(vars(mod).items()):
            if val is obj:
                setattr(mod, attr, wrapper)
                n += 1
    checks = getattr(sys.modules.get("womctl.verify"), "CHECKS", [])
    for i, fn in enumerate(checks):
        if fn is obj:
            checks[i] = wrapper
            n += 1
    if n == 0:
        raise RuntimeError(f"no womctl module binds {obj!r}")


def _target(name: str):
    """The womctl object named "<module>.<attribute>"."""
    module, attr = name.split(".")
    return getattr(sys.modules[f"womctl.{module}"], attr)


def _headroom(tracer: Tracer, route: str):
    """Post-hook of a route: candidates and cap / candidates."""
    sig = inspect.signature(_target(ROUTES[route]))

    def post(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.add(ROUTES[route] + ".candidates", result.candidates)
        if result.candidates:
            tracer.keep_min("solver.cap_headroom." + route,
                            bound.arguments["policy_cap"] / result.candidates)
    return post


def install_routes(tracer: Tracer) -> None:
    """Spans around the three solver routes only (the untraced set-up)."""
    for name in ROUTES.values():
        fn = _target(name)
        rebind(fn, tracer.span(name, fn))


def install(tracer: Tracer) -> None:
    """Spans and counters around every traced layer."""
    import womctl.cli  # noqa: F401  (binds every module the CLI reaches)

    def size(key):
        return lambda args, kwargs, result: tracer.add(key, len(result))
    posts = {name: size(f"{name}.{item}") for name, item in _ITEMS.items()}
    posts["verify.history_tree"] = lambda args, kwargs, result: tracer.add(
        "verify.history_tree.nodes", len(result[1]))
    for route, name in ROUTES.items():
        posts[name] = _headroom(tracer, route)

    for name in _LEAVES:
        fn = _target(name)
        rebind(fn, tracer.leaf(name, fn))
    for name in _SPANS:
        fn = _target(name)
        rebind(fn, tracer.span(name, fn, posts.get(name)))

    infoset = _target("infostruct.InfoSet")
    for op in _SETOPS:
        setattr(infoset, op, tracer.leaf("infostruct.setops", getattr(infoset, op)))

    engine = _target("solver._Engine")

    def particles(args, kwargs, result):
        tracer.keep_max(f"solver.engine.particles_max.t{args[1]}", len(result))
    engine.observe = tracer.leaf("solver.engine.observe", engine.observe, particles)
    engine.advance = tracer.leaf("solver.engine.advance", engine.advance)

    linf = tracer.leaves["belief.belief_linf"]
    intern = _target("solver._belief_reps_intern")
    intern_span = tracer.span("solver.intern", intern)

    def counted_intern(reps, b):
        before, scans = len(reps), linf[0]
        i = intern_span(reps, b)
        tracer.add("solver.intern.reps", len(reps) - before)
        tracer.add("solver.intern.scans", linf[0] - scans)
        return i
    rebind(intern, counted_intern)

    for check in list(_target("verify.CHECKS")):
        span_name = f"verify.check:{check.__name__}"

        def named(args, kwargs, result, span_name=span_name):
            tracer.check_names[span_name] = result.name
        rebind(check, tracer.span(span_name, check, named))


def route_seconds(tracer: Tracer) -> dict[str, float]:
    """Wall seconds spent inside each solver route."""
    out = {route: 0.0 for route in ROUTES}
    by_name = {name: route for route, name in ROUTES.items()}
    for name, start, end, _parent, _leaf in tracer.spans:
        if name in by_name:
            out[by_name[name]] += end - start
    return out


def layer_metrics(tracer: Tracer) -> dict[str, list]:
    """Every per-layer metric as name -> [value, unit]; a layer that did not
    run reports zero calls and zero seconds."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for rec, own in zip(tracer.spans, self_times(tracer.spans)):
        name = rec[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        total_s[name] = total_s.get(name, 0.0) + rec[2] - rec[1]
    for name, (n, seconds) in tracer.leaves.items():
        calls[name] = n
        self_s[name] = total_s[name] = seconds

    out: dict[str, list] = {}

    def put(name, value, unit):
        out[name] = [value, unit]

    for name in _SPANS + _LEAVES + ["infostruct.setops", "solver.engine.observe",
                                    "solver.engine.advance", "solver.intern"]:
        put(f"{name}.calls", calls.get(name, 0), "count")
        put(f"{name}.self_s", self_s.get(name, 0.0), "s")
    put("scenario_io.load_scenario.total_s",
        total_s.get("scenario_io.load_scenario", 0.0), "s")
    # module self time; the CLI layer is the operation's own self time plus
    # serialization, and verify includes the checks' own code
    layer_of = {"op": "cli", "serialize": "cli"}
    for module in MODULES:
        put(f"{module}.self_s", 0.0, "s")
    for name, seconds in self_s.items():
        head = name.split(".")[0].split(":")[0]
        module = layer_of.get(head, head)
        if module in MODULES:
            out[f"{module}.self_s"][0] += seconds

    for name, item in _ITEMS.items():
        put(f"{name}.{item}", tracer.counts.get(f"{name}.{item}", 0), "count")
    for route, name in ROUTES.items():
        put(f"{name}.candidates", tracer.counts.get(f"{name}.candidates", 0), "count")
        put(f"solver.cap_headroom.{route}",
            tracer.counts.get(f"solver.cap_headroom.{route}", 0.0), "ratio")
    for t in range(PARTICLE_STAGES):
        key = f"solver.engine.particles_max.t{t}"
        put(key, tracer.counts.get(key, 0), "count")
    n = calls.get("solver.intern", 0)
    reps = tracer.counts.get("solver.intern.reps", 0)
    put("solver.intern.reps", reps, "count")
    put("solver.intern.hit_ratio", (n - reps) / n if n else 0.0, "ratio")
    put("solver.intern.scan_mean",
        tracer.counts.get("solver.intern.scans", 0) / n if n else 0.0, "ratio")

    put("verify.history_tree.nodes",
        tracer.counts.get("verify.history_tree.nodes", 0), "count")
    put("verify.build_inputs.s", total_s.get("verify.build_inputs", 0.0), "s")
    for span_name, check in sorted(tracer.check_names.items(), key=lambda e: e[1]):
        put(f"verify.check.{check}.s", total_s[span_name], "s")

    infostruct = sys.modules["womctl.infostruct"]
    for fname in _CACHED:
        info = getattr(infostruct, fname).cache_info()
        looked_up = info.hits + info.misses
        put(f"infostruct.{fname}.calls", looked_up, "count")
        put(f"infostruct.{fname}.hit_ratio",
            info.hits / looked_up if looked_up else 0.0, "ratio")
    return out
