"""Span tracing of calls into the trilat modules, done from outside the program.

`Tracer.install` replaces every public entry point listed in `TARGETS` by a
wrapper, in its defining module and in every trilat module that imported the
name (``from .coloring import is_proper`` makes ``trilat.solver.is_proper`` a
second binding).  A call made through any binding then opens a span, so a
nested call becomes a child span of its caller.  `Tracer.uninstall` puts the
original functions back; untraced passes run the unmodified program.

A span is ``[name, start, end, parent, task, attrs, hook]``.  Spans stay in
memory; `layer_metrics` turns the spans of one pass into the per-layer
figures and `Tracer.dump` writes them out when the run ends.  Counters that
need the call's result (triangles produced, nodes searched, bytes written)
are taken after the span has closed; `hook` is the time they took, which is
tracing overhead and is kept out of every self time.

`trilat.lattice` gets no spans: its helpers run once per point, so a wrapper
would mostly measure itself.  Its time shows as self time of its callers.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

import numpy as np

# (module, attribute) of every traced entry point.  `CnfInstance.to_dimacs`
# is a method; it is traced because DIMACS text building is most of export.
TARGETS = [
    ("triangles", "enumerate_triangles"),
    ("triangles", "classify_pairs"),
    ("triangles", "count_upright"),
    ("counting", "report_closed"),
    ("counting", "report_brute"),
    ("coloring", "is_proper"),
    ("coloring", "read_certificate"),
    ("coloring", "write_certificate"),
    ("solver", "decide_k_colorable"),
    ("solver", "solve_periodic_stripe"),
    ("solver", "compute_f"),
    ("solver", "export_dimacs"),
    ("solver", "import_assignment"),
    ("solver", "local_search_coloring"),
    ("solver", "CnfInstance.to_dimacs"),
    ("constructions", "banded_coloring"),
    ("constructions", "chevron_coloring"),
    ("triples", "triangle_system"),
    ("triples", "is_modified_sts"),
    ("cli", "main"),
]

LAYERS = ["triangles", "counting", "coloring", "solver", "constructions", "triples", "cli"]
HARNESS = "harness.task"

NAME, START, END, PARENT, TASK, ATTRS, HOOK = range(7)


def _checked_points(col, periodic, stripe_span_bound):
    """Colors of the points the pair checker scans: the region, or for a
    periodic stripe the window of one period plus the triangle span."""
    region = col.region
    if isinstance(region, periodic):
        width = region.period + stripe_span_bound(region.k)
        return np.array([col.assignment[(a % region.period, b)]
                         for b in range(region.k) for a in range(width)], dtype=np.int64)
    return np.fromiter(col.assignment.values(), dtype=np.int64, count=len(col.assignment))


def _counters(modules):
    """Per-target hooks that read work counts off a call's arguments and result."""
    periodic = modules["lattice"].PeriodicStripe
    span_bound = modules["coloring"].stripe_span_bound

    def enumerate_triangles(args, result):
        n_points = args[0].size()
        return {"out": len(result), "pairs": n_points * (n_points - 1) // 2}

    def is_proper(args, result):
        colors = _checked_points(args[0], periodic, span_bound)
        attrs = {"points": int(colors.size), "ok": bool(result[0])}
        if result[0]:
            sizes = np.bincount(colors)
            attrs["probes"] = int(2 * (sizes * (sizes - 1) // 2).sum())
        return attrs

    def outcome(args, result):
        return {"stats": result.stats, "status": result.status}

    return {
        "triangles.enumerate_triangles": enumerate_triangles,
        "coloring.is_proper": is_proper,
        "coloring.read_certificate": lambda args, result: {"bytes": len(args[0])},
        "coloring.write_certificate": lambda args, result: {"bytes": len(result)},
        "solver.decide_k_colorable": outcome,
        "solver.solve_periodic_stripe": outcome,
        "solver.export_dimacs": lambda args, result: {"clauses": len(result.clauses)},
        "solver.CnfInstance.to_dimacs": lambda args, result: {"bytes": len(result)},
        "solver.local_search_coloring": lambda args, result: {"hit": result is not None},
        "constructions.banded_coloring": lambda args, result: {"points": len(result.assignment)},
        "constructions.chevron_coloring": lambda args, result: {"points": len(result.assignment)},
        "triples.triangle_system": lambda args, result: {"triples": len(result.triples)},
    }


class Tracer:
    """Installs span-recording wrappers on the trilat entry points."""

    def __init__(self, modules):
        self.modules = modules  # short name -> module object
        self.spans = []
        self._stack = []
        self._task = None
        self._installed = []
        counters = _counters(modules)
        self.wrapper_s = self._wrapper_cost()
        self._wrappers = {}  # original function -> wrapper
        self._methods = []  # (class, attribute, original, wrapper)
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            owner = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = getattr(cls, meth)
                self._methods.append((cls, meth, orig, self._wrap(name, orig, counters.get(name))))
            else:
                orig = getattr(owner, attr)
                self._wrappers[orig] = self._wrap(name, orig, counters.get(name))

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._task, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[ATTRS] = counter(args, result)
                span[HOOK] = time.perf_counter() - span[END]
            return result

        return wrapper

    def _wrapper_cost(self, calls=20_000):
        """Seconds a wrapper adds to one call, beyond the wrapped function."""
        def noop():
            return None

        wrapped = self._wrap("calibration", noop, None)
        elapsed = []
        for fn in (noop, wrapped):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            elapsed.append(time.perf_counter() - t0)
        del self.spans[:]
        return max(0.0, (elapsed[1] - elapsed[0]) / calls)

    def install(self):
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                try:
                    wrapper = self._wrappers.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, value))
        for cls, meth, orig, wrapper in self._methods:
            setattr(cls, meth, wrapper)
            self._installed.append((cls, meth, orig))

    def uninstall(self):
        while self._installed:
            owner, attr, orig = self._installed.pop()
            setattr(owner, attr, orig)

    def begin_task(self, task_id):
        """Open the root span of one harness task; layer spans nest under it."""
        self._task = task_id
        span = [HARNESS, time.perf_counter(), 0.0, -1, task_id, None, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)

    def end_task(self):
        self.spans[self._stack.pop()][END] = time.perf_counter()
        self._task = None

    def dump(self, path, header):
        """Write the header line, then one JSON span per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, task, attrs, _ in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "task": task}
                if attrs:
                    rec.update({k: v for k, v in attrs.items() if k != "stats"})
                    if "stats" in attrs:
                        rec["nodes"] = attrs["stats"].nodes
                        rec["search_s"] = attrs["stats"].elapsed
                fh.write(json.dumps(rec) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, first, last, wall, wrapper_s):
    """Per-layer figures from spans[first:last], the spans of one traced pass.

    Self time is a span's duration minus the durations (and counter hooks)
    of its direct children; "_s" figures without "self" are whole durations.
    The tracing overhead is the counter hooks plus `wrapper_s` per span.
    """
    dur = defaultdict(float)
    self_t = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(list)
    child = defaultdict(float)
    for i in range(first, last):
        s = spans[i]
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START] + s[HOOK]
    for i in range(first, last):
        s = spans[i]
        d = s[END] - s[START]
        dur[s[NAME]] += d
        self_t[s[NAME]] += d - child[i]
        calls[s[NAME]] += 1
        if s[ATTRS]:
            attrs[s[NAME]].append((s[ATTRS], d - child[i]))

    def total(name, key):
        return sum(a[key] for a, _ in attrs[name] if key in a)

    # decide_k_colorable hands periodic regions to solve_periodic_stripe,
    # which returns the same outcome: count each SolveStats once.
    outcomes = {}
    for name in ("solver.decide_k_colorable", "solver.solve_periodic_stripe"):
        for a, _ in attrs[name]:
            outcomes[id(a["stats"])] = a
    nodes = sum(a["stats"].nodes for a in outcomes.values())
    search = sum(a["stats"].elapsed for a in outcomes.values())
    unknown = sum(a["status"] == "UNKNOWN" for a in outcomes.values())

    proper = attrs["coloring.is_proper"]
    probes = sum(a.get("probes", 0) for a, _ in proper)
    accepted_self = sum(t for a, t in proper if a["ok"])
    enum_self = self_t["triangles.enumerate_triangles"]
    enum_out = total("triangles.enumerate_triangles", "out")
    ls = attrs["solver.local_search_coloring"]
    build_self = self_t["constructions.banded_coloring"] + self_t["constructions.chevron_coloring"]
    build_points = (total("constructions.banded_coloring", "points")
                    + total("constructions.chevron_coloring", "points"))

    m = {
        "triangles.enumerate_self_s": enum_self,
        "triangles.enumerate_calls": calls["triangles.enumerate_triangles"],
        "triangles.triangles_out": enum_out,
        "triangles.pairs_walked": total("triangles.enumerate_triangles", "pairs"),
        "triangles.triangles_per_s": _ratio(enum_out, enum_self),
        "triangles.classify_self_s": self_t["triangles.classify_pairs"],
        "triangles.count_upright_self_s": self_t["triangles.count_upright"],
        "counting.brute_self_s": self_t["counting.report_brute"],
        "counting.closed_s": dur["counting.report_closed"],
        "coloring.is_proper_self_s": self_t["coloring.is_proper"],
        "coloring.is_proper_calls": calls["coloring.is_proper"],
        "coloring.points_checked": total("coloring.is_proper", "points"),
        "coloring.apex_probes": probes,
        "coloring.probes_per_s": _ratio(probes, accepted_self),
        "coloring.read_cert_s": dur["coloring.read_certificate"],
        "coloring.write_cert_s": dur["coloring.write_certificate"],
        "coloring.cert_bytes": (total("coloring.read_certificate", "bytes")
                                + total("coloring.write_certificate", "bytes")),
        "solver.decide_self_s": (self_t["solver.decide_k_colorable"]
                                 + self_t["solver.solve_periodic_stripe"]
                                 + self_t["solver.compute_f"]),
        "solver.search_s": search,
        "solver.nodes": nodes,
        "solver.nodes_per_s": _ratio(nodes, search),
        "solver.unknown_frac": _ratio(unknown, len(outcomes)),
        "solver.export_self_s": (self_t["solver.export_dimacs"]
                                 + self_t["solver.CnfInstance.to_dimacs"]),
        "solver.clauses": total("solver.export_dimacs", "clauses"),
        "solver.dimacs_bytes": total("solver.CnfInstance.to_dimacs", "bytes"),
        "solver.import_s": dur["solver.import_assignment"],
        "solver.local_search_s": dur["solver.local_search_coloring"],
        "solver.local_search_hit_frac": _ratio(sum(a["hit"] for a, _ in ls), len(ls)),
        "constructions.banded_s": dur["constructions.banded_coloring"],
        "constructions.chevron_s": dur["constructions.chevron_coloring"],
        "constructions.points_per_s": _ratio(build_points, build_self),
        "triples.system_self_s": self_t["triples.triangle_system"],
        "triples.profile_s": dur["triples.is_modified_sts"],
        "triples.triples_out": total("triples.triangle_system", "triples"),
    }
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, t in self_t.items():
        if name != HARNESS:
            layer_self[name.split(".")[0]] += t
    for layer, t in layer_self.items():
        m[f"{layer}.self_s"] = t
    hooks = sum(spans[i][HOOK] for i in range(first, last))
    overhead = hooks + (last - first) * wrapper_s
    m["harness.self_s"] = self_t[HARNESS]
    m["traced_wall_s"] = wall
    m["trace.spans"] = last - first
    m["trace.accounted_frac"] = _ratio(sum(layer_self.values()) + self_t[HARNESS] + hooks, wall)
    m["trace_overhead_frac"] = _ratio(overhead, wall - overhead)
    return m


def median_metrics(per_pass):
    """Median of each figure over the traced passes of one run; counts are
    the same in every pass."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
