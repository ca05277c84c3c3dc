"""In-memory span tracing of natcone's layers, installed from outside the package.

The tracer replaces module attributes that callers look up at call time
(``natcone.solver.compute_directions``, ``scipy.linalg.lu_factor`` as the
solver reaches it, ``natcone.cones.svec``, ...) and every public method of
every ``Cone`` subclass with wrappers that record a span. Removing the
wrappers restores the original attributes, so untraced passes run the
unmodified code.

A span is ``(name, start, end, parent, solve_id)``: ``parent`` is the index
of the enclosing span (-1 at the top) and ``solve_id`` identifies the
benchmark cell whose setup or solve caused it. Self time is a span's
duration minus the time covered by its direct children; it is accumulated
per span name while spans close, so the per-layer split costs no second
pass over the span list.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from natcone import bench, bridges, cones, interp, solver

# Cone methods grouped into the oracle layers the benchmark reports.
MEMBER_METHODS = (
    "in_interior",
    "in_dual_interior",
    "barrier_domain_ok",
    "primal_margins",
    "dual_margins",
    "in_closure",
    "in_dual_closure",
)
HESS_METHODS = ("hess", "hess_prod")
# Cone tags that occur in some workload; every traced run reports each of them.
CONE_TAGS = (
    "nonneg",
    "epinorm2",
    "epipersquare",
    "possemidef",
    "epinorminf",
    "epinorminfdual",
    "epinormspectral",
    "epinormspectraldual",
    "hypogeomean",
    "hyporootdet",
    "hypoperlog",
    "hypoperlogdet",
    "wsosdual",
)

# (module, attribute, span name) of each function wrapped at module level.
_MODULE_TARGETS = [
    (solver, "compute_directions", "solver.directions"),
    (solver, "line_search", "solver.line_search"),
    (solver, "check_termination", "solver.termination"),
    (solver, "hsde_init", "solver.hsde_init"),
    (solver.sla, "lu_factor", "linalg.lu_factor"),
    (solver.sla, "lu_solve", "linalg.lu_solve"),
    (solver.sla, "cho_factor", "linalg.cho_factor"),
    (solver.sla, "cho_solve", "linalg.cho_solve"),
    (bridges, "extend", "bridges.extend"),
    (interp, "build_interp", "interp.build_interp"),
    (cones, "svec", "sym.svec"),
] + [
    (bench, f"gen_{family}", "bench.generate")
    for family in ("portfolio", "matcompletion", "matregression", "expdesign", "polymin")
]


def unit(key):
    """Unit of a per-layer metric, read from its name."""
    if key.endswith("_s"):
        return "s"
    if key.endswith("gflops"):
        return "GFLOP/s"
    if key.endswith("gflop"):
        return "GFLOP-computed"
    if key.endswith("_per_iter"):
        return "1/iter"
    return "count"


def _cone_classes():
    out, todo = [], [cones.Cone]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def _public_methods(cls):
    names = set()
    for klass in cls.__mro__:
        if klass is object:
            continue
        for name, value in vars(klass).items():
            if not name.startswith("_") and callable(value) and not isinstance(value, type):
                names.add(name)
    return sorted(names)


class Tracer:
    """Records spans and per-name self time, call counts and notes."""

    def __init__(self):
        self.solve_id = -1
        self._stack = []
        self._child = []
        self.reset_counters()

    def reset_counters(self):
        """Start a new traced pass: drop its predecessor's spans and totals."""
        self.spans = []
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.notes = Counter()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` and return its result."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._child.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            child = self._child.pop()
            dur = t1 - t0
            if self._child:
                self._child[-1] += dur
            self.spans[idx] = (name, t0, t1, parent, self.solve_id)
            self.total_s[name] += dur
            self.self_s[name] += dur - child
            self.calls[name] += 1

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            self._note(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_method(self, method, fn):
        keys = {}

        def wrapper(obj, *args, **kwargs):
            tag = obj.tag
            key = keys.get(tag)
            if key is None:
                key = keys[tag] = f"cones.{tag}.{method}"
            return self.call(key, fn, obj, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _note(self, name, args, kwargs, result):
        if name == "linalg.lu_factor":
            n = args[0].shape[0]
            self.notes["lu_factor.gflop"] += 2.0 / 3.0 * n**3 / 1e9
        elif name == "solver.directions":
            target = args[2] if len(args) > 2 else kwargs.get("target")
            if target == "center":
                self.notes["directions.center"] += 1
        elif name == "solver.line_search":
            options = args[3] if len(args) > 3 else kwargs.get("options")
            shrink = (options or solver.SolveOptions()).step_backtrack
            if result > 0.0:
                self.notes["line_search.backtracks"] += round(math.log(result) / math.log(shrink))
            else:
                self.notes["line_search.zero_steps"] += 1

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        saved = []
        try:
            for module, attr, name in _MODULE_TARGETS:
                orig = getattr(module, attr)
                saved.append((module, attr, True, orig))
                setattr(module, attr, self._wrap(name, orig))
            # Resolve every method through the unpatched MRO before patching,
            # so inherited and aliased methods are wrapped once per class.
            plan = [
                (cls, name, getattr(cls, name))
                for cls in _cone_classes()
                for name in _public_methods(cls)
            ]
            for cls, name, orig in plan:
                saved.append((cls, name, name in vars(cls), vars(cls).get(name)))
                setattr(cls, name, self._wrap_method(name, orig))
            yield self
        finally:
            for owner, attr, present, orig in reversed(saved):
                if present:
                    setattr(owner, attr, orig)
                else:
                    delattr(owner, attr)

    def layers(self, iters):
        """Per-layer metrics of the spans recorded since the last reset."""
        s, n, notes = self.self_s, self.calls, self.notes
        per_iter = 1.0 / iters if iters else float("nan")
        lu_s = s["linalg.lu_factor"]
        out = {
            "bench.generate_s": s["bench.generate"],
            "interp.build_interp_s": s["interp.build_interp"],
            "interp.build_interp.calls": n["interp.build_interp"],
            "bridges.extend_s": s["bridges.extend"],
            "bridges.extend.calls": n["bridges.extend"],
            "solver.iters": iters,
            "solver.solve.self_s": s["solver.solve"],
            "solver.hsde_init_s": s["solver.hsde_init"],
            "solver.directions.calls": n["solver.directions"],
            "solver.directions.self_s": s["solver.directions"],
            "solver.directions_per_iter": n["solver.directions"] * per_iter,
            "solver.center_per_iter": notes["directions.center"] * per_iter,
            "solver.line_search.calls": n["solver.line_search"],
            "solver.line_search.self_s": s["solver.line_search"],
            "solver.line_search.backtracks": notes["line_search.backtracks"],
            "solver.line_search.zero_steps": notes["line_search.zero_steps"],
            "solver.termination_s": s["solver.termination"],
            "linalg.lu_factor.calls": n["linalg.lu_factor"],
            "linalg.lu_factor_s": lu_s,
            "linalg.lu_factor.gflop": notes["lu_factor.gflop"],
            "linalg.lu_factor.gflops": notes["lu_factor.gflop"] / lu_s if lu_s else 0.0,
            "linalg.lu_solve_s": s["linalg.lu_solve"],
            "linalg.cho_factor.calls": n["linalg.cho_factor"],
            "linalg.cho_factor_s": s["linalg.cho_factor"],
            "linalg.cho_solve_s": s["linalg.cho_solve"],
            "linalg.factorizations_per_iter": n["linalg.lu_factor"] * per_iter,
            "sym.svec.calls": n["sym.svec"],
            "sym.svec_s": s["sym.svec"],
        }
        hess_calls = 0
        hess_incl = 0.0
        for tag in CONE_TAGS:
            hess_incl += sum(self.total_s[f"cones.{tag}.{m}"] for m in HESS_METHODS)
            calls = sum(n[f"cones.{tag}.{m}"] for m in HESS_METHODS)
            hess_calls += calls
            out[f"cones.{tag}.hess.calls"] = calls
            out[f"cones.{tag}.hess_s"] = sum(s[f"cones.{tag}.{m}"] for m in HESS_METHODS)
            out[f"cones.{tag}.grad_s"] = s[f"cones.{tag}.grad"]
            out[f"cones.{tag}.member_s"] = sum(s[f"cones.{tag}.{m}"] for m in MEMBER_METHODS)
        out["cones.hess_per_iter"] = hess_calls * per_iter
        out["cones.hess_incl_s"] = hess_incl
        return out

    def dump(self, path):
        """Write every recorded span as one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
