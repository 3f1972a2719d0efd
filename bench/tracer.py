"""Spans around calls into randhyp's public functions, from outside.

`Tracer.installed()` wraps each function named in `FUNCTIONS` and rebinds
the wrapper wherever a randhyp module holds the function by name, and on
the fiber family classes for the methods in `METHODS`; leaving the block
restores every original.  A span is (name, start, end, parent, work): the
parent is the index of the enclosing span, and work is the count the
layer reports (calls, positions, grid points or steps).  Spans stay in
memory; `layer_metrics` reduces them and `dump` writes them out.

Tracing assumes one thread: run traced tasks with threads=1.
"""

import contextlib
import functools
import json
import sys
import time


def _one(*args, **kwargs):
    return 1


# (module, function, span name, work count from the call's arguments)
FUNCTIONS = (
    ("base", "symbol_at", "base.symbol_at", _one),
    ("base", "symbol_window", "base.symbol_window",
     lambda state, lo, hi: hi - lo),
    ("base", "sample_base", "base.sample_base", _one),
    ("cocycle", "iterate", "cocycle", lambda family, omega, x, n: n),
    ("cocycle", "orbit_log_stretches", "cocycle", lambda family, p, n: n),
    ("cocycle", "unit_tangent_step", "cocycle", _one),
    ("expansion", "min_expansion_sweep", "expansion.sweep",
     lambda family, omega, n_max, grid_size=None: n_max),
    ("expansion", "uniform_rate_estimate", "expansion.rate", _one),
    ("expansion", "tempered_constant", "expansion.tempered", _one),
    ("expansion", "temperedness_curve_at", "expansion.curve", _one),
    ("expansion", "supadditivity_residuals", "expansion.supadd", _one),
    ("expansion", "variable_rate_corollary", "expansion.corollary", _one),
    ("expansion", "min_expansion_table", "expansion.table", _one),
    ("ergodic", "lambda_estimate", "ergodic.lambda", _one),
    ("lyapunov", "oseledets_spectrum", "lyapunov.spectrum", _one),
    ("lyapunov", "top_exponent", "lyapunov.top", _one),
    ("splitting", "finite_time_bundles", "splitting.bundles", _one),
    ("splitting", "hyperbolicity_certificate", "splitting.certificate", _one),
    ("_parallel", "deterministic_map", "parallel.map",
     lambda fn, items, threads=1: len(items)),
    ("config", "parse_config", "config.parse", _one),
)

# Fiber family methods, wrapped on every class that defines them.
METHODS = (
    ("apply_vec", "fibers.grid_step", lambda self, omega, xs: len(xs)),
    ("deriv_vec", "fibers.grid_step", lambda self, omega, xs: len(xs)),
    ("orbit_log_derivs", "fibers.orbit", lambda self, omega, x0, n: n),
    ("step_log_derivs", "fibers.orbit", lambda self, omega, n: n),
    ("matrix_indices", "fibers.matrix_indices", lambda self, omega, n: n),
    ("matrix_indices_back", "fibers.matrix_indices",
     lambda self, omega, n: n),
)

# A fan-out span only relays its caller's work, so self times are taken
# as if its children were called by its parent.
TRANSPARENT = frozenset({"parallel.map"})


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, work):
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    work(*args, **kwargs)]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Wrap the listed functions and methods of the imported `package`."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        undo = []
        for mod_name, fn_name, span_name, work in FUNCTIONS:
            original = getattr(sys.modules[f"{package.__name__}.{mod_name}"], fn_name)
            wrapper = self.wrap(span_name, original, work)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))
        family_base = sys.modules[f"{package.__name__}.fibers"].FiberFamily
        for cls in _subclasses(family_base):
            for meth, span_name, work in METHODS:
                if meth in vars(cls):
                    original = vars(cls)[meth]
                    setattr(cls, meth, self.wrap(span_name, original, work))
                    undo.append((cls, meth, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def totals(self):
        """Per span name: calls, work, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a name, so a
        layer that re-enters itself is not counted twice.
        """
        spans = self.spans
        out = {}
        child_time = [0.0] * len(spans)
        for i, (name, start, end, parent, work) in enumerate(spans):
            rec = out.setdefault(name, {"calls": 0, "work": 0, "s": 0.0,
                                        "self_s": 0.0})
            rec["calls"] += 1
            rec["work"] += work
            ancestor, nested = parent, False
            while ancestor >= 0:
                if spans[ancestor][0] == name:
                    nested = True
                    break
                ancestor = spans[ancestor][3]
            if not nested:
                rec["s"] += end - start
            if name in TRANSPARENT:
                continue
            owner = parent
            while owner >= 0 and spans[owner][0] in TRANSPARENT:
                owner = spans[owner][3]
            if owner >= 0:
                child_time[owner] += end - start
        for i, (name, start, end, _, _) in enumerate(spans):
            if name not in TRANSPARENT:
                out[name]["self_s"] += (end - start) - child_time[i]
        return out

    def dump(self, path, meta):
        """Write the spans as JSON: a name table and one row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round(a - t0, 9), round(b - t0, 9), p, w]
                for (n, a, b, p, w) in self.spans]
        with open(path, "w") as fh:
            json.dump(dict(meta, columns=["name", "start_s", "end_s",
                                          "parent", "work"],
                           names=names, spans=rows), fh, separators=(",", ":"))
            fh.write("\n")


def layer_metrics(totals):
    """The per-layer metrics of one traced task run, from `Tracer.totals()`."""
    empty = {"calls": 0, "work": 0, "s": 0.0, "self_s": 0.0}

    def get(name):
        return totals.get(name, empty)

    grid = get("fibers.grid_step")
    m = {
        "base.symbol_at.calls": get("base.symbol_at")["calls"],
        "base.symbol_at.s": get("base.symbol_at")["s"],
        "base.symbol_window.positions": get("base.symbol_window")["work"],
        "base.symbol_window.s": get("base.symbol_window")["s"],
        "base.sample_base.s": get("base.sample_base")["s"],
        "fibers.grid_step.calls": grid["calls"],
        "fibers.grid_step.points": grid["work"],
        "fibers.grid_step.s": grid["s"],
        "fibers.grid_step.ns_per_point":
            1e9 * grid["s"] / grid["work"] if grid["work"] else 0.0,
        "fibers.orbit.steps": get("fibers.orbit")["work"],
        "fibers.orbit.self_s": get("fibers.orbit")["self_s"],
        "fibers.matrix_indices.steps": get("fibers.matrix_indices")["work"],
        "fibers.matrix_indices.s": get("fibers.matrix_indices")["s"],
        "cocycle.steps": get("cocycle")["work"],
        "cocycle.s": get("cocycle")["s"],
        "expansion.sweep.calls": get("expansion.sweep")["calls"],
        "expansion.sweep.grid_steps": get("expansion.sweep")["work"],
        "expansion.sweep.self_s": get("expansion.sweep")["self_s"],
        "ergodic.lambda.s": get("ergodic.lambda")["s"],
        "ergodic.lambda.self_s": get("ergodic.lambda")["self_s"],
        "lyapunov.spectrum.calls": get("lyapunov.spectrum")["calls"],
        "lyapunov.spectrum.s": get("lyapunov.spectrum")["s"],
        "lyapunov.top.s": get("lyapunov.top")["s"],
        "splitting.bundles.calls": get("splitting.bundles")["calls"],
        "splitting.bundles.s": get("splitting.bundles")["s"],
        "splitting.certificate.self_s":
            get("splitting.certificate")["self_s"],
        "parallel.map.items": get("parallel.map")["work"],
        "config.parse.s": get("config.parse")["s"],
    }
    for stage in ("rate", "tempered", "curve", "supadd", "corollary", "table"):
        m[f"expansion.{stage}.s"] = get(f"expansion.{stage}")["s"]
    return m
