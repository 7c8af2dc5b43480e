"""Outside-in tracing of the package's layers.

The benchmark patches the public layer functions of ``pdecont`` (module
attributes and ``FactorCache.factorize``) with timing wrappers.  Nothing
under ``src/`` changes; code inside the package that calls these functions
through their module reaches the wrapper.  Every span records its name,
start, end, parent and pass; spans stay in memory and are written out once,
when the run ends.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import defaultdict

import numpy as np

# (module name, attribute, span name).  Spans that share a name are one
# layer: fem.assemble covers interior, load and boundary assembly, and
# continuation.newton covers both correctors.
LAYERS = [
    ("demos", "make", "demos.make"),
    ("problem", "residual", "problem.residual"),
    ("problem", "pde_jacobian_u", "problem.jacobian"),
    ("problem", "jacobian_active", "problem.jacobian_active"),
    ("fem", "assemble_interior", "fem.assemble"),
    ("fem", "assemble_load", "fem.assemble"),
    ("fem", "assemble_boundary", "fem.assemble"),
    ("linsolve", "lss", "linsolve.lss"),
    ("linsolve", "blss", "linsolve.blss"),
    ("linsolve", "spectrum_near_zero", "linsolve.spectrum"),
    ("continuation", "cont", "continuation.cont"),
    ("continuation", "nloop", "continuation.newton"),
    ("continuation", "nloopext", "continuation.newton"),
    ("continuation", "compute_tangent", "continuation.tangent"),
    ("continuation", "bisect_special_point", "continuation.bisect"),
    ("continuation", "stepsize_update", "continuation.stepsize"),
    ("switching", "findbif", "switching.findbif"),
    ("switching", "swibra", "switching.swibra"),
    ("spcont", "spcontini", "spcont.spcontini"),
    ("spcont", "extended_pde_jacobian_u", "spcont.jacobian"),
    ("timeint", "tint", "timeint.tint"),
    ("timeint", "tints", "timeint.tints"),
    ("io", "save_point", "io.save_point"),
    ("io", "load_point", "io.load_point"),
    ("io", "export_branch", "io.export_branch"),
]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "pass_id", "attrs")

    def __init__(self, id_, name, parent, pass_id):
        self.id = id_
        self.name = name
        self.parent = parent
        self.pass_id = pass_id
        self.start = self.end = 0.0
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self, t0):
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "pass": self.pass_id, "start": self.start - t0,
                "end": self.end - t0, **self.attrs}


class Tracer:
    """Records spans around patched functions; ``install`` patches,
    ``uninstall`` restores the originals."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[Span] = []
        self._patched: list[tuple] = []

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """Time ``fn`` as a span.  ``before(span, args, kwargs)`` runs ahead
        of the call; ``after(span, args, kwargs, out)`` runs once the span
        has closed and returns the value handed back to the caller."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, stack[-1].id if stack else None,
                        self.pass_id)
            spans.append(span)
            if before is not None:
                before(span, args, kwargs)
            stack.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            return out if after is None else after(span, args, kwargs, out)
        return traced

    def patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, pkg):
        """Patch every layer of the imported ``pdecont`` package."""
        hooks = {
            "linsolve.spectrum": (_spectrum_before(pkg), None),
            "continuation.newton": (None, _newton_after),
            "continuation.bisect": (None, _bisect_after),
            "continuation.stepsize": (_stepsize_before, None),
            "io.save_point": (None, _save_after),
        }
        for module, attr, name in LAYERS:
            mod = getattr(pkg, module)
            before, after = hooks.get(name, (None, None))
            self.patch(mod, attr, self.wrap(name, getattr(mod, attr),
                                            before, after))
        cache_cls = pkg.linsolve.FactorCache
        self.patch(cache_cls, "factorize",
                   self.wrap("linsolve.lu", cache_cls.factorize,
                             _factorize_before, self._factorize_after))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _factorize_after(self, span, args, kwargs, lu):
        # factor_count goes up only when the cache factorizes afresh
        span.attrs["reuse"] = (args[0].factor_count
                               == span.attrs.pop("count0"))
        if not span.attrs["reuse"]:
            span.attrs["nnz"] = int(lu.nnz)     # SuperLU's fill of L and U
        return _TracedLU(lu, self.wrap("linsolve.solve", lu.solve))

    # -- summary ---------------------------------------------------------

    def spans_as_dicts(self):
        return [s.as_dict(self.t0) for s in self.spans]

    def layer_table(self):
        """Per span name: calls, inclusive seconds (outermost spans of that
        name only) and self seconds (duration minus the time covered by
        direct children)."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for s in self.spans:
            row = table[s.name]
            row["calls"] += 1
            row["self_s"] += s.duration - child_time[s.id]
            if not self.under(s, s.name):
                row["s"] += s.duration
        return dict(table)

    def under(self, span, name):
        """True when ``span`` has an ancestor called ``name``."""
        pid = span.parent
        while pid is not None:
            parent = self.spans[pid]
            if parent.name == name:
                return True
            pid = parent.parent
        return False


class _TracedLU:
    """A SuperLU object whose triangular solves are spans."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _factorize_before(span, args, kwargs):
    span.attrs["count0"] = args[0].factor_count


def _spectrum_before(pkg):
    def before(span, args, kwargs):
        span.attrs["dense"] = args[0].shape[0] <= pkg.linsolve.DENSE_EIG_LIMIT
    return before


def _newton_after(span, args, kwargs, out):
    span.attrs["iters"] = int(out["iter"])
    span.attrs["failed"] = not out["converged"]
    return out


def _bisect_after(span, args, kwargs, out):
    span.attrs["warn"] = bool(out.get("warn"))
    return out


def _stepsize_before(span, args, kwargs):
    failed = kwargs.get("failed", args[2] if len(args) > 2 else False)
    span.attrs["failed"] = bool(failed)


def _save_after(span, args, kwargs, path):
    span.attrs["bytes"] = os.path.getsize(path)
    return path


def calibrate_span_cost(n=20000):
    """Seconds one span adds around a call, measured on a no-op."""
    def noop():
        pass

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)

    def per_call(fn):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        tracer.spans.clear()
        return (time.perf_counter() - t0) / n

    cost = statistics.median(per_call(traced) - per_call(noop)
                             for _ in range(5))
    return max(cost, 0.0)


def layer_metrics(tracer, npass, clock, span_cost):
    """Per-layer figures of a traced run, as {name: (value, unit)}.

    Counts and seconds are per pass (sums divided by the number of passes),
    so runs of different length compare.  fem.assemble leaves out the
    assembly inside demos.make, which belongs to set-up.
    """
    spans = tracer.spans
    table = tracer.layer_table()
    parents_of_errors = {s.parent for s in spans if "error" in s.attrs}

    def per_pass(x):
        return x / npass

    def calls(name):
        return per_pass(table.get(name, {}).get("calls", 0))

    def secs(name, key="s"):
        return per_pass(table.get(name, {}).get(key, 0.0))

    def named(name):
        return [s for s in spans if s.name == name]

    lu = [s for s in named("linsolve.lu") if "error" not in s.attrs]
    fresh = [s for s in lu if not s.attrs["reuse"]]
    spectra = named("linsolve.spectrum")
    newton = named("continuation.newton")
    bisect = named("continuation.bisect")
    saves = named("io.save_point")
    assemble = [s for s in named("fem.assemble")
                if not tracer.under(s, "demos.make")]
    singular = [s for s in spans if s.name.startswith("linsolve.")
                and s.attrs.get("error") == "SingularMatrixError"
                and s.id not in parents_of_errors]
    halvings = sum(1 for s in named("continuation.stepsize")
                   if s.attrs["failed"])
    attempts = clock.accepted + halvings
    tints_lu = [s for s in fresh if tracer.under(s, "timeint.tints")]
    walls = [s.duration for s in named("bench.pass")]
    nspans = per_pass(len(spans))

    m = {
        "linsolve.spectrum.calls": (calls("linsolve.spectrum"), "count"),
        "linsolve.spectrum.s": (secs("linsolve.spectrum"), "s"),
        "linsolve.spectrum.dense_calls": (
            per_pass(sum(1 for s in spectra if s.attrs["dense"])), "count"),
        "linsolve.lu.count": (per_pass(len(fresh)), "count"),
        "linsolve.lu.s": (per_pass(sum(s.duration for s in fresh)), "s"),
        "linsolve.lu.nnz": (
            float(np.mean([s.attrs["nnz"] for s in fresh])) if fresh else 0.0,
            "count"),
        "linsolve.lu.reuse": (per_pass(len(lu) - len(fresh)), "count"),
        "linsolve.solve.calls": (calls("linsolve.solve"), "count"),
        "linsolve.solve.s": (secs("linsolve.solve"), "s"),
        "linsolve.blss.calls": (calls("linsolve.blss"), "count"),
        "linsolve.blss.self_s": (secs("linsolve.blss", "self_s"), "s"),
        "linsolve.singular": (per_pass(len(singular)), "count"),
        "problem.residual.calls": (calls("problem.residual"), "count"),
        "problem.residual.s": (secs("problem.residual"), "s"),
        "problem.jacobian.calls": (calls("problem.jacobian"), "count"),
        "problem.jacobian.s": (secs("problem.jacobian"), "s"),
        "problem.jacobian_active.calls": (calls("problem.jacobian_active"),
                                          "count"),
        "problem.jacobian_active.s": (secs("problem.jacobian_active"), "s"),
        "problem.jacobian_active.self_s": (
            secs("problem.jacobian_active", "self_s"), "s"),
        "fem.assemble.calls": (per_pass(len(assemble)), "count"),
        "fem.assemble.s": (per_pass(sum(s.duration for s in assemble)), "s"),
        "continuation.cont.self_s": (secs("continuation.cont", "self_s"),
                                     "s"),
        "continuation.newton.calls": (per_pass(len(newton)), "count"),
        "continuation.newton.iters": (
            per_pass(sum(s.attrs.get("iters", 0) for s in newton)), "count"),
        "continuation.newton.failed": (
            per_pass(sum(1 for s in newton if s.attrs.get("failed", True))),
            "count"),
        "continuation.newton.self_s": (secs("continuation.newton", "self_s"),
                                       "s"),
        "continuation.accept_ratio": (
            clock.accepted / attempts if attempts else 0.0, "ratio"),
        "continuation.tangent.calls": (calls("continuation.tangent"),
                                       "count"),
        "continuation.tangent.s": (secs("continuation.tangent"), "s"),
        "continuation.bisect.calls": (per_pass(len(bisect)), "count"),
        "continuation.bisect.s": (secs("continuation.bisect"), "s"),
        "continuation.bisect.warn": (
            per_pass(sum(1 for s in bisect if s.attrs.get("warn"))), "count"),
        "continuation.steps.nat": (per_pass(clock.meth.get("nat", 0)),
                                   "count"),
        "continuation.steps.arc": (per_pass(clock.meth.get("arc", 0)),
                                   "count"),
        "switching.swibra.s": (secs("switching.swibra"), "s"),
        "spcont.spcontini.s": (secs("spcont.spcontini"), "s"),
        "spcont.jacobian.s": (secs("spcont.jacobian"), "s"),
        "timeint.tint.s": (secs("timeint.tint"), "s"),
        "timeint.tints.s": (secs("timeint.tints"), "s"),
        "timeint.tints.lu_count": (per_pass(len(tints_lu)), "count"),
        "io.save_point.calls": (per_pass(len(saves)), "count"),
        "io.save_point.s": (secs("io.save_point"), "s"),
        "io.save_point.bytes": (
            per_pass(sum(s.attrs.get("bytes", 0) for s in saves)), "B"),
        "io.load_point.s": (secs("io.load_point"), "s"),
        "io.export_branch.s": (secs("io.export_branch"), "s"),
        "demos.make.s": (secs("demos.make"), "s"),
        "trace.wall_s": (statistics.median(walls), "s"),
        "trace.spans": (nspans, "count"),
        "trace.overhead_s": (nspans * span_cost, "s"),
    }
    return m
