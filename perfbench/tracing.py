"""Spans around pefem's public functions, recorded from outside the package.

`Instrumentation` rebinds pefem's public functions and methods to wrappers
for the duration of a `with` block and restores them afterwards.  Untraced,
it wraps only `analysis.solve`, so the benchmark can recompute every
residual.  Traced, it wraps every public function and method of the layer
modules, plus the two SciPy factorizations that `analysis` calls, and
records one span per call in a `SpanRecorder`.

Work the benchmark does itself inside a pass (residuals, counters,
tracemalloc) runs in an "observe" window: its time is recorded as a
`bench.observe` span, so it is subtracted from the self time of the
enclosing pefem span, and it is summed in `observer_s`, so the pass time
can exclude it.
"""

import dataclasses
import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np
import scipy.sparse.linalg as spla

LAYERS = ("mesh", "fem", "geometry", "forms", "analysis", "cli")
OBSERVE = "bench.observe"
MB = 1024.0 * 1024.0


class SpanRecorder:
    """Nested spans kept in memory: name, start, end and parent index."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []

    def __len__(self):
        return len(self.names)

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(self.clock())
        self.ends.append(None)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")
        self.ends[idx] = self.clock()

    def durations(self):
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self):
        """Each span's duration minus the durations of its direct children."""
        dur = self.durations()
        own = list(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[i]
        return own

    def rows(self):
        return [list(row) for row in zip(self.names, self.starts, self.ends, self.parents)]


def _pefem_namespaces():
    return [m for name, m in list(sys.modules.items()) if name == "pefem" or name.startswith("pefem.")]


def _public_targets():
    """(span name, owner, attribute) for every public function and method."""
    targets = []
    for layer in LAYERS:
        module = importlib.import_module(f"pefem.{layer}")
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                targets.append((f"{layer}.{name}", module, name))
            elif (
                inspect.isclass(obj)
                and not dataclasses.is_dataclass(obj)
                and not issubclass(obj, BaseException)
            ):
                for attr, member in list(vars(obj).items()):
                    if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_")):
                        targets.append((f"{layer}.{name}.{attr}", obj, attr))
    targets.append(("scipy.spsolve", spla, "spsolve"))
    targets.append(("scipy.splu", spla, "splu"))
    return targets


class Instrumentation:
    """Wrappers on pefem's public functions while used as a context manager.

    ``recorder`` is a SpanRecorder for a traced pass, or None for an
    untraced one.  Either way ``residuals`` collects the relative residual
    of every `solve` call, recomputed in extended precision.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.residuals = []
        self.counters = {}
        self.observer_s = 0.0
        self.paused = False
        self._undo = []

    # -- observation ---------------------------------------------------

    @contextmanager
    def observe(self):
        """Benchmark-side work inside a pass, excluded from pefem's times."""
        t0 = time.perf_counter()
        idx = self.recorder.open(OBSERVE) if self.recorder is not None else None
        try:
            yield
        finally:
            if idx is not None:
                self.recorder.close(idx)
            self.observer_s += time.perf_counter() - t0

    @contextmanager
    def pause(self):
        """Calls made while paused (the checks) are neither traced nor counted."""
        before, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = before

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def _measured(self, name):
        if name == "analysis.solve":
            return True
        return self.recorder is not None and (
            name.startswith(("mesh.generate_", "forms."))
            or name in ("fem.FeSpace.__init__", "geometry.BoundaryGeometry.closest_point", "scipy.splu")
        )

    def _after(self, name, args, result):
        if name == "analysis.solve":
            system = args[0]
            self.residuals.append(relative_residual(system.A, system.F, result))
        elif name.startswith("mesh.generate_"):
            self.count("mesh.triangles", len(result.triangles))
        elif name == "fem.FeSpace.__init__":
            self.count("fem.dofs", args[0].n_dofs)
        elif name == "geometry.BoundaryGeometry.closest_point":
            self.count("geometry.points_projected", len(np.atleast_2d(result)))
        elif name.startswith("forms.") and hasattr(result, "A"):
            self.count("forms.nnz", result.A.nnz)
        elif name == "scipy.splu":
            self.count("analysis.lu_nnz", result.nnz)

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name, fn):
        inst = self
        peak_memory = self.recorder is not None and name == "fem.assemble_operator"
        measured = self._measured(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inst.paused:
                return fn(*args, **kwargs)
            rec = inst.recorder
            if peak_memory:
                with inst.observe():
                    tracemalloc.start()
            idx = rec.open(name) if rec is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    rec.close(idx)
                if peak_memory:
                    with inst.observe():
                        inst.peak("fem.operator_peak_mb", tracemalloc.get_traced_memory()[1] / MB)
                        tracemalloc.stop()
            if measured:
                with inst.observe():
                    inst._after(name, args, result)
            return result

        return wrapper

    def __enter__(self):
        namespaces = _pefem_namespaces()
        if self.recorder is None:
            import pefem.analysis

            targets = [("analysis.solve", pefem.analysis, "solve")]
        else:
            targets = _public_targets()
        for name, owner, attr in targets:
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original))
                continue
            for ns in namespaces + [owner]:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._undo.append((ns, key, original))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False


def relative_residual(A, F, x):
    """||F - A x|| / ||F||, accumulated in extended precision."""
    A_ext = A.tocsr().astype(np.longdouble)
    r = np.asarray(F, dtype=np.longdouble) - A_ext @ np.asarray(x, dtype=np.longdouble)
    fn = float(np.linalg.norm(np.asarray(F, dtype=float)))
    return float(np.linalg.norm(r.astype(float))) / (fn if fn > 0 else 1.0)


def layer_metrics(recorder, inst):
    """Per-layer metrics of one traced pass."""
    names = recorder.names
    dur = recorder.durations()
    own = recorder.self_times()

    def total(pred, values):
        return float(sum(v for n, v in zip(names, values) if pred(n)))

    def calls(name):
        return sum(1 for n in names if n == name)

    c = inst.counters
    return {
        "mesh.generate_s": total(lambda n: n.startswith("mesh.generate_"), dur),
        "mesh.triangles": c.get("mesh.triangles", 0),
        "fem.space_s": total(lambda n: n == "fem.FeSpace.__init__", dur),
        "fem.dofs": c.get("fem.dofs", 0),
        "fem.operator_s": total(lambda n: n == "fem.assemble_operator", dur),
        "fem.operator_calls": calls("fem.assemble_operator"),
        "fem.load_s": total(lambda n: n == "fem.assemble_load", dur),
        "fem.operator_peak_mb": float(c.get("fem.operator_peak_mb", 0.0)),
        "geometry.closest_point_s": total(
            lambda n: n == "geometry.BoundaryGeometry.closest_point", dur
        ),
        "geometry.closest_point_calls": calls("geometry.BoundaryGeometry.closest_point"),
        "geometry.points_projected": c.get("geometry.points_projected", 0),
        "geometry.gap_self_s": total(lambda n: n == "geometry.geometric_gap", own),
        "forms.boundary_s": total(lambda n: n.startswith("forms."), own),
        "forms.nnz": c.get("forms.nnz", 0),
        "analysis.solve_s": total(lambda n: n == "analysis.solve", dur),
        "analysis.splu_calls": calls("scipy.splu"),
        "analysis.splu_s": total(lambda n: n == "scipy.splu", dur),
        "analysis.lu_nnz": c.get("analysis.lu_nnz", 0),
        "analysis.residual": max(inst.residuals, default=0.0),
        "analysis.norms_s": total(lambda n: n == "analysis.error_norms", dur),
        "cli.study_self_s": total(lambda n: n == "cli.run_study", own),
    }


def span_table(recorder):
    """(name, calls, inclusive seconds, self seconds), by self time."""
    rows = {}
    for name, d, s in zip(recorder.names, recorder.durations(), recorder.self_times()):
        calls, inc, own = rows.get(name, (0, 0.0, 0.0))
        rows[name] = (calls + 1, inc + d, own + s)
    return sorted(((n,) + v for n, v in rows.items()), key=lambda r: -r[3])
