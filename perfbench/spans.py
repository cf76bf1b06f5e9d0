"""Spans and counters recorded around calls into qvipen, from outside the package.

A function is wrapped at every name it is looked up under: each loaded
``qvipen`` module attribute bound to the same function object is replaced, so
``qvipen.penalized_slant``, ``qvipen.core.penalized_slant`` and the
``penalized_slant`` global that ``qvipen.newton`` reads at call time all lead
to one wrapper. ``scipy.sparse.linalg.splu`` is wrapped as well; it returns a
proxy that times ``solve``.

Spans live in flat arrays (name, start, end, parent, op id) and are written
out only when the run ends. Parents come from a thread-local stack; a span
opened on a thread whose stack is empty (``run_table``'s pool worker) takes
the innermost open span of the main thread as its parent, because context
variables do not cross ``pool.submit``.
"""
from __future__ import annotations

import contextlib
import gzip
import sys
import threading
import time
from array import array
from collections import defaultdict

import numpy as np
import scipy.sparse.linalg as spla

import qvipen

# (span name, owner, attribute); the owner is a module or a class
SPANNED = (
    ("pde.assemble", qvipen.pde, "assemble"),
    ("core.penalized_residual", qvipen.core, "penalized_residual"),
    ("core.penalized_slant", qvipen.core, "penalized_slant"),
    ("core.system_evaluate", qvipen.core.AffineSystem, "evaluate"),
    ("newton.solve_root", qvipen.newton, "solve_root"),
    ("newton.solve_penalized", qvipen.newton, "solve_penalized"),
    ("newton.solve_obstacle", qvipen.newton, "solve_obstacle"),
    ("newton.linear_solve", qvipen.newton, "linear_solve"),
    ("regularize.estimate_C", qvipen.regularize, "estimate_C"),
    ("regularize.strict_supersolution", qvipen.regularize, "strict_supersolution"),
    ("regularize.apply_Q", qvipen.regularize, "apply_Q"),
    ("regularize.apply_T", qvipen.regularize, "apply_T"),
    ("regularize.apply_Q_rho", qvipen.regularize, "apply_Q_rho"),
    ("regularize.apply_T_rho", qvipen.regularize, "apply_T_rho"),
    ("regularize.iterate_to_fixed_point", qvipen.regularize, "iterate_to_fixed_point"),
    ("regularize.penalty_error_bound", qvipen.regularize, "penalty_error_bound"),
    ("regularize.hjb_limit_solve", qvipen.regularize, "hjb_limit_solve"),
    ("experiments.run_table", qvipen.experiments, "run_table"),
    ("experiments.write_table", qvipen.experiments, "write_table"),
    ("experiments.extract_regions", qvipen.experiments, "extract_regions"),
    ("oracle.pseudo_time_solve", qvipen.oracle, "pseudo_time_solve"),
    ("oracle.active_set_enumerate", qvipen.oracle, "active_set_enumerate"),
)
SWEEPS = ("regularize.apply_Q", "regularize.apply_T",
          "regularize.apply_Q_rho", "regularize.apply_T_rho")
# Newton driver spans; newton.iterate is the private _newton loop that every
# solve, sweep-internal ones included, runs through
SOLVES = ("newton.iterate", "newton.solve_root", "newton.solve_penalized",
          "newton.solve_obstacle")


class _TimedLU:
    """SuperLU proxy whose ``solve`` is a ``newton.backsolve`` span."""

    __slots__ = ("_lu", "_tracer")

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        sid = self._tracer.open("newton.backsolve")
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._tracer.close(sid)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Counts every Newton solve; with ``spans=True`` also records spans.

    The counting wrapper on ``_newton`` is installed in untraced runs too: it
    adds one Python call per solve, against solves of a millisecond or more.
    """

    def __init__(self, spans: bool):
        self.spans = spans
        self.counts = defaultdict(float)
        self.iters_max = 0
        self.op_id = -1
        # while paused (the benchmark checking an op's output) no span opens
        self.paused = False
        self._names: list = []
        self._name_ids: dict = {}
        self._name = array("i")
        self._parent = array("q")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list = []
        self._lock = threading.Lock()
        self._patches: list = []

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        if self.paused:
            return -1
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self._names)
                self._names.append(name)
            sid = len(self._start)
            self._name.append(nid)
            self._parent.append(parent)
            self._op.append(self.op_id)
            self._end.append(np.nan)
            self._start.append(time.perf_counter())
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        if sid < 0:
            return
        self._end[sid] = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] != sid:
            raise RuntimeError(f"span {sid} closed out of order")
        stack.pop()

    def _in_sweep(self) -> bool:
        sweep_ids = {self._name_ids.get(n) for n in SWEEPS}
        stack = self._stack() or self._main_stack
        return any(self._name[sid] in sweep_ids for sid in stack)

    # -- patching ----------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Bind ``wrapper`` wherever a qvipen module binds ``original``."""
        for modname, module in list(sys.modules.items()):
            if modname != "qvipen" and not modname.startswith("qvipen."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _spanned(self, name, fn, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if on_result is not None:
                on_result(tracer, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_solve(self, report, failed: bool) -> None:
        self.counts["newton.solves"] += 1
        self.counts["newton.failures"] += failed
        if report is None:
            return
        self.counts["newton.iters"] += report.iterations
        self.iters_max = max(self.iters_max, report.iterations)
        if self.spans and self._in_sweep():
            self.counts["regularize.sweep_newton_iters"] += report.iterations

    def _newton_wrapper(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.open("newton.iterate") if tracer.spans else -1
            report, failed = None, True
            try:
                out = fn(*args, **kwargs)
                report, failed = out[1], not out[1].converged
                return out
            except (qvipen.MaxIterExceeded, qvipen.SingularSlant) as exc:
                report = exc.report
                raise
            finally:
                tracer.close(sid)
                tracer._count_solve(report, failed)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        newton = qvipen.newton._newton
        self._replace(newton, self._newton_wrapper(newton))
        if not self.spans:
            return
        for name, owner, attr in SPANNED:
            fn = getattr(owner, attr)
            wrapped = self._spanned(name, fn, _ON_RESULT.get(name))
            if isinstance(owner, type):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
            else:
                self._replace(fn, wrapped)
        factor = self._spanned("newton.factor", spla.splu)

        def timed_splu(*args, **kwargs):
            lu = factor(*args, **kwargs)
            # SuperLU's stored L+U entries, supernodal padding included: a
            # computed bytes-moved proxy that costs nothing to read, unlike
            # building lu.L and lu.U
            self.counts["newton.factor_fill_nnz"] += lu.nnz
            return _TimedLU(lu, self)

        timed_splu.__wrapped__ = spla.splu
        self._patches.append((spla, "splu", spla.splu))
        spla.splu = timed_splu

    def restore(self) -> None:
        """Undo every patch, then check that no wrapper is left anywhere."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        left = [f"{owner.__name__}.{attr}" for _, owner, attr in SPANNED
                if hasattr(getattr(owner, attr), "__wrapped__")]
        for modname, module in list(sys.modules.items()):
            if modname == "qvipen" or modname.startswith("qvipen."):
                left += [f"{modname}.{attr}" for attr, value in vars(module).items()
                         if getattr(value, "__module__", None) == __name__]
        if hasattr(spla.splu, "__wrapped__"):
            left.append("scipy.sparse.linalg.splu")
        if left:
            raise RuntimeError(f"wrappers left after restore: {sorted(set(left))}")

    def reset_counts(self) -> None:
        self.counts.clear()
        self.iters_max = 0

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- results -----------------------------------------------------------

    def span_table(self):
        """Spans as arrays: name id, parent, op id, start, end, self time."""
        name = np.frombuffer(self._name, dtype=np.int32).copy()
        parent = np.frombuffer(self._parent, dtype=np.int64).copy()
        op = np.frombuffer(self._op, dtype=np.int32).copy()
        start = np.frombuffer(self._start, dtype=np.float64).copy()
        end = np.frombuffer(self._end, dtype=np.float64).copy()
        if np.isnan(end).any():
            raise RuntimeError("spans left open at the end of the run")
        dur = end - start
        # siblings never overlap: the benchmark has one caller and run_table
        # runs one worker, so a parent's children cover the sum of their
        # durations
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return name, parent, op, start, end, dur - covered

    def layer_metrics(self, n_ops: int) -> dict:
        """Every per-layer metric, as a mean per traced op.

        ``pde.assemble_*`` also add the spans of one traced set-up (op id
        -1): assembly is set-up work on `mesh` and op work on `tables`.
        """
        name, parent, op, start, end, self_time = self.span_table()
        in_op = op >= 0
        setup_assemble = (name == self._name_ids.get("pde.assemble", -1)) & ~in_op
        n_ops = max(n_ops, 1)
        ms = defaultdict(float)
        calls = defaultdict(float)
        self_ms = defaultdict(float)
        layer_self = defaultdict(float)
        for nid, label in enumerate(self._names):
            mask = (name == nid) & in_op
            ms[label] = float((end[mask] - start[mask]).sum()) * 1e3 / n_ops
            calls[label] = float(mask.sum()) / n_ops
            self_ms[label] = float(self_time[mask].sum()) * 1e3 / n_ops
            layer_self[label.split(".")[0]] += self_ms[label]
        sweeps = sum(calls[s] for s in SWEEPS)
        march = np.nonzero(name == self._name_ids.get("oracle.pseudo_time_solve", -1))[0]
        evaluate = name == self._name_ids.get("core.system_evaluate", -1)
        # the march evaluates the residual once per step
        steps = np.count_nonzero(evaluate & in_op & np.isin(parent, march))
        op_ms = ms["bench.op"]
        out = {
            "core.penalized_slant_ms": ms["core.penalized_slant"],
            "core.penalized_slant_calls": calls["core.penalized_slant"],
            "core.slant_nnz": self.counts["core.slant_nnz"] / n_ops,
            "core.penalized_residual_ms": ms["core.penalized_residual"],
            "core.penalized_residual_calls": calls["core.penalized_residual"],
            "core.system_evaluate_ms": ms["core.system_evaluate"],
            "core.system_evaluate_calls": calls["core.system_evaluate"],
            "newton.linear_solve_ms": ms["newton.linear_solve"],
            "newton.linear_solve_calls": calls["newton.linear_solve"],
            "newton.factor_ms": ms["newton.factor"],
            "newton.backsolve_ms": ms["newton.backsolve"],
            "newton.linear_solve_other_ms": self_ms["newton.linear_solve"],
            "newton.factor_fill_nnz": self.counts["newton.factor_fill_nnz"] / n_ops,
            "newton.solves": self.counts["newton.solves"] / n_ops,
            "newton.iters": self.counts["newton.iters"] / n_ops,
            "newton.iters_per_solve_max": float(self.iters_max),
            "newton.failures": self.counts["newton.failures"] / n_ops,
            "newton.self_ms": sum(self_ms[s] for s in SOLVES),
            "regularize.sweeps": sweeps,
            "regularize.sweep_ms": ms["regularize.iterate_to_fixed_point"],
            "regularize.newton_iters_per_sweep":
                self.counts["regularize.sweep_newton_iters"] / n_ops / sweeps
                if sweeps else 0.0,
            "regularize.nonmonotone_warnings":
                self.counts["regularize.nonmonotone_warnings"] / n_ops,
            "regularize.hjb_ms": ms["regularize.hjb_limit_solve"],
            "experiments.run_table_ms": ms["experiments.run_table"],
            "experiments.cells": self.counts["experiments.cells"] / n_ops,
            "experiments.cell_failures": self.counts["experiments.cell_failures"] / n_ops,
            "experiments.write_table_ms": ms["experiments.write_table"],
            "experiments.extract_regions_ms": ms["experiments.extract_regions"],
            "oracle.pseudo_time_ms": ms["oracle.pseudo_time_solve"],
            "oracle.march_steps": steps / n_ops,
            "oracle.enumerate_ms": ms["oracle.active_set_enumerate"],
            "oracle.patterns_tried": self.counts["oracle.patterns_tried"] / n_ops,
            "pde.assemble_ms":
                ms["pde.assemble"] + float((end - start)[setup_assemble].sum()) * 1e3,
            "pde.assemble_calls":
                calls["pde.assemble"] + float(np.count_nonzero(setup_assemble)),
        }
        for layer in ("pde", "core", "regularize", "experiments", "oracle", "bench"):
            out[f"{layer}.self_ms"] = layer_self[layer]
        # self times partition each op span; a span that lost its parent
        # would be counted twice and push this above 1
        out["trace.self_sum_frac"] = sum(layer_self.values()) / op_ms if op_ms else 0.0
        return out

    def write_spans(self, path) -> int:
        """Write every span as gzip CSV; returns the span count."""
        name, parent, op, start, end, self_time = self.span_table()
        t0 = float(start.min()) if len(start) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("span,parent,op,name,start_s,end_s,self_s\n")
            for i in range(len(start)):
                fh.write(f"{i},{parent[i]},{op[i]},{self._names[name[i]]},"
                         f"{start[i] - t0:.9f},{end[i] - t0:.9f},{self_time[i]:.9f}\n")
        return len(start)


def _slant_nnz(tracer, args, out):
    tracer.counts["core.slant_nnz"] += out.nnz


def _cells(tracer, args, out):
    tracer.counts["experiments.cells"] += len(out.cells)
    tracer.counts["experiments.cell_failures"] += sum(
        1 for c in out.cells if c.error is not None or not c.converged)


def _patterns(tracer, args, out):
    # active_set_enumerate solves every on/off pattern, with no early exit
    system = args[0].system
    tracer.counts["oracle.patterns_tried"] += 1 << (system.d * (system.d - 1) * system.N)


_ON_RESULT = {
    "core.penalized_slant": _slant_nnz,
    "experiments.run_table": _cells,
    "oracle.active_set_enumerate": _patterns,
}
