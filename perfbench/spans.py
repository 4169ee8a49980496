"""Span tracing of wg4 from outside the package.

A :class:`Tracer` replaces public wg4 functions at the module attribute
each caller looks them up through (for example ``harness.solve_case``,
``assembly.local_system`` or scipy's ``splu`` as seen by ``wg4.solve``) and
records one span per call: name, start, end, parent span and op id.
Spans stay in memory until the worker writes them out.  Counts
(elements, dofs, LU fill, residuals) are taken from call arguments and
results at the same boundaries, on a clock that is paused meanwhile, so
counting adds no time to any span.  Counts avoid large temporaries, whose
memory churn slows the rest of the op even with the clock paused: copying
L and U out of the factorization, or taking abs() of the matrix, slowed a
traced conv-sine op by about 1 s.

:func:`layer_metrics` turns the spans of one op into per-layer self
times (a span minus its child spans) and counts.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

#: Span name -> per-layer metric that receives the span's self time.
SELF_TIME_METRICS = {
    "cli": "cli.self_s",
    "harness.solve_case": "harness.solve_case_s",
    "harness.sample": "harness.sample_s",
    "mesh.build": "mesh.build_s",
    "assembly.coeff": "assembly.coeff_s",
    "assembly.assemble": "assembly.assemble_s",
    "assembly.load": "assembly.load_s",
    "assembly.kernel": "assembly.kernel_s",
    "assembly.triple_bar": "assembly.triple_bar_s",
    "weakops.boundary_project": "weakops.boundary_project_s",
    "weakops.project_Qh": "weakops.project_Qh_s",
    "errors.report": "errors.report_s",
}

#: Metrics the solve layer's spans are split into: factorization, the
#: first triangular solve with the conversions before it, and the
#: refinement loop after it.  Together they equal the solve_spd span.
SOLVE_TIME_METRICS = ("solve.solve_s", "solve.factor_s", "solve.refine_s")

#: Counts per op and their units.  Residuals are the worst over the op's
#: solves; every other count is summed over the op.
COUNT_METRICS = {
    "mesh.elements": "count",
    "assembly.kernel_calls": "count",
    "assembly.elements_per_kernel": "elements/call",
    "assembly.dofs": "count",
    "assembly.nnz": "count",
    "solve.lu_nnz": "count",
    "solve.refine_steps": "count",
    "solve.rel_residual": "ratio",
    "solve.backward_err": "ratio",
}

#: Traced op time (the sum of the self times) and the tracing overhead.
TRACE_METRICS = ("trace.op_s", "trace.overhead_s")

PER_LAYER_UNITS = {
    **{name: "s" for name in (*SELF_TIME_METRICS.values(), *SOLVE_TIME_METRICS, *TRACE_METRICS)},
    **COUNT_METRICS,
}

NAME, START, END, PARENT, OP, COUNTS = range(6)


class Tracer:
    """Records spans around wrapped wg4 functions; see the module docstring."""

    def __init__(self):
        #: (name, start, end, parent, op) per span: tuples of atoms, which
        #: the garbage collector stops tracking.  Kept as lists, the 45,000
        #: spans of a conv-sine op slowed it by about 10%.
        self.spans: list[tuple] = []
        self.counts: dict[int, dict] = {}
        self.op: int | None = None
        self._open: list[int] = []
        self._paused = 0.0
        self._patches: list[tuple[object, str, object]] = []

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextmanager
    def paused(self):
        """Stop the span clock for bookkeeping done inside open spans."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append((name, self.now(), None, parent, self.op))
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        name, start, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, self.now(), parent, op)
        self._open.pop()

    def rows(self) -> list[list]:
        """Every span as [name, start, end, parent, op, counts]."""
        return [[*span, self.counts.get(i, {})] for i, span in enumerate(self.spans)]

    def traced(self, fn, name: str, count=None):
        """``fn`` wrapped in a span; ``count(counts, args, result)`` runs
        with the clock paused after a successful call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                with self.paused():
                    count(self.counts.setdefault(index, {}), args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        self.patch(owner, attr, self.traced(getattr(owner, attr), name, count))

    def install(self) -> None:
        """Wrap every traced wg4 entry point; :meth:`uninstall` undoes it."""
        import numpy as np
        from wg4 import assembly, errors, harness, solve, weakops

        def mesh_count(c, args, mesh):
            c["elements"] = mesh.n_elements

        def assemble_count(c, args, system):
            c["elements"] = args[0].n_elements
            c["dofs"] = system.matrix.shape[0]
            c["nnz"] = system.matrix.nnz

        def triple_bar_count(c, args, result):
            c["elements"] = args[0].n_elements

        def solve_count(c, args, result):
            system = args[0]
            matrix, rhs = (system.matrix, system.rhs) if hasattr(system, "matrix") else system
            x, report = result
            c["refine_steps"] = report.iterations
            c["rel_residual"] = report.residual

            r = rhs - matrix @ x
            c["backward_err"] = float(np.linalg.norm(r)) / (
                float(np.linalg.norm(matrix.data)) * float(np.linalg.norm(x))
                + float(np.linalg.norm(rhs)))

        self.wrap(harness, "build_structured_mesh", "mesh.build", mesh_count)
        self.wrap(harness.CaseCatalogEntry, "problem", "assembly.coeff")
        self.wrap(harness, "solve_case", "harness.solve_case")
        self.wrap(harness, "sample_field", "harness.sample")
        self.wrap(assembly, "assemble", "assembly.assemble", assemble_count)
        self.wrap(assembly, "local_load", "assembly.load")
        self.wrap(assembly, "local_system", "assembly.kernel")
        self.wrap(assembly, "triple_bar_norm", "assembly.triple_bar", triple_bar_count)
        self.wrap(weakops, "project_Qb", "weakops.boundary_project")
        self.wrap(weakops, "project_Qg", "weakops.boundary_project")
        self.wrap(weakops, "project_Qh", "weakops.project_Qh")
        self.wrap(errors, "error_report", "errors.report")
        self.wrap(solve, "solve_spd", "solve.solve", solve_count)
        self.patch(solve, "spla", _TracedLinalg(self, solve.spla))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class _TracedLinalg:
    """Stands in for scipy.sparse.linalg inside ``wg4.solve`` only: its
    ``splu`` is traced and returns a factorization whose ``solve`` is
    traced; every other attribute is scipy's."""

    def __init__(self, tracer: Tracer, module):
        self._module = module

        def lu_count(c, args, lu):
            c["lu_nnz"] = lu.nnz

        factor = tracer.traced(module.splu, "solve.factor", lu_count)

        def splu(*args, **kwargs):
            return _TracedLU(tracer, factor(*args, **kwargs))

        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._module, name)


class _TracedLU:
    def __init__(self, tracer: Tracer, lu):
        self._lu = lu
        self.solve = tracer.traced(lu.solve, "solve.lu_solve")

    def __getattr__(self, name):
        return getattr(self._lu, name)


def spans_by_op(spans: list[list]) -> dict[int, list[list]]:
    """Split a recorder's spans per op id, with parents re-indexed into
    each op's own list."""
    out: dict[int, list[list]] = {}
    local: dict[int, int] = {}
    for i, s in enumerate(spans):
        group = out.setdefault(s[OP], [])
        local[i] = len(group)
        parent = None if s[PARENT] is None else local[s[PARENT]]
        group.append([s[NAME], s[START], s[END], parent, s[OP], s[COUNTS]])
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times and counts of one op's spans.

    ``spans`` holds exactly one root span (the op) and its descendants,
    with parents given as indices into the list.  The self times sum to
    the root span's duration.
    """
    child_time = [0.0] * len(spans)
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
            children[s[PARENT]].append(i)

    out = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
    out.update(dict.fromkeys(SOLVE_TIME_METRICS, 0.0))
    out.update(dict.fromkeys(COUNT_METRICS, 0.0))
    handled_elements = 0
    for i, s in enumerate(spans):
        name, counts = s[NAME], s[COUNTS]
        duration = s[END] - s[START]
        if name in SELF_TIME_METRICS:
            out[SELF_TIME_METRICS[name]] += duration - child_time[i]
        elif name == "solve.solve":
            factor = sum(spans[k][END] - spans[k][START]
                         for k in children[i] if spans[k][NAME] == "solve.factor")
            lu_solves = [spans[k] for k in children[i] if spans[k][NAME] == "solve.lu_solve"]
            refine = s[END] - lu_solves[0][END] if lu_solves else 0.0
            out["solve.factor_s"] += factor
            out["solve.refine_s"] += refine
            out["solve.solve_s"] += duration - factor - refine
            out["solve.refine_steps"] += counts.get("refine_steps", 0)
            out["solve.rel_residual"] = max(out["solve.rel_residual"], counts.get("rel_residual", 0.0))
            out["solve.backward_err"] = max(out["solve.backward_err"], counts.get("backward_err", 0.0))
        elif name == "solve.factor":
            out["solve.lu_nnz"] += counts.get("lu_nnz", 0)
        if name == "mesh.build":
            out["mesh.elements"] += counts.get("elements", 0)
        elif name == "assembly.kernel":
            out["assembly.kernel_calls"] += 1
        elif name == "assembly.assemble":
            out["assembly.dofs"] += counts.get("dofs", 0)
            out["assembly.nnz"] += counts.get("nnz", 0)
        if name in ("assembly.assemble", "assembly.triple_bar"):
            handled_elements += counts.get("elements", 0)
    if out["assembly.kernel_calls"]:
        out["assembly.elements_per_kernel"] = handled_elements / out["assembly.kernel_calls"]
    return out
