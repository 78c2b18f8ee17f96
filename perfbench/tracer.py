"""Per-layer span tracer for the MESA benchmark.

The tracer wraps the public functions of each ``repro`` layer from outside
the package: ``instrument`` replaces every ``repro.*`` module binding of a
wrapped function (modules bind layer functions by ``from … import``, so
patching only the defining module would miss most calls) and restores the
originals on exit. Nothing under ``src/`` knows about it.

Each call becomes a :class:`Span` with wall time, self time (wall time
minus the time of wrapped callees), Spark jobs and rows collected to the
driver:

* Jobs. A span whose layer touches Spark runs under its own job group and
  restores its parent's group on exit. Group ids are resolved to job ids
  only after the op (``Tracer.resolve_jobs``), once the listener bus has
  drained, so a job whose start event is still queued is not lost. Spans
  of driver-only layers (the ``core.info_theory`` estimators) make no JVM
  call at all: Brute-Force scores thousands of subsets through them.
* Rows. ``DataFrame.toPandas`` and ``DataFrame.collect`` are wrapped and
  charge the rows they return to the innermost open span.
"""
from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from pyspark import SparkContext

INFO_THEORY = "core.info_theory"
INFO_THEORY_FNS = (
    "chi2_sf",
    "entropy_from_counts",
    "cond_entropy_from_counts",
    "cmi_from_counts",
    "mi_from_counts",
    "cmi_corrected_from_counts",
    "g_test",
    "is_conditionally_independent",
)


def _mcimr_extra(args, kwargs, out) -> dict[str, float]:
    return {"iterations": len(out.trace)}


def _online_prune_extra(args, kwargs, out) -> dict[str, float]:
    attrs = kwargs.get("attrs", args[1] if len(args) > 1 else ())
    return {"kept": len(out[0]), "offered": len(attrs)}


def _subgroups_extra(args, kwargs, out) -> dict[str, float]:
    return {"nodes": out.nodes_explored, "reported": len(out.groups)}


def _brute_force_extra(args, kwargs, out) -> dict[str, float]:
    return {"subsets": out.n_subsets}


@dataclass(frozen=True)
class Layer:
    """One wrapped function: where it is defined and what to record."""

    module: str  # defining module, e.g. ``repro.core.mesa``
    attr: str  # ``fn`` or ``Class.method``
    name: str  # metric prefix, e.g. ``core.mesa.prepare``
    spark: bool = True  # False: driver-only, no job group
    extra: Callable[..., dict[str, float]] | None = None


def _layer(module: str, attr: str, **kw) -> Layer:
    short = module.removeprefix("repro.") + "." + attr.split(".")[-1]
    return Layer(module, attr, short, **kw)


LAYERS: tuple[Layer, ...] = (
    _layer("repro.core.query", "ensure_binned"),
    _layer("repro.core.mesa", "Mesa.prepare"),
    _layer("repro.core.mesa", "Mesa.explain_prepared"),
    _layer("repro.missing.ipw", "prepare_weights"),
    _layer("repro.kg.extract", "extract_attributes"),
    _layer("repro.kg.extract", "integrate"),
    _layer("repro.core.pruning", "offline_prune_rows"),
    _layer("repro.core.pruning", "offline_prune_entity"),
    _layer("repro.core.pruning", "online_prune", extra=_online_prune_extra),
    _layer("repro.core.contingency", "joint_counts"),
    _layer("repro.core.contingency", "group_sizes"),
    _layer("repro.core.contingency", "scan_counts"),
    _layer("repro.core.subgroups", "top_k_unexplained", extra=_subgroups_extra),
    _layer("repro.core.mcimr", "mcimr", extra=_mcimr_extra),
    _layer("repro.core.responsibility", "responsibilities"),
    _layer("repro.baselines.brute_force", "brute_force", extra=_brute_force_extra),
    _layer("repro.baselines.topk", "top_k"),
    _layer("repro.baselines.hypdb", "hypdb"),
    _layer("repro.baselines.linreg", "linear_regression"),
    _layer("repro.eval.harness", "run_all_methods"),
) + tuple(
    Layer("repro.core.info_theory", fn, INFO_THEORY, spark=False)
    for fn in INFO_THEORY_FNS
)


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    child_s: float = 0.0
    group: str | None = None  # own Spark job group, if the layer touches Spark
    jobs: int = 0  # jobs run under ``group`` (self jobs)
    rows: int = 0  # rows collected to the driver while innermost
    cells: int = 0  # contingency rows scored (outermost estimator calls)
    extra: dict[str, float] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s

    def total_jobs(self) -> int:
        return self.jobs + sum(c.total_jobs() for c in self.children)


class Tracer:
    """Collects the spans of one op at a time (``begin_op``/``end_op``)."""

    def __init__(self, sc: SparkContext):
        self.sc = sc
        self._stack: list[Span] = []
        self._seq = 0
        self.op_group = ""
        self.op_start = 0.0
        self.op_end = 0.0
        self.op_rows = 0  # rows collected outside any span
        self.op_jobs = 0  # jobs run outside any span
        self.spans: list[Span] = []  # finished spans, in exit order
        self.roots: list[Span] = []

    # -- op lifetime ---------------------------------------------------------
    def begin_op(self, group: str) -> None:
        self.op_group = group
        self.op_rows = self.op_jobs = 0
        self.spans, self.roots = [], []
        self.sc.setJobGroup(group, "op")
        self.op_start = time.perf_counter()

    def end_op(self) -> None:
        self.op_end = time.perf_counter()
        if self._stack:
            raise RuntimeError(f"spans left open: {[s.name for s in self._stack]}")

    def resolve_jobs(self, drain: Callable[[], None]) -> None:
        """Fill in every span's job count once the op has ended."""
        drain()
        st = self.sc.statusTracker()
        self.op_jobs = len(st.getJobIdsForGroup(self.op_group))
        for s in self.spans:
            if s.group is not None:
                s.jobs = len(st.getJobIdsForGroup(s.group))

    @property
    def op_seconds(self) -> float:
        return self.op_end - self.op_start

    # -- spans ---------------------------------------------------------------
    def enter(self, layer: Layer) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(layer.name, parent, 0.0)
        if layer.spark:
            self._seq += 1
            span.group = f"{self.op_group}.{self._seq}"
            self.sc.setJobGroup(span.group, layer.name)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        parent = span.parent
        if parent is None:
            self.roots.append(span)
        else:
            parent.child_s += span.seconds
            parent.children.append(span)
        if span.group is not None:
            self.sc.setJobGroup(self._open_group(), "")
        self.spans.append(span)

    def _open_group(self) -> str:
        for s in reversed(self._stack):
            if s.group is not None:
                return s.group
        return self.op_group

    def charge_rows(self, n: int) -> None:
        span = self.innermost()
        if span is None:
            self.op_rows += n
        else:
            span.rows += n

    def innermost(self) -> Span | None:
        return self._stack[-1] if self._stack else None


def _wrap(tracer: Tracer, layer: Layer, fn: Callable) -> Callable:
    if layer.name == INFO_THEORY:

        @functools.wraps(fn)
        def estimator(*args, **kwargs):
            outer = tracer.innermost()
            span = tracer.enter(layer)
            if (outer is None or outer.name != INFO_THEORY) and args:
                span.cells = len(args[0]) if hasattr(args[0], "__len__") else 0
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(span)

        return estimator

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.enter(layer)
        try:
            out = fn(*args, **kwargs)
            if layer.extra is not None:
                span.extra = layer.extra(args, kwargs, out)
            return out
        finally:
            tracer.exit(span)

    return wrapper


def _resolve(layer: Layer) -> tuple[Any, str]:
    """The object that owns the wrapped attribute, and its name."""
    owner: Any = importlib.import_module(layer.module)
    *cls, attr = layer.attr.split(".")
    for c in cls:
        owner = getattr(owner, c)
    return owner, attr


def _repro_modules() -> list[Any]:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


def originals() -> list[tuple[Layer, Callable]]:
    """Every wrapped layer with the function it wraps (unpatched state)."""
    # Import every repro module first: one imported while patched would bind
    # a wrapper for good, and one not yet imported escapes the binding scan.
    import repro

    for mod in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(mod.name)
    out = []
    for layer in LAYERS:
        owner, attr = _resolve(layer)
        out.append((layer, getattr(owner, attr)))
    return out


def unwrapped_bindings(fns: list[Callable]) -> list[str]:
    """``module.attr`` of every repro module binding that still holds one
    of ``fns`` (plus class attributes of the wrapped methods)."""
    ids = {id(f) for f in fns}
    found = []
    for m in _repro_modules():
        for k, v in list(vars(m).items()):
            if id(v) in ids:
                found.append(f"{m.__name__}.{k}")
            elif isinstance(v, type) and v.__module__ == m.__name__:
                for ck, cv in vars(v).items():
                    if id(cv) in ids:
                        found.append(f"{m.__name__}.{k}.{ck}")
    return found


@contextmanager
def instrument(tracer: Tracer) -> Iterator[list[Callable]]:
    """Patch every layer binding and the DataFrame collectors; restore all
    of them on exit. Yields the original functions (for binding checks)."""
    from pyspark.sql.classic.dataframe import DataFrame

    restore: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, new: Any) -> None:
        restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    pairs = originals()
    try:
        for layer, fn in pairs:
            wrapped = _wrap(tracer, layer, fn)
            owner, attr = _resolve(layer)
            patch(owner, attr, wrapped)
            if not isinstance(owner, type):
                for m in _repro_modules():
                    for k, v in list(vars(m).items()):
                        if v is fn:
                            patch(m, k, wrapped)

        collecting = [False]  # toPandas may fall back to collect: count once

        def counting(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def collector(self, *args, **kwargs):
                if collecting[0]:
                    return fn(self, *args, **kwargs)
                collecting[0] = True
                try:
                    out = fn(self, *args, **kwargs)
                finally:
                    collecting[0] = False
                tracer.charge_rows(len(out))
                return out

            return collector

        patch(DataFrame, "toPandas", counting(DataFrame.toPandas))
        patch(DataFrame, "collect", counting(DataFrame.collect))
        yield [fn for _, fn in pairs]
    finally:
        for owner, attr, old in reversed(restore):
            setattr(owner, attr, old)


_UNITS = {
    "calls": "count",
    "self_s": "s",
    "jobs": "count",
    "rows": "count",
    "cells": "count",
    "nodes": "count",
    "iterations": "count",
    "subsets": "count",
    "jobs_per_node": "jobs/node",
}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its last name component."""
    return _UNITS.get(metric.rsplit(".", 1)[-1], "frac")


def op_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counters of the op just traced (after ``resolve_jobs``)."""
    out: dict[str, float] = {}
    for name in dict.fromkeys(layer.name for layer in LAYERS):
        # Estimator spans make no Spark call, so they count scored cells.
        kinds = ("calls", "self_s", "cells") if name == INFO_THEORY else (
            "calls", "self_s", "jobs", "rows"
        )
        for k in kinds:
            out[f"{name}.{k}"] = 0.0
    extra: dict[str, float] = {}
    sg_jobs = 0
    for s in tracer.spans:
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += s.self_s
        if s.name == INFO_THEORY:
            out[f"{INFO_THEORY}.cells"] += s.cells
        else:
            out[f"{s.name}.jobs"] += s.jobs
            out[f"{s.name}.rows"] += s.rows
        for k, v in s.extra.items():
            extra[k] = extra.get(k, 0.0) + v
        if s.name == "core.subgroups.top_k_unexplained":
            sg_jobs += s.total_jobs()
    nodes = extra.get("nodes", 0.0)
    sg = "core.subgroups.top_k_unexplained"
    out[f"{sg}.nodes"] = nodes
    out[f"{sg}.jobs_per_node"] = sg_jobs / nodes if nodes else 0.0
    out[f"{sg}.reported_per_node"] = extra.get("reported", 0.0) / nodes if nodes else 0.0
    out["core.mcimr.mcimr.iterations"] = extra.get("iterations", 0.0)
    offered = extra.get("offered", 0.0)
    out["core.pruning.online_prune.kept_frac"] = (
        extra.get("kept", 0.0) / offered if offered else 0.0
    )
    out["baselines.brute_force.brute_force.subsets"] = extra.get("subsets", 0.0)
    in_spans = sum(s.seconds for s in tracer.roots)
    out["op.outside_spans_frac"] = 1.0 - in_spans / tracer.op_seconds
    out["op.outside_spans.jobs"] = float(tracer.op_jobs)
    out["op.outside_spans.rows"] = float(tracer.op_rows)
    return out
