"""The benchmark workloads: subgroups and methods.

Each workload builds its datasets and per-workload state in ``setup`` and
then repeats one ``op``. An op returns a canonical, JSON-comparable summary
of its output, which ``run.measure`` compares with a golden (``same``).

The two stress different layers:

* ``subgroups``: Algorithm 2 (``top_k_unexplained``) on SO Q1, prepared and
  explained in set-up, with Table 4's τ and ratio gate. The op is many
  narrow filtered ``joint_counts``/``group_sizes`` jobs; it runs no
  binning, knowledge-graph extraction, IPW fitting or baseline.
* ``methods``: the harness behind Tables 2 and 3 on Forbes Q2: MESA's
  ``prepare`` (extraction, binning, IPW) and ``explain_prepared`` once,
  then Top-K, LR, HypDB and Brute-Force on the shared frame. The only
  workload that runs the baselines and Brute-Force's driver-side scoring.
  MESA⁻ (a second, unpruned ``Mesa.explain``) is left out: it adds 60% to
  the op, and the runs would no longer fit the benchmark's time limit.

One Spark job costs 0.1-0.2 s in local mode on 4 cores, whatever the data
size, so an op's length follows its job count, and a run's set-up (a fresh
JVM, a cold ``prepare``, a warm-up op) is most of its time. Scale and node
budget are chosen so that every run of both workloads fits the benchmark's
time limit. Forbes gets more junk candidates than SO: its frame is fixed in
size, so they cost only Brute-Force subsets and estimator calls, the work
``methods`` exists to measure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from pyspark.sql import SparkSession

# Layer entry points are called through their modules, so that a traced op
# calls the tracer's patched bindings.
from repro.core import subgroups
from repro.core.mesa import Mesa, MesaConfig
from repro.datasets.base import SynthDataset
from repro.datasets.forbes import make_forbes
from repro.datasets.queries import get_query
from repro.datasets.so import make_so
from repro.eval import harness

#: Generator seed per dataset at benchmark seed 0 (the generators'
#: defaults); benchmark seed ``s`` uses ``default + 4 * s``.
DATASET_SEEDS = {"SO": 0, "Forbes": 3}

HARNESS_METHODS = tuple(m for m in harness.METHODS if m != "MESA-")

#: Float tolerance when comparing with a golden (values are rounded to 1e-6).
TOL = 2e-6


@dataclass(frozen=True)
class Scale:
    so_sf: float
    so_n_junk: int
    forbes_n_junk: int
    k: int
    max_nodes: int  # Algorithm 2's node budget in the subgroups op


SCALES = {
    "bench": Scale(so_sf=0.05, so_n_junk=4, forbes_n_junk=8, k=5, max_nodes=12),
    # The tier-1 TINY scale (tests/test_tables.py), for the self-test.
    "tiny": Scale(so_sf=0.02, so_n_junk=8, forbes_n_junk=8, k=3, max_nodes=6),
}


def build(spark: SparkSession, name: str, scale: Scale, seed: int) -> SynthDataset:
    """Generate one dataset for ``seed`` and cache its frame."""
    s = DATASET_SEEDS[name] + 4 * seed
    if name == "SO":
        ds = make_so(spark, sf=scale.so_sf, n_junk=scale.so_n_junk, seed=s)
    else:
        ds = make_forbes(spark, n_junk=scale.forbes_n_junk, seed=s)
    ds.df = ds.df.cache()
    ds.df.count()
    return ds


def _r(x: float) -> float:
    return round(float(x), 6)


def subgroups_setup(spark, datasets, scale):
    """Prepare and explain SO Q1; τ and the ratio gate as in
    ``repro.eval.tables.table4``."""
    ds = datasets["SO"]
    cq = get_query("SO", "Q1")
    mesa = Mesa(spark, MesaConfig(k=scale.k))
    prep = mesa.prepare(ds.df, cq.query, ds.kg, ds.extraction_cols)
    res = mesa.explain_prepared(prep)
    global_ratio = res.result.final_cmi / max(res.result.base_cmi, 1e-9)
    return {
        "prep": prep,
        "explanation": res.analysis_cols,
        "refine_attrs": list(cq.refine_attrs),
        "tau": max(0.2, 1.5 * res.result.final_cmi),
        "tau_ratio": min(0.9, max(0.35, 2.0 * global_ratio)),
        "max_nodes": scale.max_nodes,
    }


def subgroups_op(spark, state) -> list[dict]:
    prep = state["prep"]
    sg = subgroups.top_k_unexplained(
        prep.df,
        explanation=state["explanation"],
        refine_attrs=state["refine_attrs"],
        o_bin=prep.o_bin,
        t=prep.t,
        k=5,
        tau=state["tau"],
        tau_ratio=state["tau_ratio"],
        weights=prep.weights,
        max_nodes=state["max_nodes"],
    )
    return [
        {"group": g.describe(), "size": g.size, "score": _r(g.score)}
        for g in sg.groups
    ]


def methods_setup(spark, datasets, scale):
    return {
        "ds": datasets["Forbes"],
        "cq": get_query("Forbes", "Q2"),
        "cfg": MesaConfig(k=scale.k),
    }


def methods_op(spark, state) -> dict[str, dict]:
    out = harness.run_all_methods(
        spark, state["ds"], state["cq"], cfg=state["cfg"], methods=HARNESS_METHODS
    )
    return {
        m: {
            "selected": oc.selected,
            "available": oc.available,
            "final_cmi": _r(oc.final_cmi) if oc.available else None,
        }
        for m, oc in sorted(out.items())
    }


@dataclass(frozen=True)
class Workload:
    name: str
    datasets: tuple[str, ...]
    setup: Callable[[SparkSession, dict, Scale], dict]
    op: Callable[[SparkSession, dict], Any]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("subgroups", ("SO",), subgroups_setup, subgroups_op),
        Workload("methods", ("Forbes",), methods_setup, methods_op),
    )
}


def teardown(state: dict, datasets: dict[str, SynthDataset]) -> None:
    if "prep" in state:
        state["prep"].df.unpersist()
    for ds in datasets.values():
        ds.df.unpersist()


def same(a: Any, b: Any) -> bool:
    """Structural equality, with an absolute tolerance of ``TOL`` on floats."""
    if isinstance(a, float) or isinstance(b, float):
        return (
            isinstance(a, (int, float))
            and isinstance(b, (int, float))
            and math.isclose(a, b, rel_tol=0.0, abs_tol=TOL)
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def plausible(workload: str, out: Any) -> bool:
    """Invariants a correct op output has, whatever the seed."""
    if workload == "subgroups":
        sizes = [g["size"] for g in out]
        return sizes == sorted(sizes, reverse=True)
    return set(out) == set(HARNESS_METHODS) and all(
        bool(m["selected"]) == m["available"] for m in out.values()
    )
