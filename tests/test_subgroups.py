"""Algorithm 2 on one Spark pass per expanded node: equivalence with the
per-node search, determinism, degenerate inputs and job budgets."""
import heapq
import itertools
from functools import reduce

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.contingency import ATTR_COL, VAL_COL, group_sizes, joint_counts
from repro.core.info_theory import cmi_from_counts
from repro.core.mcimr import combined_weight, conditional_cmi
from repro.core.subgroups import (
    Refinement,
    SubgroupSearchResult,
    top_k_unexplained,
)
from repro.eval import tables

#: Spark jobs of the search in ``table4`` at the ``TestTable4`` scale
#: (tests/test_tables.py: SO Q1, SF=0.05, n_junk=8, k=3, 200 nodes
#: popped; measured: 206).
SUBGROUPS_JOB_BUDGET = 206

REGIONAL = dict(
    explanation=["hdi"], refine_attrs=["region", "other"], o_bin="o_bin", t="t"
)


def reference_search(
    df_ctx,
    *,
    explanation,
    refine_attrs,
    o_bin,
    t,
    k=5,
    tau=0.2,
    tau_ratio=0.5,
    weights=None,
    min_size=50,
    max_nodes=200,
) -> SubgroupSearchResult:
    """The per-node search: one ``joint_counts`` per popped node, one
    ``group_sizes`` per expanded node, children pushed by (-size, position
    in ``refine_attrs``, value)."""
    refine_attrs = [a for a in refine_attrs if a not in (t, o_bin)]
    order = {a: i for i, a in enumerate(refine_attrs)}
    groups, trace, heap, counter = [], [], [], itertools.count()

    def push_children(base, conds):
        last = max((order[a] for a, _ in conds), default=-1)
        after = [a for a in refine_attrs if order[a] > last]
        if not after:
            return
        sizes = group_sizes(base, after)
        rows = zip(sizes[ATTR_COL], sizes[VAL_COL], sizes["size"])
        kids = sorted(
            ((int(n), str(a), str(v)) for a, v, n in rows if n >= min_size),
            key=lambda c: (-c[0], order[c[1]], c[2]),
        )
        for n, a, v in kids:
            heapq.heappush(heap, (-n, next(counter), conds + ((a, v),)))

    push_children(df_ctx, ())
    explored = 0
    while heap and len(groups) < k and explored < max_nodes:
        neg_size, _, conds = heapq.heappop(heap)
        explored += 1
        preds = [F.col(a).cast("string") == F.lit(v) for a, v in conds]
        sub = df_ctx.where(reduce(lambda x, y: x & y, preds))
        dfw, wcol = combined_weight(sub, explanation, weights)
        pdf = joint_counts(dfw, [o_bin, t, *explanation], weight_col=wcol)
        score = cmi_from_counts(pdf, o_bin, t, explanation)
        base = cmi_from_counts(pdf, o_bin, t)
        ratio = score / base if base > 1e-9 else 0.0
        trace.append(
            {"conds": conds, "size": -neg_size, "score": score, "ratio": ratio}
        )
        if score > tau and ratio > tau_ratio:
            if not any(set(g.conds) <= set(conds) for g in groups):
                groups.append(Refinement(conds, -neg_size, score, ratio))
        else:
            push_children(sub, conds)
    return SubgroupSearchResult(groups=groups, nodes_explored=explored, trace=trace)


def assert_same_search(got, want, tol=1e-9):
    """Same groups in the same order with the same sizes, the same trace
    (conds and sizes), and scores and ratios within ``tol``."""
    assert [(g.conds, g.size) for g in got.groups] == [
        (g.conds, g.size) for g in want.groups
    ]
    for g, w in zip(got.groups, want.groups):
        assert g.score == pytest.approx(w.score, abs=tol)
        assert g.ratio == pytest.approx(w.ratio, abs=tol)
    assert got.nodes_explored == want.nodes_explored
    assert [(r["conds"], r["size"]) for r in got.trace] == [
        (r["conds"], r["size"]) for r in want.trace
    ]
    for r, w in zip(got.trace, want.trace):
        assert r["score"] == pytest.approx(w["score"], abs=tol)
        assert r["ratio"] == pytest.approx(w["ratio"], abs=tol)


@pytest.fixture(scope="module")
def regional_gaps(spark, regional_pdf):
    """``regional`` with hdi 30% null and an IPW weight column for it:
    group sizes count every row, scores only the rows with hdi observed."""
    rng = np.random.default_rng(29)
    pdf = regional_pdf.copy()
    missing = rng.random(len(pdf)) < 0.3
    pdf["hdi"] = pdf["hdi"].astype("float").mask(missing)
    w = np.where(pdf["region"] == "r1", 1.6, 1.2) + rng.random(len(pdf)) * 0.2
    pdf["w_hdi"] = pd.Series(w).mask(missing)
    return spark.createDataFrame(pdf).cache()


class TestEquivalence:
    @pytest.mark.parametrize(
        "params",
        [
            dict(k=3, tau=0.2),
            dict(k=5, tau=0.1),
            dict(k=5, tau=100.0),  # nothing reported: every node expanded
            dict(k=5, tau=100.0, max_nodes=4),
        ],
        ids=["tau0.2", "tau0.1", "expand-all", "max-nodes"],
    )
    def test_regional(self, regional, params):
        got = top_k_unexplained(regional, **REGIONAL, **params)
        assert_same_search(got, reference_search(regional, **REGIONAL, **params))

    @pytest.mark.parametrize("tau", [0.2, 100.0])
    def test_nulls_and_weights(self, regional_gaps, tau):
        params = dict(**REGIONAL, k=5, tau=tau, weights={"hdi": "w_hdi"})
        got = top_k_unexplained(regional_gaps, **params)
        want = reference_search(regional_gaps, **params)
        assert_same_search(got, want)


@pytest.fixture(scope="module")
def tied_pdf():
    """Three refine attributes whose groups tie in size at every lattice
    level (a: 2 × 3000 rows, b: 2 × 3000, c: 3 × 2000, a∧b: 4 × 1500, …),
    so the visit order rests on the tie-break alone. {hdi} explains O
    everywhere but inside c = z."""
    rng = np.random.default_rng(3)
    i = np.arange(6000)
    country = rng.integers(0, 12, len(i))
    hdi = country % 4
    c = np.array(["x", "y", "z"])[(i // 4) % 3]
    gini = np.where(c == "z", (country // 4) % 3, 0)
    return pd.DataFrame(
        {
            "t": [f"c{n:02d}" for n in country],
            "a": np.array(["p", "q"])[i % 2],
            "b": np.array(["u", "v"])[(i // 2) % 2],
            "c": c,
            "hdi": hdi,
            "o_bin": hdi * 3 + gini * 3 + rng.integers(0, 2, len(i)),
        }
    )


class TestDeterminism:
    def _search(self, df, **params):
        return top_k_unexplained(
            df,
            explanation=["hdi"],
            refine_attrs=["a", "b", "c"],
            o_bin="o_bin",
            t="t",
            **params,
        )

    @pytest.mark.parametrize(
        "params",
        [dict(tau=100.0, max_nodes=30), dict(tau=0.2, max_nodes=30)],
        ids=["expand", "report"],
    )
    def test_partitions_and_row_order(self, spark, tied_pdf, params):
        df = spark.createDataFrame(tied_pdf)
        shuffled = spark.createDataFrame(
            tied_pdf.sample(frac=1.0, random_state=11).reset_index(drop=True)
        )
        key = "spark.sql.shuffle.partitions"
        old = spark.conf.get(key)
        runs = []
        try:
            for parts in ("64", "1"):
                spark.conf.set(key, parts)
                runs.append(self._search(df, **params))
            spark.conf.set(key, old)
            runs.append(self._search(shuffled, **params))
        finally:
            spark.conf.set(key, old)
        first = runs[0]
        assert len(first.trace) == 30  # ties reached below the first level
        if params["tau"] < 1:
            assert [g.conds for g in first.groups] == [(("c", "z"),)]
        for other in runs[1:]:
            assert_same_search(other, first, tol=1e-12)

    def test_ties_broken_by_attribute_then_value(self, spark, tied_pdf):
        res = self._search(
            spark.createDataFrame(tied_pdf), k=5, tau=100.0, max_nodes=7
        )
        assert [r["conds"] for r in res.trace] == [
            (("a", "p"),),
            (("a", "q"),),
            (("b", "u"),),
            (("b", "v"),),
            (("c", "x"),),
            (("c", "y"),),
            (("c", "z"),),
        ]


class TestDegenerate:
    def test_empty_explanation_scores_the_group_baseline(self, regional):
        res = top_k_unexplained(
            regional,
            explanation=[],
            refine_attrs=["region", "other"],
            o_bin="o_bin",
            t="t",
            k=2,
            tau=0.2,
        )
        # With nothing to condition on, the score is I(O;T|C') itself, so
        # the ratio gate passes every group with a non-zero baseline; here
        # T drives O everywhere, so the first k nodes popped are reported.
        assert len(res.groups) == 2
        assert [g.conds for g in res.groups] == [r["conds"] for r in res.trace]
        for g in res.groups:
            ((a, v),) = g.conds
            sub = regional.where(F.col(a).cast("string") == v)
            assert g.score == pytest.approx(
                conditional_cmi(sub, "o_bin", "t", []), abs=1e-9
            )
            assert g.ratio == 1.0

    @pytest.mark.parametrize(
        "refine", [[], ["t", "o_bin"]], ids=["empty", "only-t-and-o"]
    )
    def test_no_refine_attrs_no_groups_no_jobs(self, regional, count_jobs, refine):
        res, jobs = count_jobs(
            top_k_unexplained,
            regional,
            explanation=["hdi"],
            refine_attrs=refine,
            o_bin="o_bin",
            t="t",
        )
        assert (res.groups, res.nodes_explored, res.trace) == ([], 0, [])
        assert jobs == 0

    def test_empty_context(self, regional):
        res = top_k_unexplained(regional.limit(0), **REGIONAL)
        assert (res.groups, res.nodes_explored, res.trace) == ([], 0, [])


def _one_pass(count_jobs, df, attrs):
    """Spark jobs of one ``group_sizes`` pass over ``df`` with the
    regional fixed columns (two while adaptive query execution is on)."""
    _, jobs = count_jobs(
        group_sizes, df, attrs, fixed_cols=["o_bin", "t", "hdi"]
    )
    return jobs


class TestJobBudget:
    @pytest.mark.parametrize(
        "params",
        [dict(tau=0.2), dict(tau=100.0), dict(tau=100.0, max_nodes=1)],
        ids=["report", "expand-all", "one-node"],
    )
    def test_single_refine_attr_is_one_pass(self, regional, count_jobs, params):
        res, jobs = count_jobs(
            top_k_unexplained,
            regional,
            explanation=["hdi"],
            refine_attrs=["region"],
            o_bin="o_bin",
            t="t",
            **params,
        )
        assert res.nodes_explored >= 1
        assert jobs == _one_pass(count_jobs, regional, ["region"])

    def test_jobs_follow_expanded_nodes(self, regional, count_jobs):
        # Root, then r1, r2 and r3 are expanded; their children, the
        # six region ∧ other groups, have nothing after them.
        res, jobs = count_jobs(top_k_unexplained, regional, **REGIONAL, tau=100.0)
        assert res.nodes_explored == 11
        assert jobs == 4 * _one_pass(count_jobs, regional, ["region", "other"])

    def test_table4_search_within_budget(
        self, spark, count_jobs, monkeypatch, tmp_path
    ):
        """``table4`` at the ``TestTable4`` scale, its search counted."""
        jobs = []

        def counted(df, **kwargs):
            out, n = count_jobs(top_k_unexplained, df, **kwargs)
            jobs.append(n)
            return out

        monkeypatch.setattr(tables, "top_k_unexplained", counted)
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        tables.table4(spark, tables.Scale(so_sf=0.05, n_junk=8, k=3), tau=0.2, k=5)
        assert len(jobs) == 1 and jobs[0] <= SUBGROUPS_JOB_BUDGET
