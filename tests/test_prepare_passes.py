"""Spark passes of ``Mesa.prepare`` and the methods harness: job budgets,
and the shared profile/quantile passes against per-column references."""
import pytest
from pyspark.sql import functions as F

from repro.core.mesa import Mesa, MesaConfig, display_name
from repro.core.pruning import offline_prune_rows
from repro.core.query import BIN_SUFFIX, quantile_edges
from repro.datasets.forbes import make_forbes
from repro.datasets.queries import get_query
from repro.datasets.so import make_so
from repro.eval.harness import run_all_methods

#: Spark jobs of ``Mesa.prepare`` on SO Q1 at the TINY scale, whatever
#: n_junk is (measured: 20).
PREPARE_JOB_BUDGET = 20
#: Spark jobs of one ``run_all_methods`` (all six methods) on Forbes Q2
#: with n_junk=8 (measured: 95).
HARNESS_JOB_BUDGET = 95


def _cached(ds):
    ds.df = ds.df.cache()
    ds.df.count()
    return ds


def _prepare(spark, ds, cq, count_jobs):
    mesa = Mesa(spark, MesaConfig(k=3))
    return count_jobs(
        mesa.prepare,
        ds.df,
        cq.query,
        ds.kg,
        ds.extraction_cols,
        exclude=set(cq.exclude),
    )


@pytest.fixture(scope="module")
def so_runs(spark, count_jobs):
    """SO Q1 at the TINY scale, prepared at two n_junk values:
    ``{n_junk: (dataset, prepared query, prepare's job count)}``."""
    cq = get_query("SO", "Q1")
    runs = {}
    for n_junk in (8, 16):
        ds = _cached(make_so(spark, sf=0.02, n_junk=n_junk))
        prep, jobs = _prepare(spark, ds, cq, count_jobs)
        runs[n_junk] = (ds, prep, jobs)
    yield runs
    for ds, prep, _ in runs.values():
        prep.df.unpersist()
        ds.df.unpersist()


@pytest.fixture(scope="module")
def forbes(spark):
    ds = _cached(make_forbes(spark, n_junk=8))
    yield ds
    ds.df.unpersist()


@pytest.fixture(scope="module")
def forbes_prep(spark, forbes, count_jobs):
    prep, _ = _prepare(spark, forbes, get_query("Forbes", "Q2"), count_jobs)
    yield prep
    prep.df.unpersist()


class TestJobBudget:
    def test_prepare_jobs_flat_in_n_junk(self, so_runs):
        assert len(so_runs[16][1].candidates) > len(so_runs[8][1].candidates)
        assert so_runs[8][2] == so_runs[16][2]

    def test_prepare_within_budget(self, so_runs):
        assert so_runs[8][2] <= PREPARE_JOB_BUDGET

    def test_harness_within_budget(self, spark, forbes, count_jobs):
        cq = get_query("Forbes", "Q2")
        out, jobs = count_jobs(run_all_methods, spark, forbes, cq)
        assert out["MESA"].selected
        assert jobs <= HARNESS_JOB_BUDGET


def _numeric_binned(prep) -> list[str]:
    """Raw names of O and of every candidate that ``prepare`` binned."""
    cols = [prep.o_bin, *prep.candidates]
    return [display_name(c) for c in cols if c.endswith(BIN_SUFFIX)]


def _bins(prep) -> int:
    """The adaptive bin count ``prepare`` chose (``MesaConfig().bins`` cap)."""
    return min(MesaConfig().bins, max(3, prep.df.count() // 60))


class TestSharedPasses:
    @pytest.mark.parametrize("which", ["SO", "Forbes"])
    def test_one_quantile_pass_matches_per_column(
        self, which, so_runs, forbes_prep
    ):
        prep = so_runs[8][1] if which == "SO" else forbes_prep
        cols = _numeric_binned(prep)
        assert len(cols) >= 3
        bins = _bins(prep)
        edges = quantile_edges(prep.df, cols, bins)
        for c in cols:
            alone = prep.df.where(F.col(c).isNotNull())
            assert edges[c] == quantile_edges(alone, [c], bins)[c], c

    def test_binned_columns_follow_the_edges(self, so_runs):
        prep = so_runs[8][1]
        bins = _bins(prep)
        for c in _numeric_binned(prep):
            edges = quantile_edges(prep.df, [c], bins)[c]
            span = (
                prep.df.groupBy(c + BIN_SUFFIX)
                .agg(F.min(c).alias("lo"), F.max(c).alias("hi"))
                .where(F.col(c + BIN_SUFFIX).isNotNull())
                .toPandas()
            )
            for b, lo, hi in span.itertuples(index=False):
                assert b == 0 or lo > edges[b - 1], c
                assert b == len(edges) or hi <= edges[b], c

    @pytest.mark.parametrize("which", ["SO", "Forbes"])
    def test_offline_report_matches_own_pass(
        self, which, so_runs, forbes, forbes_prep
    ):
        if which == "SO":
            ds, prep, _ = so_runs[8]
        else:
            ds, prep = forbes, forbes_prep
        cq = get_query(which, "Q1" if which == "SO" else "Q2")
        q = cq.query
        non_cand = {q.o, q.exposure_col, *q.t_cols, *q.context_attrs(), *cq.exclude}
        input_cands = [c for c in ds.df.columns if c not in non_cand]
        # prep.df is the integrated context frame the profile was taken on.
        kept, rep = offline_prune_rows(prep.df, input_cands)
        prepared = {
            a: r for a, r in prep.offline_report.dropped.items() if a in input_cands
        }
        assert rep.dropped == prepared
        raw_cands = {display_name(c) for c in prep.candidates}
        assert set(kept) <= raw_cands
