"""AggQuery execution (oracle-checked) and numeric binning."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import synth_data
from repro.core.query import (
    AggQuery,
    apply_context,
    ensure_binned,
    is_numeric,
    quantile_edges,
    run_query,
)
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def li(spark):
    return synth_data.lineitem(spark, sf=0.002, seed=11).cache()


class TestAggQuery:
    def test_simple_group_by_matches_duckdb(self, li):
        q = AggQuery(t="l_returnflag", o="l_extendedprice")
        assert_equivalent(
            run_query(li, q),
            """
            SELECT l_returnflag, avg(l_extendedprice) AS avg_l_extendedprice
            FROM li GROUP BY 1
            """,
            li=li,
        )

    def test_context_filter_matches_duckdb(self, li):
        q = AggQuery(
            t="l_returnflag",
            o="l_quantity",
            context=(("l_linestatus", "O"),),
        )
        assert_equivalent(
            run_query(li, q),
            """
            SELECT l_returnflag, avg(l_quantity) AS avg_l_quantity
            FROM li WHERE l_linestatus = 'O' GROUP BY 1
            """,
            li=li,
        )

    def test_sum_aggregate(self, li):
        q = AggQuery(t="l_linestatus", o="l_quantity", agg="sum")
        assert_equivalent(
            run_query(li, q),
            "SELECT l_linestatus, sum(l_quantity) AS sum_l_quantity FROM li GROUP BY 1",
            li=li,
        )

    def test_composite_exposure(self, li):
        q = AggQuery(t=("l_returnflag", "l_linestatus"), o="l_quantity")
        out = run_query(li, q)
        assert set(out.columns) == {"l_returnflag", "l_linestatus", "avg_l_quantity"}
        assert_equivalent(
            out,
            """
            SELECT l_returnflag, l_linestatus, avg(l_quantity) AS avg_l_quantity
            FROM li GROUP BY 1, 2
            """,
            li=li,
        )

    def test_composite_exposure_column_synthesized(self, li):
        q = AggQuery(t=("l_returnflag", "l_linestatus"), o="l_quantity")
        ctx = apply_context(li, q)
        assert q.exposure_col in ctx.columns
        n_pairs = li.select("l_returnflag", "l_linestatus").distinct().count()
        assert ctx.select(q.exposure_col).distinct().count() == n_pairs

    def test_context_attrs(self):
        q = AggQuery(t="a", o="b", context=(("c", 1), ("d", "x")))
        assert q.context_attrs() == {"c", "d"}

    def test_multi_condition_context(self, li):
        q = AggQuery(
            t="l_returnflag",
            o="l_quantity",
            context=(("l_linestatus", "O"), ("l_linenumber", 1)),
        )
        assert_equivalent(
            run_query(li, q),
            """
            SELECT l_returnflag, avg(l_quantity) AS avg_l_quantity
            FROM li WHERE l_linestatus = 'O' AND l_linenumber = 1 GROUP BY 1
            """,
            li=li,
        )


class TestBinning:
    def test_bin_count_and_balance(self, li):
        binned, _ = ensure_binned(li, ["l_extendedprice"], bins=8)
        sizes = (
            binned.groupBy("l_extendedprice__b").count().toPandas()["count"]
        )
        assert len(sizes) == 8
        # Quantile bins: no bin more than 2x the ideal share.
        assert sizes.max() < 2 * li.count() / 8

    def test_bins_are_ordered_by_value(self, li):
        binned, _ = ensure_binned(li, ["l_extendedprice"], bins=4)
        agg = (
            binned.groupBy("l_extendedprice__b")
            .agg(F.max("l_extendedprice").alias("mx"), F.min("l_extendedprice").alias("mn"))
            .orderBy("l_extendedprice__b")
            .toPandas()
        )
        assert (agg["mx"].to_numpy()[:-1] <= agg["mn"].to_numpy()[1:]).all()

    def test_nulls_stay_null(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"x": [1.0, 2.0, None, 4.0, 5.0, 6.0, 7.0, 8.0]})
        )
        binned, _ = ensure_binned(df, ["x"], bins=2)
        assert binned.where(F.col("x").isNull()).select("x__b").collect()[0][0] is None

    def test_quantile_edges_dedup(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"x": [1.0] * 99 + [2.0], "y": range(100)})
        )
        edges = quantile_edges(df, ["x", "y"], 8)
        assert edges["x"] == sorted(set(edges["x"]))
        assert len(edges["y"]) == 7

    def test_is_numeric(self, li):
        assert is_numeric(li, "l_quantity")
        assert not is_numeric(li, "l_returnflag")

    def test_ensure_binned_passthrough_categorical(self, li):
        df2, mapping = ensure_binned(li, ["l_returnflag", "l_extendedprice"], bins=4)
        assert mapping["l_returnflag"] == "l_returnflag"
        assert mapping["l_extendedprice"] == "l_extendedprice__b"
        assert "l_extendedprice__b" in df2.columns

    def test_ensure_binned_small_domain_numeric_passthrough(self, li):
        # l_linenumber has 7 distinct values <= bins=8: keep as-is.
        _, mapping = ensure_binned(li, ["l_linenumber"], bins=8)
        assert mapping["l_linenumber"] == "l_linenumber"
