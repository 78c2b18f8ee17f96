"""Spark contingency passes, checked cell-for-cell against DuckDB."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data
from repro.core.contingency import (
    ATTR_COL,
    VAL_COL,
    group_sizes,
    joint_counts,
    scan_counts,
)
from repro.core.info_theory import CNT, cmi_from_counts, mi_from_counts
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def li(spark):
    return synth_data.lineitem(spark, sf=0.002, seed=7).cache()


class TestJointCounts:
    def test_matches_duckdb_groupby(self, spark, li):
        pdf = joint_counts(li, ["l_returnflag", "l_linestatus"])
        got = spark.createDataFrame(pdf)
        assert_equivalent(
            got,
            """
            SELECT CAST(l_returnflag AS VARCHAR) AS l_returnflag,
                   CAST(l_linestatus AS VARCHAR) AS l_linestatus,
                   CAST(count(*) AS DOUBLE) AS cnt
            FROM li GROUP BY 1, 2
            """,
            li=li,
        )

    def test_weighted_sum_matches_duckdb(self, spark, li):
        w = li.withColumn("w", li.l_quantity * 0.1)
        pdf = joint_counts(w, ["l_returnflag"], weight_col="w")
        got = spark.createDataFrame(pdf)
        assert_equivalent(
            got,
            """
            SELECT CAST(l_returnflag AS VARCHAR) AS l_returnflag,
                   SUM(l_quantity * 0.1) AS cnt
            FROM li GROUP BY 1
            """,
            li=li,
        )

    def test_total_equals_rowcount(self, li):
        pdf = joint_counts(li, ["l_returnflag"])
        assert pdf[CNT].sum() == li.count()

    def test_dropna_filters_nulls(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"a": ["x", None, "y", "x"], "b": [1, 2, None, 4]})
        )
        pdf = joint_counts(df, ["a", "b"])
        assert pdf[CNT].sum() == 2  # only fully observed rows

    def test_values_are_strings(self, li):
        pdf = joint_counts(li, ["l_linenumber"])
        assert all(isinstance(v, str) for v in pdf["l_linenumber"])


class TestScanCounts:
    def test_one_pass_equals_per_attr_joint(self, li):
        cands = ["l_linenumber", "l_returnflag"]
        scan = scan_counts(li, ["l_linestatus"], cands)
        for c in cands:
            direct = joint_counts(li, [c, "l_linestatus"])
            merged = (
                scan[c]
                .rename(columns={VAL_COL: c})
                .sort_values([c, "l_linestatus"])
                .reset_index(drop=True)
            )
            direct = direct.sort_values([c, "l_linestatus"]).reset_index(drop=True)
            pd.testing.assert_frame_equal(
                merged[[c, "l_linestatus", CNT]], direct, check_dtype=False
            )

    def test_mi_from_scan_matches_direct(self, li):
        scan = scan_counts(li, ["l_returnflag"], ["l_linenumber"])
        via_scan = mi_from_counts(scan["l_linenumber"], VAL_COL, "l_returnflag")
        direct = mi_from_counts(
            joint_counts(li, ["l_linenumber", "l_returnflag"]),
            "l_linenumber",
            "l_returnflag",
        )
        assert via_scan == pytest.approx(direct)

    def test_cmi_fixed_pair(self, li):
        # I(O;T|E) computed from the scan frame: fixed = (O, T), attr = E.
        scan = scan_counts(li, ["l_returnflag", "l_linestatus"], ["l_linenumber"])
        via_scan = cmi_from_counts(
            scan["l_linenumber"], "l_returnflag", "l_linestatus", VAL_COL
        )
        direct = cmi_from_counts(
            joint_counts(li, ["l_returnflag", "l_linestatus", "l_linenumber"]),
            "l_returnflag",
            "l_linestatus",
            "l_linenumber",
        )
        assert via_scan == pytest.approx(direct)

    def test_per_attribute_null_filtering(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame(
                {
                    "o": ["p", "p", "q", "q"],
                    "e1": ["a", None, "b", "b"],
                    "e2": [None, None, None, "c"],
                }
            )
        )
        scan = scan_counts(df, ["o"], ["e1", "e2"])
        assert scan["e1"][CNT].sum() == 3
        assert scan["e2"][CNT].sum() == 1

    def test_all_null_attribute_gets_empty_frame(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"o": ["p", "q"], "e": [None, None]}).astype(
                {"e": "object"}
            )
        )
        scan = scan_counts(df, ["o"], ["e"])
        assert scan["e"].empty

    def test_weights_apply_per_attribute(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame(
                {
                    "o": ["p", "p", "q", "q"],
                    "e1": ["a", "a", "b", "b"],
                    "e2": ["a", "a", "b", "b"],
                    "w1": [2.0, 2.0, 3.0, 3.0],
                }
            )
        )
        scan = scan_counts(df, ["o"], ["e1", "e2"], weights={"e1": "w1"})
        assert scan["e1"][CNT].sum() == pytest.approx(10.0)
        assert scan["e2"][CNT].sum() == pytest.approx(4.0)

    def test_empty_candidates(self, li):
        assert scan_counts(li, ["l_returnflag"], []) == {}

    def test_mixed_types_cast_to_string(self, li):
        scan = scan_counts(li, ["l_returnflag"], ["l_linenumber", "l_linestatus"])
        for c in ("l_linenumber", "l_linestatus"):
            assert all(isinstance(v, str) for v in scan[c][VAL_COL])


class TestGroupSizes:
    def test_matches_duckdb(self, spark, li):
        pdf = group_sizes(li, ["l_returnflag", "l_linestatus"])
        got = spark.createDataFrame(pdf)
        assert_equivalent(
            got,
            f"""
            SELECT '{'l_returnflag'}' AS {ATTR_COL},
                   CAST(l_returnflag AS VARCHAR) AS {VAL_COL},
                   count(*) AS size
            FROM li GROUP BY 2
            UNION ALL
            SELECT 'l_linestatus', CAST(l_linestatus AS VARCHAR), count(*)
            FROM li GROUP BY 2
            """,
            li=li,
        )

    def test_empty_attrs(self, li):
        assert group_sizes(li, []).empty

    def test_fixed_cols_with_nulls_and_weights_match_duckdb(self, spark):
        """``size`` counts every row of a (attr, val, fixed…) cell, ``CNT``
        sums the weight over the rows whose fixed columns are all observed
        (null where there are none)."""
        rng = np.random.default_rng(5)
        n = 600

        def col(values, null_frac):
            v = rng.choice(values, n).astype(object)
            v[rng.random(n) < null_frac] = None
            return v

        pdf = pd.DataFrame(
            {
                "g1": col(["a", "b", "c"], 0.2),
                "g2": col(["x", "y"], 0.1),
                "o": col(["0", "1", "2"], 0.15),
                "t": col(["p", "q"], 0.1),
                "w": rng.random(n) + 0.5,
            }
        )
        df = spark.createDataFrame(pdf)
        out = group_sizes(df, ["g1", "g2"], fixed_cols=["o", "t"], weight_col="w")
        assert list(out.columns) == [ATTR_COL, VAL_COL, "o", "t", "size", CNT]
        assert out[CNT].isna().any()  # some cells hold incomplete rows only
        per_attr = [
            f"""
            SELECT '{a}' AS {ATTR_COL}, {a} AS {VAL_COL}, o, t,
                   count(*) AS size,
                   SUM(CASE WHEN o IS NOT NULL AND t IS NOT NULL THEN w END)
                       AS {CNT}
            FROM d WHERE {a} IS NOT NULL GROUP BY 2, 3, 4
            """
            for a in ("g1", "g2")
        ]
        assert_equivalent(
            spark.createDataFrame(out), " UNION ALL ".join(per_attr), d=pdf
        )
        # Summed over the fixed columns, sizes equal the plain call's.
        sizes = out.groupby([ATTR_COL, VAL_COL])["size"].sum().sort_index()
        plain = group_sizes(df, ["g1", "g2"]).set_index([ATTR_COL, VAL_COL])
        pd.testing.assert_series_equal(
            sizes, plain["size"].sort_index(), check_names=False
        )
