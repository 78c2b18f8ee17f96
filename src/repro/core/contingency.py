"""Distributed contingency-table passes.

These are the only places the reproduction touches ``|D|``-sized data: every
information-theoretic score in MESA is computed from the output of one of
these Spark aggregations. Two shapes:

``joint_counts``
    ``groupBy(cols).agg(sum(weight))`` — the joint distribution of an
    explicit column set (used for multi-attribute conditioning sets:
    brute force, responsibility, the responsibility test).

``scan_counts``
    the wide-to-long pass: ``stack`` all candidate attributes into
    ``(attr, val, w)`` rows and ``groupBy(attr, val, *fixed)`` — ONE shuffle
    yields, for *every* candidate simultaneously, its joint distribution
    with the fixed columns (O and T for the MCI scores and pruning tests;
    the last selected attribute for MCIMR's redundancy term). This is the
    dataflow the repro band asks for: candidate attribute sources joined to
    the query result, correlation scores via aggregation. ``group_sizes``
    is the same long pass for Algorithm 2: it counts every child group of
    a refinement and, given fixed columns, takes each child's complete-case
    ``(O, T, E)`` contingency alongside, so one job per expanded node
    scores all of its children.

Attribute values are cast to string inside the long pass (mixed candidate
types share one ``val`` column); null values — incomplete cases for that
attribute — are dropped per-attribute, which is exactly the complete-case
semantics the IPW weights correct for.
"""
from __future__ import annotations

from functools import reduce
from typing import Mapping, Sequence

import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core.info_theory import CNT

ATTR_COL = "__attr"
VAL_COL = "__val"
W_COL = "__w"


def joint_counts(
    df: DataFrame,
    cols: Sequence[str],
    weight_col: str | None = None,
    *,
    dropna: bool = True,
) -> pd.DataFrame:
    """Collect the (weighted) joint contingency of ``cols`` as pandas.

    ``dropna=True`` keeps complete cases only (rows with no null in any of
    ``cols``), matching the complete-case analysis the estimators assume.
    Values are cast to string so heterogeneous bin/category types compare
    stably on the driver.
    """
    cols = list(cols)
    sel = df
    if dropna:
        for c in cols:
            sel = sel.where(F.col(c).isNotNull())
    proj = [F.col(c).cast("string").alias(c) for c in cols]
    agg = (
        F.sum(F.col(weight_col)).alias(CNT)
        if weight_col
        else F.count(F.lit(1)).cast("double").alias(CNT)
    )
    pdf = sel.select(*proj, *( [F.col(weight_col)] if weight_col else [] )) \
        .groupBy(cols).agg(agg).toPandas()
    pdf[CNT] = pdf[CNT].astype(float)
    return pdf


def _stack_expr(
    candidates: Sequence[str], weights: Mapping[str, str] | None
) -> Column:
    """Build the ``stack`` expression turning candidate columns into
    ``(attr, val, w)`` long rows. Weighted attributes contribute their IPW
    weight column; the rest contribute weight 1."""
    parts: list[Column] = []
    for c in candidates:
        parts.append(F.lit(c))
        parts.append(F.col(c).cast("string"))
        if weights and c in weights:
            parts.append(F.col(weights[c]).cast("double"))
        else:
            parts.append(F.lit(1.0))
    return F.stack(F.lit(len(candidates)), *parts).alias(ATTR_COL, VAL_COL, W_COL)


def scan_counts(
    df: DataFrame,
    fixed_cols: Sequence[str],
    candidates: Sequence[str],
    weights: Mapping[str, str] | None = None,
) -> dict[str, pd.DataFrame]:
    """One distributed pass producing, per candidate attribute, its joint
    contingency with ``fixed_cols``.

    Returns ``{attr: contingency}`` where each contingency frame has columns
    ``[VAL_COL, *fixed_cols, CNT]``. Rows where the candidate is null are
    complete-case-filtered per attribute; rows where a *fixed* column is
    null are dropped globally (O/T must be observed for the query anyway).
    """
    if not candidates:
        return {}
    fixed_cols = list(fixed_cols)
    sel = df
    for c in fixed_cols:
        sel = sel.where(F.col(c).isNotNull())
    long_df = sel.select(
        *[F.col(c).cast("string").alias(c) for c in fixed_cols],
        _stack_expr(candidates, weights),
    ).where(F.col(VAL_COL).isNotNull())
    counts = (
        long_df.groupBy(ATTR_COL, VAL_COL, *fixed_cols)
        .agg(F.sum(W_COL).alias(CNT))
        .toPandas()
    )
    out: dict[str, pd.DataFrame] = {}
    for attr, grp in counts.groupby(ATTR_COL):
        pdf = grp.drop(columns=[ATTR_COL]).reset_index(drop=True)
        pdf[CNT] = pdf[CNT].astype(float)
        out[attr] = pdf
    # Attributes that are entirely null in df produce no rows; surface them
    # with empty frames so callers see every requested candidate.
    for c in candidates:
        if c not in out:
            out[c] = pd.DataFrame(columns=[VAL_COL, *fixed_cols, CNT])
    return out


def group_sizes(
    df: DataFrame,
    attrs: Sequence[str],
    *,
    fixed_cols: Sequence[str] = (),
    weight_col: str | None = None,
) -> pd.DataFrame:
    """Sizes of all single-assignment groups ``attr = val`` in one pass.

    Used by the unexplained-subgroups search (Algorithm 2) to rank the
    children of a refinement by data-group size without one job per
    attribute. Returns columns ``[ATTR_COL, VAL_COL, 'size']``.

    With ``fixed_cols`` the same pass also yields each group's joint
    contingency with the fixed columns: rows are split by
    ``(ATTR_COL, VAL_COL, *fixed_cols)`` and the frame gains the fixed
    columns (cast to string) and ``CNT``, the sum of ``weight_col`` (1 per
    row without one) over the rows where every fixed column is observed.
    Rows with a null fixed column are kept, so ``size`` summed over a
    group's rows counts every row with ``attr = val``, while the non-null
    ``CNT`` cells are exactly ``joint_counts(df.where(attr = val),
    fixed_cols, weight_col)``: sizes count all rows, scores complete cases.
    """
    fixed_cols = list(fixed_cols)
    out_cols = [ATTR_COL, VAL_COL, *fixed_cols, "size"]
    if fixed_cols:
        out_cols.append(CNT)
    if not attrs:
        return pd.DataFrame(columns=out_cols)
    attrs = list(attrs)
    weights = dict.fromkeys(attrs, weight_col) if weight_col else None
    long_df = df.select(
        *[F.col(c).cast("string").alias(c) for c in fixed_cols],
        _stack_expr(attrs, weights),
    ).where(F.col(VAL_COL).isNotNull())
    aggs = [F.count(F.lit(1)).alias("size")]
    if fixed_cols:
        complete = reduce(
            lambda x, y: x & y, [F.col(c).isNotNull() for c in fixed_cols]
        )
        aggs.append(F.sum(F.when(complete, F.col(W_COL))).alias(CNT))
    pdf = long_df.groupBy(ATTR_COL, VAL_COL, *fixed_cols).agg(*aggs).toPandas()
    pdf["size"] = pdf["size"].astype(int)
    if fixed_cols:
        pdf[CNT] = pdf[CNT].astype(float)
    return pdf[out_cols]
