"""Aggregate-query model: exposure T, outcome O, context C.

The paper's query class is ``SELECT T, agg(O) FROM D WHERE C GROUP BY T``,
with optional joins folded into ``D`` and multiple grouping attributes
handled by a synthesized composite exposure column. ``AggQuery`` captures
that shape; execution is plain Spark SQL (checked against DuckDB by the
tests via ``repro.oracle.assert_equivalent``).

Numeric attributes are analyzed *binned* (the paper assumes binned
numerics). ``ensure_binned`` is the convenience used throughout:
categorical and small-domain columns pass through untouched, numeric
columns get a ``__b`` sibling holding a quantile bin, computed as a
Catalyst ``CASE`` chain so the pass stays in the optimizer.

Spark cost of binning, whatever the number of columns: one aggregate pass
for the distinct counts (none when the caller passes the
:class:`ColumnProfile` it already has, as ``Mesa.prepare`` does) and one
multi-column ``approxQuantile`` pass for the edges.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Sequence

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

#: suffix appended to a column name by ``ensure_binned``
BIN_SUFFIX = "__b"

_NUMERIC_TYPES = (
    T.ByteType, T.ShortType, T.IntegerType, T.LongType,
    T.FloatType, T.DoubleType, T.DecimalType,
)

_COMPOSITE_SEP = "‖"  # '‖' — unlikely to appear in data values


@dataclass(frozen=True)
class AggQuery:
    """``SELECT t, agg(o) FROM <table> WHERE context GROUP BY t``.

    ``t`` may be a single column or a sequence (multiple grouping
    attributes, e.g. Flights Q4 "per origin state and airline").
    ``context`` is a conjunction of equality conditions — the refinement
    machinery of Algorithm 2 operates on exactly this shape.
    """

    t: str | tuple[str, ...]
    o: str
    agg: str = "avg"
    context: tuple[tuple[str, object], ...] = field(default_factory=tuple)
    name: str = ""

    @property
    def t_cols(self) -> tuple[str, ...]:
        return (self.t,) if isinstance(self.t, str) else tuple(self.t)

    @property
    def exposure_col(self) -> str:
        """Name of the (possibly synthesized composite) exposure column."""
        cols = self.t_cols
        return cols[0] if len(cols) == 1 else "__t_" + "_".join(cols)

    def context_predicate(self) -> Column | None:
        if not self.context:
            return None
        conds = [F.col(a) == F.lit(v) for a, v in self.context]
        return reduce(lambda x, y: x & y, conds)

    def context_attrs(self) -> set[str]:
        return {a for a, _ in self.context}


def apply_context(df: DataFrame, query: AggQuery) -> DataFrame:
    """Filter to the query context and materialize the composite exposure
    column when the query has multiple grouping attributes."""
    pred = query.context_predicate()
    out = df.where(pred) if pred is not None else df
    cols = query.t_cols
    if len(cols) > 1:
        out = out.withColumn(
            query.exposure_col,
            F.concat_ws(_COMPOSITE_SEP, *[F.col(c).cast("string") for c in cols]),
        )
    return out


def run_query(df: DataFrame, query: AggQuery) -> DataFrame:
    """Execute the aggregate query; output columns ``[*t_cols, out_col]``
    where ``out_col = f"{agg}_{o}"``."""
    ctx = apply_context(df, query)
    agg_col = getattr(F, query.agg)(F.col(query.o)).alias(f"{query.agg}_{query.o}")
    return ctx.groupBy(*query.t_cols).agg(agg_col)


def is_numeric(df: DataFrame, col: str) -> bool:
    return isinstance(df.schema[col].dataType, _NUMERIC_TYPES)


@dataclass(frozen=True)
class ColumnProfile:
    """Row count plus per-column non-null and approximate distinct counts."""

    n: int
    n_obs: dict[str, int]
    n_distinct: dict[str, int]


def profile_columns(df: DataFrame, cols: Sequence[str]) -> ColumnProfile:
    """Profile ``df`` and every column of ``cols`` in one aggregate pass."""
    cols = list(dict.fromkeys(cols))
    aggs = [F.count(F.lit(1)).alias("__n")]
    for i, c in enumerate(cols):
        aggs.append(F.count(F.col(c)).alias(f"n{i}"))
        aggs.append(F.approx_count_distinct(c).alias(f"d{i}"))
    row = df.agg(*aggs).collect()[0]
    return ColumnProfile(
        n=row["__n"],
        n_obs={c: row[f"n{i}"] for i, c in enumerate(cols)},
        n_distinct={c: row[f"d{i}"] for i, c in enumerate(cols)},
    )


def quantile_edges(
    df: DataFrame, cols: Sequence[str], bins: int
) -> dict[str, list[float]]:
    """Interior quantile cut points (deduplicated) of every column in
    ``cols``, from one multi-column ``approxQuantile`` pass. Nulls are
    ignored per column."""
    cols = list(cols)
    if not cols:
        return {}
    probs = [i / bins for i in range(1, bins)]
    out: dict[str, list[float]] = {}
    for c, qs in zip(cols, df.approxQuantile(cols, probs, 0.001)):
        edges: list[float] = []
        for q in qs:
            if not edges or q > edges[-1]:
                edges.append(float(q))
        out[c] = edges
    return out


def _bin_expr(col: str, edges: list[float]) -> Column:
    """Integer quantile bin of ``col`` (nulls stay null) as a ``CASE``
    chain over ``edges``, evaluated inside Catalyst."""
    expr: Column = F.lit(len(edges))
    for i in reversed(range(len(edges))):
        expr = F.when(F.col(col) <= F.lit(edges[i]), F.lit(i)).otherwise(expr)
    # NaN guards: a NaN would fail every <= comparison and land in the top
    # bin; treat it as missing like SQL null.
    return F.when(
        F.col(col).isNull() | F.isnan(F.col(col).cast("double")),
        F.lit(None).cast("int"),
    ).otherwise(expr.cast("int"))


def ensure_binned(
    df: DataFrame,
    cols: Sequence[str],
    *,
    bins: int = 8,
    profile: ColumnProfile | None = None,
) -> tuple[DataFrame, dict[str, str]]:
    """Bin every numeric column in ``cols``; pass categoricals through.

    Returns the augmented DataFrame and a mapping ``original -> analysis
    column`` (identity for categoricals, ``col__b`` for binned numerics).
    Numeric columns whose observed domain is already ≤ ``bins`` distinct
    values are treated as categorical codes and passed through. The
    distinct counts come from ``profile`` when given (else one aggregate
    pass); the edges of every binned column from one quantile pass.
    """
    numeric = [c for c in cols if is_numeric(df, c)]
    if numeric and profile is None:
        profile = profile_columns(df, numeric)
    to_bin = [c for c in numeric if profile.n_distinct[c] > bins]
    edges = quantile_edges(df, to_bin, bins)
    if edges:
        df = df.withColumns(
            {c + BIN_SUFFIX: _bin_expr(c, e) for c, e in edges.items()}
        )
    return df, {c: c + BIN_SUFFIX if c in edges else c for c in cols}
