"""MESA — the end-to-end system (§1, §4).

``Mesa.explain`` runs the full pipeline on an :class:`AggQuery`:

1. apply the query context;
2. extract candidate attributes from the knowledge source for every
   extraction column (NED → 1..h-hop properties → universal relation),
   offline-pruning at the entity level before the join;
3. integrate the universal relation(s) with the input table
   (broadcast left joins, prefixed per extraction column);
4. profile the integrated frame in one aggregate pass (row count, plus
   non-null and distinct counts of O and of every candidate);
   offline-prune input-table candidates from that profile; bin the
   outcome and the numeric candidates with one quantile pass;
5. detect selection bias per extracted attribute and fit IPW weights;
6. one wide scan pass → online pruning → MCIMR (sharing the pass);
7. responsibility ranking of the selected attributes.

Stages 1–5 (``prepare``) cost a fixed number of Spark passes whatever the
number of candidates: one ``distinct`` per extraction column, the profile,
the quantile pass and the IPW passes.

The result carries the explanation plus everything the experiments report:
explainability scores, pruning/missingness statistics, and stage timings.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.contingency import scan_counts
from repro.core.mcimr import ExplanationResult, mcimr
from repro.core.pruning import (
    PruneReport,
    offline_prune_entity,
    offline_prune_rows,
    online_prune,
)
from repro.core.query import (
    BIN_SUFFIX,
    AggQuery,
    apply_context,
    ensure_binned,
    profile_columns,
)
from repro.core.responsibility import responsibilities
from repro.kg.extract import Extraction, extract_attributes, integrate
from repro.kg.graph import KnowledgeGraph
from repro.missing.ipw import prepare_weights


@dataclass
class MesaConfig:
    """Knobs of the MESA pipeline (paper defaults: k=5, 1 hop)."""

    k: int = 5
    hops: int = 1
    bins: int = 8
    eps_bits: float = 0.01
    alpha: float = 0.05
    eps_fd: float = 0.05
    eps_rel: float = 0.01
    offline_pruning: bool = True
    online_pruning: bool = True
    ipw: bool = True
    max_missing: float = 0.9
    unique_ratio: float = 0.95
    list_agg: str = "mean"


@dataclass
class MesaResult:
    """Everything the evaluation reads off one MESA run."""

    explanation: list[str]  # display names (bin suffix stripped)
    analysis_cols: list[str]  # the columns actually conditioned on
    result: ExplanationResult
    responsibility: dict[str, float]
    candidates_initial: int = 0
    candidates_after_offline: int = 0
    candidates_after_online: int = 0
    offline_report: PruneReport = field(default_factory=PruneReport)
    online_report: PruneReport = field(default_factory=PruneReport)
    biased_attrs: set[str] = field(default_factory=set)
    extracted_attrs: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    # The (E, O, T) scan over every prepared candidate, with the prepared
    # weights: baselines on the same prepared frame reuse it.
    scan: dict[str, pd.DataFrame] = field(default_factory=dict)

    @property
    def explainability(self) -> float:
        return self.result.final_cmi

    @property
    def base_cmi(self) -> float:
        return self.result.base_cmi


def display_name(col: str) -> str:
    return col[: -len(BIN_SUFFIX)] if col.endswith(BIN_SUFFIX) else col


@dataclass
class PreparedQuery:
    """The integrated, binned, weighted frame MESA analyses — exposed so
    baselines and experiments can reuse the identical preparation."""

    df: DataFrame
    o_bin: str
    t: str
    candidates: list[str]  # analysis columns
    weights: dict[str, str]
    biased: set[str]
    extracted_attrs: list[str]  # analysis columns that came from the KG
    offline_report: PruneReport
    candidates_initial: int
    timings: dict[str, float]


class Mesa:
    def __init__(self, spark: SparkSession, cfg: MesaConfig | None = None):
        self.spark = spark
        self.cfg = cfg or MesaConfig()

    # -- pipeline stages -----------------------------------------------------
    def prepare(
        self,
        df: DataFrame,
        query: AggQuery,
        kg: KnowledgeGraph | None = None,
        extraction_cols: list[str] | None = None,
        exclude: set[str] | None = None,
    ) -> PreparedQuery:
        """Stages 1–5: context, extraction, integration, profile, offline
        pruning, binning, IPW weights. Returns a cached analysis frame."""
        cfg = self.cfg
        timings: dict[str, float] = {}
        exclude = exclude or set()
        t0 = time.perf_counter()
        ctx = apply_context(df, query)
        t_col = query.exposure_col
        # Input-table candidates: everything but O, T, context attrs.
        non_cand = (
            {query.o, t_col} | set(query.t_cols) | query.context_attrs() | exclude
        )
        input_cands = [c for c in df.columns if c not in non_cand]
        timings["context"] = time.perf_counter() - t0

        # Extraction + entity-level offline pruning + integration.
        t0 = time.perf_counter()
        extracted_cols: list[str] = []
        offline_report = PruneReport()
        n_extracted_raw = 0
        if kg is not None and extraction_cols:
            multi = len(extraction_cols) > 1
            for col in extraction_cols:
                values = [
                    r[col]
                    for r in ctx.select(col).distinct().collect()
                    if r[col] is not None
                ]
                ex: Extraction = extract_attributes(
                    self.spark,
                    kg,
                    [str(v) for v in values],
                    hops=cfg.hops,
                    list_agg=cfg.list_agg,
                )
                n_extracted_raw += len(ex.attrs)
                attrs = ex.attrs
                if cfg.offline_pruning:
                    attrs, rep = offline_prune_entity(
                        ex.wide,
                        attrs,
                        max_missing=cfg.max_missing,
                        unique_ratio=cfg.unique_ratio,
                    )
                    prefix = f"{col}__" if multi else ""
                    for a, reason in rep.dropped.items():
                        offline_report.drop(prefix + a, reason)
                prefix = f"{col}__" if multi else ""
                ctx, new_cols = integrate(ctx, ex, col, prefix=prefix, attrs=attrs)
                extracted_cols.extend(new_cols)
        timings["extract"] = time.perf_counter() - t0

        # One aggregate pass profiles the integrated frame: the row count
        # (the left joins keep it) and, for O and every candidate, the
        # non-null and distinct counts that offline pruning and binning read.
        t0 = time.perf_counter()
        profile = profile_columns(ctx, [query.o, *input_cands, *extracted_cols])
        # Adaptive bin count: plug-in CMI needs enough rows per cell, so
        # small contexts (Covid-19 has 188 rows; a Forbes category ~450)
        # use coarser bins. cfg.bins is the ceiling.
        bins = min(cfg.bins, max(3, profile.n // 60))
        timings["profile"] = time.perf_counter() - t0

        # Offline pruning of input-table candidates (row level).
        t0 = time.perf_counter()
        if cfg.offline_pruning and input_cands:
            input_cands, rep = offline_prune_rows(
                ctx,
                input_cands,
                max_missing=cfg.max_missing,
                unique_ratio=cfg.unique_ratio,
                profile=profile,
            )
            for a, reason in rep.dropped.items():
                offline_report.drop(a, reason)
        candidates_initial = len(input_cands) + max(
            n_extracted_raw, len(extracted_cols)
        )
        timings["offline_prune"] = time.perf_counter() - t0

        # Binning of the outcome and the numeric candidates, in one pass.
        t0 = time.perf_counter()
        all_cands = input_cands + extracted_cols
        ctx, bin_map = ensure_binned(
            ctx, [query.o, *all_cands], bins=bins, profile=profile
        )
        o_bin = bin_map[query.o]
        analysis_cols = [bin_map[c] for c in all_cands]
        extracted_analysis = [bin_map[c] for c in extracted_cols]
        timings["binning"] = time.perf_counter() - t0

        # IPW weights for extracted attributes with selection bias.
        t0 = time.perf_counter()
        weights: dict[str, str] = {}
        biased: set[str] = set()
        if cfg.ipw and extracted_analysis:
            # Propensity features: the binned outcome — P(R|O) is the
            # observable that corrects MNAR-in-E missingness (the exposure
            # is a near-deterministic predictor of entity-level missingness
            # and would make the weights degenerate).
            ctx, weights, biased = prepare_weights(
                ctx,
                extracted_analysis,
                o_bin=o_bin,
                t=t_col,
                features=[o_bin],
                alpha=cfg.alpha,
                eps_bits=cfg.eps_bits / 2,
            )
        timings["ipw"] = time.perf_counter() - t0

        ctx = ctx.cache()
        return PreparedQuery(
            df=ctx,
            o_bin=o_bin,
            t=t_col,
            candidates=analysis_cols,
            weights=weights,
            biased=biased,
            extracted_attrs=extracted_analysis,
            offline_report=offline_report,
            candidates_initial=candidates_initial,
            timings=timings,
        )

    def explain_prepared(self, prep: PreparedQuery) -> MesaResult:
        """Stages 6–7 on a prepared frame: scan, online prune, MCIMR,
        responsibility."""
        cfg = self.cfg
        timings = dict(prep.timings)
        t0 = time.perf_counter()
        scan = scan_counts(
            prep.df, [prep.o_bin, prep.t], prep.candidates, prep.weights
        )
        timings["scan"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        cands = prep.candidates
        online_report = PruneReport()
        if cfg.online_pruning:
            cands, online_report = online_prune(
                scan,
                cands,
                o_bin=prep.o_bin,
                t=prep.t,
                eps_fd=cfg.eps_fd,
                eps_rel=cfg.eps_rel,
            )
        timings["online_prune"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        result = mcimr(
            prep.df,
            cands,
            o_bin=prep.o_bin,
            t=prep.t,
            k=cfg.k,
            weights=prep.weights,
            scan=scan,
            eps_resp=cfg.eps_bits,
            alpha=cfg.alpha,
        )
        timings["mcimr"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        resp = responsibilities(
            prep.df,
            result.selected,
            o_bin=prep.o_bin,
            t=prep.t,
            weights=prep.weights,
        )
        timings["responsibility"] = time.perf_counter() - t0

        return MesaResult(
            explanation=[display_name(c) for c in result.selected],
            analysis_cols=result.selected,
            result=result,
            responsibility={display_name(c): v for c, v in resp.items()},
            candidates_initial=prep.candidates_initial,
            candidates_after_offline=len(prep.candidates),
            candidates_after_online=len(cands),
            offline_report=prep.offline_report,
            online_report=online_report,
            biased_attrs=prep.biased,
            extracted_attrs=prep.extracted_attrs,
            timings=timings,
            scan=scan,
        )

    def explain(
        self,
        df: DataFrame,
        query: AggQuery,
        kg: KnowledgeGraph | None = None,
        extraction_cols: list[str] | None = None,
        exclude: set[str] | None = None,
    ) -> MesaResult:
        """Full pipeline; see class docstring."""
        prep = self.prepare(df, query, kg, extraction_cols, exclude)
        try:
            return self.explain_prepared(prep)
        finally:
            prep.df.unpersist()
