"""Top-K baseline: rank by individual explanation power only.

Equivalent to the Max-Relevance criterion without redundancy control — the
paper's Table 2 shows its characteristic failure: it happily picks pairs
of near-duplicate attributes (YEAR LOW F next to YEAR AVG F).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

import pandas as pd
from pyspark.sql import DataFrame

from repro.core.contingency import joint_counts, scan_counts
from repro.core.info_theory import CNT, cmi_from_counts
from repro.core.mcimr import conditional_cmi, individual_scores


@dataclass
class TopKResult:
    selected: list[str]
    individual_cmi: dict[str, float]
    final_cmi: float
    base_cmi: float
    seconds: float


def top_k(
    df: DataFrame,
    candidates: list[str],
    *,
    o_bin: str,
    t: str,
    k: int = 5,
    weights: Mapping[str, str] | None = None,
    scan: dict[str, pd.DataFrame] | None = None,
) -> TopKResult:
    start = time.perf_counter()
    if scan is None:
        scan = scan_counts(df, [o_bin, t], candidates, weights)
    # The base CMI conditions on no attribute, so no IPW weight applies.
    base_pdf = joint_counts(df, [o_bin, t])
    base = cmi_from_counts(base_pdf, o_bin, t)
    # Same support-aware individual score as MCIMR's MCI term (see the
    # estimator note in repro.core.mcimr.individual_scores) — Top-K differs
    # from MESA only by ignoring redundancy and the stopping criterion.
    v1 = individual_scores(
        {a: scan[a] for a in candidates if a in scan},
        o_bin=o_bin,
        t=t,
        base_cmi=base,
        n_total=float(base_pdf[CNT].sum()),
    )
    ranked = sorted(v1, key=lambda a: (v1[a], a))
    selected = ranked[:k]
    final = conditional_cmi(df, o_bin, t, selected, weights) if selected else base
    return TopKResult(
        selected=selected,
        individual_cmi=v1,
        final_cmi=final,
        base_cmi=base,
        seconds=time.perf_counter() - start,
    )
