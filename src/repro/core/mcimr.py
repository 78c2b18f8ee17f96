"""The MCIMR algorithm (Algorithm 1).

Greedy selection of the explanation set: at each iteration the next
attribute minimizes

    I(O; T | C, E)  +  (1/|E_sel|) · Σ_{E' ∈ E_sel} I(E; E')

— the Min-Conditional-mutual-Information plus Min-Redundancy criterion
(Eq. 5), which Theorem 4.1 shows tracks the optimal k-size solution of
Eq. 1 while only ever estimating *bivariate* distributions. The
**responsibility test** (Lemma 4.2) stops the loop when the candidate to
be added is conditionally independent of O given the already-selected set,
i.e. its responsibility would be ≤ 0; ``k`` is therefore an upper bound.

Spark cost per run, independent of |A|: one wide scan pass for all the
individual CMI terms (shared with online pruning, and skipped when the
caller passes it in), one small joint-contingency job for the base CMI
I(O;T|C) and the row total (unweighted: the base conditions on no
attribute, so no IPW weight applies), one responsibility-test
contingency job and at most one redundancy scan pass against the newly
selected attribute per iteration, and one contingency job for the final
CMI.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.contingency import VAL_COL, joint_counts, scan_counts
from repro.core.info_theory import (
    CNT,
    cmi_from_counts,
    cond_entropy_from_counts,
    entropy_from_counts,
    is_conditionally_independent,
    mi_from_counts,
)


def combined_weight(
    df: DataFrame, attrs: list[str], weights: Mapping[str, str] | None
) -> tuple[DataFrame, str | None]:
    """Product of the IPW weight columns of ``attrs`` (unit where absent).

    Used for multi-attribute conditioning sets (final CMI, responsibility,
    subgroup scores), where each biased attribute contributes its own
    complete-case correction.
    """
    if not weights:
        return df, None
    wcols = [weights[a] for a in attrs if a in weights]
    if not wcols:
        return df, None
    expr = F.lit(1.0)
    for w in wcols:
        expr = expr * F.coalesce(F.col(w), F.lit(1.0))
    out = "__w_combined"
    return df.withColumn(out, expr), out


def conditional_cmi(
    df: DataFrame,
    o_bin: str,
    t: str,
    cond: list[str],
    weights: Mapping[str, str] | None = None,
) -> float:
    """I(O; T | cond) on complete cases of ``cond``, IPW-weighted."""
    dfw, wcol = combined_weight(df, cond, weights)
    pdf = joint_counts(dfw, [o_bin, t, *cond], weight_col=wcol)
    return cmi_from_counts(pdf, o_bin, t, cond)


def individual_scores(
    scan: Mapping[str, pd.DataFrame],
    *,
    o_bin: str,
    t: str,
    base_cmi: float,
    n_total: float,
) -> dict[str, float]:
    """Support-aware individual explanation score per candidate (the MCI
    term of Eq. 5), shared by MCIMR and the Top-K baseline.

    Estimator note: complete-case supports differ per attribute, so plug-in
    CMIs are not comparable across candidates — a sparse attribute's CMI is
    spuriously deflated by its restricted entity set. We therefore measure
    each candidate's explanatory DROP on its own support (base and
    conditional share the support, so estimation biases cancel), weight the
    drop by the support share (an attribute observed on 40% of the rows
    can explain at most 40% of the correlation mass), and score it as
    ``base_cmi − support_share · drop``. For fully observed attributes
    this reduces exactly to the plug-in I(O;T|C,E).
    """
    v1: dict[str, float] = {}
    for a, pdf in scan.items():
        if pdf.empty:
            continue
        # Lemma A.2 guard, independent of the pruning stages (so MESA⁻ —
        # "no pruning" — cannot degenerate either): an attribute that
        # functionally determines T (or O), like a unique WIKIID, zeroes
        # I(O;T|E) trivially and is never a valid explanation.
        if (
            cond_entropy_from_counts(pdf, [t], [VAL_COL]) < 0.05
            or cond_entropy_from_counts(pdf, [o_bin], [VAL_COL]) < 0.05
        ):
            continue
        base_s = cmi_from_counts(pdf, o_bin, t)
        cond = cmi_from_counts(pdf, o_bin, t, VAL_COL)
        share = min(1.0, float(pdf[CNT].sum()) / n_total) if n_total else 0.0
        v1[a] = max(0.0, base_cmi - share * max(0.0, base_s - cond))
    return v1


@dataclass
class ExplanationResult:
    """Output of one MCIMR run."""

    selected: list[str]
    base_cmi: float  # I(O;T|C)
    final_cmi: float  # I(O;T|C,E)
    individual_cmi: dict[str, float] = field(default_factory=dict)
    trace: list[dict] = field(default_factory=list)
    stopped_by_responsibility: bool = False
    seconds: float = 0.0

    @property
    def explainability(self) -> float:
        """The paper's explainability score: I(O;T|E) — 0 is perfect."""
        return self.final_cmi


def mcimr(
    df: DataFrame,
    candidates: list[str],
    *,
    o_bin: str,
    t: str,
    k: int = 5,
    weights: Mapping[str, str] | None = None,
    scan: dict[str, pd.DataFrame] | None = None,
    eps_resp: float = 0.01,
    alpha: float = 0.05,
) -> ExplanationResult:
    """Run Algorithm 1. ``scan`` may carry precomputed (E, O, T)
    contingencies (shared with online pruning) to skip the first pass."""
    start = time.perf_counter()
    if scan is None:
        scan = scan_counts(df, [o_bin, t], candidates, weights)
    # The base CMI conditions on no attribute, so no IPW weight applies.
    base_pdf = joint_counts(df, [o_bin, t])
    base_cmi = cmi_from_counts(base_pdf, o_bin, t)
    n_total = float(base_pdf[CNT].sum())
    # Restrict to the candidate list — the precomputed scan may also carry
    # attributes that online pruning has since removed.
    v1 = individual_scores(
        {a: scan[a] for a in candidates if a in scan},
        o_bin=o_bin,
        t=t,
        base_cmi=base_cmi,
        n_total=n_total,
    )
    selected: list[str] = []
    red_sum = {a: 0.0 for a in v1}
    trace: list[dict] = []
    stopped = False
    for _ in range(k):
        remaining = [a for a in v1 if a not in selected]
        if not remaining:
            break
        if selected:
            # Min-Redundancy term (Eq. 5). Estimator note: the raw pairwise
            # MI between two *entity-level* attributes is dominated by the
            # fact that both partition the same small entity set (two
            # independent 8-bin partitions of 60 countries share ~1 bit of
            # structural MI), which would drown the relevance signal. We
            # therefore use redundancy in *normalized* units —
            # I(E;S)/min(H(E),H(S)) ∈ [0,1], 1 ⇔ informational duplicate —
            # rescaled by the query's base CMI so the penalty is
            # commensurate with the MCI term. Informational duplicates
            # (HDI vs HDI_Rank) get the maximal penalty, independent
            # partitions a small one, exactly Eq. 5's intent.
            score = {
                a: v1[a] + base_cmi * red_sum[a] / len(selected)
                for a in remaining
            }
        else:
            score = {a: v1[a] for a in remaining}
        best = min(remaining, key=lambda a: (score[a], a))
        # Responsibility test (Lemma 4.2): O ⟂ best | selected ⇒ Resp ≤ 0.
        dfw, wcol = combined_weight(df, [best, *selected], weights)
        resp_pdf = joint_counts(dfw, [o_bin, best, *selected], weight_col=wcol)
        if is_conditionally_independent(
            resp_pdf, o_bin, best, selected, alpha=alpha, eps_bits=eps_resp
        ):
            stopped = True
            trace.append(
                {"attr": best, "score": score[best], "action": "stop"}
            )
            break
        selected.append(best)
        trace.append({"attr": best, "score": score[best], "action": "select"})
        # Update redundancy sums with I(E; best) for every remaining E —
        # one scan pass with the new selection as the fixed column.
        rest = [a for a in v1 if a not in selected]
        if rest and len(selected) < k:
            red_scan = scan_counts(df, [best], rest, weights)
            for a in rest:
                if not red_scan[a].empty:
                    mi = mi_from_counts(red_scan[a], VAL_COL, best)
                    h_best = entropy_from_counts(red_scan[a], [best])
                    h_a = entropy_from_counts(red_scan[a], [VAL_COL])
                    denom = min(h_a, h_best)
                    red_sum[a] += min(1.0, mi / denom) if denom > 1e-9 else 1.0
    final_cmi = (
        conditional_cmi(df, o_bin, t, selected, weights) if selected else base_cmi
    )
    return ExplanationResult(
        selected=selected,
        base_cmi=base_cmi,
        final_cmi=final_cmi,
        individual_cmi=v1,
        trace=trace,
        stopped_by_responsibility=stopped,
        seconds=time.perf_counter() - start,
    )
