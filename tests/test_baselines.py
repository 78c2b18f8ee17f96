"""Baseline algorithms: Brute-Force, Top-K, LR, HypDB."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.brute_force import brute_force
from repro.baselines.hypdb import hypdb
from repro.baselines.linreg import linear_regression
from repro.baselines.topk import top_k
from repro.core.contingency import scan_counts
from repro.core.mcimr import mcimr


@pytest.fixture(scope="module")
def confounded(spark):
    """Same planted structure as test_mcimr: {hdi(+copy), gini} explain T↔O;
    junk is noise. Raw numeric salary included for the LR baseline."""
    rng = np.random.default_rng(21)
    n = 10000
    country = rng.integers(0, 24, n)
    hdi = country % 4
    gini = (country // 4) % 3
    o_bin = hdi * 3 + gini + rng.integers(0, 2, n)
    pdf = pd.DataFrame(
        {
            "t": [f"c{c:02d}" for c in country],
            "hdi": hdi.astype(float),
            "hdi_copy": hdi.astype(float) * 10,
            "gini": gini.astype(float),
            "junk": rng.choice(list("pqr"), n),
            # junk_num: continuous noise, for the LR baseline only.
            "junk_num": rng.random(n),
            # junk_bin: binned noise — CMI methods see binned numerics
            # (raw continuous columns are binned/pruned by the pipeline).
            "junk_bin": rng.integers(0, 8, n).astype(float),
            "o_bin": o_bin,
            "salary": o_bin * 1000.0 + rng.normal(0, 100, n),
        }
    )
    return spark.createDataFrame(pdf).cache()


CANDS = ["hdi", "hdi_copy", "gini", "junk", "junk_bin"]
HDI_CLASS = {"hdi", "hdi_copy"}


class TestBruteForce:
    def test_finds_optimal_pair(self, confounded):
        res = brute_force(confounded, CANDS, o_bin="o_bin", t="t", k=2)
        assert len(set(res.selected) & HDI_CLASS) == 1
        assert "gini" in res.selected

    def test_objective_is_cmi_times_size(self, confounded):
        res = brute_force(confounded, CANDS, o_bin="o_bin", t="t", k=2)
        assert res.objective == pytest.approx(
            res.final_cmi * len(res.selected)
        )

    def test_explores_all_subsets(self, confounded):
        res = brute_force(confounded, CANDS, o_bin="o_bin", t="t", k=2)
        assert res.n_subsets == 5 + 10  # C(5,1) + C(5,2)

    def test_at_least_as_good_as_mcimr(self, confounded):
        bf = brute_force(confounded, CANDS, o_bin="o_bin", t="t", k=3)
        mc = mcimr(confounded, CANDS, o_bin="o_bin", t="t", k=3)
        assert (
            bf.objective
            <= mc.final_cmi * max(len(mc.selected), 1) + 1e-6
        )

    def test_infeasible_guards(self, confounded):
        with pytest.raises(ValueError, match="infeasible"):
            brute_force(
                confounded, [f"x{i}" for i in range(30)], o_bin="o_bin", t="t"
            )
        with pytest.raises(ValueError, match="rows"):
            brute_force(
                confounded, CANDS, o_bin="o_bin", t="t", max_rows=10
            )


class TestTopK:
    def test_picks_individually_best(self, confounded):
        res = top_k(confounded, CANDS, o_bin="o_bin", t="t", k=2)
        # Characteristic redundancy failure: both hdi variants chosen.
        assert set(res.selected) == HDI_CLASS

    def test_redundant_selection_wastes_budget(self, confounded):
        tk = top_k(confounded, CANDS, o_bin="o_bin", t="t", k=2)
        mc = mcimr(confounded, CANDS, o_bin="o_bin", t="t", k=2)
        assert mc.final_cmi < tk.final_cmi

    def test_k_respected(self, confounded):
        res = top_k(confounded, CANDS, o_bin="o_bin", t="t", k=3)
        assert len(res.selected) == 3

    def test_scan_reuse(self, confounded):
        scan = scan_counts(confounded, ["o_bin", "t"], CANDS)
        a = top_k(confounded, CANDS, o_bin="o_bin", t="t", k=2, scan=scan)
        b = top_k(confounded, CANDS, o_bin="o_bin", t="t", k=2)
        assert a.selected == b.selected


class TestLinReg:
    def test_selects_linear_confounders(self, confounded):
        res = linear_regression(
            confounded,
            ["hdi", "gini", "junk_num"],
            o="salary",
            o_bin="o_bin",
            t="t",
            k=2,
        )
        assert len(res.selected) == 2
        assert set(res.selected) == {"hdi", "gini"}

    def test_collinear_pair_inflates_errors(self, confounded):
        """hdi and hdi_copy are perfectly collinear: OLS splits the effect
        and the inflated standard errors make both insignificant — a
        classic LR failure mode on redundant extracted attributes."""
        res = linear_regression(
            confounded,
            ["hdi", "hdi_copy", "gini", "junk_num"],
            o="salary",
            o_bin="o_bin",
            t="t",
            k=3,
        )
        assert "hdi" not in res.selected and "hdi_copy" not in res.selected
        assert res.coefficients["hdi"] == pytest.approx(
            res.coefficients["hdi_copy"], rel=0.05
        )

    def test_junk_insignificant(self, confounded):
        res = linear_regression(
            confounded,
            ["hdi", "gini", "junk_num"],
            o="salary",
            o_bin="o_bin",
            t="t",
            k=3,
        )
        assert "junk_num" not in res.selected
        assert res.p_values["junk_num"] > 0.05

    def test_r_squared_high_on_planted_linear(self, confounded):
        res = linear_regression(
            confounded,
            ["hdi", "gini"],
            o="salary",
            o_bin="o_bin",
            t="t",
        )
        assert res.r_squared > 0.9

    def test_categoricals_ignored(self, confounded):
        res = linear_regression(
            confounded, ["junk"], o="salary", o_bin="o_bin", t="t"
        )
        assert res.selected == []

    def test_misses_nonlinear_effect(self, spark):
        """LR's blind spot: a symmetric (XOR-ish) nonlinear confounder has
        zero linear correlation with O, so LR cannot select it."""
        rng = np.random.default_rng(3)
        n = 8000
        e = rng.integers(0, 2, n)
        tt = rng.integers(0, 2, n)
        o = ((e + tt) % 2).astype(float)  # nonlinear in e
        df = spark.createDataFrame(
            pd.DataFrame(
                {
                    "t": tt.astype(str),
                    "e": e.astype(float),
                    "o_bin": o.astype(int),
                    "salary": o,
                }
            )
        )
        res = linear_regression(
            df, ["e"], o="salary", o_bin="o_bin", t="t"
        )
        assert res.selected == []


class TestHypDB:
    def test_confounder_test(self, confounded):
        res = hypdb(confounded, CANDS, o_bin="o_bin", t="t", k=3)
        assert set(res.confounders) >= {"hdi", "hdi_copy", "gini"}
        assert "junk" not in res.confounders

    def test_ranked_by_delta(self, confounded):
        res = hypdb(confounded, CANDS, o_bin="o_bin", t="t", k=3)
        deltas = [res.delta[a] for a in res.selected]
        assert deltas == sorted(deltas, reverse=True)

    def test_attribute_cap_protocol(self, confounded):
        res = hypdb(
            confounded, CANDS, o_bin="o_bin", t="t", k=2, max_attrs=2, seed=1
        )
        assert res.dropped_for_scale == 3

    def test_cap_can_lose_the_true_confounder(self, confounded):
        """The paper observes HypDB's quality drops when the cap discards
        important attributes; with an adversarial cap the explanation can
        lose every planted confounder."""
        losses = 0
        for seed in range(12):
            res = hypdb(
                confounded,
                CANDS,
                o_bin="o_bin",
                t="t",
                k=2,
                max_attrs=2,
                seed=seed,
            )
            if not set(res.selected) & (HDI_CLASS | {"gini"}):
                losses += 1
        assert losses > 0

    def test_final_cmi_reported(self, confounded):
        res = hypdb(confounded, CANDS, o_bin="o_bin", t="t", k=3)
        assert res.final_cmi < res.base_cmi


class TestPassedInScan:
    """A scan passed in by the caller (as the harness passes MESA's) gives
    the same result as the scan the baseline would run itself, also with
    IPW weights and incomplete cases."""

    @pytest.fixture(scope="class")
    def weighted(self, spark, confounded):
        pdf = confounded.toPandas()
        rng = np.random.default_rng(5)
        missing = rng.random(len(pdf)) < 0.3
        pdf["gini"] = pdf["gini"].where(~missing)
        pdf["w_gini"] = np.where(missing, np.nan, 0.5 + rng.random(len(pdf)))
        pdf["w_hdi_copy"] = 0.5 + rng.random(len(pdf))
        return spark.createDataFrame(pdf).cache()

    WEIGHTS = {"gini": "w_gini", "hdi_copy": "w_hdi_copy"}

    @pytest.mark.parametrize("method", [top_k, hypdb])
    def test_same_result(self, weighted, method):
        scan = scan_counts(weighted, ["o_bin", "t"], CANDS, self.WEIGHTS)
        kw = dict(o_bin="o_bin", t="t", k=3, weights=self.WEIGHTS)
        own = method(weighted, CANDS, **kw)
        passed = method(weighted, CANDS, scan=scan, **kw)
        assert own.selected
        assert passed.selected == own.selected
        assert passed.base_cmi == pytest.approx(own.base_cmi, abs=1e-12)
        assert passed.final_cmi == pytest.approx(own.final_cmi, abs=1e-12)
