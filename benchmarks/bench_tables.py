"""One benchmark per paper table/figure — each regenerates the artifact at
benchmark scale (SO SF=0.1 ≈ 4.8k rows/150 countries, Flights SF=0.01 ≈
58k rows) and records wall-clock. Run with
``PYTHONPATH=src python -m pytest benchmarks/bench_tables.py -rP`` to keep
the printed tables next to the timings; EXPERIMENTS.md diffs them against
the paper's numbers.
"""
import pytest

from benchmarks.conftest import run_once
from repro.eval import tables as T


@pytest.mark.benchmark(group="table1")
def bench_table1_datasets(benchmark, spark, scale):
    df = run_once(benchmark, T.table1, spark, scale)
    assert len(df) == 4
    print("\n=== Table 1 ===\n" + df.to_string(index=False))


@pytest.mark.benchmark(group="table2")
def bench_table2_explanations(benchmark, spark, scale):
    # SO + Covid-19 + Forbes; Flights runs in its own bench (slowest).
    df = run_once(
        benchmark,
        T.table2,
        spark,
        scale,
        only=["SO", "Covid-19", "Forbes"],
    )
    assert {"MESA", "Top-K", "LR", "HypDB"} <= set(df.Method)
    print("\n=== Table 2 (SO/Covid/Forbes) ===\n" + df.to_string(index=False))
    t3 = T.table3(df)
    print("\n=== Table 3 (from this slice) ===\n" + t3.to_string(index=False))
    d = T.fig2_distances(df)
    print(
        "\n=== Fig 2 mean distances ===\n"
        + d.groupby("Method")["Distance"].mean().round(3).to_string()
    )


@pytest.mark.benchmark(group="table2")
def bench_table2_flights(benchmark, spark, scale):
    df = run_once(benchmark, T.table2, spark, scale, only=["Flights"])
    assert set(df.Dataset) == {"Flights"}
    print("\n=== Table 2 (Flights) ===\n" + df.to_string(index=False))


@pytest.mark.benchmark(group="table4")
def bench_table4_subgroups(benchmark, spark, scale):
    df = run_once(benchmark, T.table4, spark, scale)
    assert len(df) >= 1
    print(
        f"\n=== Table 4 (explanation={df.attrs.get('explanation')}) ===\n"
        + df.to_string(index=False)
    )


@pytest.mark.benchmark(group="fig3")
def bench_fig3_missing(benchmark, spark, scale):
    df = run_once(
        benchmark,
        T.fig3_missing_robustness,
        spark,
        scale,
        fracs=(0.0, 0.3, 0.5),
        modes=("mcar", "biased"),
        top_n=6,
    )
    assert len(df) == 6
    print("\n=== Fig 3 ===\n" + df.to_string(index=False))


@pytest.mark.benchmark(group="fig4")
def bench_fig4_candidates(benchmark, spark, scale):
    # Pruning pays off only at a realistic |A|: use a wider KG here.
    fig4_scale = T.Scale(so_sf=scale.so_sf, n_junk=80, k=scale.k)
    df = run_once(
        benchmark, T.fig4_candidates_sweep, spark, fig4_scale,
        sizes=(0.3, 0.6, 1.0),
    )
    assert len(df) == 3
    print("\n=== Fig 4 ===\n" + df.to_string(index=False))


@pytest.mark.benchmark(group="fig5")
def bench_fig5_datasize(benchmark, spark, scale):
    df = run_once(
        benchmark, T.fig5_datasize_sweep, spark, scale,
        fractions=(0.25, 0.5, 1.0),
    )
    assert len(df) == 3
    print("\n=== Fig 5 ===\n" + df.to_string(index=False))


@pytest.mark.benchmark(group="fig6")
def bench_fig6_k(benchmark, spark, scale):
    df = run_once(benchmark, T.fig6_k_sweep, spark, scale, ks=(1, 3, 5, 8))
    assert len(df) == 4
    print("\n=== Fig 6 ===\n" + df.to_string(index=False))


@pytest.mark.benchmark(group="random-queries")
def bench_random_query_usefulness(benchmark, spark, scale):
    df = run_once(
        benchmark,
        T.random_query_usefulness,
        spark,
        scale,
        n_per_dataset=4,
        only=["SO", "Forbes"],
    )
    frac = df["Useful"].mean()
    print(
        "\n=== Random-query usefulness ===\n"
        + df.to_string(index=False)
        + f"\nUseful: {100 * frac:.1f}% (paper: 72.5%)"
    )
