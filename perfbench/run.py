"""MESA benchmark: closed-loop, single-client workloads on local Spark.

Run one workload (the form ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload methods --seed 0 --seconds 1 --trace 0

Run every workload, each in its own process, and print a metrics table::

    python3 perfbench/run.py --all [--trace 1]

Re-record the correctness goldens for a seed (only when the program's
intended output changes)::

    python3 perfbench/run.py --record-goldens --seed 0

The self-tests, which run at the tier-1 TINY scale, are in
``perfbench/test_perfbench.py``.

Run from the repository root. A workload process starts its own Spark
session (``perfbench/session.py``), builds its datasets from ``--seed``,
sets up, runs one untimed warm-up op, then repeats the op, one at a time,
until ``--seconds`` have passed and at least one op (three when traced)
is done. An op counts as failed when it raises or
its output differs from the golden recorded for the seed; for a seed
without a golden, from the warm-up op's output, which must then pass the
invariant checks in ``workloads.plausible``. The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, from ops that alternate untraced and traced so that the
tracing overhead is measured within the same run.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
WORKLOAD_NAMES = ("subgroups", "methods")


@dataclass
class Result:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    end_to_end: dict[str, tuple[float, str]] = field(default_factory=dict)
    per_layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    op_s: list[float] = field(default_factory=list)
    jobs: list[int] = field(default_factory=list)  # untraced ops
    traced_jobs: list[int] = field(default_factory=list)  # all spans + outside
    tracer: object = None  # the tracer, holding the last traced op's spans


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}


def measure(
    spark,
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "bench",
    session_s: float = 0.0,
) -> Result:
    """Set up ``name`` on ``spark`` and run its op loop."""
    from perfbench import session
    from perfbench import tracer as T
    from perfbench import workloads as W

    w = W.WORKLOADS[name]
    sc = spark.sparkContext
    # One measured op: set-up is already most of a run, and runs of both
    # workloads must fit the benchmark's time limit. Warm ops within a run
    # differ by a few percent, runs by more, so more ops would steady little.
    # Traced: untraced, traced, untraced, so that the overhead is taken
    # against untraced ops on both sides and a warming JVM biases it less.
    min_ops = 3 if trace else 1
    st = sc.statusTracker()

    # Set-up runs once: in the subgroups workload it is a cold ``prepare``
    # plus ``explain_prepared`` of SO Q1, too long to repeat within a run.
    t0 = time.perf_counter()
    datasets = {d: W.build(spark, d, W.SCALES[scale], seed) for d in w.datasets}
    state = w.setup(spark, datasets, W.SCALES[scale])
    warm = w.op(spark, state)
    setup_s = session_s + time.perf_counter() - t0

    golden = load_goldens().get(scale, {}).get(str(seed), {}).get(name)
    reference = warm if golden is None else golden
    res = Result(correct=W.plausible(name, warm) and W.same(warm, reference))

    # Job groups must be unique in the session, also across measure calls.
    prefix = f"{name}-{time.monotonic_ns()}"
    tracer = T.Tracer(sc)
    traced_s: list[float] = []
    layer: list[dict[str, float]] = []

    def attempt(n: int):
        try:
            return w.op(spark, state), True
        except Exception as e:  # an op that raises is a failed op
            print(f"op {n} raised {e!r}", file=sys.stderr)
            return None, False

    t_loop = time.perf_counter()
    while True:
        n = res.attempted + 1
        group = f"{prefix}-op{n}"
        if trace and n % 2 == 0:
            with T.instrument(tracer) as originals:
                left = T.unwrapped_bindings(originals)
                if left:
                    raise RuntimeError(f"tracer missed bindings: {left}")
                tracer.begin_op(group)
                out, ok = attempt(n)
                tracer.end_op()
            tracer.resolve_jobs(lambda: session.drain(sc))
            traced_s.append(tracer.op_seconds)
            res.traced_jobs.append(tracer.op_jobs + sum(s.jobs for s in tracer.spans))
            layer.append(T.op_metrics(tracer))
        else:
            sc.setJobGroup(group, "op")
            t0 = time.perf_counter()
            out, ok = attempt(n)
            res.op_s.append(time.perf_counter() - t0)
            session.drain(sc)
            res.jobs.append(len(st.getJobIdsForGroup(group)))
        res.attempted += 1
        res.failed += not (ok and W.same(out, reference))
        if time.perf_counter() - t_loop >= seconds and res.attempted >= min_ops:
            break
    W.teardown(state, datasets)

    res.correct = res.correct and res.failed == 0
    res.end_to_end = {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (statistics.median(res.op_s), "s"),
        "spark_jobs_per_op": (float(statistics.median(res.jobs)), "count"),
        "driver_rss_peak_mb": (_rss_mb(), "MB"),
    }
    if layer:
        res.per_layer = {
            k: (statistics.fmean(m[k] for m in layer), T.unit(k)) for k in layer[0]
        }
        res.per_layer["trace_overhead_frac"] = (
            statistics.median(traced_s) / statistics.median(res.op_s) - 1.0,
            "frac",
        )
    res.tracer = tracer
    return res


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench import session

    t0 = time.perf_counter()
    spark = session.start(ROOT)
    try:
        res = measure(
            spark,
            name,
            seed=seed,
            seconds=seconds,
            trace=trace,
            session_s=time.perf_counter() - t0,
        )
        env = session.environment(spark, seed)
    finally:
        session.stop(spark)
    print("# env " + json.dumps({"workload": name, **env}))
    print(
        f"# op_s.p50 over {len(res.op_s)} untraced ops; "
        f"failed_frac {res.failed}/{res.attempted}; jobs per op {res.jobs}"
    )
    metrics = res.per_layer if trace else res.end_to_end
    print(
        json.dumps(
            {
                "correct": res.correct,
                "attempted": res.attempted,
                "failed": res.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; print every metric with its unit."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {proc.returncode}")
            status = 1
            continue
        for line in lines[:-1]:
            print(f"{name} {line}")
        r = json.loads(lines[-1])
        frac = r["failed"] / r["attempted"]
        print(f"{name} failed_frac {frac:.4f} frac ({r['failed']}/{r['attempted']})")
        for k, m in r["metrics"].items():
            print(f"{name} {k} {m['value']:.6g} {m['unit']}")
        status |= not r["correct"]
    return status


def record_goldens(seed: int) -> int:
    from perfbench import session
    from perfbench import workloads as W

    goldens = load_goldens()
    scale = W.SCALES["bench"]
    spark = session.start(ROOT)
    try:
        for name in WORKLOAD_NAMES:
            w = W.WORKLOADS[name]
            datasets = {d: W.build(spark, d, scale, seed) for d in w.datasets}
            state = w.setup(spark, datasets, scale)
            out = w.op(spark, state)
            W.teardown(state, datasets)
            if not W.plausible(name, out):
                raise RuntimeError(f"{name} output fails its invariants: {out}")
            goldens.setdefault("bench", {}).setdefault(str(seed), {})[name] = out
    finally:
        session.stop(spark)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description="MESA benchmark")
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--record-goldens", action="store_true")
    a = p.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if a.record_goldens:
        return record_goldens(a.seed)
    if a.all:
        return run_all(a.seed, a.seconds, bool(a.trace))
    if a.workload:
        return run_workload(a.workload, a.seed, a.seconds, bool(a.trace))
    p.error("one of --workload, --all or --record-goldens is required")
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
