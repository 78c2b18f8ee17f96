"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py -q

``test_tracer_wraps_every_binding`` needs no Spark. ``test_selftest_tiny``
runs one short untraced-traced-untraced loop of every workload at the
tier-1 TINY scale in one Spark session (a few minutes).
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run  # noqa: E402
from perfbench import tracer as T  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class _NoSpark:
    def setJobGroup(self, *args):
        pass


def test_tracer_wraps_every_binding():
    fns = [fn for _, fn in T.originals()]
    assert T.unwrapped_bindings(fns), "the scan must see the plain bindings"
    with T.instrument(T.Tracer(_NoSpark())) as originals:
        assert originals == fns
        assert T.unwrapped_bindings(fns) == []
    assert [fn for _, fn in T.originals()] == fns  # restored on exit


def test_estimator_spans_make_no_jvm_call():
    from repro.core import info_theory
    import pandas as pd

    class Strict:
        def setJobGroup(self, *args):
            raise AssertionError("driver-only span touched the JVM")

    tracer = T.Tracer(Strict())
    pdf = pd.DataFrame({"a": ["x", "y"], "b": ["u", "u"], "cnt": [1.0, 2.0]})
    with T.instrument(tracer):
        info_theory.cmi_corrected_from_counts(pdf, "a", "b")
    names = {s.name for s in tracer.spans}
    assert names == {T.INFO_THEORY}
    outer = [s for s in tracer.spans if s.parent is None]
    assert len(outer) == 1 and outer[0].cells == 2


@pytest.fixture(scope="module")
def spark():
    from perfbench import session

    s = session.start(ROOT)
    yield s
    session.stop(s)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_selftest_tiny(spark, workload):
    res = run.measure(spark, workload, seed=0, seconds=0, trace=True, scale="tiny")
    assert res.correct and res.failed == 0 and res.attempted == 3
    for spec, got in (
        (SPEC["end_to_end"], res.end_to_end),
        (SPEC["per_layer"], res.per_layer),
    ):
        for m in spec:
            assert m["name"] in got, m["name"]
            assert got[m["name"]][1] == m["unit"], m["name"]
    # Job counts repeat exactly, and the traced op attributes every job.
    assert len(res.jobs) == 2 and res.jobs[0] == res.jobs[1] > 0
    assert res.traced_jobs == [res.jobs[0]]
    # Each span's time is its self time plus its children's time, and the
    # self times plus the time outside spans make up the op.
    tr = res.tracer
    for s in tr.spans:
        assert s.seconds == pytest.approx(
            s.self_s + sum(c.seconds for c in s.children), abs=1e-9
        )
    outside = tr.op_seconds - sum(s.seconds for s in tr.roots)
    assert sum(s.self_s for s in tr.spans) + outside == pytest.approx(
        tr.op_seconds, abs=1e-6
    )
    assert res.per_layer["op.outside_spans_frac"][0] < 0.05
