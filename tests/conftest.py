import itertools

import numpy as np
import pandas as pd
import pytest

_groups = itertools.count()


@pytest.fixture(scope="session")
def count_jobs(spark):
    """``count_jobs(fn, *args, **kwargs)`` calls ``fn`` under its own Spark
    job group and returns ``(result, number of Spark jobs it ran)``."""
    sc = spark.sparkContext

    def run(fn, *args, **kwargs):
        group = f"count-jobs-{next(_groups)}"
        sc.setJobGroup(group, "count_jobs")
        try:
            out = fn(*args, **kwargs)
        finally:
            sc._jsc.clearJobGroup()
        # Job-start events reach the status store through the listener bus.
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        return out, len(sc.statusTracker().getJobIdsForGroup(group))

    return run


@pytest.fixture(scope="session")
def regional_pdf():
    """Explanation {hdi} is globally good but fails inside region r1,
    where salary additionally depends on gini."""
    rng = np.random.default_rng(13)
    n = 16000
    region = rng.choice(["r1", "r2", "r3"], n, p=[0.5, 0.3, 0.2])
    country = rng.integers(0, 12, n)
    hdi = country % 4
    gini = (country // 4) % 3
    o = hdi * 3 + np.where(region == "r1", gini * 3, 0) + rng.integers(0, 2, n)
    return pd.DataFrame(
        {
            "t": [f"c{c:02d}" for c in country],
            "region": region,
            "other": rng.choice(["u", "v"], n),
            "hdi": hdi,
            "o_bin": o,
        }
    )


@pytest.fixture(scope="module")
def regional(spark, regional_pdf):
    return spark.createDataFrame(regional_pdf).cache()
