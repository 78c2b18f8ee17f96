import itertools

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
