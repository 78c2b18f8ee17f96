"""The benchmark's own Spark session, pinned so runs compare.

Settings follow the tier-1 test session (``conftest.py``): 64 shuffle
partitions, Arrow transfers, no automatic broadcast joins. Master, driver
memory and every directory Spark or the JVM writes to are pinned here, so a
run reads and writes only inside the checkout (under ``.bench_build/``).
"""
from __future__ import annotations

import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

SHUFFLE_PARTITIONS = 64
DRIVER_MEMORY = "2g"
# The status store keeps 1000 jobs by default; one op can issue hundreds and
# jobs are counted only after the op, so keep far more.
RETAINED_JOBS = 100_000


def cores() -> int:
    return min(4, len(os.sched_getaffinity(0)))


def master() -> str:
    return f"local[{cores()}]"


def work_dir(root: Path) -> Path:
    return root / ".bench_build" / "spark"


def start(root: Path):
    """Start a fresh local Spark session (and its JVM) for this process."""
    work = work_dir(root)
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    (work / "local").mkdir()
    os.environ["TMPDIR"] = tempfile.tempdir = str(work / "tmp")
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "local")
    jvm_opts = f"-Djava.io.tmpdir={work / 'tmp'} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = jvm_opts  # spark-submit's launcher JVM
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {master()} --driver-memory {DRIVER_MEMORY} "
        f'--driver-java-options "{jvm_opts}" '
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.local.dir", str(work / "local"))
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .config("spark.ui.retainedJobs", str(RETAINED_JOBS))
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop(spark) -> None:
    """Stop Spark and wait until its JVM has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def drain(sc) -> None:
    """Wait until the listener bus has delivered every queued event, so the
    status store knows every job started so far."""
    sc._jsc.sc().listenerBus().waitUntilEmpty()


def environment(spark, seed: int) -> dict:
    """What a result must be compared under."""
    sc = spark.sparkContext
    java = sc._jvm.java.lang.System.getProperty("java.version")
    import pyspark

    return {
        "master": sc.master,
        "cores": cores(),
        "default_parallelism": sc.defaultParallelism,
        "shuffle_partitions": int(spark.conf.get("spark.sql.shuffle.partitions")),
        "driver_memory": DRIVER_MEMORY,
        "pyspark": pyspark.__version__,
        "java": java,
        "python": platform.python_version(),
        "seed": seed,
    }
