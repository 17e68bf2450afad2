"""The one SparkSession config, for tests, jobs (``jobs/*.py``) and benchmarks.

The test suite's ``spark`` fixture (``conftest.py``), the jobs run under
``spark-submit`` (or plain ``python``) and ``perfbench`` all build their
session here, so their numbers are comparable.  Broadcast joins are
disabled so the shuffle/join paths are exercised at small scale factors; a
reproduction that wants a broadcast join sets the threshold back for that
query.  PySpark's call-site capture is off: it costs a JVM round trip and a
stack walk per DataFrame/Column call (and ``import IPython`` on the first).

Adaptive query execution is off, and a shuffle makes as many partitions as
an arrangement has shards (:data:`~repro.core.trace.N_SHARDS`).  In local
mode every Spark job costs a fixed overhead; AQE runs each shuffle stage as
a job of its own, so a materialization cost about two jobs instead of one.
The two settings go together: without AQE to coalesce them, 64 shuffle
partitions would make every sort-merge join run 64 near-empty tasks a
stage.  A join against a sealed batch keeps the batch's hash partitioning
and shuffles only the other side, into ``N_SHARDS`` partitions.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession

from repro.core.trace import N_SHARDS


def get_session(app: str = "repro-job") -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.adaptive.enabled", "false")
        .config("spark.sql.shuffle.partitions", N_SHARDS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.python.sql.dataFrameDebugging.enabled", "false")
        .getOrCreate()
    )
