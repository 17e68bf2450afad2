"""The one SparkSession config, for tests, jobs (``jobs/*.py``) and benchmarks.

The test suite's ``spark`` fixture (``conftest.py``), the jobs run under
``spark-submit`` (or plain ``python``) and ``perfbench`` all build their
session here, so their numbers are comparable.  Broadcast joins are
disabled so the shuffle/join paths are exercised at small scale factors; a
reproduction that wants a broadcast join sets the threshold back for that
query.  PySpark's call-site capture is off: it costs a JVM round trip and a
stack walk per DataFrame/Column call (and ``import IPython`` on the first).
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_session(app: str = "repro-job") -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.python.sql.dataFrameDebugging.enabled", "false")
        .getOrCreate()
    )
