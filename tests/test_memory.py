"""Memory accounting: estimates and the Spark block-manager meter."""
import gc
import time

import pandas as pd
from pyspark.sql import functions as F

from repro.core.dataflow import Dataflow
from repro.core.memory import cached_rdd_count, spark_cached_bytes
from repro.core.trace import DIFF_COL, T_COL, materialize

#: most block-manager bytes an arranged input may hold, as a multiple of
#: one materialized copy of its rows.  Measured at 0.99 with the trace
#: batches as the only state; keeping a consolidated snapshot beside the
#: trace measured 4.6 (snapshots still referenced by memoized plans count).
MAX_COPIES = 1.25


def test_spark_cached_bytes_reflects_arrangement_state(spark):
    before = spark_cached_bytes(spark)
    flow = Dataflow(spark, shared=True)
    flow.input("a", ["k", "v"])
    flow.install("q", lambda ctx: ctx.arranged("a", ["k"]).as_stream())
    flow.feed("a", pd.DataFrame({"k": range(20000), "v": range(20000)}))
    flow.step()
    after = spark_cached_bytes(spark)
    assert after > before
    assert cached_rdd_count(spark) > 0


def test_estimate_tracks_growth(spark):
    flow = Dataflow(spark, shared=True)
    flow.input("a", ["k", "v"])
    flow.install("q", lambda ctx: ctx.arranged("a", ["k"]).as_stream())
    flow.feed("a", pd.DataFrame({"k": range(1000), "v": range(1000)}))
    flow.step()
    m1 = flow.memory_bytes()
    flow.feed("a", pd.DataFrame({"k": range(1000, 3000), "v": range(2000)}))
    flow.step()
    assert flow.memory_bytes() > m1


def test_estimate_zero_when_empty(spark):
    flow = Dataflow(spark, shared=True)
    flow.input("a", ["k", "v"])
    assert flow.memory_bytes() == 0


def settled_rdd_bytes(spark) -> dict:
    """Block-manager bytes per cached RDD id, after a Python and a JVM GC,
    read until two reads agree (the ContextCleaner drops unreachable blocks
    asynchronously)."""
    jsc = spark.sparkContext._jsc.sc()  # noqa: SLF001

    def read():
        return {i.id(): i.memSize() + i.diskSize() for i in jsc.getRDDStorageInfo()}

    gc.collect()
    spark._jvm.System.gc()  # noqa: SLF001
    now, prev = read(), None
    for _ in range(20):
        if now == prev:
            break
        time.sleep(0.05)
        now, prev = read(), now
    return now


def bytes_cached_since(spark, before: dict) -> int:
    """Settled bytes of the RDDs cached after the ``before`` reading."""
    return sum(b for i, b in settled_rdd_bytes(spark).items() if i not in before)


def test_state_is_kept_once(spark):
    """An arrangement holds its trace batches and no second copy of them."""
    rows = pd.DataFrame({"k": range(20000), "v": range(20000)})
    before = settled_rdd_bytes(spark)
    flow = Dataflow(spark, shared=True)
    flow.input("a", ["k", "v"])
    flow.install("q", lambda ctx: ctx.arranged("a", ["k"]).as_stream())
    flow.feed("a", rows)
    flow.step()
    for r in range(3):
        flow.feed("a", rows.iloc[[r]], diff=-1)
        flow.step()
    flow_bytes = bytes_cached_since(spark, before)

    before = settled_rdd_bytes(spark)
    copy = spark.createDataFrame(rows).withColumn(T_COL, F.lit(1)).withColumn(DIFF_COL, F.lit(1))
    copy, _ = materialize(copy)
    copy_bytes = bytes_cached_since(spark, before)
    assert flow_bytes <= MAX_COPIES * copy_bytes, (flow_bytes, copy_bytes)
