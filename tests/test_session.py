"""The one session config: one job per materialization, sealed batches
joined where they are."""
import pandas as pd

from repro.core.trace import DIFF_COL, N_SHARDS, Trace


def plan_nodes(plan):
    """Every node of a physical plan (a JVM ``SparkPlan``), root first."""
    yield plan
    kids = plan.children()
    for i in range(kids.size()):
        yield from plan_nodes(kids.apply(i))


def batch_side_of_join(spark):
    """The sealed-batch side of a sort-merge join of a batch with a range."""
    tr = Trace(["k", "v"], ["k"])
    pdf = pd.DataFrame({"k": range(100), "v": range(100), DIFF_COL: 1})
    batch = tr.seal(spark.createDataFrame(pdf), upper=1)
    probe = spark.range(50).withColumnRenamed("id", "k")
    plan = batch.df.join(probe, "k")._jdf.queryExecution().executedPlan()  # noqa: SLF001
    (smj,) = [n for n in plan_nodes(plan) if n.nodeName() == "SortMergeJoin"]
    return smj.left().toString(), smj.right().toString()


def test_adaptive_execution_is_off_and_shuffles_make_one_partition_per_shard(spark):
    assert spark.conf.get("spark.sql.adaptive.enabled") == "false"
    assert int(spark.conf.get("spark.sql.shuffle.partitions")) == N_SHARDS


def test_join_against_a_sealed_batch_does_not_reshuffle_it(spark):
    batch_side, probe_side = batch_side_of_join(spark)
    assert "Exchange" not in batch_side, batch_side
    assert "hashpartitioning(k#" in probe_side and f", {N_SHARDS})" in probe_side, probe_side
