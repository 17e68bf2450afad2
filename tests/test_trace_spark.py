"""Spark collection trace: sealing, merging, compaction, multiversioned reads."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import trace as trace_module
from repro.core.arrange import Arrangement
from repro.core.trace import DIFF_COL, N_SHARDS, T_COL, BatchIntervalsBroken, Trace


def updates(spark, rows):
    """``(k, diff)`` rows as a frame of updates; ``seal`` stamps their time."""
    return spark.createDataFrame(pd.DataFrame(rows, columns=["k", DIFF_COL]))


def read_dict(df):
    if df is None:
        return {}
    return {r["k"]: r[DIFF_COL] for r in df.collect()}


@pytest.fixture
def trace():
    return Trace(["k"], ["k"], merge_effort="default")


class TestSeal:
    def test_empty_trace_reads_none(self, trace):
        assert trace.updates() is None
        assert trace.read_at(0) is None

    def test_seal_and_read(self, spark, trace):
        trace.seal(updates(spark, [(1, 1), (2, 1)]), upper=2)
        assert read_dict(trace.read_at(1)) == {1: 1, 2: 1}

    def test_seal_stamps_the_last_time_of_its_interval(self, spark, trace):
        # the first seal covers [0, 4), the next [4, 5)
        trace.seal(updates(spark, [(1, 1)]), upper=4)
        trace.seal(updates(spark, [(2, 1)]), upper=5)
        assert sorted((r["k"], r[T_COL]) for r in trace.updates().collect()) == [(1, 3), (2, 4)]
        assert trace.accumulated(4).columns == ["k", DIFF_COL]

    def test_seal_none_advances_upper(self, trace):
        trace.seal(None, upper=5)
        assert trace.upper == 5

    def test_seal_regression_rejected(self, spark, trace):
        trace.seal(updates(spark, [(1, 1)]), upper=2)
        with pytest.raises(ValueError):
            trace.seal(None, upper=2)

    def test_cancelled_batch_not_stored(self, spark, trace):
        # consolidation cancels both rows, so the observed count is 0
        assert trace.seal(updates(spark, [(1, 1), (1, -1)]), upper=2) is None
        assert trace.batches == []

    def test_multiversioned_reads(self, spark, trace):
        trace.seal(updates(spark, [(1, 1)]), upper=2)
        trace.seal(updates(spark, [(1, -1), (2, 1)]), upper=3)
        assert read_dict(trace.read_at(1)) == {1: 1}
        assert read_dict(trace.read_at(2)) == {2: 1}


class TestMerging:
    def test_default_keeps_few_batches(self, spark):
        tr = Trace(["k"], ["k"], merge_effort="default")
        for t in range(1, 9):
            tr.seal(updates(spark, [(t, 1)]), upper=t + 1)
        assert len(tr.batches) <= 4  # logarithmically many
        assert read_dict(tr.read_at(8)) == {t: 1 for t in range(1, 9)}

    def test_eager_single_batch(self, spark):
        tr = Trace(["k"], ["k"], merge_effort="eager")
        for t in range(1, 6):
            tr.seal(updates(spark, [(t, 1)]), upper=t + 1)
        assert len(tr.batches) == 1

    def test_lazy_accumulates_batches(self, spark):
        tr = Trace(["k"], ["k"], merge_effort="lazy")
        for t in range(1, 6):
            tr.seal(updates(spark, [(t, 1)]), upper=t + 1)
        assert len(tr.batches) == 5
        assert tr.merge_count == 0

    def test_merge_preserves_content(self, spark):
        tr = Trace(["k"], ["k"], merge_effort="eager")
        for t in range(1, 6):
            tr.seal(updates(spark, [(t, 1), (t - 1, -1)]), upper=t + 1)
        assert read_dict(tr.read_at(5)) == {0: -1, 5: 1}

    def test_unknown_effort_rejected(self):
        with pytest.raises(ValueError):
            Trace(["k"], ["k"], merge_effort="sometimes")

    def test_bad_key_rejected(self):
        with pytest.raises(ValueError):
            Trace(["k"], ["nope"])


class TestFold:
    """A seal folds the batches due for a merge into its one materialization."""

    def test_fold_seals_once_and_keeps_the_round_delta(self, spark, monkeypatch):
        calls = []
        plain = trace_module.materialize

        def counted(*args):
            calls.append(args)
            return plain(*args)

        monkeypatch.setattr(trace_module, "materialize", counted)
        arr = Arrangement("a", ["k"], ["k"], merge_effort="eager")
        arr.ingest(1, updates(spark, [(1, 1), (2, 1)]))
        arr.ingest(2, updates(spark, [(3, 1)]))
        # round 3 folds the batch that inserted 1 and retracts it
        delta = arr.ingest(3, updates(spark, [(1, -1)]))
        assert read_dict(delta) == {1: -1}
        assert read_dict(arr.trace.read_at(3)) == {2: 1, 3: 1}
        assert len(arr.trace.batches) == 1 and arr.trace.merge_count == 2
        assert len(calls) == 3
        # updates that cancel give no delta, though the fold keeps a batch
        assert arr.ingest(4, updates(spark, [(5, 1), (5, -1)])) is None
        assert arr.delta(4) is None
        assert [(b.lower, b.upper, b.rows) for b in arr.trace.batches] == [(0, 5, 4)]
        assert read_dict(arr.trace.read_at(4)) == {2: 1, 3: 1}
        assert len(calls) == 4

    def test_default_folds_one_seal_later(self, spark):
        tr = Trace(["k"], ["k"], merge_effort="default")
        tr.seal(updates(spark, [(1, 1)]), upper=2)
        tr.seal(updates(spark, [(2, 1)]), upper=3)
        # two equal batches are due, and fold into the next seal
        assert [b.rows for b in tr.batches] == [1, 1] and tr.merge_count == 0
        batch = tr.seal(updates(spark, [(3, 1)]), upper=4)
        assert [(b.lower, b.upper, b.rows) for b in tr.batches] == [(0, 4, 3)]
        assert batch is tr.batches[0] and tr.merge_count == 1

    def test_broken_intervals_raise(self, spark):
        tr = Trace(["k"], ["k"], merge_effort="lazy")
        tr.seal(updates(spark, [(1, 1)]), upper=2)
        tr.batches[0].upper = 5  # now overlaps the next seal's [2, 3)
        with pytest.raises(BatchIntervalsBroken):
            tr.seal(updates(spark, [(2, 1)]), upper=3)


class TestCompaction:
    def test_compaction_coalesces_and_preserves(self, spark):
        tr = Trace(["k"], ["k"], merge_effort="eager")
        tr.seal(updates(spark, [(1, 1)]), upper=2)
        tr.seal(updates(spark, [(1, 1)]), upper=3)
        tr.advance_compaction_frontier(3)
        tr.seal(updates(spark, [(2, 1)]), upper=4)
        # all history coalesced to a single time >= 3
        times = {r[T_COL] for r in tr.updates().collect()}
        assert times == {3}
        assert read_dict(tr.read_at(3)) == {1: 2, 2: 1}

    def test_read_below_frontier_rejected(self, spark):
        tr = Trace(["k"], ["k"])
        tr.seal(updates(spark, [(1, 1)]), upper=2)
        tr.advance_compaction_frontier(3)
        with pytest.raises(ValueError):
            tr.read_at(2)

    def test_compacted_cancellation_drops_rows(self, spark):
        tr = Trace(["k"], ["k"], merge_effort="eager")
        tr.seal(updates(spark, [(1, 1)]), upper=2)
        tr.advance_compaction_frontier(5)
        tr.seal(updates(spark, [(1, -1)]), upper=6)
        assert tr.total_rows() == 0

    def test_accounting(self, spark):
        tr = Trace(["k"], ["k"], merge_effort="lazy")
        tr.seal(updates(spark, [(1, 1), (2, 1)]), upper=2)
        assert tr.total_rows() == 2
        assert tr.estimated_bytes() > 0


def shard_of_key(df):
    """``{key: partition index}``, failing if a key spans two partitions."""
    placed = df.rdd.mapPartitionsWithIndex(lambda i, rows: [(r["k"], i) for r in rows])
    shards = {}
    for k, i in placed.distinct().collect():
        assert shards.setdefault(k, i) == i, f"key {k} in partitions {shards[k]} and {i}"
    return shards


class TestMaterialization:
    """Sealing is one exchange plus one checkpoint job that also counts rows."""

    def test_seal_starts_at_most_two_jobs(self, spark, spark_jobs):
        tr = Trace(["k"], ["k"])
        ups = updates(spark, [(k, 1) for k in range(50)])
        batch, jobs = spark_jobs(lambda: tr.seal(ups, upper=2))
        assert batch is not None and batch.rows == 50
        assert jobs <= 2

    def test_observed_rows_equal_count(self, spark):
        tr = Trace(["k"], ["k"], merge_effort="eager")
        for t in range(1, 4):
            batch = tr.seal(updates(spark, [(k, 1) for k in range(t * 10)]), upper=t + 1)
            assert batch.rows == batch.df.count()
        # the merged batch's rows come from the same observed count
        assert [b.rows for b in tr.batches] == [tr.batches[0].df.count()] == [60]

    def test_shards_match_repartition_by_key(self, spark):
        tr = Trace(["k", "v"], ["k"])
        pdf = pd.DataFrame({"k": [k % 40 for k in range(200)], "v": range(200)})
        pdf[DIFF_COL] = 1
        batch = tr.seal(spark.createDataFrame(pdf), upper=2)
        assert batch.df.rdd.getNumPartitions() == N_SHARDS
        keys = spark.createDataFrame(pd.DataFrame({"k": range(40)}))
        assert shard_of_key(batch.df) == shard_of_key(keys.repartition(N_SHARDS, "k"))

    def test_empty_key_consolidates_into_one_shard(self, spark):
        tr = Trace(["k"], [])
        batch = tr.seal(updates(spark, [(1, 1), (2, 1), (2, 1), (3, 1)]), upper=2)
        assert batch.df.rdd.getNumPartitions() == 1
        assert batch.rows == 3
        assert read_dict(tr.read_at(1)) == {1: 1, 2: 2, 3: 1}
