"""Collection traces: append-only lists of immutable, indexed update batches.

A *collection trace* (§4.1) is the multiversioned index behind an
arrangement: the set of update triples ``(data, time, diff)`` that define the
collection at any time ``t`` as the accumulation of the ``(data, diff)`` with
``time <= t``.

Here a trace is a list of :class:`Batch` objects.  Each batch wraps an
immutable, cached Spark DataFrame whose rows are update triples with times
beyond the batch's ``lower`` frontier and not beyond its ``upper`` frontier;
consecutive batches tile logical time.  The Spark engine's fast path uses
totally ordered integer rounds (1-d lattice times); the general
partial-order math lives in :mod:`repro.core.lattice` and is exercised by the
pure-Python reference trace in :mod:`repro.core.pytrace`.

Maintenance follows §4.2:

* **Amortized merging** — batches are merged size-tiered (a merge fires when
  the newest batch in a tier has grown to a constant fraction of its
  neighbour), so the trace holds logarithmically many batches and no single
  insert triggers work more than proportional to a merge step.  The
  ``merge_effort`` knob reproduces the eager/default/lazy study of Fig. 7e.
* **Consolidation** — when the trace's compaction frontier advances (because
  every reader advanced its handle), merges map each update time ``t`` to
  its Appendix-A representative ``rep_F(t)``; updates at indistinguishable
  times coalesce and cancelled updates vanish.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import pandas as pd
from pyspark.sql import DataFrame, Observation, functions as F

#: reserved metadata column names: every frame between operators is
#: ``data… + DIFF_COL``; only trace batches carry ``T_COL``, stamped by
#: :meth:`Trace.seal`.
T_COL = "__t"
DIFF_COL = "__diff"

#: number of hash shards each arrangement is partitioned into (the analogue
#: of the paper's per-worker shards; local[*] executes them in parallel).
N_SHARDS = 8

#: rough per-cell byte estimate used by the fallback memory meter.
_EST_BYTES_PER_CELL = 16


def materialize(df: DataFrame) -> Tuple[DataFrame, int]:
    """Materialize a DataFrame into executor memory, truncate its plan, count it.

    ``localCheckpoint(eager=True)`` both caches the rows and replaces the
    logical plan with a scan of the checkpointed blocks.  Plain
    ``persist()+count()`` is not enough for an incremental engine: every round
    embeds the previous rounds' plans by value, so Catalyst analysis time
    grows without bound even though execution hits the cache.  Blocks are
    reclaimed by the ContextCleaner once the DataFrame is unreachable, or at
    once by :func:`release`.

    The row count is observed inside the checkpoint job itself (an
    ``Observation`` is single-use, hence a fresh one per call) instead of by a
    trailing ``.count()``: in local mode every Spark job costs a fixed
    overhead that, not the row work, sets a round's latency floor.  Returns
    ``(materialized frame, rows)``.
    """
    obs = Observation()
    out = df.observe(obs, F.count(F.lit(1)).alias("rows")).localCheckpoint(eager=True)
    return out, obs.get["rows"]


def release(df: DataFrame) -> None:
    """Free the blocks of a frame :func:`materialize` returned, now.

    Left to Spark, the ContextCleaner frees them only after Python and then
    the JVM have collected every plan that reaches them, so a reading of the
    block manager taken before that still counts them.  A plan that still
    reads them fails with Spark's ``CHECKPOINT_RDD_BLOCK_ID_NOT_FOUND``.
    """
    df._jdf.queryExecution().logical().rdd().unpersist(True)  # noqa: SLF001


def consolidate(df: DataFrame, group_cols: Sequence[str], key_cols: Sequence[str]) -> DataFrame:
    """Sum ``DIFF_COL`` per ``group_cols`` and drop zero sums, hash-sharded
    by ``key_cols`` (a lazy plan; callers materialize it).

    This is the engine's one consolidation of multiplicities: trace seals
    and merges, reads and reductions all use it.  Sharding *before*
    grouping costs one exchange: hash partitioning on ``key_cols ⊆
    group_cols`` already clusters every group, so Spark adds no second
    exchange — nor does a later aggregation grouped by ``key_cols`` — and
    shard placement is exactly that of ``repartition(N_SHARDS,
    *key_cols)``.  An empty key goes to a single shard, since
    ``repartition(N)`` without columns is round-robin.
    """
    shards = N_SHARDS if key_cols else 1
    return (
        df.repartition(shards, *[F.col(c) for c in key_cols])
        .groupBy(*group_cols)
        .agg(F.sum(DIFF_COL).alias(DIFF_COL))
        .filter(F.col(DIFF_COL) != 0)
    )


def consolidate_pdf(pdf: pd.DataFrame, cols: Sequence[str]) -> pd.DataFrame:
    """:func:`consolidate` on the driver: sum ``DIFF_COL`` per ``cols``, drop zeros."""
    out = pdf.groupby(list(cols), dropna=False, sort=False)[DIFF_COL].sum().reset_index()
    return out[out[DIFF_COL] != 0].reset_index(drop=True)


def union_all(frames: Sequence[DataFrame]) -> Optional[DataFrame]:
    """``unionByName`` of ``frames`` (None if there are none; a lazy plan)."""
    return functools.reduce(DataFrame.unionByName, frames) if frames else None


@dataclass
class Batch:
    """One immutable, indexed batch of update triples.

    ``df`` is hash-partitioned by the trace's key columns and cached; it is
    never mutated after construction (merges build *new* batches).
    """

    df: DataFrame
    lower: int
    upper: int
    rows: int

    def estimated_bytes(self) -> int:
        """Fallback size estimate: rows x columns x constant."""
        return self.rows * len(self.df.columns) * _EST_BYTES_PER_CELL


class Trace:
    """A shard-partitioned, multiversioned index over update triples.

    One ``Trace`` per arrangement; batches are appended by the arrange
    operator as the input frontier advances and merged/compacted in the
    background of each insert.
    """

    def __init__(
        self,
        data_cols: Sequence[str],
        key_cols: Sequence[str],
        merge_effort: str = "default",
    ) -> None:
        if not set(key_cols) <= set(data_cols):
            raise ValueError(f"key {key_cols} not a subset of data {data_cols}")
        self.data_cols = list(data_cols)
        self.key_cols = list(key_cols)
        if merge_effort not in ("eager", "default", "lazy"):
            raise ValueError(f"unknown merge_effort {merge_effort!r}")
        self.merge_effort = merge_effort
        self.batches: List[Batch] = []
        #: compaction frontier: the meet of all reader-handle frontiers.
        #: Times before it are indistinguishable to every reader and may be
        #: coalesced to ``rep_F(t) = max(t, frontier)`` (1-d lattice).
        self.compaction_frontier: int = 0
        #: upper frontier of the trace: all updates at times < upper sealed.
        self.upper: int = 0
        self.merge_count: int = 0

    # -- writing -----------------------------------------------------------

    def seal(self, updates: Optional[DataFrame], upper: int) -> Optional[Batch]:
        """Seal the updates for times in ``[self.upper, upper)`` as a batch.

        ``updates`` are ``data_cols + DIFF_COL`` rows; the batch stamps them
        ``T_COL = upper - 1``, the interval's one distinguishable time (every
        caller seals one round, or, creating a trace at round ``r``, all of
        ``[0, r + 1)`` at ``r``).  ``None`` means the interval is empty (the
        trace still advances its upper frontier, exactly like an empty batch
        in the paper).  Returns the new batch.
        """
        if upper <= self.upper:
            raise ValueError(f"trace upper {self.upper} cannot regress to {upper}")
        lower, self.upper = self.upper, upper
        if updates is None:
            return None
        stamped = updates.select(*self.data_cols, F.lit(upper - 1).alias(T_COL), DIFF_COL)
        df, rows = self._consolidate(stamped)
        if rows == 0:
            return None
        batch = Batch(df=df, lower=lower, upper=upper, rows=rows)
        self.batches.append(batch)
        self._maintain()
        return batch

    def _maintain(self) -> None:
        """Size-tiered amortized merging (Fig. 7e's eager/default/lazy knob).

        * ``eager``  — collapse everything into one batch after each insert
          (least total batches, spiky latency).
        * ``default``— merge the two newest batches while the newer has at
          least half the rows of the older; keeps O(log n) batches with
          bounded per-insert work, like the paper's default.
        * ``lazy``   — only merge when the trace exceeds 32 batches (fast
          inserts, slower reads / fatter tails under contention).
        """
        if self.merge_effort == "eager":
            while len(self.batches) > 1:
                self._merge_last_two()
        elif self.merge_effort == "default":
            while (
                len(self.batches) > 1
                and self.batches[-1].rows * 2 >= self.batches[-2].rows
            ):
                self._merge_last_two()
        else:  # lazy
            while len(self.batches) > 32:
                self._merge_last_two()

    def _merge_last_two(self) -> None:
        a = self.batches.pop()
        b = self.batches.pop()
        lower, upper = min(a.lower, b.lower), max(a.upper, b.upper)
        merged, rows = self._consolidate(a.df.unionByName(b.df))
        self.merge_count += 1
        if rows:
            self.batches.append(Batch(df=merged, lower=lower, upper=upper, rows=rows))
        else:
            # Record the (now empty) interval by widening the neighbour's
            # bookkeeping: an empty batch need not be stored at all.
            if self.batches:
                self.batches[-1].upper = max(self.batches[-1].upper, upper)

    def _consolidate(self, df: DataFrame) -> Tuple[DataFrame, int]:
        """Coalesce updates at times indistinguishable as of the frontier.

        For the 1-d integer lattice and single-element frontier ``{f}``,
        Appendix A's ``rep_F(t) = glb_f lub(t, f)`` is simply ``max(t, f)``;
        mapping times through it and re-summing diffs is exactly the paper's
        consolidation step, and cancelled updates (net diff 0) are dropped.
        """
        f = self.compaction_frontier
        adj = df.withColumn(T_COL, F.greatest(F.col(T_COL), F.lit(f)))
        return materialize(consolidate(adj, self.data_cols + [T_COL], self.key_cols))

    def advance_compaction_frontier(self, frontier: int) -> None:
        """Called by the arrangement when *every* reader is beyond ``frontier``.

        Takes effect during subsequent merges; it never rewrites batches in
        place (they are immutable and possibly shared with readers).
        """
        self.compaction_frontier = max(self.compaction_frontier, frontier)

    # -- reading -----------------------------------------------------------

    def updates(self) -> Optional[DataFrame]:
        """Union of all batches (the full update history, maybe compacted)."""
        return union_all([b.df for b in self.batches])

    def accumulated(self, t: int) -> Optional[DataFrame]:
        """The collection at time ``t`` as the union of the batches:
        ``data_cols + DIFF_COL`` rows, *not* consolidated.

        A record may sit in several batches, negated in some; its rows sum
        to its multiplicity.  Bilinear operators such as join read this
        directly, others consolidate what they read (§4.2).  ``T_COL <= t``
        is filtered only for ``t`` below the newest sealed round.  Only
        correct for ``t`` beyond the compaction frontier (§4.3).
        """
        if t < self.compaction_frontier:
            raise ValueError(
                f"read at {t} below compaction frontier {self.compaction_frontier}"
            )
        ups = self.updates()
        if ups is None:
            return None
        if t < self.upper - 1:
            ups = ups.filter(F.col(T_COL) <= t)
        return ups.select(*self.data_cols, DIFF_COL)

    def read_at(self, t: int) -> Optional[DataFrame]:
        """The collection accumulated to time ``t``, consolidated:
        ``data_cols + DIFF_COL`` with one row per record and no zeros."""
        acc = self.accumulated(t)
        return None if acc is None else consolidate(acc, self.data_cols, self.key_cols)

    # -- accounting --------------------------------------------------------

    def estimated_bytes(self) -> int:
        return sum(b.estimated_bytes() for b in self.batches)

    def total_rows(self) -> int:
        return sum(b.rows for b in self.batches)
