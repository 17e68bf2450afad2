"""Collection traces: append-only lists of immutable, indexed update batches.

A *collection trace* (§4.1) is the multiversioned index behind an
arrangement: the set of update triples ``(data, time, diff)`` that define the
collection at any time ``t`` as the accumulation of the ``(data, diff)`` with
``time <= t``.

Here a trace is a list of :class:`Batch` objects.  Each batch wraps an
immutable, cached Spark DataFrame whose rows are update triples with times
beyond the batch's ``lower`` frontier and not beyond its ``upper`` frontier;
the batches' intervals are ordered and disjoint (:class:`BatchIntervalsBroken`
otherwise).  The Spark engine's fast path uses
totally ordered integer rounds (1-d lattice times); the general
partial-order math lives in :mod:`repro.core.lattice` and is exercised by the
pure-Python reference trace in :mod:`repro.core.pytrace`.

Maintenance follows §4.2:

* **Amortized merging** — batches are merged size-tiered, so the trace holds
  logarithmically many batches and no single insert triggers work more than
  proportional to a merge step.  A merge costs no materialization of its
  own: :meth:`Trace.seal` folds the batches that are due into the round's
  new batch and materializes the two together once, so every seal is one
  Spark job whether or not it merges.  A batch is due by the size-tier rule
  applied to the batches as they stand before the seal, so a merge happens
  one seal later than it would right after an append.  The
  ``merge_effort`` knob reproduces the eager/default/lazy study of Fig. 7e:
  ``eager`` folds every batch into each seal, ``default`` the newest run of
  batches that has grown to half of its neighbour, ``lazy`` only the
  batches beyond 32.
* **Consolidation** — when the trace's compaction frontier advances (because
  every reader advanced its handle), a fold maps each folded update time
  ``t`` to its Appendix-A representative ``rep_F(t)``; updates at
  indistinguishable times coalesce and cancelled updates vanish.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import pandas as pd
from pyspark.sql import Column, DataFrame, Observation, functions as F

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


def materialize(df: DataFrame, *where: Column) -> Tuple[DataFrame, ...]:
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
    ``(materialized frame, rows)``, followed by the rows that satisfy each
    condition in ``where``, counted by the same observation.
    """
    obs = Observation()
    counts = [F.count(F.lit(1)).alias("rows")] + [
        F.count(F.when(c, 1)).alias(f"where{i}") for i, c in enumerate(where)
    ]
    out = df.observe(obs, *counts).localCheckpoint(eager=True)
    got = obs.get
    return (out, got["rows"], *(got[f"where{i}"] for i in range(len(where))))


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

    This is the engine's one consolidation of multiplicities: trace seals,
    reads and reductions all use it.  Sharding *before*
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


class BatchIntervalsBroken(AssertionError):
    """A trace's batch intervals are not ordered, disjoint and inside
    ``[0, upper)``."""


@dataclass
class Batch:
    """One immutable, indexed batch of update triples.

    ``df`` is hash-partitioned by the trace's key columns and cached; it is
    never mutated after construction (a fold builds a *new* batch).
    ``rows`` counts all of its rows, folded ones included.
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

    One ``Trace`` per arrangement; batches are sealed by the arrange
    operator as the input frontier advances, and each seal folds in the
    batches due for a merge.
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
        #: seals that folded older batches in (each one merge)
        self.merge_count: int = 0

    # -- writing -----------------------------------------------------------

    def seal(self, updates: Optional[DataFrame], upper: int) -> Optional[Batch]:
        """Seal the updates for times in ``[self.upper, upper)`` as a batch.

        ``updates`` are ``data_cols + DIFF_COL`` rows; the batch stamps them
        ``T_COL = upper - 1``, the interval's one distinguishable time (every
        caller seals one round, or, creating a trace at round ``r``, all of
        ``[0, r + 1)`` at ``r``).  ``None`` means the interval is empty (the
        trace still advances its upper frontier, exactly like an empty batch
        in the paper).

        The batches due for a merge (:meth:`_due`) are consolidated together
        with the stamped updates and the result is materialized once, as the
        one batch that replaces them.  Folded times map to ``rep_F(t) =
        max(t, frontier)``; the new rows sit at ``upper - 1``, which in a
        dataflow is above the frontier (readers trail the newest round), so
        they never coalesce with folded ones.  Returns the new batch, or
        None if the stamped updates cancelled out, even when the fold kept
        a batch.
        """
        if upper <= self.upper:
            raise ValueError(f"trace upper {self.upper} cannot regress to {upper}")
        lower, self.upper = self.upper, upper
        if updates is None:
            return None
        t = upper - 1
        frame = updates.select(*self.data_cols, F.lit(t).alias(T_COL), DIFF_COL)
        kept = len(self.batches) - self._due()
        due = self.batches[kept:]
        if due:
            # rep_F on the folded batches only: on the whole union the
            # optimizer copies it into every child, stamped rows included
            f = F.lit(self.compaction_frontier)
            folded = union_all([b.df for b in due]).withColumn(T_COL, F.greatest(T_COL, f))
            frame = folded.unionByName(frame)
            lower = due[0].lower
        merged = consolidate(frame, self.data_cols + [T_COL], self.key_cols)
        df, rows, new_rows = materialize(merged, F.col(T_COL) == t)
        if due:
            del self.batches[kept:]
            self.merge_count += 1
        if rows:
            self.batches.append(Batch(df=df, lower=lower, upper=upper, rows=rows))
        self._check_intervals()
        return self.batches[-1] if new_rows else None

    def _due(self) -> int:
        """How many of the newest batches the next seal folds in (Fig. 7e).

        * ``eager``  — all of them: the trace is one batch (least batches,
          every seal re-writes the whole trace).
        * ``default``— the newest run whose summed rows reach half of the
          batch before it, grown while they do; keeps O(log n) batches with
          amortized per-seal work, like the paper's default.
        * ``lazy``   — only the batches beyond 32 (cheap seals, slower
          reads).
        """
        n = len(self.batches)
        if self.merge_effort == "eager":
            return n
        if self.merge_effort == "lazy":
            return max(0, n - 32)
        i, rows = n - 1, self.batches[-1].rows if n else 0
        while i > 0 and rows * 2 >= self.batches[i - 1].rows:
            i -= 1
            rows += self.batches[i].rows
        return n - i if i < n - 1 else 0

    def _check_intervals(self) -> None:
        edges = [0, *(e for b in self.batches for e in (b.lower, b.upper)), self.upper]
        if any(a > b for a, b in zip(edges, edges[1:])):
            raise BatchIntervalsBroken(
                f"batch intervals {[(b.lower, b.upper) for b in self.batches]} "
                f"are not ordered, disjoint and inside [0, {self.upper})"
            )

    def advance_compaction_frontier(self, frontier: int) -> None:
        """Called by the arrangement when *every* reader is beyond ``frontier``.

        Takes effect in subsequent folds; it never rewrites batches in
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
