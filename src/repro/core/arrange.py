"""The arrange operator: maintained, shareable, multiversioned indexed state.

An :class:`Arrangement` owns a collection :class:`~repro.core.trace.Trace`
plus the *operational index*: a cached snapshot of the collection accumulated
to the current frontier, hash-partitioned by the arrangement key.  The
snapshot corresponds to the fully merged + compacted main layer of the
paper's LSM trace — it is what arrangement-aware joins and reductions probe —
while the batch list in the trace retains (possibly compacted) historical
detail for multiversioned readers and imports.

Readers access an arrangement through :class:`TraceHandle` (§4.3): each
handle carries a frontier, the arrangement only compacts distinctions no
handle still needs, and dropping the last handle lets the owner release the
state entirely (the unshared baseline does exactly that at query retirement).
"""
from __future__ import annotations

import itertools
import time as _time
from typing import Dict, List, Optional, Sequence

from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.core.trace import DIFF_COL, MULT_COL, Trace, consolidate, materialize

_arr_ids = itertools.count()


class TraceHandle:
    """A reader's cursor into an arrangement (§4.3).

    Holds a frontier: the arrangement guarantees correct accumulated views
    for times beyond it.  Advancing the frontier (or dropping the handle)
    gives the arrange operator license to compact.
    """

    def __init__(self, arrangement: "Arrangement") -> None:
        self.arrangement = arrangement
        self.frontier: int = arrangement.trace.compaction_frontier
        self.dropped = False

    def advance(self, frontier: int) -> None:
        """Declare that this reader no longer distinguishes times < frontier."""
        if frontier < self.frontier:
            raise ValueError("trace handle frontiers may only advance")
        self.frontier = frontier
        self.arrangement._update_compaction()

    def read_at(self, t: int) -> Optional[DataFrame]:
        """Accumulated collection at ``t`` (must be beyond the handle frontier)."""
        if t < self.frontier:
            raise ValueError(f"read_at({t}) below handle frontier {self.frontier}")
        return self.arrangement.trace.read_at(t)

    def drop(self) -> None:
        """Release the handle; the arrangement may compact or be destroyed."""
        if not self.dropped:
            self.dropped = True
            self.arrangement._drop_handle(self)


class Arrangement:
    """Single-writer, multiple-reader maintained index over a collection.

    The owner (an arrangement node in a dataflow) calls :meth:`ingest` once
    per logical round with that round's update triples; readers acquire
    :class:`TraceHandle`\\ s and read :meth:`snapshot` / per-round deltas.
    """

    def __init__(
        self,
        spark: SparkSession,
        name: str,
        data_cols: Sequence[str],
        key_cols: Sequence[str],
        merge_effort: str = "default",
    ) -> None:
        self.spark = spark
        self.name = name
        self.arr_id = next(_arr_ids)
        self.data_cols = list(data_cols)
        self.key_cols = list(key_cols)
        self.trace = Trace(data_cols, key_cols, merge_effort=merge_effort)
        self.handles: List[TraceHandle] = []
        #: cached snapshot (data_cols + __mult) and the round it reflects
        self._snap_df: Optional[DataFrame] = None
        self._snap_time: int = -1
        self._deltas: Dict[int, Optional[DataFrame]] = {}
        #: wall-clock seconds spent maintaining this index (batch seal +
        #: snapshot roll); the redundant-maintenance cost the paper's Fig. 1b
        #: attributes to unshared configurations.
        self.maintenance_secs: float = 0.0
        self.destroyed = False

    # -- writer API ---------------------------------------------------------

    def ingest(self, round_: int, updates: Optional[DataFrame]) -> Optional[DataFrame]:
        """Seal ``updates`` (times == round_) as the batch for this round and
        roll the operational snapshot forward.

        Returns the sealed (cached, materialized) batch DataFrame, or None if
        the round was empty.  Sealing materializes the delta *before* any
        upstream cached state it lazily references is unpersisted, cutting
        the cross-round lineage chain.
        """
        if round_ <= self._snap_time:
            raise ValueError(f"arrangement {self.name} already ingested round {round_}")
        t0 = _time.perf_counter()
        batch = self.trace.seal(updates, upper=round_ + 1)
        if batch is not None:
            self._roll_snapshot(round_, batch.df)
        else:
            self._snap_time = round_
        sealed = batch.df if batch is not None else None
        self._deltas[round_] = sealed
        for r in [r for r in self._deltas if r < round_ - 1]:
            del self._deltas[r]
        self.maintenance_secs += _time.perf_counter() - t0
        return sealed

    def _roll_snapshot(self, round_: int, updates: DataFrame) -> None:
        as_updates = (
            self._snap_df.withColumnRenamed(MULT_COL, DIFF_COL)
            if self._snap_df is not None
            else None
        )
        delta = updates.select(*self.data_cols, F.col(DIFF_COL))
        merged = as_updates.unionByName(delta) if as_updates is not None else delta
        new_snap, self.snapshot_rows = materialize(
            consolidate(merged, self.data_cols, self.key_cols, MULT_COL)
        )
        if self._snap_df is not None:
            self._snap_df.unpersist(blocking=False)
        self._snap_df, self._snap_time = new_snap, round_

    # -- reader API ---------------------------------------------------------

    def new_handle(self) -> TraceHandle:
        h = TraceHandle(self)
        self.handles.append(h)
        return h

    def snapshot(self, round_: int) -> Optional[DataFrame]:
        """The collection accumulated to ``round_`` (data_cols + __mult).

        Fast path when ``round_`` equals the current snapshot time (the common
        case in synchronous rounds); otherwise a multiversioned read through
        the trace.
        """
        if round_ == self._snap_time:
            return self._snap_df
        return self.trace.read_at(round_)

    def delta(self, round_: int) -> Optional[DataFrame]:
        """The updates ingested at exactly ``round_`` (None if empty)."""
        if round_ in self._deltas:
            return self._deltas[round_]
        return self.trace.updates_in(round_, round_ + 1)

    @property
    def current_time(self) -> int:
        return self._snap_time

    def has_state(self) -> bool:
        """Whether the arrangement holds any accumulated records."""
        return self._snap_df is not None and self.snapshot_rows > 0

    # -- lifecycle ----------------------------------------------------------

    def _update_compaction(self) -> None:
        live = [h.frontier for h in self.handles if not h.dropped]
        if live:
            self.trace.advance_compaction_frontier(min(live))

    def _drop_handle(self, handle: TraceHandle) -> None:
        self.handles = [h for h in self.handles if h is not handle]
        self._update_compaction()

    def reader_count(self) -> int:
        return len([h for h in self.handles if not h.dropped])

    def estimated_bytes(self) -> int:
        snap = (
            getattr(self, "snapshot_rows", 0) * len(self.data_cols) * 16
            if self._snap_df is not None
            else 0
        )
        return self.trace.estimated_bytes() + snap

    def destroy(self) -> None:
        """Unpersist every cached structure (private arrangements at retire)."""
        if self.destroyed:
            return
        self.destroyed = True
        self.trace.unpersist()
        if self._snap_df is not None:
            self._snap_df.unpersist(blocking=False)
            self._snap_df = None
