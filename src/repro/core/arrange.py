"""The arrange operator: maintained, shareable, multiversioned indexed state.

An :class:`Arrangement` *is* its collection :class:`~repro.core.trace.Trace`:
a few immutable batches of update triples, each hash-partitioned by the
arrangement key — the paper's LSM layers (§4.1–4.2).  Each round the
operator seals that round's updates as one batch; amortized merges keep the
batch count logarithmic.  Operators read the arrangement as the union of its
batches (:meth:`Arrangement.snapshot`), which is not consolidated: joins are
bilinear and distribute over it, and reductions consolidate only the keys
they recompute.  So per-round work and memory track the batch, not the
accumulated state, and each piece of state is kept once.

Readers access an arrangement through :class:`TraceHandle` (§4.3): each
handle carries a frontier, and the arrangement only compacts distinctions no
handle still needs.  Every arrangement — of an input, of a derived
collection, or of a reduce's output — is built the same way: an
:class:`~repro.core.store.ArrangeNode` in the dataflow's
:class:`~repro.core.store.ArrangementStore`.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from pyspark.sql import DataFrame

# ``materialize`` stays bound here: the benchmark's tracer patches it by name.
from repro.core.trace import Trace, materialize  # noqa: F401


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

    _snap_df = None  # no snapshot beside the trace; the benchmark's tracer reads this

    def __init__(
        self,
        name: str,
        data_cols: Sequence[str],
        key_cols: Sequence[str],
        merge_effort: str = "default",
    ) -> None:
        self.name = name
        self.data_cols = list(data_cols)
        self.key_cols = list(key_cols)
        self.trace = Trace(data_cols, key_cols, merge_effort=merge_effort)
        self.handles: List[TraceHandle] = []
        self._deltas: Dict[int, Optional[DataFrame]] = {}
        self.destroyed = False

    # -- writer API ---------------------------------------------------------

    def ingest(self, round_: int, updates: Optional[DataFrame]) -> Optional[DataFrame]:
        """Seal ``updates`` (times up to ``round_``) as the batch that
        advances the arrangement to ``round_``.

        Returns the sealed (cached, materialized) batch DataFrame, or None if
        the round was empty.  Sealing materializes the delta *before* any
        upstream cached state it lazily references is unpersisted, cutting
        the cross-round lineage chain.
        """
        if round_ <= self.current_time:
            raise ValueError(f"arrangement {self.name} already ingested round {round_}")
        batch = self.trace.seal(updates, upper=round_ + 1)
        sealed = batch.df if batch is not None else None
        self._deltas[round_] = sealed
        for r in [r for r in self._deltas if r < round_ - 1]:
            del self._deltas[r]
        return sealed

    # -- reader API ---------------------------------------------------------

    def new_handle(self) -> TraceHandle:
        h = TraceHandle(self)
        self.handles.append(h)
        return h

    def snapshot(self, round_: int) -> Optional[DataFrame]:
        """The collection at ``round_`` as the union of the trace batches
        (``data_cols + __mult``, not consolidated; see
        :meth:`~repro.core.trace.Trace.accumulated`).  A lazy plan: reading
        starts no Spark job."""
        return self.trace.accumulated(round_)

    def delta(self, round_: int) -> Optional[DataFrame]:
        """The updates ingested at exactly ``round_`` (None if empty)."""
        if round_ in self._deltas:
            return self._deltas[round_]
        return self.trace.updates_in(round_, round_ + 1)

    @property
    def current_time(self) -> int:
        """The newest round ingested (-1 before the first)."""
        return self.trace.upper - 1

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
        return self.trace.estimated_bytes()

    def destroy(self) -> None:
        """Unpersist every cached batch (private arrangements at retire)."""
        if self.destroyed:
            return
        self.destroyed = True
        self.trace.unpersist()
