"""The arrange operator: maintained, shareable, multiversioned indexed state.

An :class:`Arrangement` *is* its collection :class:`~repro.core.trace.Trace`:
a few immutable batches of update triples, each hash-partitioned by the
arrangement key — the paper's LSM layers (§4.1–4.2).  Each round the
operator seals that round's updates as one batch, folding in the batches
due for an amortized merge, so it materializes once a round and keeps the
batch count logarithmic; the round's delta is the new rows of that batch.
Operators read the arrangement as the union of its batches
(:meth:`Arrangement.snapshot`), which is not consolidated: joins are
bilinear and distribute over it, and reductions consolidate only the keys
they recompute.  So per-round work and memory track the batch, not the
accumulated state, and each piece of state is kept once.

Its ``readers`` are the trace handles of §4.3: each
:class:`~repro.core.store.ArrangementReader` carries a frontier, and the
arrangement only compacts distinctions no reader still needs.  Every
arrangement — of an input, of a derived collection, or of a reduce's output
— is built the same way: an :class:`~repro.core.store.ArrangeNode` in the
dataflow's :class:`~repro.core.store.ArrangementStore`, which releases it
when its last reader retires.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from pyspark.sql import DataFrame, functions as F

# ``materialize`` stays bound here: the benchmark's tracer patches it by name.
from repro.core.trace import DIFF_COL, T_COL, Trace, materialize  # noqa: F401

if TYPE_CHECKING:
    from repro.core.store import ArrangementReader


class DeltaNotKept(LookupError):
    """A delta was asked for a round other than the newest sealed one."""


class Arrangement:
    """Single-writer, multiple-reader maintained index over a collection.

    The owner (an arrangement node in a dataflow) calls :meth:`ingest` once
    per logical round with that round's updates; its ``readers`` read
    :meth:`snapshot` and the newest round's :meth:`delta`.
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
        self.readers: List["ArrangementReader"] = []
        #: the newest sealed round and its delta as ``data_cols + __diff``
        #: (None if it was empty), which :meth:`delta` returns: filtered
        #: from the sealed batch once per round, not once per read
        self.newest: Tuple[int, Optional[DataFrame]] = (-1, None)

    # -- writer API ---------------------------------------------------------

    def ingest(self, round_: int, updates: Optional[DataFrame]) -> Optional[DataFrame]:
        """Seal ``updates`` (``data_cols + __diff``) as the batch that
        advances the arrangement to ``round_``, stamped ``round_``.

        Returns the round's delta, the rows of the sealed batch stamped
        ``round_`` (None if the updates cancelled out).  Sealing materializes
        the delta, cutting its lineage to the upstream state it lazily
        references; the batch's other rows are the ones the seal folded in.
        """
        if round_ <= self.current_time:
            raise ValueError(f"arrangement {self.name} already ingested round {round_}")
        batch = self.trace.seal(updates, upper=round_ + 1)
        delta = None if batch is None else (
            batch.df.filter(F.col(T_COL) == round_).select(*self.data_cols, DIFF_COL)
        )
        self.newest = (round_, delta)
        return delta

    # -- reader API ---------------------------------------------------------

    def snapshot(self, round_: int) -> Optional[DataFrame]:
        """The collection at ``round_`` as the union of the trace batches
        (``data_cols + __diff``, not consolidated; see
        :meth:`~repro.core.trace.Trace.accumulated`).  A lazy plan: reading
        starts no Spark job."""
        return self.trace.accumulated(round_)

    def delta(self, round_: int) -> Optional[DataFrame]:
        """The updates ingested at ``round_``, the newest round, as
        ``data_cols + __diff`` (None if empty); older rounds are folded into
        the trace."""
        newest, delta = self.newest
        if round_ != newest:
            raise DeltaNotKept(
                f"arrangement {self.name} keeps the delta of round {newest}, not {round_}"
            )
        return delta

    @property
    def current_time(self) -> int:
        """The newest round ingested (-1 before the first)."""
        return self.trace.upper - 1

    # -- readers ------------------------------------------------------------

    def compact(self) -> None:
        """Let the trace compact up to the least frontier of its readers."""
        if self.readers:
            self.trace.advance_compaction_frontier(min(r.frontier for r in self.readers))

    def reader_count(self) -> int:
        return len(self.readers)

    def estimated_bytes(self) -> int:
        return self.trace.estimated_bytes()
