"""The sharing registry: every arrangement of a dataflow, built one way.

:class:`ArrangeNode` is the dataflow-facing arrange operator: each round it
seals its source stream's delta into the wrapped
:class:`~repro.core.arrange.Arrangement`.  Arrangements of inputs, of derived
(mid-query) collections and of reduce outputs are all such nodes, created,
advanced every round and released the same way.
:class:`ArrangementReader` is the per-query import of an arrangement and its
trace handle (§4.3's ``import``), and a
:class:`~repro.core.collection.Reader`: a stream whose memoized deltas are,
on its first pull, its view at that round — the union of the arrangement's
batches, so a freshly installed query immediately reflects all prior events,
with no consolidation or data movement — and the newest sealed batch
afterwards, advancing its frontier so the arrangement may compact what no
reader distinguishes.  Its ``snap`` is the arrangement's trace as of a
round, and empty before the import round.

A node created at round ``r`` starts empty and its first ``advance(r)``
seals everything its source has up to ``r``: a derived collection's delta at
its install round is already the import of the arrangements it reads, and an
input arrangement is sealed from the input's live rows at the creation round
(no reader imports earlier), because only the input keeps its past.

:class:`ArrangementStore` decides whether input arrangements are shared:

* ``shared=True`` — one arrangement per ``(input, key)``; later queries attach
  via a new reader with **no data movement** (the paper's system).
* ``shared=False`` — every request builds a *private* arrangement by
  re-indexing the input's consolidated log (shuffle + cache), and each
  private copy is redundantly maintained every round.  This is the "not
  shared" baseline of Fig. 1, representative of stream processors whose
  operator state is private.

Arrangements of derived collections and reduce outputs are always private to
their query.  In both modes an arrangement is released when its last reader
retires (§4.3): a workload that wants one to outlive its queries keeps a
reader on it, and a later request for a released ``(input, key)`` re-indexes
the input's log like any new arrangement.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from pyspark.sql import DataFrame

from repro.core.arrange import Arrangement
from repro.core.collection import InputStream, Reader, Stream
from repro.core.trace import release


class ArrangeNode:
    """The arrange operator as a dataflow node (single writer of its trace)."""

    def __init__(
        self,
        source: Stream,
        key_cols: Sequence[str],
        name: str,
        merge_effort: str = "default",
    ) -> None:
        self.source = source
        self.arrangement = Arrangement(
            name, source.data_cols, key_cols, merge_effort=merge_effort
        )

    def advance(self, round_: int) -> Optional[DataFrame]:
        """Ingest the source's round-``round_`` delta (idempotent per round)."""
        if self.arrangement.current_time < round_:
            self.arrangement.ingest(round_, self.source.delta(round_))
        return self.arrangement.delta(round_)

    def destroy(self) -> None:
        """Free the arrangement's batches (its newest delta, which no round
        may read after this, is a view of the last) and drop the references
        to them."""
        trace = self.arrangement.trace
        for b in trace.batches:
            release(b.df)
        trace.batches.clear()
        self.arrangement.newest = (-1, None)


class ArrangementReader(Reader):
    """One query's view of an arrangement: its import node and trace handle.

    Its first delta is the §4.3 import; ``import_round`` is that round, and
    its view (:meth:`snap`) is empty before it.  ``frontier`` is the
    handle's frontier (§4.3): this reader no longer distinguishes times
    before it, so the arrangement may compact them once every reader agrees.
    """

    def __init__(self, node: ArrangeNode) -> None:
        arrangement = node.arrangement
        super().__init__(arrangement.data_cols)
        self.key_cols = list(arrangement.key_cols)
        self.node = node
        self.frontier: int = arrangement.trace.compaction_frontier
        arrangement.readers.append(self)
        self.import_round: Optional[int] = None

    @property
    def _imported(self) -> bool:
        """Whether the import happened (the benchmark's tracer reads this)."""
        return self.import_round is not None

    def delta(self, round_: int) -> Optional[DataFrame]:
        # Stream's memoized delta, defined here because the benchmark's
        # tracer wraps the ``delta`` it finds in this class's namespace.
        return super().delta(round_)

    def _compute_delta(self, round_: int) -> Optional[DataFrame]:
        d = self.node.advance(round_)
        if self.import_round is None:
            # §4.3 import: the first delta a new reader sees is its view at
            # this round, the trace's batches as they are.
            self.import_round = round_
            return self.snap(round_)
        self.frontier = max(self.frontier, round_ - 1)
        self.node.arrangement.compact()
        return d

    def snap(self, round_: int) -> Optional[DataFrame]:
        if self.import_round is None or round_ < self.import_round:
            return None
        return self.node.arrangement.snapshot(round_)

    def retire(self) -> None:
        """Drop this handle; the arrangement compacts for the readers left."""
        self.node.arrangement.readers.remove(self)
        self.node.arrangement.compact()


class ArrangementStore:
    """Registry of every live arrangement; the sharing (or not) policy, and
    the one place an arrangement is released."""

    def __init__(self, shared: bool = True, merge_effort: str = "default") -> None:
        self.shared = shared
        self.merge_effort = merge_effort
        self._by_key: Dict[Tuple[str, Tuple[str, ...]], ArrangeNode] = {}
        self.nodes: List[ArrangeNode] = []

    # -- acquisition ---------------------------------------------------------

    def input_reader(
        self,
        input_stream: InputStream,
        key_cols: Sequence[str],
        round_: int,
        query: Optional[str] = None,
    ) -> ArrangementReader:
        """Arranged view of an input collection by ``key_cols``.

        Shared mode reuses (or creates) the ``(input, key)`` arrangement;
        unshared mode always builds a private copy, named after ``query``.
        A new arrangement re-indexes the input's live rows as one batch at
        ``round_``: this is the install-time cost shared arrangements avoid.
        """
        key = (input_stream.name, tuple(key_cols))
        if self.shared and key in self._by_key:
            return ArrangementReader(self._by_key[key])
        suffix = "" if self.shared else f"@{query}"
        node = self._node(
            input_stream, key_cols, f"{input_stream.name}[{','.join(key_cols)}]{suffix}"
        )
        node.arrangement.ingest(round_, input_stream.history())
        if self.shared:
            self._by_key[key] = node
        return ArrangementReader(node)

    def private_reader(
        self, source: Stream, key_cols: Sequence[str], name: str
    ) -> ArrangementReader:
        """Arranged view of a derived collection, private to its reader."""
        return ArrangementReader(self._node(source, key_cols, name))

    def _node(self, source: Stream, key_cols: Sequence[str], name: str) -> ArrangeNode:
        node = ArrangeNode(source, key_cols, name, merge_effort=self.merge_effort)
        self.nodes.append(node)
        return node

    # -- round processing / lifecycle ----------------------------------------

    def advance_all(self, round_: int) -> None:
        """Ensure every live arrangement ingested ``round_``, whether or not
        a reader pulled it this round."""
        for node in list(self.nodes):
            node.advance(round_)

    def retire(self, readers: Sequence[ArrangementReader]) -> None:
        """Retire ``readers`` and release every arrangement left without a
        reader (§4.3), shared or private alike."""
        for r in readers:
            r.retire()
        idle = [n for n in self.nodes if n.arrangement.reader_count() == 0]
        for n in idle:
            n.destroy()
        self.nodes = [n for n in self.nodes if n not in idle]
        self._by_key = {k: n for k, n in self._by_key.items() if n not in idle}

    # -- accounting ------------------------------------------------------------

    def total_bytes(self) -> int:
        return sum(n.arrangement.estimated_bytes() for n in self.nodes)

    def arrangement_count(self) -> int:
        return len(self.nodes)
