"""The sharing registry: where shared arrangements actually get shared.

:class:`ArrangeNode` is the dataflow-facing arrange operator: it pulls its
source stream once per round and feeds the wrapped
:class:`~repro.core.arrange.Arrangement`.  :class:`ArrangementReader` is the
per-query import of an arrangement (§4.3's ``import``): on its first pull it
emits the arrangement's batches themselves, stamped with the current round —
so a freshly installed query immediately reflects all prior events, with no
consolidation or data movement — and normal per-round deltas afterwards.

:class:`ArrangementStore` decides whether state is shared:

* ``shared=True`` — one arrangement per ``(input, key)``; later queries attach
  via a new trace handle with **no data movement** (the paper's system).
* ``shared=False`` — every request builds a *private* arrangement by
  re-indexing the input's accumulated history (shuffle + cache), and each
  private copy is redundantly maintained every round and destroyed at query
  retirement.  This is the "not shared" baseline of Fig. 1, representative of
  stream processors whose operator state is private.
"""
from __future__ import annotations

import time as _time
from typing import Dict, List, Optional, Sequence, Tuple

from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.core.arrange import Arrangement, TraceHandle
from repro.core.collection import InputStream, Reader, Stream
from repro.core.trace import T_COL


class ArrangeNode:
    """The arrange operator as a dataflow node (single writer of its trace)."""

    def __init__(
        self,
        spark: SparkSession,
        source: Stream,
        key_cols: Sequence[str],
        name: str,
        merge_effort: str = "default",
        bootstrap: Optional[DataFrame] = None,
        created_round: int = 0,
    ) -> None:
        self.source = source
        self.arrangement = Arrangement(
            spark, name, source.data_cols, key_cols, merge_effort=merge_effort
        )
        self.created_round = created_round
        self.owner_query: Optional[str] = None  # set for private/unshared nodes
        if bootstrap is not None:
            # Re-index accumulated history as one big initial batch: this is
            # the install-time cost shared arrangements avoid.
            self.arrangement.ingest(created_round, bootstrap)
        elif created_round > 0:
            # No history: just advance the empty arrangement to "now".
            self.arrangement.ingest(created_round, None)

    def advance(self, round_: int) -> Optional[DataFrame]:
        """Ingest the source's round-``round_`` delta (idempotent per round)."""
        if self.arrangement.current_time >= round_:
            return self.arrangement.delta(round_)
        # Catch up intermediate empty rounds if the node was not pulled.
        while self.arrangement.current_time < round_ - 1:
            self.arrangement.ingest(self.arrangement.current_time + 1, None)
        d = self.source.delta(round_)
        self.arrangement.ingest(round_, d)
        return self.arrangement.delta(round_)

    def destroy(self) -> None:
        self.arrangement.destroy()


class ArrangementReader(Reader):
    """One query's view of an arrangement (a trace handle + import node)."""

    def __init__(self, node: ArrangeNode) -> None:
        self.node = node
        self.handle: TraceHandle = node.arrangement.new_handle()
        self.data_cols = list(node.arrangement.data_cols)
        self.key_cols = list(node.arrangement.key_cols)
        self._imported = False
        self._import_memo: Tuple[int, Optional[DataFrame]] | None = None

    def delta(self, round_: int) -> Optional[DataFrame]:
        d = self.node.advance(round_)
        if not self._imported:
            # §4.3 import: the first delta a new reader sees is the trace's
            # batches up to *and including* this round, as they are.
            self._imported = True
            ups = self.node.arrangement.trace.updates()
            out = None if ups is None else ups.withColumn(T_COL, F.lit(round_))
            self._import_memo = (round_, out)
            return out
        if self._import_memo is not None and self._import_memo[0] == round_:
            return self._import_memo[1]
        self.handle.advance(max(self.handle.frontier, round_ - 1))
        return d

    def snap(self, round_: int) -> Optional[DataFrame]:
        self.node.advance(round_)
        return self.node.arrangement.snapshot(round_)

    def retire(self) -> None:
        self.handle.drop()


class ArrangementStore:
    """Registry of every live arrangement; the sharing (or not) policy."""

    def __init__(self, spark: SparkSession, shared: bool = True, merge_effort: str = "default") -> None:
        self.spark = spark
        self.shared = shared
        self.merge_effort = merge_effort
        self._by_key: Dict[Tuple[str, Tuple[str, ...]], ArrangeNode] = {}
        self.nodes: List[ArrangeNode] = []
        #: cumulative wall seconds spent building arrangements at install time
        self.install_build_secs: float = 0.0

    # -- acquisition ---------------------------------------------------------

    def input_reader(
        self,
        input_stream: InputStream,
        key_cols: Sequence[str],
        round_: int,
        query: Optional[str] = None,
    ) -> ArrangementReader:
        """Arranged view of an input collection by ``key_cols``.

        Shared mode reuses (or creates once) the ``(input, key)`` arrangement;
        unshared mode always builds a private copy from the input's history.
        """
        key = (input_stream.name, tuple(key_cols))
        if self.shared and key in self._by_key:
            return ArrangementReader(self._by_key[key])
        t0 = _time.perf_counter()
        node = ArrangeNode(
            self.spark,
            input_stream,
            key_cols,
            name=f"{input_stream.name}[{','.join(key_cols)}]"
            + ("" if self.shared else f"@{query}"),
            merge_effort=self.merge_effort,
            bootstrap=input_stream.history(),
            created_round=round_,
        )
        self.install_build_secs += _time.perf_counter() - t0
        if self.shared:
            self._by_key[key] = node
        else:
            node.owner_query = query
        self.nodes.append(node)
        return ArrangementReader(node)

    def private_node(
        self,
        source: Stream,
        key_cols: Sequence[str],
        round_: int,
        query: Optional[str],
        name: str,
    ) -> ArrangeNode:
        """A private arrangement of a derived (mid-query) collection."""
        node = ArrangeNode(
            self.spark,
            source,
            key_cols,
            name=name,
            merge_effort=self.merge_effort,
            created_round=round_,
        )
        node.owner_query = query
        self.nodes.append(node)
        return node

    # -- round processing / lifecycle ----------------------------------------

    def advance_all(self, round_: int) -> None:
        """Ensure every live arrangement ingested ``round_`` (the arrange
        operator keeps writing batches even with zero readers, §4.2)."""
        for node in list(self.nodes):
            node.advance(round_)

    def retire_query(self, query: str) -> None:
        """Destroy all arrangements owned by ``query`` (private / unshared)."""
        doomed = [n for n in self.nodes if n.owner_query == query]
        for n in doomed:
            n.destroy()
            self.nodes.remove(n)
            for k, v in list(self._by_key.items()):
                if v is n:
                    del self._by_key[k]

    # -- accounting ------------------------------------------------------------

    def total_bytes(self) -> int:
        return sum(n.arrangement.estimated_bytes() for n in self.nodes)

    def maintenance_secs(self) -> float:
        return sum(n.arrangement.maintenance_secs for n in self.nodes)

    def arrangement_count(self) -> int:
        return len(self.nodes)
