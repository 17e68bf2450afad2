"""Query wiring and round-based execution of concurrent dataflows.

A :class:`Dataflow` is the analogue of one Timely worker group: it owns the
logical clock (integer rounds), the input collections, the
:class:`~repro.core.store.ArrangementStore`, and the set of live *queries*
(independent sub-dataflows that may share arrangements).

Execution is coarse-grained and synchronous, like Spark Streaming's implicit
timestamps (§3.2): ``feed`` stages input updates, ``step`` advances the
frontier by one round and flows deltas through every live query.  Queries are
deployed mid-stream with :meth:`Dataflow.install` — which times the paper's
*query installation latency*: the elapsed time until the new query's initial
(correct, history-reflecting) result has been produced — and removed with
:meth:`Dataflow.retire`.

A query is built through its :class:`QueryContext` from streams and
readers (a :class:`~repro.core.collection.Reader` is a stream that is also
arranged): ``arranged`` and ``arrange`` give readers, ``join`` and
``reduce`` arrange a plain stream input on demand, and ``reduce`` and
``distinct`` return the reader of the reduce's output arrangement, so a
downstream join reads it like any other.
"""
from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.collection import InputStream, Reader, Stream
from repro.core.join import JoinNode
from repro.core.reduce import DistinctAgg, PandasAgg, ReduceNode, SqlAgg
from repro.core.store import ArrangementReader, ArrangementStore
from repro.core.trace import DIFF_COL, consolidate_pdf


class _WindowedStream(Stream):
    """A query-private window over an input: updates strictly after install."""

    def __init__(self, source: InputStream, since_round: int) -> None:
        super().__init__(source.data_cols)
        self.source, self.since_round = source, since_round

    def _compute_delta(self, round_: int):
        if round_ <= self.since_round:
            return None
        return self.source.delta(round_)


class NegativeMultiplicity(AssertionError):
    """A query's output consolidated to a negative multiplicity: more
    retractions of a record than assertions reached the sink."""


class Sink:
    """Collects a query's output updates round by round (driver-side)."""

    def __init__(self, stream: Stream) -> None:
        self.stream = stream
        self.frames: List[pd.DataFrame] = []

    def pull(self, round_: int) -> None:
        d = self.stream.delta(round_)
        if d is not None:
            pdf = d.toPandas()
            if len(pdf):
                self.frames.append(pdf)

    def result(self) -> pd.DataFrame:
        """Consolidated output: data rows repeated by final multiplicity."""
        cols = self.stream.data_cols
        if not self.frames:
            return pd.DataFrame(columns=cols)
        grouped = consolidate_pdf(pd.concat(self.frames, ignore_index=True), cols)
        if (grouped[DIFF_COL] < 0).any():
            raise NegativeMultiplicity("query output consolidated to negative multiplicity")
        return grouped.loc[grouped.index.repeat(grouped[DIFF_COL]), cols].reset_index(drop=True)


@dataclass
class Query:
    """A deployed query: its sink, its private state, and its install cost."""

    name: str
    sink: Sink
    context: "QueryContext"
    install_secs: float = 0.0

    def result(self) -> pd.DataFrame:
        return self.sink.result()


class QueryContext:
    """Operator-construction API handed to a query builder function.

    Tracks every arrangement reader the query creates, so retirement can
    retire them; the store then releases each arrangement left without a
    reader.
    """

    def __init__(self, dataflow: "Dataflow", query_name: str) -> None:
        self.dataflow = dataflow
        self.query_name = query_name
        self.readers: List[ArrangementReader] = []
        self._fresh = 0

    # -- sources -------------------------------------------------------------

    def stream(self, input_name: str) -> Stream:
        """Windowed access to an input: only updates from installation on.

        This is how the TPC-H workload consumes ``lineitem`` (§6.1.1): the
        stream is never arranged globally, and each query observes only the
        fulfilment events that arrive while it is deployed.
        """
        return _WindowedStream(self.dataflow.inputs[input_name], self.dataflow.round)

    def arranged(self, input_name: str, key_cols: Sequence[str]) -> Reader:
        """Arranged view of an input by ``key_cols`` — shared if the store
        allows; otherwise a private re-indexed copy (the unshared baseline)."""
        r = self.dataflow.store.input_reader(
            self.dataflow.inputs[input_name],
            key_cols,
            self.dataflow.round,
            query=self.query_name,
        )
        self.readers.append(r)
        return r

    def arrange(
        self, stream: Stream, key_cols: Sequence[str], name: Optional[str] = None
    ) -> ArrangementReader:
        """Privately arrange a derived collection by ``key_cols``."""
        self._fresh += 1
        r = self.dataflow.store.private_reader(
            stream, key_cols, name or f"{self.query_name}/arr{self._fresh}"
        )
        self.readers.append(r)
        return r

    def _as_reader(self, src: Stream, key_cols: Sequence[str]) -> Reader:
        return src if isinstance(src, Reader) else self.arrange(src, key_cols)

    # -- operators -------------------------------------------------------------

    def join(
        self,
        left: Stream,
        right: Stream,
        on: Tuple[Sequence[str], Sequence[str]],
        select: Optional[Sequence[str]] = None,
    ) -> Stream:
        """Equi-join two (auto-arranged) collections on ``(left_on, right_on)``."""
        return JoinNode(
            self._as_reader(left, on[0]), self._as_reader(right, on[1]), on, select
        )

    def join_scalar(
        self,
        left: Stream,
        scalar: Stream,
        select: Optional[Sequence[str]] = None,
    ) -> Stream:
        """Cross join against a (tiny) scalar/aggregate collection.

        The inequality-vs-aggregate idiom of TPC-H Q11/Q15/Q22: follow with
        ``.filter``.  When the scalar changes, every dependent row is
        retracted and re-asserted — intentionally faithful to the paper's
        note that such queries respond slowly to updates.
        """
        return JoinNode(
            self._as_reader(left, []), self._as_reader(scalar, []), ([], []), select
        )

    def reduce(
        self,
        src: Stream,
        key_cols: Sequence[str],
        agg: Union[SqlAgg, PandasAgg],
        name: Optional[str] = None,
    ) -> ArrangementReader:
        """Group ``src`` by ``key_cols`` and reduce; the result is the reader
        of the reduce's output arrangement."""
        self._fresh += 1
        node = ReduceNode(self._as_reader(src, key_cols), key_cols, agg)
        node.output = self.arrange(node, key_cols, name or f"{self.query_name}/red{self._fresh}")
        return node.output

    def distinct(self, src: Stream, cols: Sequence[str]) -> ArrangementReader:
        """Reduce every present key to multiplicity one (semi-join indicator)."""
        if set(src.data_cols) != set(cols):
            src = src.select(*cols)
        return self.reduce(src, cols, DistinctAgg())

    def semi_join(
        self,
        left: Stream,
        right: Stream,
        on: Tuple[Sequence[str], Sequence[str]],
    ) -> Stream:
        """``left ⋉ right``: keep left rows whose key appears in right."""
        self._fresh += 1
        fresh = {k: f"__sk{self._fresh}_{i}" for i, k in enumerate(on[1])}
        ind = self.distinct(right, on[1]).rename(fresh)
        left_r = self._as_reader(left, on[0])
        return self.join(
            left_r, ind, (list(on[0]), list(fresh.values())), select=left_r.data_cols
        )

    def anti_join(
        self,
        left: Stream,
        right: Stream,
        on: Tuple[Sequence[str], Sequence[str]],
    ) -> Stream:
        """``left ▷ right``: left minus semi-join, via concat + negate."""
        left_r = self._as_reader(left, on[0])
        return left_r.concat(self.semi_join(left_r, right, on).negate())


class Dataflow:
    """The shared execution context: clock, inputs, store, live queries."""

    def __init__(
        self,
        spark: SparkSession,
        shared: bool = True,
        merge_effort: str = "default",
    ) -> None:
        self.spark = spark
        self.round = 0
        self.inputs: Dict[str, InputStream] = {}
        self.store = ArrangementStore(shared=shared, merge_effort=merge_effort)
        self.queries: Dict[str, Query] = {}

    # -- inputs ----------------------------------------------------------------

    def input(self, name: str, data_cols: Sequence[str]) -> InputStream:
        """Declare an input collection (a root of the dataflow)."""
        if name in self.inputs:
            raise ValueError(f"input {name!r} already declared")
        self.inputs[name] = InputStream(self.spark, name, data_cols)
        return self.inputs[name]

    def feed(self, name: str, pdf: pd.DataFrame, diff: int = 1) -> None:
        """Stage updates for input ``name``'s next round (``InputStream.feed``)."""
        self.inputs[name].feed(pdf, diff)

    # -- the clock ---------------------------------------------------------------

    def step(self) -> float:
        """Advance the frontier one round; returns wall seconds taken.

        Each input's staged feeds become its delta (untimed); every live query's
        sink pulls, and every arrangement ingests (shared ones once, private
        ones per owner — the redundant maintenance the unshared baseline pays).
        """
        self.round += 1
        r = self.round
        for s in self.inputs.values():
            s.advance(r)
        t0 = _time.perf_counter()
        for q in self.queries.values():
            q.sink.pull(r)
        self.store.advance_all(r)
        return _time.perf_counter() - t0

    # -- queries -------------------------------------------------------------------

    def install(self, name: str, builder: Callable[[QueryContext], Stream]) -> Query:
        """Deploy a query mid-stream and produce its initial correct result.

        Returns the query with ``install_secs`` — the paper's installation
        latency (Fig. 1a).  With sharing, attaching to existing arrangements
        moves no data; without, the builder's ``arranged`` calls re-index
        the inputs' live rows.
        """
        if name in self.queries:
            raise ValueError(f"query {name!r} already installed")
        t0 = _time.perf_counter()
        ctx = QueryContext(self, name)
        sink = Sink(builder(ctx))
        if self.round > 0:
            sink.pull(self.round)  # initial result reflecting all prior events
        q = Query(
            name=name,
            sink=sink,
            context=ctx,
            install_secs=_time.perf_counter() - t0,
        )
        self.queries[name] = q
        return q

    def retire(self, name: str) -> Query:
        """Remove a query; retire its readers, releasing every arrangement
        left without one."""
        q = self.queries.pop(name)
        self.store.retire(q.context.readers)
        return q

    # -- accounting --------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Estimated bytes of all maintained arrangement state (Fig. 1c)."""
        return self.store.total_bytes()
