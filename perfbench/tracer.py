"""Spans around calls into the engine's public functions, with Spark job attribution.

The engine under ``src/`` is not modified: :func:`instrument` replaces each
layer's public entry points with wrappers that open a span on entry and
close it on exit, and :meth:`Instrumentation.remove` puts the originals
back.  A span is (name, start, end, parent); spans stay in memory and are
summarised when the run ends.

Every span gets its own ``spark.jobGroup.id``.  Whenever the innermost span
changes, the job ids of the group being left are read from the status
tracker, so each Spark job is counted for the span that was innermost when
it started, and no group is read after more than one span's worth of jobs
(the tracker keeps only ``spark.ui.retainedJobs`` jobs).
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

_GROUP = "spark.jobGroup.id"


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    group: str
    end: float = 0.0
    jobs: Set[int] = field(default_factory=set)
    #: what the call produced: rows collected (sink pull) or sealed (trace
    #: seal), 1 if ``input_reader`` reused an arrangement, iterations run
    #: (datalog)
    n: int = 0
    children_s: float = 0.0

    @property
    def secs(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.secs - self.children_s


class Tracer:
    """Keeps spans in memory; attributes Spark jobs to the innermost span."""

    def __init__(self, spark) -> None:
        self.sc = spark.sparkContext
        self.status = self.sc.statusTracker()
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.failed_tasks = 0
        #: wall seconds spent inside the tracer itself (its direct overhead)
        self.overhead_s = 0.0
        self._ids = itertools.count()

    def _harvest(self, span: Span) -> None:
        for jid in self.status.getJobIdsForGroup(span.group):
            if jid in span.jobs:
                continue
            span.jobs.add(jid)
            job = self.status.getJobInfo(jid)
            for sid in job.stageIds if job is not None else ():
                stage = self.status.getStageInfo(sid)
                if stage is not None:
                    self.failed_tasks += stage.numFailedTasks

    def enter(self, name: str) -> int:
        t0 = time.perf_counter()
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            self._harvest(self.spans[parent])
        span = Span(name, 0.0, parent, f"perfbench-{next(self._ids)}")
        self.sc.setLocalProperty(_GROUP, span.group)
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        self.overhead_s += span.start - t0
        return self.stack[-1]

    def exit(self, idx: int) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span.end = end
        if self.stack.pop() != idx:
            raise RuntimeError(f"span {span.name} closed out of order")
        self._harvest(span)
        if span.parent is not None:
            parent = self.spans[span.parent]
            parent.children_s += span.secs
            self.sc.setLocalProperty(_GROUP, parent.group)
        else:
            self.sc.setLocalProperty(_GROUP, None)
        self.overhead_s += time.perf_counter() - end

    def descendants(self, root: int) -> List[int]:
        """Indices of ``root`` and every span opened under it."""
        out, inside = [root], {root}
        for i in range(root + 1, len(self.spans)):
            p = self.spans[i].parent
            if p not in inside:
                break
            out.append(i)
            inside.add(i)
        return out


# -- instrumentation of the engine's public functions ------------------------


def _rows_of(result) -> int:
    return int(getattr(result, "rows", 0) or 0)


@dataclass
class _Patch:
    owner: object
    attr: str
    original: Optional[Callable]


class Instrumentation:
    """The wrappers installed by :func:`instrument`; ``remove`` undoes them."""

    def __init__(self) -> None:
        self.patches: List[_Patch] = []

    def replace(self, owner, attr: str, fn: Callable) -> None:
        self.patches.append(_Patch(owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, fn)

    def shadow(self, owner, attr: str, fn: Callable) -> None:
        """Set ``attr`` on a class that only inherits it; removal deletes it."""
        self.patches.append(_Patch(owner, attr, None))
        setattr(owner, attr, fn)

    def remove(self) -> None:
        for p in reversed(self.patches):
            if p.original is None:
                delattr(p.owner, p.attr)
            else:
                setattr(p.owner, p.attr, p.original)
        self.patches.clear()


def _spanned(tracer: Tracer, name: str, fn: Callable, rows: Optional[Callable] = None):
    def wrapper(*args, **kwargs):
        idx = tracer.enter(name)
        try:
            out = fn(*args, **kwargs)
            if rows is not None:
                tracer.spans[idx].n += rows(out)
            return out
        finally:
            tracer.exit(idx)

    return wrapper


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap each layer's public entry points in spans (see README.md)."""
    from repro.core import arrange, dataflow, iterate, join, reduce, store, trace
    from repro.datalog import engine

    inst = Instrumentation()

    def wrap(owner, attr, name, rows=None):
        inst.replace(owner, attr, _spanned(tracer, name, owner.__dict__[attr], rows))

    # dataflow: input staging is the self time of step()
    wrap(dataflow.Dataflow, "step", "dataflow.step")
    wrap(dataflow.Dataflow, "install", "dataflow.install")
    pull = dataflow.Sink.__dict__["pull"]

    def sink_pull(self, round_):
        idx = tracer.enter("dataflow.sink_pull")
        before = len(self.frames)
        try:
            return pull(self, round_)
        finally:
            tracer.spans[idx].n += sum(len(f) for f in self.frames[before:])
            tracer.exit(idx)

    inst.replace(dataflow.Sink, "pull", sink_pull)

    # store: reuse is visible as "returned a reader on an existing node"
    input_reader = store.ArrangementStore.__dict__["input_reader"]

    def input_reader_span(self, input_stream, key_cols, round_, query=None):
        idx = tracer.enter("store.input_reader")
        n_before = len(self.nodes)
        try:
            return input_reader(self, input_stream, key_cols, round_, query=query)
        finally:
            tracer.spans[idx].n += int(len(self.nodes) == n_before)
            tracer.exit(idx)

    inst.replace(store.ArrangementStore, "input_reader", input_reader_span)
    wrap(store.ArrangementStore, "advance_all", "store.advance_all")
    reader_delta = store.ArrangementReader.__dict__["delta"]

    def reader_delta_span(self, round_):
        if self._imported:
            return reader_delta(self, round_)
        idx = tracer.enter("store.reader_import")
        try:
            return reader_delta(self, round_)
        finally:
            tracer.exit(idx)

    inst.replace(store.ArrangementReader, "delta", reader_delta_span)

    # arrange / trace; materialize is imported by name into arrange as well
    wrap(arrange.Arrangement, "ingest", "arrange.ingest")
    wrap(trace.Trace, "seal", "trace.seal", rows=_rows_of)
    mat = _spanned(tracer, "trace.materialize", trace.materialize)
    for module in (trace, arrange):
        inst.replace(module, "materialize", mat)

    # operators: delta() is inherited from Stream, so shadow it per class.
    # Joins only build lazy plans here; execution lands in whichever span
    # materializes the result.
    for cls, name in ((join.JoinNode, "join.delta"), (reduce.ReduceNode, "reduce.delta")):
        inst.shadow(cls, "delta", _spanned(tracer, name, cls.delta))

    # batch iteration
    wrap(iterate, "semi_naive", "iterate.semi_naive")
    run = engine.Evaluator.__dict__["run"]

    def evaluator_run(self, *args, **kwargs):
        idx = tracer.enter("datalog.run")
        try:
            return run(self, *args, **kwargs)
        finally:
            tracer.spans[idx].n += self.iterations + 1
            tracer.exit(idx)

    inst.replace(engine.Evaluator, "run", evaluator_run)
    return inst


# -- per-layer metrics ---------------------------------------------------------

#: every per-layer metric, in the order BENCHMARK.json lists them.  Counts
#: are per measured primary operation (a round, an install, a query).  Layer
#: times are shares of the measured operations' wall time: ``self_share``
#: counts time while the span was innermost, ``share`` the outermost span
#: of that name including its children.  ``jobs`` are Spark jobs started
#: while the span was innermost.
PER_LAYER = [
    ("dataflow.step.self_share", "ratio"),
    ("dataflow.step.jobs", "count"),
    ("dataflow.sink_pull.self_share", "ratio"),
    ("dataflow.sink_pull.jobs", "count"),
    ("dataflow.sink_pull.rows", "count"),
    ("dataflow.install.self_share", "ratio"),
    ("dataflow.install.jobs", "count"),
    ("store.input_reader.calls", "count"),
    ("store.input_reader.reuse_ratio", "ratio"),
    ("store.input_reader.share", "ratio"),
    ("store.input_reader.jobs", "count"),
    ("store.reader_import.share", "ratio"),
    ("store.reader_import.jobs", "count"),
    ("store.advance_all.self_share", "ratio"),
    ("store.advance_all.jobs", "count"),
    ("store.arrangements", "count"),
    ("store.idle_arrangements", "count"),
    ("store.estimated_mb", "MB"),
    ("store.estimate_ratio", "ratio"),
    ("arrange.ingest.calls", "count"),
    ("arrange.ingest.self_share", "ratio"),
    ("arrange.ingest.jobs", "count"),
    ("arrange.snapshot_rows", "count"),
    ("trace.seal.calls", "count"),
    ("trace.seal.self_share", "ratio"),
    ("trace.seal.jobs", "count"),
    ("trace.seal.rows", "count"),
    ("trace.materialize.calls", "count"),
    ("trace.jobs_per_materialize", "count"),
    ("trace.merges", "count"),
    ("trace.batches", "count"),
    ("trace.rows", "count"),
    ("trace.rows_per_live_row", "ratio"),
    ("join.delta.calls", "count"),
    ("join.delta.self_share", "ratio"),
    ("reduce.delta.calls", "count"),
    ("reduce.delta.self_share", "ratio"),
    ("reduce.delta.jobs", "count"),
    ("iterate.semi_naive.share", "ratio"),
    ("iterate.semi_naive.jobs", "count"),
    ("datalog.run.share", "ratio"),
    ("datalog.run.jobs", "count"),
    ("datalog.iterations", "count"),
    ("datalog.jobs_per_iteration", "count"),
    ("driver.self_share", "ratio"),
    ("spark.jobs_per_op", "count"),
    ("spark.failed_tasks", "count"),
    ("tracing.op_p50_s", "s"),
    ("tracing.overhead_ratio", "ratio"),
]


@dataclass
class _Agg:
    calls: int = 0
    outer_s: float = 0.0
    self_s: float = 0.0
    jobs: int = 0
    n: int = 0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def aggregate(tracer: Tracer, roots: List[int]) -> Dict[str, _Agg]:
    """Per span name: calls, outermost inclusive time, self time, jobs, n."""
    agg: Dict[str, _Agg] = {}
    for root in roots:
        above: Dict[int, frozenset] = {}
        for i in tracer.descendants(root):
            s = tracer.spans[i]
            names = above.get(s.parent, frozenset()) if i != root else frozenset()
            above[i] = names | {s.name}
            a = agg.setdefault(s.name, _Agg())
            a.calls += 1
            if s.name not in names:
                a.outer_s += s.secs
            a.self_s += s.self_s
            a.jobs += len(s.jobs)
            a.n += s.n
    return agg


def layer_metrics(tracer: Tracer, ops, op_p50_s: float, overhead_s: float,
                  flow, cached_bytes: int) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER` over the measured operations."""
    roots = [o.span for o in ops if o.span is not None]
    n_ops = sum(1 for o in ops if o.primary) or 1
    wall = sum(tracer.spans[i].secs for i in roots)
    agg = aggregate(tracer, roots)
    op_kinds = {o.kind for o in ops}
    get = lambda name: agg.get(name, _Agg())  # noqa: E731
    m: Dict[str, float] = {}
    for name in ("dataflow.step", "dataflow.sink_pull", "dataflow.install", "store.advance_all",
                 "arrange.ingest", "trace.seal", "join.delta", "reduce.delta"):
        m[f"{name}.self_share"] = _ratio(get(name).self_s, wall)
    for name in ("store.input_reader", "store.reader_import", "iterate.semi_naive", "datalog.run"):
        m[f"{name}.share"] = _ratio(get(name).outer_s, wall)
    for name in ("dataflow.step", "dataflow.sink_pull", "dataflow.install", "store.input_reader",
                 "store.reader_import", "store.advance_all", "arrange.ingest", "trace.seal",
                 "reduce.delta", "iterate.semi_naive", "datalog.run"):
        m[f"{name}.jobs"] = get(name).jobs / n_ops
    for name in ("store.input_reader", "arrange.ingest", "trace.seal", "trace.materialize",
                 "join.delta", "reduce.delta"):
        m[f"{name}.calls"] = get(name).calls / n_ops
    m["dataflow.sink_pull.rows"] = get("dataflow.sink_pull").n / n_ops
    m["trace.seal.rows"] = get("trace.seal").n / n_ops
    m["store.input_reader.reuse_ratio"] = _ratio(get("store.input_reader").n,
                                                 get("store.input_reader").calls)
    m["trace.jobs_per_materialize"] = _ratio(get("trace.materialize").jobs,
                                             get("trace.materialize").calls)
    m["datalog.iterations"] = _ratio(get("datalog.run").n, get("datalog.run").calls)
    m["datalog.jobs_per_iteration"] = _ratio(get("datalog.run").jobs, get("datalog.run").n)
    m["driver.self_share"] = _ratio(sum(a.self_s for k, a in agg.items() if k in op_kinds), wall)
    m["spark.jobs_per_op"] = sum(a.jobs for a in agg.values()) / n_ops
    m["spark.failed_tasks"] = tracer.failed_tasks
    m["tracing.op_p50_s"] = op_p50_s
    m["tracing.overhead_ratio"] = _ratio(overhead_s, wall)
    m.update(_state_metrics(flow, cached_bytes))
    return {name: m[name] for name, _ in PER_LAYER}


def _state_metrics(flow, cached_bytes: int) -> Dict[str, float]:
    """Arrangement and trace state at the end of the run (zero without a dataflow)."""
    nodes = flow.store.nodes if flow is not None else []
    arrs = [n.arrangement for n in nodes]
    snap_rows = sum(getattr(a, "snapshot_rows", 0) for a in arrs if a._snap_df is not None)  # noqa: SLF001
    trace_rows = sum(a.trace.total_rows() for a in arrs)
    est_mb = flow.memory_bytes() / 1e6 if flow is not None else 0.0
    return {
        "store.arrangements": len(arrs),
        "store.idle_arrangements": sum(1 for a in arrs if a.reader_count() == 0),
        "store.estimated_mb": est_mb,
        "store.estimate_ratio": _ratio(est_mb, cached_bytes / 1e6),
        "arrange.snapshot_rows": snap_rows,
        "trace.merges": sum(a.trace.merge_count for a in arrs),
        "trace.batches": sum(len(a.trace.batches) for a in arrs),
        "trace.rows": trace_rows,
        "trace.rows_per_live_row": _ratio(trace_rows, snap_rows),
    }


def self_checks(tracer: Tracer, ops, workload: str, flow) -> Dict[str, bool]:
    """Checks that the traced run still exercises what the workload is for."""
    every = aggregate(tracer, [i for i, s in enumerate(tracer.spans) if s.parent is None])
    checks: Dict[str, bool] = {}
    # self times under each measured operation add up to its outside wall time
    checks["self_times_sum_to_wall"] = all(
        abs(sum(tracer.spans[i].self_s for i in tracer.descendants(o.span)) - o.secs)
        <= 0.01 * o.secs + 0.005
        for o in ops if o.span is not None
    )
    reader = every.get("store.input_reader", _Agg())
    if workload == "join_install":
        installs = [o for o in ops if o.kind == "install"]
        jobs = {sum(len(tracer.spans[i].jobs) for i in tracer.descendants(o.span)) for o in installs}
        measured = aggregate(tracer, [o.span for o in installs])
        r = measured.get("store.input_reader", _Agg())
        checks["input_reader_always_reuses"] = r.calls > 0 and r.n == r.calls
        checks["constant_jobs_per_install"] = len(jobs) == 1
    if workload == "graph_churn":
        edge_arrs = [n for n in flow.store.nodes if n.arrangement.name.startswith("edges[")]
        checks["two_shared_edge_arrangements"] = len(edge_arrs) == 2
    if workload == "tpch_mix":
        checks["creates_and_reuses_arrangements"] = 0 < reader.n < reader.calls
    if workload == "datalog_topdown":
        checks["enters_semi_naive_and_evaluator"] = (
            every.get("iterate.semi_naive", _Agg()).calls > 0
            and every.get("datalog.run", _Agg()).calls > 0
        )
    return checks
