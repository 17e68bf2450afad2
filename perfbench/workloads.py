"""The benchmark's workloads: closed-loop drivers over the engine, with output checks.

Each workload is a function ``(run: Run) -> Optional[Dataflow]`` that sets
up its inputs from ``run.seed``, runs warm-up operations, then measured
operations until ``run.seconds`` have passed.  One driver thread feeds an
operation, waits for it, then feeds the next.  Every operation's output is
checked against a reference computed outside the engine; a wrong result or
an exception counts as a failed operation and the run goes on.
"""
from __future__ import annotations

import gc
import statistics
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

import numpy as np
import pandas as pd

#: repetitions of a workload's preparation step; ``setup_s`` uses their median
PREPARE_REPEATS = 3


@dataclass
class Op:
    kind: str
    secs: float
    rows: int
    primary: bool
    span: Optional[int]


@dataclass
class Run:
    """State of one benchmark run: clock, counts, samples and (maybe) tracer."""

    spark: object
    seed: int
    seconds: float
    tracer: object = None
    ops: List[Op] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    prepare_s: List[float] = field(default_factory=list)
    warmup_s: float = 0.0
    peak_cached_bytes: int = 0
    info: Dict[str, object] = field(default_factory=dict)
    measuring: bool = False

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"[perfbench] FAILED {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def op(self, kind: str, fn: Callable, rows: int = 0, primary: bool = True):
        """Run one operation, timed from outside the engine; None if it raised."""
        self.attempted += 1
        idx = self.tracer.enter(kind) if self.tracer and self.measuring else None
        t0 = time.perf_counter()
        try:
            out = fn()
            ok = True
        except Exception:  # noqa: BLE001 — a failed operation must not end the run
            self.fail(kind)
            out, ok = None, False
        secs = time.perf_counter() - t0
        if idx is not None:
            self.tracer.exit(idx)
        if ok and self.measuring:
            self.ops.append(Op(kind, secs, rows, primary, idx))
        return out

    def check(self, what: str, fn: Callable[[], None]) -> None:
        """One output check: counts as an attempted operation."""
        self.attempted += 1
        try:
            fn()
        except Exception:  # noqa: BLE001
            self.fail(f"check {what}")

    def prepare(self, fn: Callable, release: Callable):
        """Time ``fn`` PREPARE_REPEATS times; release all results but the last."""
        out = None
        for _ in range(PREPARE_REPEATS):
            if out is not None:
                release(out)
            t0 = time.perf_counter()
            out = fn()
            self.prepare_s.append(time.perf_counter() - t0)
        self.attempted += 1  # the load or index build
        return out

    def start_measuring(self, warmup_started: float) -> float:
        """End the warm-up; returns the deadline of the measured window."""
        self.warmup_s = time.perf_counter() - warmup_started
        self.sample_state()
        self.measuring = True
        if self.tracer is not None:
            self.info["tracer_overhead_at_start_s"] = self.tracer.overhead_s
        return time.perf_counter() + self.seconds

    def sample_state(self) -> None:
        """Peak block-manager bytes, read after a forced Python and JVM GC."""
        from repro.core.memory import spark_cached_bytes

        gc.collect()
        self.spark._jvm.System.gc()  # noqa: SLF001
        # the ContextCleaner drops unreachable blocks asynchronously: read
        # until two reads agree, so the sample does not depend on its timing
        now, prev = spark_cached_bytes(self.spark), None
        for _ in range(20):
            if now == prev:
                break
            time.sleep(0.05)
            now, prev = spark_cached_bytes(self.spark), now
        self.peak_cached_bytes = max(self.peak_cached_bytes, now)


def _release_flow(flow) -> None:
    for node in flow.store.nodes:
        node.destroy()


def _rows_equal(got: pd.DataFrame, want: pd.DataFrame) -> None:
    cols = sorted(want.columns)
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols).reset_index(drop=True),
        want[cols].sort_values(cols).reset_index(drop=True),
        check_dtype=False,
    )


# ---------------------------------------------------------------------------
# tpch_mix: the Fig. 1 streaming TPC-H mix with mid-stream installs
# ---------------------------------------------------------------------------

TPCH_SF = 0.002
TPCH_CHUNKS = 10          # every relation is fed in this many equal slices
TPCH_LIVE = 3             # queries kept live
TPCH_LI_FRACTION = 0.25   # lineitem thinning, as in run_streaming_mix
TPCH_RETRACT = 20         # orders rows retracted per round
TPCH_WARMUP_ROUNDS = 2    # round 1 loads; round 2 runs the first query


def tpch_mix(run: Run):
    from repro.core.dataflow import Dataflow
    from repro.experiments.fig1_tpch_streaming import DEFAULT_MIX
    from repro.oracle import assert_pandas_equivalent, duckdb_result
    from repro.tpch.queries import QUERIES
    from repro.tpch.schema import declare_inputs, generate

    rng = np.random.default_rng(run.seed)

    def chunked():
        tables = generate(sf=TPCH_SF, seed=run.seed)
        tables["lineitem"] = tables["lineitem"].sample(
            frac=TPCH_LI_FRACTION, random_state=run.seed
        ).reset_index(drop=True)
        bounds = {n: np.linspace(0, len(p), TPCH_CHUNKS + 1).astype(int) for n, p in tables.items()}
        return {n: [p.iloc[a:b] for a, b in zip(bounds[n], bounds[n][1:])] for n, p in tables.items()}

    fed: Dict[str, List[pd.DataFrame]] = {}
    li_by_round: Dict[int, pd.DataFrame] = {}
    retracted: Set[int] = set()
    live: deque = deque()
    installed_round: Dict[str, int] = {}
    next_q = [0]

    def feed_round(flow, chunks, r: int) -> int:
        """Stage round ``r``'s slices plus retractions; returns rows staged."""
        n = 0
        for name, cs in chunks.items():
            flow.feed(name, cs[r - 1])
            n += len(cs[r - 1])
        li_by_round[r] = chunks["lineitem"][r - 1]
        if fed.get("orders"):
            prior = pd.concat(fed["orders"], ignore_index=True)
            prior = prior[~prior["o_orderkey"].isin(retracted)]
            doomed = prior.sample(n=min(TPCH_RETRACT, len(prior)), random_state=rng.integers(2**31))
            flow.feed("orders", doomed, diff=-1)
            retracted.update(doomed["o_orderkey"].tolist())
            n += len(doomed)
        for name, cs in chunks.items():
            fed.setdefault(name, []).append(cs[r - 1])
        return n

    def oracle_tables(since_round: int) -> Dict[str, pd.DataFrame]:
        out = {n: pd.concat(f, ignore_index=True) for n, f in fed.items() if n != "lineitem"}
        out["orders"] = out["orders"][~out["orders"]["o_orderkey"].isin(retracted)]
        li = [p for r, p in li_by_round.items() if r > since_round]
        out["lineitem"] = pd.concat(li, ignore_index=True) if li else fed["lineitem"][0].iloc[:0]
        return out

    def check_query(flow, instance: str) -> None:
        q = flow.queries[instance]
        sql = QUERIES[instance.split("#")[0]].sql
        tables = oracle_tables(installed_round[instance])

        def compare():
            got = q.result()
            want = duckdb_result(sql, **tables)
            # SQL aggregates without GROUP BY return one all-NULL row over an
            # empty window; a dataflow reduce emits nothing for an empty input.
            if len(got) == 0 and len(want) == 1 and want.isna().all(axis=None):
                return
            assert_pandas_equivalent(got, sql, **tables)

        run.check(instance, compare)

    def install_next(flow) -> None:
        if len(live) >= TPCH_LIVE:
            old = live.popleft()
            check_query(flow, old)
            run.op("retire", lambda: flow.retire(old), primary=False)
        qname = DEFAULT_MIX[next_q[0] % len(DEFAULT_MIX)]
        next_q[0] += 1
        instance = f"{qname}#{next_q[0]}"
        if run.op("install", lambda: flow.install(instance, QUERIES[qname].build), primary=False):
            live.append(instance)
            installed_round[instance] = flow.round

    def prepare():
        fed.clear()
        li_by_round.clear()
        retracted.clear()
        chunks = chunked()
        flow = Dataflow(run.spark, shared=True)
        declare_inputs(flow)
        feed_round(flow, chunks, 1)
        flow.step()
        return flow, chunks

    flow, chunks = run.prepare(prepare, lambda p: _release_flow(p[0]))
    warm = time.perf_counter()
    install_next(flow)
    rows_per_round = []
    for r in range(2, TPCH_WARMUP_ROUNDS + 1):
        n = feed_round(flow, chunks, r)
        run.op("round", flow.step, rows=n)
        install_next(flow)
    deadline = run.start_measuring(warm)
    r = TPCH_WARMUP_ROUNDS
    while time.perf_counter() < deadline and r < TPCH_CHUNKS:
        r += 1
        n = feed_round(flow, chunks, r)
        rows_per_round.append(n)
        run.op("round", flow.step, rows=n)
        run.sample_state()
        install_next(flow)
    for instance in live:
        check_query(flow, instance)
    run.info.update(
        scale={"sf": TPCH_SF, "chunks": TPCH_CHUNKS, "live": TPCH_LIVE,
               "lineitem_fraction": TPCH_LI_FRACTION, "orders_retracted_per_round": TPCH_RETRACT},
        rows_per_round=rows_per_round,
        queries_installed=next_q[0],
    )
    return flow


# ---------------------------------------------------------------------------
# graph_churn: Fig. 5 — standing graph queries over an evolving edge set
# ---------------------------------------------------------------------------

GRAPH_NODES = 5_000
GRAPH_EDGES = 20_000
GRAPH_EDGE_INSERTS = 100   # new edges per round
GRAPH_EDGE_DELETES = 100   # existing edges retracted per round
GRAPH_ARGS = 10            # argument rows added (and later removed) per round
GRAPH_ARG_LIFE = 2         # rounds of its kind an argument row stays live
GRAPH_KINDS = ("lookup", "inhop")
GRAPH_WARMUP_ROUNDS = 1


def _build_lookup(ctx):
    """Point look-up: the out-edges of each argument node (edges by src)."""
    args = ctx.arranged("args_lookup", ["node"])
    e = ctx.arranged("edges", ["src"])
    return ctx.join(args, e, (["node"], ["src"]), select=["qid", "node", "dst"])


def _build_inhop(ctx):
    """1-hop in-neighbourhood of each argument node (edges by dst)."""
    args = ctx.arranged("args_inhop", ["node"])
    e = ctx.arranged("edges", ["dst"])
    return ctx.distinct(ctx.join(args, e, (["node"], ["dst"]), select=["qid", "src"]),
                        ["qid", "src"])


def graph_churn(run: Run):
    from repro.core.dataflow import Dataflow

    rng = np.random.default_rng(run.seed)
    state: Dict[str, object] = {}

    def new_edges(n: int) -> pd.DataFrame:
        return pd.DataFrame({"src": rng.integers(0, GRAPH_NODES, n),
                             "dst": rng.integers(0, GRAPH_NODES, n)})

    def new_args(r: int) -> pd.DataFrame:
        return pd.DataFrame({"qid": np.arange(r * GRAPH_ARGS, (r + 1) * GRAPH_ARGS),
                             "node": rng.integers(0, GRAPH_NODES, GRAPH_ARGS)})

    def prepare():
        flow = Dataflow(run.spark, shared=True)
        flow.input("edges", ["src", "dst"])
        for kind in GRAPH_KINDS:
            flow.input(f"args_{kind}", ["qid", "node"])
        queries = {"lookup": flow.install("lookup", _build_lookup),
                   "inhop": flow.install("inhop", _build_inhop)}
        edges = new_edges(GRAPH_EDGES)
        args = {k: {i: new_args(i)} for i, k in enumerate(GRAPH_KINDS)}
        flow.feed("edges", edges)
        for k in GRAPH_KINDS:
            for a in args[k].values():
                flow.feed(f"args_{k}", a)
        flow.step()
        state.update(edges=edges, args=args)
        return flow, queries

    flow, queries = run.prepare(prepare, lambda p: _release_flow(p[0]))

    def round_(r: int) -> None:
        """Edge inserts and deletes, and one query kind's argument churn."""
        edges: pd.DataFrame = state["edges"]
        doomed = edges.sample(n=GRAPH_EDGE_DELETES, random_state=rng.integers(2**31))
        added = new_edges(GRAPH_EDGE_INSERTS)
        flow.feed("edges", added)
        flow.feed("edges", doomed, diff=-1)
        state["edges"] = pd.concat([edges.drop(doomed.index), added], ignore_index=True)
        n = len(added) + len(doomed)
        # NiagaraCQ: adding an argument row installs a query, removing it retires one
        kind = GRAPH_KINDS[r % len(GRAPH_KINDS)]
        live = state["args"][kind]
        live[r] = new_args(r)
        flow.feed(f"args_{kind}", live[r])
        n += GRAPH_ARGS
        old = live.pop(r - GRAPH_ARG_LIFE * len(GRAPH_KINDS), None)
        if old is not None:
            flow.feed(f"args_{kind}", old, diff=-1)
            n += len(old)
        if run.op("round", flow.step, rows=n) is not None:
            check_all(r)
        run.sample_state()

    def check_all(r: int) -> None:
        edges: pd.DataFrame = state["edges"]
        for kind, q in queries.items():
            args = pd.concat(state["args"][kind].values(), ignore_index=True)
            if kind == "lookup":
                want = args.merge(edges, left_on="node", right_on="src")[["qid", "node", "dst"]]
            else:
                want = args.merge(edges, left_on="node", right_on="dst")[["qid", "src"]]
                want = want.drop_duplicates()
            run.check(f"{kind}@{r}", lambda q=q, want=want: _rows_equal(q.result(), want))

    warm = time.perf_counter()
    r = len(GRAPH_KINDS) - 1
    for _ in range(GRAPH_WARMUP_ROUNDS):
        r += 1
        round_(r)
    deadline = run.start_measuring(warm)
    while time.perf_counter() < deadline:
        r += 1
        round_(r)
    run.info.update(scale={
        "nodes": GRAPH_NODES, "edges": GRAPH_EDGES, "edge_inserts": GRAPH_EDGE_INSERTS,
        "edge_deletes": GRAPH_EDGE_DELETES, "args_per_round": GRAPH_ARGS,
        "arg_life_rounds": GRAPH_ARG_LIFE * len(GRAPH_KINDS), "queries": list(GRAPH_KINDS),
    })
    return flow


# ---------------------------------------------------------------------------
# join_install: Fig. 7f — new join queries against one big shared arrangement
# ---------------------------------------------------------------------------

JOIN_BIG_ROWS = 200_000
JOIN_PROBE_ROWS = 1_000
JOIN_WARMUP = 3


def join_install(run: Run):
    from repro.core.dataflow import Dataflow

    rng = np.random.default_rng(run.seed)

    def prepare():
        big = pd.DataFrame({
            "k": rng.integers(0, JOIN_BIG_ROWS, JOIN_BIG_ROWS),
            "v": rng.integers(0, 1_000_000, JOIN_BIG_ROWS),
        })
        flow = Dataflow(run.spark, shared=True)
        flow.input("big", ["k", "v"])
        flow.input("probe", ["k", "p"])
        flow.install("holder", lambda ctx: ctx.arranged("big", ["k"]).as_stream())
        flow.feed("big", big)
        flow.step()
        return flow, big

    flow, big = run.prepare(prepare, lambda p: _release_flow(p[0]))
    big_r = big.rename(columns={"k": "bk", "v": "bv"})

    def build(ctx):
        b = ctx.arranged("big", ["k"]).rename({"k": "bk", "v": "bv"})
        return ctx.join(ctx.stream("probe"), b, (["k"], ["bk"]), select=["k", "p", "bv"])

    def one(i: int) -> None:
        probe = pd.DataFrame({
            "k": rng.integers(0, JOIN_BIG_ROWS, JOIN_PROBE_ROWS),
            "p": np.arange(i * JOIN_PROBE_ROWS, (i + 1) * JOIN_PROBE_ROWS),
        })
        name = f"join{i}"

        def install_and_first_result():
            q = flow.install(name, build)
            flow.feed("probe", probe)
            flow.step()
            return q

        q = run.op("install", install_and_first_result, rows=JOIN_PROBE_ROWS)
        if q is None:
            return
        want = probe.merge(big_r, left_on="k", right_on="bk")[["k", "p", "bv"]]
        run.check(name, lambda: _rows_equal(q.result(), want))
        run.op("retire", lambda: flow.retire(name), primary=False)
        run.sample_state()

    warm = time.perf_counter()
    for i in range(JOIN_WARMUP):
        one(i)
    deadline = run.start_measuring(warm)
    i = JOIN_WARMUP
    while time.perf_counter() < deadline:
        one(i)
        i += 1
    run.info.update(scale={"arranged_rows": JOIN_BIG_ROWS, "probe_rows": JOIN_PROBE_ROWS})
    return flow


# ---------------------------------------------------------------------------
# datalog_topdown: Fig. 8 — seeded recursive queries over shared static indexes
# ---------------------------------------------------------------------------

TREE_DEPTH = 7
#: query kind -> depth of its argument node.  In a complete binary tree every
#: node at one depth does the same work, so the seed changes the node labels
#: and the chosen nodes but not the amount of work.
DATALOG_DEPTHS = {"tc_from": 5, "tc_to": 2, "sg_from": 1, "reach": 5}
DATALOG_WARMUP = 4


def _tree(seed: int):
    """Complete binary tree with seeded node labels; (edges, nodes by depth)."""
    from repro.graphs.gen import tree_graph

    edges = tree_graph(TREE_DEPTH, 2)
    label = np.random.default_rng(seed).permutation(2 ** (TREE_DEPTH + 1) - 1)
    by_depth = {d: [int(label[i]) for i in range(2**d - 1, 2 ** (d + 1) - 1)]
                for d in range(TREE_DEPTH + 1)}
    return pd.DataFrame({"src": label[edges["src"]], "dst": label[edges["dst"]]}), by_depth


def _closure(adj: Dict[int, List[int]], x: int) -> Set[int]:
    seen, todo = {x}, [x]
    while todo:
        for y in adj.get(todo.pop(), ()):
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def _same_generation(edges: pd.DataFrame) -> Set[tuple]:
    """sg(X,Y) :- e(P,X), e(P,Y), X != Y.  sg(X,Y) :- e(A,X), sg(A,B), e(B,Y)."""
    kids: Dict[int, List[int]] = {}
    for s, d in zip(edges["src"], edges["dst"]):
        kids.setdefault(int(s), []).append(int(d))
    sg = {(x, y) for cs in kids.values() for x in cs for y in cs if x != y}
    frontier = set(sg)
    while frontier:
        new = {(x, y) for a, b in frontier for x in kids.get(a, ()) for y in kids.get(b, ())}
        frontier = new - sg
        sg |= frontier
    return sg


def datalog_topdown(run: Run):
    from repro.core import iterate
    from repro.datalog.queries import build_indexes, sg_from, tc_from, tc_to
    from pyspark.sql import functions as F

    spark = run.spark

    def prepare():
        edges, by_depth = _tree(run.seed)
        indexes = build_indexes(spark, edges)
        static = iterate.StaticIndex(spark.createDataFrame(edges), ["src"], "edges[src]")
        return edges, by_depth, indexes, static

    def release(p):
        p[2]["e"].unpersist(blocking=False)
        p[3].unpersist()

    edges, by_depth, indexes, static = run.prepare(prepare, release)
    down: Dict[int, List[int]] = {}
    up: Dict[int, List[int]] = {}
    for s, d in zip(edges["src"], edges["dst"]):
        down.setdefault(int(s), []).append(int(d))
        up.setdefault(int(d), []).append(int(s))
    sg = _same_generation(edges)

    def reach(x: int):
        init = spark.createDataFrame(pd.DataFrame({"n": [x]}))
        e = static.df

        def expand(delta):
            return delta.join(e, delta["n"] == e["src"]).select(F.col("dst").alias("n"))

        total = iterate.semi_naive(spark, init, expand, ["n"])
        return total.select(F.lit(x).alias("src"), F.col("n").alias("dst"))

    queries = {
        "tc_from": (lambda x: tc_from(spark, indexes, x), lambda x: _closure(down, x)),
        "tc_to": (lambda x: tc_to(spark, indexes, x), lambda x: _closure(up, x)),
        "sg_from": (lambda x: sg_from(spark, indexes, x), lambda x: {y for a, y in sg if a == x}),
        "reach": (reach, lambda x: _closure(down, x)),
    }
    rng = np.random.default_rng(run.seed + 1)
    kinds = list(queries)

    def one(i: int) -> None:
        kind = kinds[i % len(kinds)]
        x = int(rng.choice(by_depth[DATALOG_DEPTHS[kind]]))
        fn, ref = queries[kind]
        want = ref(x)

        def query():
            df = fn(x)
            df.count()
            return df

        df = run.op(kind, query, rows=len(want))
        if df is None:
            return
        run.check(f"{kind}({x})", lambda: _assert_set(
            {(int(a), int(b)) for a, b in df.select("src", "dst").toPandas().itertuples(index=False)},
            {(x, y) for y in want}))
        del df
        run.sample_state()

    warm = time.perf_counter()
    for i in range(DATALOG_WARMUP):
        one(i)
    deadline = run.start_measuring(warm)
    i = DATALOG_WARMUP
    while time.perf_counter() < deadline:
        one(i)
        i += 1
    run.info.update(scale={"tree_depth": TREE_DEPTH, "argument_depths": DATALOG_DEPTHS})
    return None


def _assert_set(got: Set[int], want: Set[int]) -> None:
    if got != want:
        raise AssertionError(
            f"{len(got)} rows vs {len(want)} expected; missing {sorted(want - got)[:5]}, "
            f"extra {sorted(got - want)[:5]}"
        )


WORKLOADS = {
    "tpch_mix": tpch_mix,
    "graph_churn": graph_churn,
    "join_install": join_install,
    "datalog_topdown": datalog_topdown,
}


def op_summary(ops: List[Op]) -> Dict[str, float]:
    """End-to-end figures over the measured primary operations.

    ``op_p50_s`` is the mean over operation kinds of each kind's median, so
    a workload that cycles through kinds of different cost does not flip
    its median with the number of operations that fit in the run.
    """
    prim = [o for o in ops if o.primary]
    by_kind: Dict[str, List[Op]] = {}
    for o in prim:
        by_kind.setdefault(o.kind, []).append(o)
    p50 = statistics.fmean(statistics.median(o.secs for o in v) for v in by_kind.values())
    rate = statistics.fmean(statistics.median(o.rows / o.secs for o in v) for v in by_kind.values())
    secs = sorted(o.secs for o in prim)
    # the tail is the highest percentile with at least ten samples beyond it
    beyond = 10
    tail = None
    if len(secs) > beyond:
        level = 100.0 * (len(secs) - beyond) / len(secs)
        tail = {"level_pct": round(level, 1), "value_s": secs[len(secs) - beyond - 1]}
    return {
        "op_p50_s": p50,
        "rows_per_s": rate,
        "samples": len(prim),
        "samples_by_kind": {k: len(v) for k, v in by_kind.items()},
        "secs_by_kind": {k: [o.secs for o in v] for k, v in by_kind.items()},
        "tail": tail,
    }
