"""Interactive graph queries against an evolving graph (§6.1.2, Fig. 5/6).

The four query classes of Pacaci et al.: point look-up, 1-hop, 2-hop, and
4-hop shortest path.  Following the paper, queries are prepared statements
whose *arguments are collections* (the NiagaraCQ transformation): adding or
removing an argument row incrementally installs or retires that query
instance, and results are maintained while the argument stays present.

The only state shared among the four dataflows are the two arrangements of
the graph edges (by source and by destination).  With ``shared=False`` every
use of the edges builds a private copy — 7 copies across the query mix — so
the memory gap of Fig. 5c and the redundant-maintenance latency gap of
Fig. 5a emerge naturally.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import pandas as pd
from pyspark.sql import functions as F

from repro.core.dataflow import Dataflow, Query
from repro.core.reduce import SqlAgg, w_min


@dataclass
class GraphQuerySession:
    """Four standing query dataflows over one evolving edge collection."""

    flow: Dataflow
    queries: Dict[str, Query]

    @classmethod
    def start(cls, spark, edges: pd.DataFrame, shared: bool = True) -> "GraphQuerySession":
        flow = Dataflow(spark, shared=shared)
        flow.input("edges", ["src", "dst"])
        flow.input("args_lookup", ["qid", "node"])
        flow.input("args_onehop", ["qid", "node"])
        flow.input("args_twohop", ["qid", "node"])
        flow.input("args_path", ["qid", "ps", "pt"])
        flow.feed("edges", edges)
        flow.step()
        queries = {
            "lookup": flow.install("lookup", cls._build_lookup),
            "onehop": flow.install("onehop", cls._build_onehop),
            "twohop": flow.install("twohop", cls._build_twohop),
            "path": flow.install("path", cls._build_path),
        }
        return cls(flow=flow, queries=queries)

    # -- query dataflows -----------------------------------------------------

    @staticmethod
    def _build_lookup(ctx):
        """Point look-up: the out-edges of the argument node."""
        args = ctx.arranged("args_lookup", ["node"])
        e = ctx.arranged("edges", ["src"])
        return ctx.join(args, e, (["node"], ["src"]), select=["qid", "node", "dst"])

    @staticmethod
    def _build_onehop(ctx):
        """1-hop neighbourhood of the argument node."""
        args = ctx.arranged("args_onehop", ["node"])
        e = ctx.arranged("edges", ["src"])
        h1 = ctx.join(args, e, (["node"], ["src"]), select=["qid", "dst"])
        return ctx.distinct(h1, ["qid", "dst"])

    @staticmethod
    def _build_twohop(ctx):
        """2-hop neighbourhood (two uses of the same edge arrangement)."""
        args = ctx.arranged("args_twohop", ["node"])
        e1 = ctx.arranged("edges", ["src"])
        h1 = ctx.join(args, e1, (["node"], ["src"]), select=["qid", "dst"])
        h1r = h1.map(lambda df: df.withColumnRenamed("dst", "mid"), ["qid", "mid"])
        e2 = ctx.arranged("edges", ["src"]).rename({"src": "src2", "dst": "dst2"})
        h2 = ctx.join(ctx.arrange(h1r, ["mid"]), e2, (["mid"], ["src2"]),
                      select=["qid", "dst2"])
        return ctx.distinct(
            h2.map(lambda df: df.withColumnRenamed("dst2", "dst"), ["qid", "dst"]),
            ["qid", "dst"],
        )

    @staticmethod
    def _build_path(ctx):
        """Shortest path of length <= 4 between (ps, pt): meet in the middle.

        Two forward hops from ``ps`` meet two backward hops from ``pt``;
        the per-qid minimum hop count is maintained incrementally.
        """
        args = ctx.arranged("args_path", ["qid"])
        ef = ctx.arranged("edges", ["src"])
        eb = ctx.arranged("edges", ["dst"]).rename({"src": "bsrc", "dst": "bdst"})

        # forward frontier: f1(qid, pt, n), f2(qid, pt, n)
        f1 = ctx.join(args, ef, (["ps"], ["src"]), select=["qid", "pt", "dst"])
        f1r = f1.map(lambda df: df.withColumnRenamed("dst", "fn"), ["qid", "pt", "fn"])
        f1_arr = ctx.arrange(f1r, ["fn"])
        ef2 = ctx.arranged("edges", ["src"]).rename({"src": "src2", "dst": "dst2"})
        f2 = ctx.join(f1_arr, ef2, (["fn"], ["src2"]), select=["qid", "pt", "dst2"])
        f2r = f2.map(lambda df: df.withColumnRenamed("dst2", "fn2"), ["qid", "pt", "fn2"])

        # backward frontier from pt: b1(qid, bn)
        b1 = ctx.join(
            args.rename({"qid": "bqid", "ps": "bps", "pt": "bpt"}),
            eb, (["bpt"], ["bdst"]), select=["bqid", "bps", "bsrc"],
        )
        b1r = b1.map(lambda df: df.withColumnRenamed("bsrc", "bn"), ["bqid", "bps", "bn"])
        b1_arr = ctx.arrange(b1r, ["bn"])

        # candidate path lengths
        len1 = f1.filter(F.col("dst") == F.col("pt")).map(
            lambda df: df.select("qid", "__diff").withColumn("len", F.lit(1)),
            ["qid", "len"],
        )
        len2 = f2r.filter(F.col("fn2") == F.col("pt")).map(
            lambda df: df.select("qid", "__diff").withColumn("len", F.lit(2)),
            ["qid", "len"],
        )
        # forward-2 meets backward-1 → length 3
        len3 = ctx.join(
            ctx.arrange(f2r, ["fn2"]), b1_arr, (["qid", "fn2"], ["bqid", "bn"]),
            select=["qid"],
        ).map(lambda df: df.withColumn("len", F.lit(3)), ["qid", "len"])
        # backward frontier hop 2: b2(qid, bn2); forward-2 meets it → length 4
        eb2 = ctx.arranged("edges", ["dst"]).rename({"src": "b2src", "dst": "b2dst"})
        b2 = ctx.join(b1_arr, eb2, (["bn"], ["b2dst"]), select=["bqid", "b2src"])
        b2r = b2.map(lambda df: df.withColumnRenamed("b2src", "bn2"), ["bqid", "bn2"])
        len4 = ctx.join(
            ctx.arrange(f2r, ["fn2"]),
            ctx.arrange(b2r, ["bn2"]),
            (["qid", "fn2"], ["bqid", "bn2"]),
            select=["qid"],
        ).map(lambda df: df.withColumn("len", F.lit(4)), ["qid", "len"])
        # degenerate 0-hop (ps == pt)
        len0 = args.as_stream().filter(F.col("ps") == F.col("pt")).map(
            lambda df: df.select("qid", "__diff").withColumn("len", F.lit(0)),
            ["qid", "len"],
        )
        cands = len0.concat(len1).concat(len2).concat(len3).concat(len4)
        dist = ctx.distinct(cands, ["qid", "len"])
        return ctx.reduce(
            dist, ["qid"], SqlAgg([w_min("len").alias("dist")], ["dist"])
        )

    # -- driving --------------------------------------------------------------

    def issue(self, kind: str, args: pd.DataFrame, diff: int = 1) -> None:
        """Stage query-argument additions/removals for the next round."""
        self.flow.feed(f"args_{kind}", args, diff=diff)

    def update_graph(self, edges: pd.DataFrame, diff: int = 1) -> None:
        self.flow.feed("edges", edges, diff=diff)

    def step(self) -> float:
        return self.flow.step()

    def memory_bytes(self) -> int:
        return self.flow.memory_bytes()
