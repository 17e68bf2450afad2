"""Fig. 8 — interactive (top-down) Datalog vs full evaluation.

For each of tc(x,?), tc(?,x), sg(x,?) on a tree, a grid and a G(n,p) graph:
median and max latency of seeded magic-set queries over *shared* static
arrangements, against full evaluation that must re-index the edges and
compute the entire relation (the "no shared arrangements" column).
"""
from __future__ import annotations

import time as _time
import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.datalog.queries import build_indexes, sg_from, sg_full, tc_from, tc_full, tc_to
from repro.graphs.gen import gnp_graph, grid_graph, tree_graph

GRAPHS = {
    "tree-7": lambda: tree_graph(7, 2),
    "grid-12": lambda: grid_graph(12),
    "gnp-500": lambda: gnp_graph(500, 1.5, seed=1),
}

_QUERIES = {
    "tc(x,?)": tc_from,
    "tc(?,x)": tc_to,
    "sg(x,?)": sg_from,
}


def run(spark: SparkSession, n_args: int = 10, seed: int = 0) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    rows = []
    for gname, gen in GRAPHS.items():
        edges = gen()
        nodes = pd.unique(pd.concat([edges["src"], edges["dst"]]))
        indexes = build_indexes(spark, edges)
        # full evaluation baselines (fresh index build each, like Fig. 8)
        t0 = _time.perf_counter()
        _, ev_tc = tc_full(spark, edges)
        tc_full_secs = _time.perf_counter() - t0
        t0 = _time.perf_counter()
        _, ev_sg = sg_full(spark, edges)
        sg_full_secs = _time.perf_counter() - t0
        ev_tc.unpersist_edb()
        ev_sg.unpersist_edb()
        for qname, fn in _QUERIES.items():
            lats = []
            for arg in rng.choice(nodes, size=n_args, replace=False):
                t0 = _time.perf_counter()
                fn(spark, indexes, int(arg)).count()
                lats.append(_time.perf_counter() - t0)
            rows.append(
                {
                    "graph": gname,
                    "query": qname,
                    "increm_median_ms": round(float(np.median(lats)) * 1000, 1),
                    "increm_max_ms": round(float(np.max(lats)) * 1000, 1),
                    "full_eval_s": round(
                        sg_full_secs if qname.startswith("sg") else tc_full_secs, 2
                    ),
                }
            )
        indexes["e"].unpersist()
    return pd.DataFrame(rows)
