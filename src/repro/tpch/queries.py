"""The 22 TPC-H queries as incrementally maintained dataflows (TPC-H-lite).

Each entry of :data:`QUERIES` is a :class:`TpchQuery`:

* ``build(ctx)`` constructs the query as a dataflow over a
  :class:`~repro.core.dataflow.QueryContext` — dimension relations through
  shared arrangements by primary key (``ctx.arranged``), ``lineitem`` as a
  windowed stream (``ctx.stream``), exactly the setup of §6.1.1;
* ``sql`` is the equivalent DuckDB query over the *full* input tables, used
  by the oracle to check the accumulated incremental output (float
  aggregates are ROUND(…,4) on both sides — see ``repro.core.reduce``);
* ``uses_lineitem`` partitions the queries the way Fig. 1a does: queries
  deriving from the windowed stream install with an empty initial result
  (milliseconds under sharing), the five that do not (Q2, Q11, Q13, Q16,
  Q22) must compute a non-trivial initial answer.

Queries keep real TPC-H join/aggregation structure; predicates over columns
TPC-H-lite replaces (comments, part names) use the categorical stand-ins
from ``repro.synth_data`` (see DESIGN.md §2.5).  ORDER BY/LIMIT presentation
steps are kept where they are part of the maintained result (Q3's and Q10's
top-k, via a deterministic tie-broken reduction) and dropped where they are
cosmetic (Q18's LIMIT 100 at our scale).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import pandas as pd
from pyspark.sql import functions as F

from repro.core.collection import Stream
from repro.core.dataflow import QueryContext
from repro.core.reduce import PandasAgg, SqlAgg, w_avg, w_count, w_max, w_sum

def REV():
    """``l_extendedprice * (1 - l_discount)`` (lazy: needs a live session)."""
    return F.col("l_extendedprice") * (1 - F.col("l_discount"))


@dataclass
class TpchQuery:
    name: str
    build: Callable[[QueryContext], Stream]
    sql: str
    uses_lineitem: bool


def _top_k(n: int, by: List[str], ascending: List[bool], cols: List[str]):
    """Deterministic top-k reduction (ties broken by the trailing sort keys)."""

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        ex = pdf.loc[pdf.index.repeat(pdf["__diff"])]
        return ex.sort_values(by, ascending=ascending, kind="mergesort").head(n)[cols]

    return fn


# ---------------------------------------------------------------------------
# Q1 — pricing summary report
# ---------------------------------------------------------------------------

def q01(ctx: QueryContext) -> Stream:
    li = ctx.stream("lineitem").filter(F.col("l_shipdate") <= "1998-09-02")
    charge = F.col("l_extendedprice") * (1 - F.col("l_discount")) * (1 + F.col("l_tax"))
    return ctx.reduce(
        li,
        ["l_returnflag", "l_linestatus"],
        SqlAgg(
            [
                w_sum("l_quantity").alias("sum_qty"),
                w_sum("l_extendedprice").alias("sum_base_price"),
                w_sum(REV()).alias("sum_disc_price"),
                w_sum(charge).alias("sum_charge"),
                w_avg("l_quantity").alias("avg_qty"),
                w_avg("l_extendedprice").alias("avg_price"),
                w_avg("l_discount").alias("avg_disc"),
                w_count().alias("count_order"),
            ],
            [
                "sum_qty", "sum_base_price", "sum_disc_price", "sum_charge",
                "avg_qty", "avg_price", "avg_disc", "count_order",
            ],
        ),
    )


SQL_Q01 = """
SELECT l_returnflag, l_linestatus,
       ROUND(SUM(l_quantity),4) AS sum_qty,
       ROUND(SUM(l_extendedprice),4) AS sum_base_price,
       ROUND(SUM(l_extendedprice*(1-l_discount)),4) AS sum_disc_price,
       ROUND(SUM(l_extendedprice*(1-l_discount)*(1+l_tax)),4) AS sum_charge,
       ROUND(AVG(l_quantity),4) AS avg_qty,
       ROUND(AVG(l_extendedprice),4) AS avg_price,
       ROUND(AVG(l_discount),4) AS avg_disc,
       COUNT(*) AS count_order
FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""


# ---------------------------------------------------------------------------
# Q2 — minimum cost supplier (no lineitem)
# ---------------------------------------------------------------------------

def q02(ctx: QueryContext) -> Stream:
    nr = ctx.join(
        ctx.arranged("nation", ["n_nationkey"]),
        ctx.arranged("region", ["r_regionkey"]).filter(F.col("r_name") == "EUROPE"),
        (["n_regionkey"], ["r_regionkey"]),
        select=["n_nationkey"],
    )
    supp = ctx.join(
        ctx.arranged("supplier", ["s_suppkey"]),
        nr,
        (["s_nationkey"], ["n_nationkey"]),
        select=["s_suppkey"],
    )
    ps = ctx.join(
        ctx.arranged("partsupp", ["ps_partkey", "ps_suppkey"]),
        supp.map(lambda df: df.withColumnRenamed("s_suppkey", "es_suppkey"), ["es_suppkey"]),
        (["ps_suppkey"], ["es_suppkey"]),
        select=["ps_partkey", "ps_suppkey", "ps_supplycost"],
    )
    part_f = (
        ctx.arranged("part", ["p_partkey"])
        .filter((F.col("p_size") == 15) & F.col("p_type").contains("BRASS"))
        .map_data(lambda df: df.select("p_partkey", *df.columns[-2:]), ["p_partkey"])
    )
    psp = ctx.arrange(
        ctx.join(ps, part_f, (["ps_partkey"], ["p_partkey"]),
                 select=["ps_partkey", "ps_suppkey", "ps_supplycost"]),
        ["ps_partkey"],
    )
    min_cost = ctx.reduce(
        psp, ["ps_partkey"], SqlAgg([w_min_cost()], ["min_cost"])
    ).rename({"ps_partkey": "mc_partkey"})
    return ctx.join(
        psp, min_cost, (["ps_partkey"], ["mc_partkey"]),
        select=["ps_partkey", "ps_suppkey", "ps_supplycost", "min_cost"],
    ).filter(F.col("ps_supplycost") == F.col("min_cost")).map(
        lambda df: df.select("ps_partkey", "ps_suppkey", "ps_supplycost", "__diff"),
        ["ps_partkey", "ps_suppkey", "ps_supplycost"],
    )


def w_min_cost():
    from repro.core.reduce import w_min

    return w_min("ps_supplycost").alias("min_cost")


SQL_Q02 = """
WITH eur AS (
  SELECT ps_partkey, ps_suppkey, ps_supplycost
  FROM partsupp, supplier, nation, region, part
  WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey
    AND n_regionkey = r_regionkey AND r_name = 'EUROPE'
    AND ps_partkey = p_partkey AND p_size = 15 AND p_type LIKE '%BRASS%'
)
SELECT ps_partkey, ps_suppkey, ps_supplycost FROM eur e
WHERE ps_supplycost = (SELECT MIN(ps_supplycost) FROM eur WHERE ps_partkey = e.ps_partkey)
"""


# ---------------------------------------------------------------------------
# Q3 — ten unshipped orders with highest value
# ---------------------------------------------------------------------------

def q03(ctx: QueryContext) -> Stream:
    cust = ctx.arranged("customer", ["c_custkey"]).filter(
        F.col("c_mktsegment") == "BUILDING"
    )
    oc = ctx.join(
        ctx.arranged("orders", ["o_orderkey"]).filter(F.col("o_orderdate") < "1995-03-15"),
        cust,
        (["o_custkey"], ["c_custkey"]),
        select=["o_orderkey", "o_orderdate"],
    )
    li = ctx.stream("lineitem").filter(F.col("l_shipdate") > "1995-03-15")
    lo = ctx.join(
        li, oc, (["l_orderkey"], ["o_orderkey"]),
        select=["o_orderkey", "o_orderdate", "l_extendedprice", "l_discount"],
    )
    per_order = ctx.reduce(
        lo, ["o_orderkey", "o_orderdate"], SqlAgg([w_sum(REV()).alias("revenue")], ["revenue"])
    )
    return ctx.reduce(
        per_order,
        [],
        PandasAgg(
            _top_k(10, ["revenue", "o_orderdate", "o_orderkey"], [False, True, True],
                   ["o_orderkey", "o_orderdate", "revenue"]),
            "o_orderkey bigint, o_orderdate timestamp, revenue double",
            ["o_orderkey", "o_orderdate", "revenue"],
        ),
    )


SQL_Q03 = """
SELECT o_orderkey, o_orderdate, revenue FROM (
  SELECT o_orderkey, o_orderdate,
         ROUND(SUM(l_extendedprice*(1-l_discount)),4) AS revenue
  FROM customer, orders, lineitem
  WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey AND l_orderkey = o_orderkey
    AND o_orderdate < TIMESTAMP '1995-03-15' AND l_shipdate > TIMESTAMP '1995-03-15'
  GROUP BY o_orderkey, o_orderdate)
ORDER BY revenue DESC, o_orderdate, o_orderkey LIMIT 10
"""


# ---------------------------------------------------------------------------
# Q4 — order priority checking
# ---------------------------------------------------------------------------

def q04(ctx: QueryContext) -> Stream:
    late = ctx.stream("lineitem").filter(
        F.col("l_commitdate") < F.col("l_receiptdate")
    ).select("l_orderkey")
    ord_f = ctx.arranged("orders", ["o_orderkey"]).filter(
        (F.col("o_orderdate") >= "1993-07-01") & (F.col("o_orderdate") < "1993-10-01")
    )
    sj = ctx.semi_join(ord_f, late, (["o_orderkey"], ["l_orderkey"]))
    return ctx.reduce(sj, ["o_orderpriority"], SqlAgg([w_count().alias("order_count")], ["order_count"]))


SQL_Q04 = """
SELECT o_orderpriority, COUNT(*) AS order_count
FROM orders
WHERE o_orderdate >= TIMESTAMP '1993-07-01' AND o_orderdate < TIMESTAMP '1993-10-01'
  AND EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey
              AND l_commitdate < l_receiptdate)
GROUP BY o_orderpriority
"""


# ---------------------------------------------------------------------------
# Q5 — local supplier volume
# ---------------------------------------------------------------------------

def q05(ctx: QueryContext) -> Stream:
    nr = ctx.join(
        ctx.arranged("nation", ["n_nationkey"]),
        ctx.arranged("region", ["r_regionkey"]).filter(F.col("r_name") == "ASIA"),
        (["n_regionkey"], ["r_regionkey"]),
        select=["n_nationkey", "n_name"],
    )
    cust = ctx.join(
        ctx.arranged("customer", ["c_custkey"]), nr,
        (["c_nationkey"], ["n_nationkey"]),
        select=["c_custkey", "n_nationkey", "n_name"],
    )
    ord_f = ctx.arranged("orders", ["o_orderkey"]).filter(
        (F.col("o_orderdate") >= "1994-01-01") & (F.col("o_orderdate") < "1995-01-01")
    )
    oc = ctx.join(
        ord_f, cust, (["o_custkey"], ["c_custkey"]),
        select=["o_orderkey", "n_nationkey", "n_name"],
    )
    lio = ctx.join(
        ctx.stream("lineitem"), oc, (["l_orderkey"], ["o_orderkey"]),
        select=["l_suppkey", "n_nationkey", "n_name", "l_extendedprice", "l_discount"],
    )
    supp = ctx.arranged("supplier", ["s_suppkey"])
    full = ctx.join(
        lio, supp, (["l_suppkey", "n_nationkey"], ["s_suppkey", "s_nationkey"]),
        select=["n_name", "l_extendedprice", "l_discount"],
    )
    return ctx.reduce(full, ["n_name"], SqlAgg([w_sum(REV()).alias("revenue")], ["revenue"]))


SQL_Q05 = """
SELECT n_name, ROUND(SUM(l_extendedprice*(1-l_discount)),4) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey
  AND c_nationkey = s_nationkey AND s_nationkey = n_nationkey
  AND n_regionkey = r_regionkey AND r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '1994-01-01' AND o_orderdate < TIMESTAMP '1995-01-01'
GROUP BY n_name
"""


# ---------------------------------------------------------------------------
# Q6 — forecasting revenue change
# ---------------------------------------------------------------------------

def q06(ctx: QueryContext) -> Stream:
    li = ctx.stream("lineitem").filter(
        (F.col("l_shipdate") >= "1994-01-01") & (F.col("l_shipdate") < "1995-01-01")
        & (F.col("l_discount") >= 0.05) & (F.col("l_discount") <= 0.07)
        & (F.col("l_quantity") < 24)
    )
    return ctx.reduce(
        li, [],
        SqlAgg([w_sum(F.col("l_extendedprice") * F.col("l_discount")).alias("revenue")], ["revenue"]),
    )


SQL_Q06 = """
SELECT ROUND(SUM(l_extendedprice*l_discount),4) AS revenue FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1994-01-01' AND l_shipdate < TIMESTAMP '1995-01-01'
  AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24
"""


# ---------------------------------------------------------------------------
# Q7 — volume shipping between two nations
# ---------------------------------------------------------------------------

def q07(ctx: QueryContext) -> Stream:
    n1 = ctx.arranged("nation", ["n_nationkey"]).rename(
        {"n_nationkey": "n1_key", "n_name": "supp_nation", "n_regionkey": "n1_rk"}
    ).filter(F.col("supp_nation").isin("FRANCE", "GERMANY"))
    n2 = ctx.arranged("nation", ["n_nationkey"]).rename(
        {"n_nationkey": "n2_key", "n_name": "cust_nation", "n_regionkey": "n2_rk"}
    ).filter(F.col("cust_nation").isin("FRANCE", "GERMANY"))
    supp = ctx.join(
        ctx.arranged("supplier", ["s_suppkey"]), n1,
        (["s_nationkey"], ["n1_key"]), select=["s_suppkey", "supp_nation"],
    )
    cust = ctx.join(
        ctx.arranged("customer", ["c_custkey"]), n2,
        (["c_nationkey"], ["n2_key"]), select=["c_custkey", "cust_nation"],
    )
    oc = ctx.join(
        ctx.arranged("orders", ["o_orderkey"]), cust,
        (["o_custkey"], ["c_custkey"]), select=["o_orderkey", "cust_nation"],
    )
    li = ctx.stream("lineitem").filter(
        (F.col("l_shipdate") >= "1995-01-01") & (F.col("l_shipdate") <= "1996-12-31")
    )
    l1 = ctx.join(
        li, oc, (["l_orderkey"], ["o_orderkey"]),
        select=["l_suppkey", "cust_nation", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    l2 = ctx.join(
        l1, supp, (["l_suppkey"], ["s_suppkey"]),
        select=["supp_nation", "cust_nation", "l_extendedprice", "l_discount", "l_shipdate"],
    ).filter(F.col("supp_nation") != F.col("cust_nation"))
    yearly = l2.map(
        lambda df: df.withColumn("l_year", F.year("l_shipdate")),
        ["supp_nation", "cust_nation", "l_year", "l_extendedprice", "l_discount"],
    )
    return ctx.reduce(
        yearly, ["supp_nation", "cust_nation", "l_year"],
        SqlAgg([w_sum(REV()).alias("revenue")], ["revenue"]),
    )


SQL_Q07 = """
SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
       YEAR(l_shipdate) AS l_year,
       ROUND(SUM(l_extendedprice*(1-l_discount)),4) AS revenue
FROM supplier, lineitem, orders, customer, nation n1, nation n2
WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey AND c_custkey = o_custkey
  AND s_nationkey = n1.n_nationkey AND c_nationkey = n2.n_nationkey
  AND n1.n_name IN ('FRANCE','GERMANY') AND n2.n_name IN ('FRANCE','GERMANY')
  AND n1.n_name <> n2.n_name
  AND l_shipdate BETWEEN TIMESTAMP '1995-01-01' AND TIMESTAMP '1996-12-31'
GROUP BY 1, 2, 3
"""


# ---------------------------------------------------------------------------
# Q8 — national market share
# ---------------------------------------------------------------------------

def q08(ctx: QueryContext) -> Stream:
    nr_am = ctx.join(
        ctx.arranged("nation", ["n_nationkey"]),
        ctx.arranged("region", ["r_regionkey"]).filter(F.col("r_name") == "AMERICA"),
        (["n_regionkey"], ["r_regionkey"]),
        select=["n_nationkey"],
    )
    cust = ctx.semi_join(
        ctx.arranged("customer", ["c_custkey"]), nr_am, (["c_nationkey"], ["n_nationkey"])
    ).select("c_custkey")
    oc = ctx.join(
        ctx.arranged("orders", ["o_orderkey"]).filter(
            (F.col("o_orderdate") >= "1995-01-01") & (F.col("o_orderdate") <= "1996-12-31")
        ),
        cust,
        (["o_custkey"], ["c_custkey"]),
        select=["o_orderkey", "o_orderdate"],
    )
    part_f = ctx.arranged("part", ["p_partkey"]).filter(
        F.col("p_type") == "ECONOMY ANODIZED STEEL"
    )
    lp = ctx.join(
        ctx.stream("lineitem"), part_f, (["l_partkey"], ["p_partkey"]),
        select=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    lpo = ctx.join(
        lp, oc, (["l_orderkey"], ["o_orderkey"]),
        select=["l_suppkey", "o_orderdate", "l_extendedprice", "l_discount"],
    )
    n2 = ctx.arranged("nation", ["n_nationkey"]).rename(
        {"n_nationkey": "n2_key", "n_name": "supp_nation", "n_regionkey": "n2_rk"}
    )
    supp = ctx.join(
        ctx.arranged("supplier", ["s_suppkey"]), n2,
        (["s_nationkey"], ["n2_key"]), select=["s_suppkey", "supp_nation"],
    )
    full = ctx.join(
        lpo, supp, (["l_suppkey"], ["s_suppkey"]),
        select=["o_orderdate", "supp_nation", "l_extendedprice", "l_discount"],
    )
    vol = full.map(
        lambda df: df.withColumn("o_year", F.year("o_orderdate")).withColumn(
            "volume", REV()
        ).withColumn(
            "brazil_volume",
            F.when(F.col("supp_nation") == "BRAZIL", REV()).otherwise(F.lit(0.0)),
        ),
        ["o_year", "volume", "brazil_volume"],
    )
    shares = ctx.reduce(
        vol, ["o_year"],
        SqlAgg(
            [w_sum("brazil_volume").alias("bv"), w_sum("volume").alias("tv")],
            ["bv", "tv"],
        ),
    )
    return shares.map(
        lambda df: df.withColumn("mkt_share", F.round(F.col("bv") / F.col("tv"), 4)),
        ["o_year", "mkt_share"],
    )


SQL_Q08 = """
SELECT o_year, ROUND(ROUND(SUM(brazil_volume),4) / ROUND(SUM(volume),4), 4) AS mkt_share
FROM (
  SELECT YEAR(o_orderdate) AS o_year,
         l_extendedprice*(1-l_discount) AS volume,
         CASE WHEN n2.n_name = 'BRAZIL' THEN l_extendedprice*(1-l_discount) ELSE 0 END AS brazil_volume
  FROM part, lineitem, supplier, orders, customer, nation n1, nation n2, region
  WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey AND l_orderkey = o_orderkey
    AND o_custkey = c_custkey AND c_nationkey = n1.n_nationkey
    AND n1.n_regionkey = r_regionkey AND r_name = 'AMERICA'
    AND s_nationkey = n2.n_nationkey
    AND o_orderdate BETWEEN TIMESTAMP '1995-01-01' AND TIMESTAMP '1996-12-31'
    AND p_type = 'ECONOMY ANODIZED STEEL')
GROUP BY o_year
"""


# ---------------------------------------------------------------------------
# Q9 — product type profit measure
# ---------------------------------------------------------------------------

def q09(ctx: QueryContext) -> Stream:
    part_f = ctx.arranged("part", ["p_partkey"]).filter(F.col("p_color") == "green")
    lp = ctx.join(
        ctx.stream("lineitem"), part_f, (["l_partkey"], ["p_partkey"]),
        select=["l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
                "l_extendedprice", "l_discount"],
    )
    lps = ctx.join(
        lp, ctx.arranged("partsupp", ["ps_partkey", "ps_suppkey"]),
        (["l_partkey", "l_suppkey"], ["ps_partkey", "ps_suppkey"]),
        select=["l_orderkey", "l_suppkey", "l_quantity", "l_extendedprice",
                "l_discount", "ps_supplycost"],
    )
    lpo = ctx.join(
        lps, ctx.arranged("orders", ["o_orderkey"]),
        (["l_orderkey"], ["o_orderkey"]),
        select=["l_suppkey", "l_quantity", "l_extendedprice", "l_discount",
                "ps_supplycost", "o_orderdate"],
    )
    lsn = ctx.join(
        lpo, ctx.arranged("supplier", ["s_suppkey"]),
        (["l_suppkey"], ["s_suppkey"]),
        select=["s_nationkey", "l_quantity", "l_extendedprice", "l_discount",
                "ps_supplycost", "o_orderdate"],
    )
    full = ctx.join(
        lsn, ctx.arranged("nation", ["n_nationkey"]),
        (["s_nationkey"], ["n_nationkey"]),
        select=["n_name", "l_quantity", "l_extendedprice", "l_discount",
                "ps_supplycost", "o_orderdate"],
    )
    amount = full.map(
        lambda df: df.withColumn("o_year", F.year("o_orderdate")).withColumn(
            "amount", REV() - F.col("ps_supplycost") * F.col("l_quantity")
        ),
        ["n_name", "o_year", "amount"],
    )
    return ctx.reduce(
        amount, ["n_name", "o_year"], SqlAgg([w_sum("amount").alias("sum_profit")], ["sum_profit"])
    )


SQL_Q09 = """
SELECT n_name, YEAR(o_orderdate) AS o_year,
       ROUND(SUM(l_extendedprice*(1-l_discount) - ps_supplycost*l_quantity),4) AS sum_profit
FROM part, supplier, lineitem, partsupp, orders, nation
WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey AND ps_partkey = l_partkey
  AND p_partkey = l_partkey AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey
  AND p_color = 'green'
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Q10 — returned item reporting (top 20 customers)
# ---------------------------------------------------------------------------

def q10(ctx: QueryContext) -> Stream:
    ord_f = ctx.arranged("orders", ["o_orderkey"]).filter(
        (F.col("o_orderdate") >= "1993-10-01") & (F.col("o_orderdate") < "1994-01-01")
    )
    lo = ctx.join(
        ctx.stream("lineitem").filter(F.col("l_returnflag") == "R"),
        ord_f, (["l_orderkey"], ["o_orderkey"]),
        select=["o_custkey", "l_extendedprice", "l_discount"],
    )
    loc = ctx.join(
        lo, ctx.arranged("customer", ["c_custkey"]),
        (["o_custkey"], ["c_custkey"]),
        select=["c_custkey", "c_acctbal", "c_nationkey", "l_extendedprice", "l_discount"],
    )
    full = ctx.join(
        loc, ctx.arranged("nation", ["n_nationkey"]),
        (["c_nationkey"], ["n_nationkey"]),
        select=["c_custkey", "c_acctbal", "n_name", "l_extendedprice", "l_discount"],
    )
    per_cust = ctx.reduce(
        full, ["c_custkey", "c_acctbal", "n_name"],
        SqlAgg([w_sum(REV()).alias("revenue")], ["revenue"]),
    )
    return ctx.reduce(
        per_cust,
        [],
        PandasAgg(
            _top_k(20, ["revenue", "c_custkey"], [False, True],
                   ["c_custkey", "c_acctbal", "n_name", "revenue"]),
            "c_custkey bigint, c_acctbal double, n_name string, revenue double",
            ["c_custkey", "c_acctbal", "n_name", "revenue"],
        ),
    )


SQL_Q10 = """
SELECT c_custkey, c_acctbal, n_name, revenue FROM (
  SELECT c_custkey, c_acctbal, n_name,
         ROUND(SUM(l_extendedprice*(1-l_discount)),4) AS revenue
  FROM customer, orders, lineitem, nation
  WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
    AND o_orderdate >= TIMESTAMP '1993-10-01' AND o_orderdate < TIMESTAMP '1994-01-01'
    AND l_returnflag = 'R' AND c_nationkey = n_nationkey
  GROUP BY 1, 2, 3)
ORDER BY revenue DESC, c_custkey LIMIT 20
"""


# ---------------------------------------------------------------------------
# Q11 — important stock identification (no lineitem; inequality vs scalar)
# ---------------------------------------------------------------------------

def q11(ctx: QueryContext) -> Stream:
    supp_de = ctx.semi_join(
        ctx.arranged("supplier", ["s_suppkey"]),
        ctx.arranged("nation", ["n_nationkey"]).filter(F.col("n_name") == "GERMANY"),
        (["s_nationkey"], ["n_nationkey"]),
    ).select("s_suppkey").map(
        lambda df: df.withColumnRenamed("s_suppkey", "ds_suppkey"), ["ds_suppkey"]
    )
    base = ctx.join(
        ctx.arranged("partsupp", ["ps_partkey", "ps_suppkey"]),
        supp_de, (["ps_suppkey"], ["ds_suppkey"]),
        select=["ps_partkey", "ps_supplycost", "ps_availqty"],
    )
    val = base.map(
        lambda df: df.withColumn("val", F.col("ps_supplycost") * F.col("ps_availqty")),
        ["ps_partkey", "val"],
    )
    val_arr = ctx.arrange(val, ["ps_partkey"])
    per_part = ctx.reduce(val_arr, ["ps_partkey"], SqlAgg([w_sum("val").alias("value")], ["value"]))
    total = ctx.reduce(val_arr, [], SqlAgg([w_sum("val").alias("tval")], ["tval"]))
    return ctx.join_scalar(
        per_part, total, select=["ps_partkey", "value", "tval"]
    ).filter(F.col("value") > F.col("tval") * 0.0001).select("ps_partkey", "value")


SQL_Q11 = """
SELECT ps_partkey, value FROM (
  SELECT ps_partkey, ROUND(SUM(ps_supplycost*ps_availqty),4) AS value
  FROM partsupp, supplier, nation
  WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = 'GERMANY'
  GROUP BY ps_partkey)
WHERE value > (
  SELECT ROUND(SUM(ps_supplycost*ps_availqty),4) * 0.0001
  FROM partsupp, supplier, nation
  WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = 'GERMANY')
"""


# ---------------------------------------------------------------------------
# Q12 — shipping modes and order priority
# ---------------------------------------------------------------------------

def q12(ctx: QueryContext) -> Stream:
    li = ctx.stream("lineitem").filter(
        F.col("l_shipmode").isin("MAIL", "SHIP")
        & (F.col("l_commitdate") < F.col("l_receiptdate"))
        & (F.col("l_shipdate") < F.col("l_commitdate"))
        & (F.col("l_receiptdate") >= "1994-01-01") & (F.col("l_receiptdate") < "1995-01-01")
    )
    lo = ctx.join(
        li, ctx.arranged("orders", ["o_orderkey"]),
        (["l_orderkey"], ["o_orderkey"]),
        select=["l_shipmode", "o_orderpriority"],
    )
    high = F.when(F.col("o_orderpriority").isin("1-URGENT", "2-HIGH"), 1).otherwise(0)
    low = F.when(F.col("o_orderpriority").isin("1-URGENT", "2-HIGH"), 0).otherwise(1)
    return ctx.reduce(
        lo, ["l_shipmode"],
        SqlAgg(
            [
                F.sum(high * F.col("__diff")).alias("high_line_count"),
                F.sum(low * F.col("__diff")).alias("low_line_count"),
            ],
            ["high_line_count", "low_line_count"],
        ),
    )


SQL_Q12 = """
SELECT l_shipmode,
       SUM(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH') THEN 1 ELSE 0 END) AS high_line_count,
       SUM(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH') THEN 0 ELSE 1 END) AS low_line_count
FROM orders, lineitem
WHERE o_orderkey = l_orderkey AND l_shipmode IN ('MAIL','SHIP')
  AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
  AND l_receiptdate >= TIMESTAMP '1994-01-01' AND l_receiptdate < TIMESTAMP '1995-01-01'
GROUP BY l_shipmode
"""


# ---------------------------------------------------------------------------
# Q13 — customer distribution (no lineitem; LEFT JOIN via anti-join)
# ---------------------------------------------------------------------------

def q13(ctx: QueryContext) -> Stream:
    ord_f = ctx.arranged("orders", ["o_orderkey"]).filter(~F.col("o_special"))
    cnt = ctx.reduce(
        ord_f.as_stream().select("o_custkey"), ["o_custkey"],
        SqlAgg([w_count().alias("c_count")], ["c_count"]),
    )
    cust = ctx.arranged("customer", ["c_custkey"]).map_data(
        lambda df: df.select("c_custkey", *[c for c in df.columns if c not in ("c_custkey",)]),
        ["c_custkey"],
    )
    with_orders = ctx.join(
        cust, cnt, (["c_custkey"], ["o_custkey"]), select=["c_custkey", "c_count"]
    )
    without = ctx.anti_join(cust, cnt, (["c_custkey"], ["o_custkey"])).map(
        lambda df: df.select("c_custkey", "__diff").withColumn("c_count", F.lit(0)),
        ["c_custkey", "c_count"],
    )
    return ctx.reduce(
        with_orders.concat(without), ["c_count"],
        SqlAgg([w_count().alias("custdist")], ["custdist"]),
    )


SQL_Q13 = """
SELECT c_count, COUNT(*) AS custdist FROM (
  SELECT c_custkey, COUNT(o_orderkey) AS c_count
  FROM customer LEFT JOIN orders ON c_custkey = o_custkey AND NOT o_special
  GROUP BY c_custkey)
GROUP BY c_count
"""


# ---------------------------------------------------------------------------
# Q14 — promotion effect
# ---------------------------------------------------------------------------

def q14(ctx: QueryContext) -> Stream:
    li = ctx.stream("lineitem").filter(
        (F.col("l_shipdate") >= "1995-09-01") & (F.col("l_shipdate") < "1995-10-01")
    )
    lp = ctx.join(
        li, ctx.arranged("part", ["p_partkey"]),
        (["l_partkey"], ["p_partkey"]),
        select=["p_type", "l_extendedprice", "l_discount"],
    )
    promo = F.when(F.col("p_type").startswith("PROMO"), REV()).otherwise(F.lit(0.0))
    sums = ctx.reduce(
        lp, [],
        SqlAgg([w_sum(promo).alias("pr"), w_sum(REV()).alias("tr")], ["pr", "tr"]),
    )
    return sums.map(
        lambda df: df.withColumn("promo_revenue", F.round(100 * F.col("pr") / F.col("tr"), 4)),
        ["promo_revenue"],
    )


SQL_Q14 = """
SELECT ROUND(100 * ROUND(SUM(CASE WHEN p_type LIKE 'PROMO%'
                                  THEN l_extendedprice*(1-l_discount) ELSE 0 END),4)
             / ROUND(SUM(l_extendedprice*(1-l_discount)),4), 4) AS promo_revenue
FROM lineitem, part
WHERE l_partkey = p_partkey
  AND l_shipdate >= TIMESTAMP '1995-09-01' AND l_shipdate < TIMESTAMP '1995-10-01'
HAVING COUNT(*) > 0
"""


# ---------------------------------------------------------------------------
# Q15 — top supplier (revenue view + max; inequality vs scalar)
# ---------------------------------------------------------------------------

def q15(ctx: QueryContext) -> Stream:
    li = ctx.stream("lineitem").filter(
        (F.col("l_shipdate") >= "1996-01-01") & (F.col("l_shipdate") < "1996-04-01")
    )
    rev0 = ctx.reduce(
        li, ["l_suppkey"], SqlAgg([w_sum(REV()).alias("total_revenue")], ["total_revenue"])
    )
    mx = ctx.reduce(rev0, [], SqlAgg([w_max("total_revenue").alias("max_rev")], ["max_rev"]))
    return ctx.join_scalar(rev0, mx, select=["l_suppkey", "total_revenue", "max_rev"]).filter(
        F.col("total_revenue") == F.col("max_rev")
    ).map(
        lambda df: df.select(
            F.col("l_suppkey").alias("s_suppkey"), "total_revenue", "__diff"
        ),
        ["s_suppkey", "total_revenue"],
    )


SQL_Q15 = """
WITH revenue0 AS (
  SELECT l_suppkey AS s_suppkey, ROUND(SUM(l_extendedprice*(1-l_discount)),4) AS total_revenue
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1996-01-01' AND l_shipdate < TIMESTAMP '1996-04-01'
  GROUP BY l_suppkey)
SELECT s_suppkey, total_revenue FROM revenue0
WHERE total_revenue = (SELECT MAX(total_revenue) FROM revenue0)
"""


# ---------------------------------------------------------------------------
# Q16 — parts/supplier relationship (no lineitem)
# ---------------------------------------------------------------------------

def q16(ctx: QueryContext) -> Stream:
    ps_ok = ctx.anti_join(
        ctx.arranged("partsupp", ["ps_partkey", "ps_suppkey"]),
        ctx.arranged("supplier", ["s_suppkey"]).filter(F.col("s_complaint")),
        (["ps_suppkey"], ["s_suppkey"]),
    )
    part_f = ctx.arranged("part", ["p_partkey"]).filter(
        (F.col("p_brand") != "Brand#45")
        & ~F.col("p_type").startswith("MEDIUM POLISHED")
        & F.col("p_size").isin(49, 14, 23, 45, 19, 3, 36, 9)
    )
    pj = ctx.join(
        ctx.arrange(ps_ok, ["ps_partkey"]), part_f,
        (["ps_partkey"], ["p_partkey"]),
        select=["p_brand", "p_type", "p_size", "ps_suppkey"],
    )
    dist = ctx.distinct(pj, ["p_brand", "p_type", "p_size", "ps_suppkey"])
    return ctx.reduce(
        dist, ["p_brand", "p_type", "p_size"],
        SqlAgg([w_count().alias("supplier_cnt")], ["supplier_cnt"]),
    )


SQL_Q16 = """
SELECT p_brand, p_type, p_size, COUNT(DISTINCT ps_suppkey) AS supplier_cnt
FROM partsupp, part
WHERE p_partkey = ps_partkey AND p_brand <> 'Brand#45'
  AND p_type NOT LIKE 'MEDIUM POLISHED%' AND p_size IN (49,14,23,45,19,3,36,9)
  AND ps_suppkey NOT IN (SELECT s_suppkey FROM supplier WHERE s_complaint)
GROUP BY p_brand, p_type, p_size
"""


# ---------------------------------------------------------------------------
# Q17 — small-quantity-order revenue (avg-per-key threshold)
# ---------------------------------------------------------------------------

def q17(ctx: QueryContext) -> Stream:
    part_f = ctx.arranged("part", ["p_partkey"]).filter(
        (F.col("p_brand") == "Brand#23") & (F.col("p_container") == "MED BOX")
    )
    lp = ctx.join(
        ctx.stream("lineitem"), part_f,
        (["l_partkey"], ["p_partkey"]),
        select=["p_partkey", "l_quantity", "l_extendedprice"],
    )
    lp_arr = ctx.arrange(lp, ["p_partkey"])
    thresh = ctx.reduce(
        lp_arr, ["p_partkey"],
        SqlAgg(
            [F.round(0.2 * F.sum(F.col("l_quantity") * F.col("__diff")) / F.sum("__diff"), 4).alias("qty_thresh")],
            ["qty_thresh"],
        ),
    ).rename({"p_partkey": "t_partkey"})
    small = ctx.join(
        lp_arr, thresh, (["p_partkey"], ["t_partkey"]),
        select=["l_quantity", "l_extendedprice", "qty_thresh"],
    ).filter(F.col("l_quantity") < F.col("qty_thresh"))
    total = ctx.reduce(small, [], SqlAgg([w_sum("l_extendedprice").alias("tot")], ["tot"]))
    return total.map(
        lambda df: df.withColumn("avg_yearly", F.round(F.col("tot") / 7.0, 4)),
        ["avg_yearly"],
    )


SQL_Q17 = """
SELECT ROUND(ROUND(SUM(l_extendedprice),4) / 7.0, 4) AS avg_yearly
FROM lineitem, part
WHERE p_partkey = l_partkey AND p_brand = 'Brand#23' AND p_container = 'MED BOX'
  AND l_quantity < (
    SELECT ROUND(0.2 * AVG(l_quantity), 4) FROM lineitem l2, part p2
    WHERE l2.l_partkey = p2.p_partkey AND p2.p_partkey = part.p_partkey
      AND p2.p_brand = 'Brand#23' AND p2.p_container = 'MED BOX')
HAVING COUNT(*) > 0
"""


# ---------------------------------------------------------------------------
# Q18 — large volume customers
# ---------------------------------------------------------------------------

def q18(ctx: QueryContext) -> Stream:
    qty = ctx.reduce(
        ctx.stream("lineitem").select("l_orderkey", "l_quantity"), ["l_orderkey"],
        SqlAgg([w_sum("l_quantity").alias("total_qty")], ["total_qty"]),
    )
    big = qty.filter(F.col("total_qty") > 300)
    ord_big = ctx.join(
        ctx.arranged("orders", ["o_orderkey"]),
        big.rename({"l_orderkey": "b_orderkey"}),
        (["o_orderkey"], ["b_orderkey"]),
        select=["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate", "total_qty"],
    )
    return ctx.join(
        ord_big, ctx.arranged("customer", ["c_custkey"]),
        (["o_custkey"], ["c_custkey"]),
        select=["c_custkey", "o_orderkey", "o_totalprice", "o_orderdate", "total_qty"],
    )


SQL_Q18 = """
SELECT c_custkey, o_orderkey, o_totalprice, o_orderdate, total_qty
FROM customer, orders,
     (SELECT l_orderkey AS lk, ROUND(SUM(l_quantity),4) AS total_qty
      FROM lineitem GROUP BY l_orderkey) q
WHERE o_orderkey = lk AND total_qty > 300 AND c_custkey = o_custkey
"""


# ---------------------------------------------------------------------------
# Q19 — discounted revenue (disjunctive predicates)
# ---------------------------------------------------------------------------

def q19(ctx: QueryContext) -> Stream:
    lp = ctx.join(
        ctx.stream("lineitem").filter(F.col("l_shipmode").isin("AIR", "REG AIR")),
        ctx.arranged("part", ["p_partkey"]),
        (["l_partkey"], ["p_partkey"]),
        select=["p_brand", "p_container", "p_size", "l_quantity",
                "l_extendedprice", "l_discount"],
    )
    c1 = (
        (F.col("p_brand") == "Brand#12") & (F.col("p_container") == "SM CASE")
        & (F.col("l_quantity") >= 1) & (F.col("l_quantity") <= 21)
        & (F.col("p_size") <= 15)
    )
    c2 = (
        (F.col("p_brand") == "Brand#23") & (F.col("p_container") == "MED BOX")
        & (F.col("l_quantity") >= 10) & (F.col("l_quantity") <= 30)
        & (F.col("p_size") <= 25)
    )
    c3 = (
        (F.col("p_brand") == "Brand#34") & (F.col("p_container") == "LG JAR")
        & (F.col("l_quantity") >= 20) & (F.col("l_quantity") <= 40)
        & (F.col("p_size") <= 35)
    )
    return ctx.reduce(
        lp.filter(c1 | c2 | c3), [], SqlAgg([w_sum(REV()).alias("revenue")], ["revenue"])
    )


SQL_Q19 = """
SELECT ROUND(SUM(l_extendedprice*(1-l_discount)),4) AS revenue
FROM lineitem, part
WHERE p_partkey = l_partkey AND l_shipmode IN ('AIR','REG AIR')
  AND ((p_brand='Brand#12' AND p_container='SM CASE' AND l_quantity BETWEEN 1 AND 21 AND p_size <= 15)
    OR (p_brand='Brand#23' AND p_container='MED BOX' AND l_quantity BETWEEN 10 AND 30 AND p_size <= 25)
    OR (p_brand='Brand#34' AND p_container='LG JAR' AND l_quantity BETWEEN 20 AND 40 AND p_size <= 35))
HAVING COUNT(*) > 0
"""


# ---------------------------------------------------------------------------
# Q20 — potential part promotion
# ---------------------------------------------------------------------------

def q20(ctx: QueryContext) -> Stream:
    ps_green = ctx.semi_join(
        ctx.arranged("partsupp", ["ps_partkey", "ps_suppkey"]),
        ctx.arranged("part", ["p_partkey"]).filter(F.col("p_color") == "green"),
        (["ps_partkey"], ["p_partkey"]),
    )
    liq = ctx.reduce(
        ctx.stream("lineitem").filter(
            (F.col("l_shipdate") >= "1994-01-01") & (F.col("l_shipdate") < "1995-01-01")
        ).select("l_partkey", "l_suppkey", "l_quantity"),
        ["l_partkey", "l_suppkey"],
        SqlAgg([w_sum("l_quantity").alias("qty_sum")], ["qty_sum"]),
    )
    excess = ctx.join(
        ctx.arrange(ps_green, ["ps_partkey", "ps_suppkey"]),
        liq.rename({"l_partkey": "lq_partkey", "l_suppkey": "lq_suppkey"}),
        (["ps_partkey", "ps_suppkey"], ["lq_partkey", "lq_suppkey"]),
        select=["ps_suppkey", "ps_availqty", "qty_sum"],
    ).filter(F.col("ps_availqty") > 0.5 * F.col("qty_sum")).select("ps_suppkey")
    supp_ca = ctx.semi_join(
        ctx.arranged("supplier", ["s_suppkey"]),
        ctx.arranged("nation", ["n_nationkey"]).filter(F.col("n_name") == "CANADA"),
        (["s_nationkey"], ["n_nationkey"]),
    )
    return ctx.semi_join(
        ctx.arrange(supp_ca, ["s_suppkey"]), excess, (["s_suppkey"], ["ps_suppkey"])
    ).select("s_suppkey")


SQL_Q20 = """
SELECT s_suppkey FROM supplier, nation
WHERE s_nationkey = n_nationkey AND n_name = 'CANADA'
  AND s_suppkey IN (
    SELECT ps_suppkey FROM partsupp,
      (SELECT l_partkey, l_suppkey, ROUND(SUM(l_quantity),4) AS qty_sum FROM lineitem
       WHERE l_shipdate >= TIMESTAMP '1994-01-01' AND l_shipdate < TIMESTAMP '1995-01-01'
       GROUP BY l_partkey, l_suppkey) q
    WHERE ps_partkey = l_partkey AND ps_suppkey = l_suppkey
      AND ps_partkey IN (SELECT p_partkey FROM part WHERE p_color = 'green')
      AND ps_availqty > 0.5 * qty_sum)
"""


# ---------------------------------------------------------------------------
# Q21 — suppliers who kept orders waiting (multi self-join)
# ---------------------------------------------------------------------------

def q21(ctx: QueryContext) -> Stream:
    l1 = ctx.stream("lineitem").filter(
        F.col("l_receiptdate") > F.col("l_commitdate")
    ).select("l_orderkey", "l_suppkey")
    lall = ctx.stream("lineitem").map(
        lambda df: df.select(
            F.col("l_orderkey").alias("o2"), F.col("l_suppkey").alias("s2"), "__diff"
        ),
        ["o2", "s2"],
    )
    llate = ctx.stream("lineitem").filter(
        F.col("l_receiptdate") > F.col("l_commitdate")
    ).map(
        lambda df: df.select(
            F.col("l_orderkey").alias("o3"), F.col("l_suppkey").alias("s3"), "__diff"
        ),
        ["o3", "s3"],
    )
    ord_f = ctx.arranged("orders", ["o_orderkey"]).filter(F.col("o_orderstatus") == "F")
    a = ctx.semi_join(ctx.arrange(l1, ["l_orderkey"]), ord_f.as_stream(), (["l_orderkey"], ["o_orderkey"]))
    a_arr = ctx.arrange(a, ["l_orderkey"])
    pairs = ctx.distinct(a_arr, ["l_orderkey", "l_suppkey"])
    e2 = ctx.join(
        pairs, ctx.arrange(lall, ["o2"]), (["l_orderkey"], ["o2"]),
        select=["l_orderkey", "l_suppkey", "s2"],
    ).filter(F.col("s2") != F.col("l_suppkey")).select("l_orderkey", "l_suppkey")
    b = ctx.semi_join(a_arr, e2, (["l_orderkey", "l_suppkey"], ["l_orderkey", "l_suppkey"]))
    e3 = ctx.join(
        pairs, ctx.arrange(llate, ["o3"]), (["l_orderkey"], ["o3"]),
        select=["l_orderkey", "l_suppkey", "s3"],
    ).filter(F.col("s3") != F.col("l_suppkey")).select("l_orderkey", "l_suppkey")
    c = ctx.anti_join(ctx.arrange(b, ["l_orderkey", "l_suppkey"]), e3,
                      (["l_orderkey", "l_suppkey"], ["l_orderkey", "l_suppkey"]))
    supp_sa = ctx.semi_join(
        ctx.arranged("supplier", ["s_suppkey"]),
        ctx.arranged("nation", ["n_nationkey"]).filter(F.col("n_name") == "SAUDI ARABIA"),
        (["s_nationkey"], ["n_nationkey"]),
    ).select("s_suppkey")
    waiting = ctx.semi_join(ctx.arrange(c, ["l_suppkey"]), supp_sa, (["l_suppkey"], ["s_suppkey"]))
    return ctx.reduce(
        waiting.select("l_suppkey"), ["l_suppkey"],
        SqlAgg([w_count().alias("numwait")], ["numwait"]),
    ).as_stream().map(
        lambda df: df.select(F.col("l_suppkey").alias("s_suppkey"), "numwait", "__diff"),
        ["s_suppkey", "numwait"],
    )


SQL_Q21 = """
SELECT l1.l_suppkey AS s_suppkey, COUNT(*) AS numwait
FROM lineitem l1, orders, supplier, nation
WHERE o_orderkey = l1.l_orderkey AND o_orderstatus = 'F'
  AND l1.l_receiptdate > l1.l_commitdate
  AND s_suppkey = l1.l_suppkey AND s_nationkey = n_nationkey AND n_name = 'SAUDI ARABIA'
  AND EXISTS (SELECT 1 FROM lineitem l2
              WHERE l2.l_orderkey = l1.l_orderkey AND l2.l_suppkey <> l1.l_suppkey)
  AND NOT EXISTS (SELECT 1 FROM lineitem l3
                  WHERE l3.l_orderkey = l1.l_orderkey AND l3.l_suppkey <> l1.l_suppkey
                    AND l3.l_receiptdate > l3.l_commitdate)
GROUP BY l1.l_suppkey
"""


# ---------------------------------------------------------------------------
# Q22 — global sales opportunity (no lineitem; inequality vs scalar)
# ---------------------------------------------------------------------------

def q22(ctx: QueryContext) -> Stream:
    codes = ("13", "31", "23", "29", "30", "18", "17")
    base = ctx.arranged("customer", ["c_custkey"]).filter(F.col("c_phone").isin(*codes))
    avg_bal = ctx.reduce(
        base.filter(F.col("c_acctbal") > 0.0), [],
        SqlAgg([w_avg("c_acctbal").alias("avg_bal")], ["avg_bal"]),
    )
    cand = ctx.join_scalar(
        base, avg_bal, select=["c_custkey", "c_phone", "c_acctbal", "avg_bal"]
    ).filter(F.col("c_acctbal") > F.col("avg_bal")).select("c_custkey", "c_phone", "c_acctbal")
    noord = ctx.anti_join(
        ctx.arrange(cand, ["c_custkey"]),
        ctx.arranged("orders", ["o_orderkey"]).as_stream().select("o_custkey"),
        (["c_custkey"], ["o_custkey"]),
    )
    return ctx.reduce(
        noord.map(lambda df: df.withColumnRenamed("c_phone", "cntrycode"),
                  ["c_custkey", "cntrycode", "c_acctbal"]),
        ["cntrycode"],
        SqlAgg([w_count().alias("numcust"), w_sum("c_acctbal").alias("totacctbal")],
               ["numcust", "totacctbal"]),
    )


SQL_Q22 = """
SELECT c_phone AS cntrycode, COUNT(*) AS numcust, ROUND(SUM(c_acctbal),4) AS totacctbal
FROM customer
WHERE c_phone IN ('13','31','23','29','30','18','17')
  AND c_acctbal > (SELECT ROUND(AVG(c_acctbal),4) FROM customer
                   WHERE c_acctbal > 0.0 AND c_phone IN ('13','31','23','29','30','18','17'))
  AND NOT EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey)
GROUP BY c_phone
"""


QUERIES: Dict[str, TpchQuery] = {
    "q01": TpchQuery("q01", q01, SQL_Q01, True),
    "q02": TpchQuery("q02", q02, SQL_Q02, False),
    "q03": TpchQuery("q03", q03, SQL_Q03, True),
    "q04": TpchQuery("q04", q04, SQL_Q04, True),
    "q05": TpchQuery("q05", q05, SQL_Q05, True),
    "q06": TpchQuery("q06", q06, SQL_Q06, True),
    "q07": TpchQuery("q07", q07, SQL_Q07, True),
    "q08": TpchQuery("q08", q08, SQL_Q08, True),
    "q09": TpchQuery("q09", q09, SQL_Q09, True),
    "q10": TpchQuery("q10", q10, SQL_Q10, True),
    "q11": TpchQuery("q11", q11, SQL_Q11, False),
    "q12": TpchQuery("q12", q12, SQL_Q12, True),
    "q13": TpchQuery("q13", q13, SQL_Q13, False),
    "q14": TpchQuery("q14", q14, SQL_Q14, True),
    "q15": TpchQuery("q15", q15, SQL_Q15, True),
    "q16": TpchQuery("q16", q16, SQL_Q16, False),
    "q17": TpchQuery("q17", q17, SQL_Q17, True),
    "q18": TpchQuery("q18", q18, SQL_Q18, True),
    "q19": TpchQuery("q19", q19, SQL_Q19, True),
    "q20": TpchQuery("q20", q20, SQL_Q20, True),
    "q21": TpchQuery("q21", q21, SQL_Q21, True),
    "q22": TpchQuery("q22", q22, SQL_Q22, False),
}
