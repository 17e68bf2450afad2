"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.

This module ships **TPC-H-lite**: all eight TPC-H relations with the columns
the reproduction's 22 query variants need.  Text columns with LIKE predicates
in real TPC-H (p_name, o_comment, s_comment) are replaced by categorical
equivalents (``p_color``, ``o_special``, ``s_complaint``) — the substitution
is recorded in DESIGN.md §2.5.  ``*_pdf`` functions return pandas frames, the
unit the streaming workload feeds round by round.
"""
import numpy as np
import pandas as pd

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000
_N_SUPPLIER_PER_SF = 10_000
_N_PARTSUPP_PER_SF = 800_000

NATIONS = [
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
    "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
    "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
    "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
]
#: nation -> region assignment (5 regions like TPC-H)
NATION_REGION = [0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1]
REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
SHIPMODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
COLORS = ["green", "blue", "red", "ivory", "azure", "plum", "khaki", "tan"]
CONTAINERS = ["SM CASE", "MED BOX", "LG JAR", "WRAP PACK", "JUMBO DRUM"]
TYPES = [
    f"{a} {b} {c}"
    for a in ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO")
    for b in ("ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED")
    for c in ("TIN", "NICKEL", "BRASS", "STEEL", "COPPER")
]
SEGMENTS = ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"]
BRANDS = [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _n(per_sf: int, sf: float) -> int:
    return max(1, int(per_sf * sf))


# --------------------------------------------------------------------------
# pandas generators (feedable row sets)
# --------------------------------------------------------------------------

def lineitem_pdf(*, sf: float = 0.01, seed: int = 0) -> pd.DataFrame:
    n = _n(_N_LINEITEM_PER_SF, sf)
    n_orders = _n(_N_ORDERS_PER_SF, sf)
    n_part = _n(_N_PART_PER_SF, sf)
    n_supp = _n(_N_SUPPLIER_PER_SF, sf)
    g = _rng(seed)
    ship = g.integers(0, 2557, n)
    return pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_suppkey": g.integers(1, n_supp + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01") + pd.to_timedelta(ship, unit="D"),
            "l_commitdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(ship + g.integers(-30, 31, n), unit="D"),
            "l_receiptdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(ship + g.integers(1, 31, n), unit="D"),
            "l_shipmode": g.choice(SHIPMODES, n),
            "l_shipinstruct": g.choice(
                ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"], n
            ),
        }
    )


def orders_pdf(*, sf: float = 0.01, seed: int = 1) -> pd.DataFrame:
    n = _n(_N_ORDERS_PER_SF, sf)
    n_cust = _n(_N_CUSTOMER_PER_SF, sf)
    g = _rng(seed)
    return pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(PRIORITIES, n),
            # categorical stand-in for o_comment NOT LIKE '%special%requests%'
            "o_special": g.random(n) < 0.02,
        }
    )


def customer_pdf(*, sf: float = 0.01, seed: int = 2) -> pd.DataFrame:
    n = _n(_N_CUSTOMER_PER_SF, sf)
    g = _rng(seed)
    nation = g.integers(0, 25, n)
    return pd.DataFrame(
        {
            "c_custkey": np.arange(1, n + 1),
            "c_nationkey": nation,
            "c_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "c_mktsegment": g.choice(SEGMENTS, n),
            # phone country code '10'..'34' (nationkey + 10), as in TPC-H
            "c_phone": pd.Series(nation + 10).astype(str),
        }
    )


def part_pdf(*, sf: float = 0.01, seed: int = 5) -> pd.DataFrame:
    n = _n(_N_PART_PER_SF, sf)
    g = _rng(seed)
    return pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_color": g.choice(COLORS, n),  # stand-in for p_name LIKE '%green%'
            "p_mfgr": g.choice([f"Manufacturer#{i}" for i in range(1, 6)], n),
            "p_brand": g.choice(BRANDS, n),
            "p_type": g.choice(TYPES, n),
            "p_size": g.integers(1, 51, n),
            "p_container": g.choice(CONTAINERS, n),
            "p_retailprice": (900 + (np.arange(1, n + 1) % 1000) / 10.0).round(2),
        }
    )


def supplier_pdf(*, sf: float = 0.01, seed: int = 6) -> pd.DataFrame:
    n = _n(_N_SUPPLIER_PER_SF, sf)
    g = _rng(seed)
    return pd.DataFrame(
        {
            "s_suppkey": np.arange(1, n + 1),
            "s_nationkey": g.integers(0, 25, n),
            "s_acctbal": (g.random(n) * 10000 - 1000).round(2),
            # stand-in for s_comment LIKE '%Customer%Complaints%'
            "s_complaint": g.random(n) < 0.01,
        }
    )


def partsupp_pdf(*, sf: float = 0.01, seed: int = 7) -> pd.DataFrame:
    n_part = _n(_N_PART_PER_SF, sf)
    g = _rng(seed)
    n_supp = _n(_N_SUPPLIER_PER_SF, sf)
    # four suppliers per part, like TPC-H
    partkey = np.repeat(np.arange(1, n_part + 1), 4)
    n = len(partkey)
    return pd.DataFrame(
        {
            "ps_partkey": partkey,
            "ps_suppkey": g.integers(1, n_supp + 1, n),
            "ps_availqty": g.integers(1, 10000, n),
            "ps_supplycost": (g.random(n) * 1000 + 1).round(2),
        }
    )


def nation_pdf() -> pd.DataFrame:
    return pd.DataFrame(
        {
            "n_nationkey": np.arange(25),
            "n_name": NATIONS,
            "n_regionkey": NATION_REGION,
        }
    )


def region_pdf() -> pd.DataFrame:
    return pd.DataFrame({"r_regionkey": np.arange(5), "r_name": REGIONS})


#: relation name -> pandas generator (nation/region ignore sf and seed)
TPCH_TABLES = {
    "lineitem": lineitem_pdf,
    "orders": orders_pdf,
    "customer": customer_pdf,
    "part": part_pdf,
    "supplier": supplier_pdf,
    "partsupp": partsupp_pdf,
    "nation": lambda *, sf=0.01, seed=0: nation_pdf(),
    "region": lambda *, sf=0.01, seed=0: region_pdf(),
}


def tpch_lite(*, sf: float = 0.01, seed: int = 0) -> dict:
    """All eight TPC-H-lite relations as pandas frames at scale ``sf``."""
    return {name: gen(sf=sf, seed=seed + i) for i, (name, gen) in enumerate(TPCH_TABLES.items())}


# --------------------------------------------------------------------------
# key-distribution generators (micro-benchmarks)
# --------------------------------------------------------------------------

def zipf_keys_pdf(*, n: int, n_keys: int, alpha: float = 1.1, seed: int = 3) -> pd.DataFrame:
    """Skewed key column — for join-skew / cardinality-estimation papers."""
    g = _rng(seed)
    ranks = np.arange(1, n_keys + 1)
    weights = 1.0 / ranks**alpha
    weights /= weights.sum()
    keys = g.choice(ranks, size=n, p=weights)
    return pd.DataFrame({"k": keys, "v": g.random(n)})


def uniform_keys_pdf(*, n: int, n_keys: int, seed: int = 4) -> pd.DataFrame:
    g = _rng(seed)
    return pd.DataFrame({"k": g.integers(1, n_keys + 1, n), "v": g.random(n)})

