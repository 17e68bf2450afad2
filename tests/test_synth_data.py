"""TPC-H-lite generators: determinism, referential structure, scaling."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data as sd


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(sd.TPCH_TABLES))
    def test_generators_deterministic(self, name):
        a = sd.TPCH_TABLES[name](sf=0.002, seed=3)
        b = sd.TPCH_TABLES[name](sf=0.002, seed=3)
        pd.testing.assert_frame_equal(a, b)


class TestReferentialIntegrity:
    @pytest.fixture(scope="class")
    def tables(self):
        return sd.tpch_lite(sf=0.002, seed=0)

    def test_lineitem_orders_fk(self, tables):
        assert set(tables["lineitem"]["l_orderkey"]) <= set(tables["orders"]["o_orderkey"])

    def test_orders_customer_fk(self, tables):
        assert set(tables["orders"]["o_custkey"]) <= set(tables["customer"]["c_custkey"])

    def test_lineitem_part_supplier_fk(self, tables):
        assert set(tables["lineitem"]["l_partkey"]) <= set(tables["part"]["p_partkey"])
        assert set(tables["lineitem"]["l_suppkey"]) <= set(tables["supplier"]["s_suppkey"])

    def test_partsupp_keys(self, tables):
        ps = tables["partsupp"]
        assert set(ps["ps_partkey"]) <= set(tables["part"]["p_partkey"])
        assert set(ps["ps_suppkey"]) <= set(tables["supplier"]["s_suppkey"])

    def test_nation_region(self, tables):
        assert len(tables["nation"]) == 25 and len(tables["region"]) == 5
        assert set(tables["nation"]["n_regionkey"]) <= set(tables["region"]["r_regionkey"])
        assert set(tables["customer"]["c_nationkey"]) <= set(tables["nation"]["n_nationkey"])

    def test_receipt_after_ship(self, tables):
        li = tables["lineitem"]
        assert (li["l_receiptdate"] > li["l_shipdate"]).all()


class TestScaling:
    def test_row_counts_scale(self):
        small = sd.lineitem_pdf(sf=0.001)
        big = sd.lineitem_pdf(sf=0.002)
        assert len(big) == 2 * len(small)

    def test_zipf_skewed(self):
        z = sd.zipf_keys_pdf(n=20000, n_keys=1000, alpha=1.2, seed=1)
        counts = z["k"].value_counts()
        assert counts.iloc[0] > 20 * counts.iloc[-1]

    def test_uniform_covers_keys(self):
        u = sd.uniform_keys_pdf(n=5000, n_keys=10, seed=2)
        assert set(u["k"]) == set(range(1, 11))

