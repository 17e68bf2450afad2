"""DuckDB correctness oracle.

``assert_pandas_equivalent(result, sql, **tables)`` runs ``sql`` in
DuckDB over ``tables`` and asserts the sorted rows match ``result`` (a
pandas frame, e.g. a query's consolidated output). This catches wrong
results from a rewritten plan or a custom operator — "it ran" is not "it
is correct".

``tables`` may be Spark or pandas DataFrames; Spark inputs are
collected via ``.toPandas()``. Alias every output column identically
on both sides (Spark names ``count(*)`` as ``count(1)``, DuckDB as
``count_star()``) and project to scalar columns — array/map/struct
columns are not orderable so cannot be compared here.
"""
import duckdb
import pandas as pd
from pyspark.sql import DataFrame


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def duckdb_result(sql: str, **tables) -> pd.DataFrame:
    """Run ``sql`` on DuckDB over the named Spark/pandas tables."""
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t.toPandas() if isinstance(t, DataFrame) else t)
        return con.execute(sql).fetchdf()
    finally:
        con.close()


def assert_pandas_equivalent(result: pd.DataFrame, sql: str, **tables) -> None:
    """Assert ``result`` equals ``sql`` run on DuckDB over ``tables``.

    Used to check the *accumulated* output of an incremental dataflow (which
    the engine consolidates driver-side) against DuckDB over the full inputs.
    """
    expected = duckdb_result(sql, **tables)
    assert set(expected.columns) == set(result.columns), (
        f"column mismatch: {sorted(result.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    if len(expected) == 0 and len(result) == 0:
        return
    pd.testing.assert_frame_equal(
        _canon(result), _canon(expected), check_dtype=False
    )

