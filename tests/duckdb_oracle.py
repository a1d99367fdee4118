"""DuckDB correctness oracle for the tests.

``assert_equivalent(got, sql, **tables)`` runs ``sql`` in DuckDB over
``tables`` and asserts that its rows, in any order, are the rows of
``got``. This catches wrong results from a rewritten plan or a custom
operator — "it ran" is not "it is correct".

``got`` and every table are columns: a dict from column name to a list of
Python values, all of one length (the lines ``pash_spark`` returned, or
values parsed from them). Alias every output column of ``sql`` with the
name it has in ``got``, and project to scalar columns.
"""
from typing import Dict, List

import duckdb

Columns = Dict[str, List[object]]


def _canon(rows) -> List[tuple]:
    # floats rounded, so that sums compare across engines
    return sorted(tuple(round(v, 6) if isinstance(v, float) else v for v in row)
                  for row in rows)


def assert_equivalent(got: Columns, sql: str, **tables: Columns) -> None:
    con = duckdb.connect()
    try:
        for name, cols in tables.items():
            select = ", ".join(f'unnest(${c}) AS "{c}"' for c in cols)
            con.execute(f'CREATE TABLE "{name}" AS SELECT {select}', cols)
        res = con.execute(sql)
        names = [d[0] for d in res.description]
        expected = _canon(res.fetchall())
    finally:
        con.close()
    assert set(names) == set(got), (
        f"column mismatch: {sorted(got)} vs {sorted(names)} "
        "— alias every output column identically on both sides"
    )
    assert _canon(zip(*(got[n] for n in names), strict=True)) == expected
