"""Correctness oracle: replay the run on stdlib sqlite3 and compare.

The same rows are loaded into an in-memory sqlite database and every
statement of the list is replayed in order (writes included), once,
however many systems executed it. Reads
are compared as multisets, or as ordered lists where the text has an
ORDER BY; after the replay the full table contents are compared too.
``amt`` is a multiple of 0.5, so float sums are exact in either engine.
"""

from __future__ import annotations

import sqlite3
from collections import Counter

from workloads import TABLES, Statement


class Oracle:
    def __init__(self, setup: list[Statement]):
        self._db = sqlite3.connect(":memory:")
        for name, (columns, _dist) in TABLES.items():
            self._db.execute(f"CREATE TABLE {name} ({columns})")
        for statement in setup:
            if statement.kind == "copy":
                self._load(statement)
        #: Read results are reused until the next write: a read-only
        #: stream repeats texts thousands of times.
        self._memo: dict[str, list[tuple]] = {}

    def _load(self, statement: Statement) -> None:
        table = statement.sql.split()[1]
        marks = ", ".join("?" * len(statement.rows[0]))
        self._db.executemany(
            f"INSERT INTO {table} VALUES ({marks})", statement.rows
        )

    def expect(self, statement: Statement):
        """Replay *statement*: the rows a read must return, or the row
        count a write must report (the write is applied)."""
        if statement.kind == "read":
            expected = self._memo.get(statement.sql)
            if expected is None:
                expected = self._db.execute(statement.sql).fetchall()
                self._memo[statement.sql] = expected
            return expected
        self._memo.clear()
        if statement.kind == "copy":
            self._load(statement)
            return len(statement.rows)
        return self._db.execute(statement.sql).rowcount

    @staticmethod
    def mismatch(sample, expected) -> str | None:
        """How one execution's answer differs from ``expect``'s, or None."""
        if sample.error is not None:
            return f"raised {type(sample.error).__name__}: {sample.error}"
        if sample.statement.kind == "read":
            return _compare(
                expected, sample.rows, ordered="ORDER BY" in sample.statement.sql
            )
        if sample.rowcount != expected:
            return f"rowcount {sample.rowcount} != {expected}"
        return None

    def check_table(self, name: str, actual_rows: list[tuple]) -> str | None:
        """Final state of table *name*, compared as a multiset."""
        expected = self._db.execute(f"SELECT * FROM {name}").fetchall()
        return _compare(expected, actual_rows, ordered=False)

    def close(self) -> None:
        self._db.close()


def _compare(expected: list[tuple], actual: list[tuple], ordered: bool) -> str | None:
    expected = [tuple(row) for row in expected]
    actual = [tuple(row) for row in actual]
    same = (
        expected == actual
        if ordered
        else Counter(expected) == Counter(actual)
    )
    if same:
        return None
    return (
        f"rows differ: expected {len(expected)} rows {expected[:2]}..., "
        f"got {len(actual)} rows {actual[:2]}..."
    )
