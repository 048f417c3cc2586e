"""System catalog: table definitions and optimizer statistics.

The catalog lives on the leader node. Statistics are refreshed by ANALYZE
and automatically on COPY ("optimizer statistics are updated with load",
paper §2.1) and drive join sizing, the broadcast-vs-redistribute choice
and EXPLAIN row estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datatypes.types import SqlType
from repro.distribution.diststyle import Distribution, EvenDistribution
from repro.errors import (
    AnalysisError,
    ColumnNotFoundError,
    TableAlreadyExistsError,
    TableNotFoundError,
)
from repro.sortkeys.compound import CompoundSortKey
from repro.sortkeys.interleaved import InterleavedSortKey


@dataclass
class ColumnInfo:
    """One column's definition."""

    name: str
    sql_type: SqlType
    encode: str | None = None  # None = analyzer picks on first load
    not_null: bool = False


@dataclass
class ColumnStatistics:
    """Optimizer statistics for one column."""

    low: object | None = None
    high: object | None = None
    null_fraction: float = 0.0
    distinct_count: int = 0


@dataclass
class TableStatistics:
    """Optimizer statistics for one table."""

    row_count: int = 0
    total_bytes: int = 0
    columns: dict[str, ColumnStatistics] = field(default_factory=dict)
    stale: bool = True


@dataclass
class TableInfo:
    """Catalog entry for one user table."""

    name: str
    columns: list[ColumnInfo]
    distribution: Distribution = field(default_factory=EvenDistribution)
    sort_key: CompoundSortKey | InterleavedSortKey | None = None
    statistics: TableStatistics = field(default_factory=TableStatistics)

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def column_specs(self) -> list[tuple[str, SqlType]]:
        return [(c.name, c.sql_type) for c in self.columns]

    def column(self, name: str) -> ColumnInfo:
        for c in self.columns:
            if c.name == name:
                return c
        raise ColumnNotFoundError(name, self.name)

    def column_index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise ColumnNotFoundError(name, self.name)

    @property
    def row_byte_width(self) -> int:
        """Nominal uncompressed bytes per row, used by network accounting."""
        return sum(c.sql_type.byte_width for c in self.columns)


class Catalog:
    """Name → :class:`TableInfo` map with DDL-level integrity checks.

    System tables (``stl_*``/``stv_*``/``svl_*``) register through
    :meth:`register_system_table` into a separate namespace: they resolve
    through :meth:`table` like any relation — so the binder and planner
    need no special cases — but stay invisible to :meth:`table_names`,
    which drives whole-catalog maintenance (ANALYZE/VACUUM without a
    table, resize) that must only touch user storage.
    """

    def __init__(self) -> None:
        self._tables: dict[str, TableInfo] = {}
        self._system_tables: dict[str, TableInfo] = {}

    def register_system_table(self, info: TableInfo) -> None:
        self._system_tables[info.name] = info

    def is_system_table(self, name: str) -> bool:
        return name in self._system_tables

    def create_table(self, info: TableInfo) -> None:
        if info.name in self._system_tables:
            raise TableAlreadyExistsError(
                f"{info.name!r} is a reserved system table name"
            )
        if info.name in self._tables:
            raise TableAlreadyExistsError(info.name)
        seen: set[str] = set()
        for column in info.columns:
            if column.name in seen:
                raise TableAlreadyExistsError(
                    f"duplicate column {column.name!r} in table {info.name!r}"
                )
            seen.add(column.name)
        self._tables[info.name] = info

    def drop_table(self, name: str) -> TableInfo:
        info = self._tables.pop(name, None)
        if info is None:
            if name in self._system_tables:
                raise AnalysisError(f"cannot drop system table {name!r}")
            raise TableNotFoundError(name)
        return info

    def table(self, name: str) -> TableInfo:
        info = self._tables.get(name)
        if info is None:
            info = self._system_tables.get(name)
        if info is None:
            raise TableNotFoundError(name)
        return info

    def has_table(self, name: str) -> bool:
        return name in self._tables or name in self._system_tables

    def table_names(self) -> list[str]:
        """User tables only (system tables never appear here)."""
        return sorted(self._tables)
