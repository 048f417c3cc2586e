"""Per-slice storage: one shard of every table resident on a slice.

A :class:`TableShard` holds the slice-local portion of one table: a
:class:`~repro.storage.chain.ColumnChain` per column plus per-row
transaction metadata (inserting/deleting transaction ids) used by the
engine's snapshot-isolation visibility checks. :class:`SliceStorage` is
the collection of shards on one slice together with its simulated disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.compression.codecs import Codec
from repro.datatypes.types import SqlType
from repro.errors import StorageError
from repro.storage import epoch
from repro.storage.block import BLOCK_CAPACITY_DEFAULT
from repro.storage.chain import ColumnChain
from repro.storage.disk import SimulatedDisk


class TableShard:
    """The slice-local rows of one table."""

    def __init__(
        self,
        table_name: str,
        columns: Sequence[tuple[str, SqlType]],
        codecs: dict[str, Codec | str] | None = None,
        block_capacity: int = BLOCK_CAPACITY_DEFAULT,
    ):
        self.table_name = table_name
        self.column_specs = list(columns)
        codecs = codecs or {}
        self.chains: dict[str, ColumnChain] = {
            name: ColumnChain(
                name, sql_type, codecs.get(name, "raw"), block_capacity
            )
            for name, sql_type in columns
        }
        for chain in self.chains.values():
            chain.table_name = table_name
        #: Transaction id that inserted each row (parallel to row offsets).
        self.insert_xids: list[int] = []
        #: Transaction id that deleted each row, or None while live.
        self.delete_xids: list[int | None] = []
        #: Rows [0, sorted_prefix) are in sort-key order; VACUUM extends it.
        self.sorted_prefix = 0

    @property
    def row_count(self) -> int:
        return len(self.insert_xids)

    @property
    def column_names(self) -> list[str]:
        return [name for name, _ in self.column_specs]

    @property
    def encoded_bytes(self) -> int:
        return sum(chain.encoded_bytes for chain in self.chains.values())

    def append_rows(self, rows: Iterable[Sequence[object]], xid: int) -> int:
        """Append full rows (tuples in column order) inserted by *xid*.

        Returns the number of rows appended. Values must already be
        validated by the caller (the engine validates at ingest).
        """
        names = self.column_names
        count = 0
        buffers: list[list[object]] = [[] for _ in names]
        for row in rows:
            if len(row) != len(names):
                raise StorageError(
                    f"row has {len(row)} values, table {self.table_name!r} "
                    f"has {len(names)} columns"
                )
            for buffer, value in zip(buffers, row):
                buffer.append(value)
            count += 1
        for name, buffer in zip(names, buffers):
            self.chains[name].append(buffer)
        self.insert_xids.extend([xid] * count)
        self.delete_xids.extend([None] * count)
        epoch.bump(self.table_name)
        return count

    def append_columns(
        self, vectors: Sequence[Sequence[object]], xid: int
    ) -> int:
        """Columnar append: one vector per column, all the same length."""
        names = self.column_names
        if len(vectors) != len(names):
            raise StorageError(
                f"{len(vectors)} vectors for {len(names)} columns"
            )
        lengths = {len(v) for v in vectors}
        if len(lengths) > 1:
            raise StorageError(f"ragged column vectors: lengths {sorted(lengths)}")
        count = lengths.pop() if lengths else 0
        for name, vector in zip(names, vectors):
            self.chains[name].append(vector)
        self.insert_xids.extend([xid] * count)
        self.delete_xids.extend([None] * count)
        epoch.bump(self.table_name)
        return count

    def seal(self) -> None:
        """Seal the open tail block of every chain (end of a load)."""
        for chain in self.chains.values():
            chain.seal()
        epoch.bump(self.table_name)

    def mark_deleted(self, offsets: Iterable[int], xid: int) -> int:
        """Tombstone rows at *offsets* as deleted by *xid*."""
        n = 0
        for offset in offsets:
            if self.delete_xids[offset] is None:
                self.delete_xids[offset] = xid
                n += 1
        if n:
            epoch.bump(self.table_name)
        return n

    def chain(self, column: str) -> ColumnChain:
        chain = self.chains.get(column)
        if chain is None:
            raise StorageError(
                f"table {self.table_name!r} has no column {column!r}"
            )
        return chain

    def rewrite_sorted(self, order: Sequence[int], xid: int) -> None:
        """Rewrite every chain with rows permuted by *order* (VACUUM).

        Dead rows must already be excluded from *order*; the rewritten
        shard contains only live rows, all marked inserted by *xid*.
        """
        self.chains = {
            name: chain.rewrite_in_order(order)
            for name, chain in self.chains.items()
        }
        self.insert_xids = [xid] * len(order)
        self.delete_xids = [None] * len(order)
        self.sorted_prefix = len(order)
        epoch.bump(self.table_name)


@dataclass
class SliceStorage:
    """All table shards resident on one slice, plus its disk."""

    slice_id: str
    disk: SimulatedDisk
    block_capacity: int = BLOCK_CAPACITY_DEFAULT

    def __post_init__(self) -> None:
        self._shards: dict[str, TableShard] = {}

    def create_shard(
        self,
        table_name: str,
        columns: Sequence[tuple[str, SqlType]],
        codecs: dict[str, Codec | str] | None = None,
    ) -> TableShard:
        if table_name in self._shards:
            raise StorageError(
                f"slice {self.slice_id} already has shard for {table_name!r}"
            )
        shard = TableShard(table_name, columns, codecs, self.block_capacity)
        self._shards[table_name] = shard
        epoch.bump(table_name)
        return shard

    def drop_shard(self, table_name: str) -> None:
        shard = self._shards.pop(table_name, None)
        if shard is not None:
            self.disk.record_delete(shard.encoded_bytes)
            for chain in shard.chains.values():
                chain.evict_cached()
            epoch.bump(table_name)

    def shard(self, table_name: str) -> TableShard:
        shard = self._shards.get(table_name)
        if shard is None:
            raise StorageError(
                f"slice {self.slice_id} has no shard for table {table_name!r}"
            )
        return shard

    def has_shard(self, table_name: str) -> bool:
        return table_name in self._shards

    @property
    def shards(self) -> dict[str, TableShard]:
        return dict(self._shards)

    @property
    def used_bytes(self) -> int:
        return sum(s.encoded_bytes for s in self._shards.values())
