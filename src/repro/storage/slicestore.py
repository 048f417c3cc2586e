"""Per-slice storage: one shard of every table resident on a slice.

A :class:`TableShard` holds the slice-local portion of one table: a
:class:`~repro.storage.chain.ColumnChain` per column plus per-row
transaction metadata (inserting/deleting transaction ids) used by the
engine's snapshot-isolation visibility checks. Readers never look at the
chains: every mutation publishes one immutable :class:`ShardVersion`,
and a scan binds the shard's current version once, with no lock.
:class:`SliceStorage` is the collection of shards on one slice together
with its simulated disk.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from repro.compression.codecs import Codec
from repro.datatypes.types import SqlType
from repro.errors import StorageError
from repro.storage.block import BLOCK_CAPACITY_DEFAULT, Block
from repro.storage.chain import ColumnChain
from repro.storage.disk import SimulatedDisk

#: A fresh version number: one increasing counter numbers every shard's
#: versions, as block ids are drawn, so a number drawn before an event is
#: below every version published after it.
next_version_number = itertools.count(1).__next__


@dataclass(frozen=True, slots=True, eq=False)
class ShardVersion:
    """One published state of a shard, the only thing readers look at.

    Later versions may append to its xid arrays and tail buffers, so
    readers use them only below ``row_count`` / ``tail_count`` (a
    tombstone copies the delete array: past ``row_count`` it holds only
    Nones). Nothing else in a version changes.
    """

    number: int
    #: column name -> (sealed blocks, tail buffer).
    columns: dict[str, tuple[tuple[Block, ...], list]]
    tail_count: int
    row_count: int
    #: Per row: the inserting transaction, and the deleting one or None.
    insert_xids: list[int]
    delete_xids: list[int | None]
    #: Rows [0, sorted_prefix) are in sort-key order; VACUUM extends it.
    sorted_prefix: int = 0

    @property
    def lead_blocks(self) -> tuple[Block, ...]:
        """Any column's sealed blocks: chains are in lockstep, so block
        *k* covers the same rows in every column."""
        return next(iter(self.columns.values()))[0]

    @property
    def sealed_rows(self) -> int:
        return self.row_count - self.tail_count


class TableShard:
    """The slice-local rows of one table.

    Writers hold the cluster's storage lock; each mutation builds the
    next :attr:`version` and publishes it last, with one assignment.
    """

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
                name, sql_type, codecs.get(name, "raw"), block_capacity, self
            )
            for name, sql_type in columns
        }
        #: Orders publishing against touch(), which may come from outside
        #: the storage lock (commit, bit-flips).
        self._publishing = threading.Lock()
        self.version = ShardVersion(0, {}, 0, 0, [], [])
        self.publish()

    @property
    def row_count(self) -> int:
        return self.version.row_count

    @property
    def column_names(self) -> list[str]:
        return [name for name, _ in self.column_specs]

    @property
    def encoded_bytes(self) -> int:
        return sum(chain.encoded_bytes for chain in self.chains.values())

    def publish(self, **changes) -> None:
        """Publish the chains' present state, plus *changes* to the row
        metadata, as the next version."""
        columns = {n: (c.blocks, c.tail_values) for n, c in self.chains.items()}
        tail_count = len(next(iter(columns.values()))[1])
        self.touch(columns=columns, tail_count=tail_count, **changes)

    def touch(self, **changes) -> None:
        """Publish the current version with *changes* under a new number
        — bare, for what a commit, a rollback or a bit-flip changes."""
        with self._publishing:
            self.version = replace(
                self.version, number=next_version_number(), **changes
            )

    def append_rows(self, rows: Iterable[Sequence[object]], xid: int) -> int:
        """Append full rows (tuples in column order) inserted by *xid*.

        Returns the number of rows appended. Values must already be
        validated by the caller (the engine validates at ingest).
        """
        names = self.column_names
        buffers: list[list[object]] = [[] for _ in names]
        for row in rows:
            if len(row) != len(names):
                raise StorageError(
                    f"row has {len(row)} values, table {self.table_name!r} "
                    f"has {len(names)} columns"
                )
            for buffer, value in zip(buffers, row):
                buffer.append(value)
        return self.append_columns(buffers, xid)

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
        version = self.version
        version.insert_xids.extend([xid] * count)
        version.delete_xids.extend([None] * count)
        self.publish(row_count=version.row_count + count)
        return count

    def seal(self) -> None:
        """Seal the open tail block of every chain (end of a load)."""
        for chain in self.chains.values():
            chain.seal()
        self.publish()

    def mark_deleted(self, offsets: Iterable[int], xid: int) -> int:
        """Tombstone rows at *offsets* as deleted by *xid*."""
        deleted = list(self.version.delete_xids)
        n = 0
        for offset in offsets:
            if deleted[offset] is None:
                deleted[offset] = xid
                n += 1
        if n:
            self.touch(delete_xids=deleted)
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
        n = len(order)
        self.publish(
            row_count=n, insert_xids=[xid] * n, delete_xids=[None] * n, sorted_prefix=n
        )

    def adopt(
        self,
        blocks: dict[str, Sequence[Block]],
        insert_xids: Sequence[int],
        delete_xids: Sequence[int | None],
    ) -> None:
        """Replace the shard's contents with already-built blocks and the
        xids of their rows (restore, failover), publishing once."""
        for column, column_blocks in blocks.items():
            self.chain(column).adopt_blocks(column_blocks)
        self.publish(
            row_count=len(insert_xids), insert_xids=list(insert_xids),
            delete_xids=list(delete_xids), sorted_prefix=0,
        )


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
        return shard

    def drop_shard(self, table_name: str) -> None:
        shard = self._shards.pop(table_name, None)
        if shard is not None:
            self.disk.record_delete(shard.encoded_bytes)
            for chain in shard.chains.values():
                chain.evict_cached()

    def shard(self, table_name: str) -> TableShard:
        shard = self._shards.get(table_name)
        if shard is None:
            raise StorageError(
                f"slice {self.slice_id} has no shard for table {table_name!r}"
            )
        return shard

    def has_shard(self, table_name: str) -> bool:
        return table_name in self._shards

    def version_number(self, table_name: str) -> int:
        """The number of *table_name*'s shard version here, 0 with no shard."""
        shard = self._shards.get(table_name)
        return 0 if shard is None else shard.version.number

    def touch(self, table_names) -> None:
        """Move the versions of the named tables' shards here."""
        for shard in map(self._shards.get, table_names):
            if shard is not None:
                shard.touch()

    @property
    def shards(self) -> dict[str, TableShard]:
        return dict(self._shards)

    @property
    def used_bytes(self) -> int:
        return sum(s.encoded_bytes for s in self._shards.values())
