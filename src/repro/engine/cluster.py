"""Cluster topology: leader node, compute nodes, slices.

"An Amazon Redshift cluster is comprised of a leader node and one or more
compute nodes... A compute node is partitioned into slices; one slice for
each core" (paper §2.1). The cluster owns the catalog, the transaction
manager, the interconnect, and the slice storage; Sessions drive SQL
through it.

COPY data sources are pluggable: the cloud layer registers an ``s3://``
provider, tests and examples register in-memory sources. Each provider
maps a source URI to an iterable of text lines.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

from repro.distribution.diststyle import DistStyle
from repro.engine.catalog import Catalog, TableInfo
from repro.engine.network import Interconnect
from repro.engine.transactions import TransactionManager
from repro.errors import CopyError, DataError, TableNotFoundError
from repro.storage.block import BLOCK_CAPACITY_DEFAULT
from repro.storage.disk import SimulatedDisk
from repro.storage.slicestore import SliceStorage

#: source URI prefix -> provider(uri) -> iterable of text lines
SourceProvider = Callable[[str], Iterable[str]]


@dataclass
class Slice:
    """One unit of parallelism: a core's share of memory and disk."""

    slice_id: str
    node_id: str
    storage: SliceStorage


class ComputeNode:
    """One compute node holding ``slices_per_node`` slices."""

    def __init__(
        self,
        node_id: str,
        slices_per_node: int,
        block_capacity: int,
        disk_capacity_bytes: int | None = None,
    ):
        self.node_id = node_id
        self.slices: list[Slice] = []
        for i in range(slices_per_node):
            slice_id = f"{node_id}-s{i}"
            disk = SimulatedDisk(f"{slice_id}-disk", disk_capacity_bytes)
            self.slices.append(
                Slice(
                    slice_id=slice_id,
                    node_id=node_id,
                    storage=SliceStorage(slice_id, disk, block_capacity),
                )
            )


class Cluster:
    """A running database cluster (data plane).

    The leader-node responsibilities (parsing, planning, final aggregation,
    transaction serialization) live in :class:`~repro.engine.session.Session`
    and the managers owned here; compute-node work happens against the
    slices' storage.
    """

    #: Default for new sessions' ``enable_result_cache`` — the
    #: parameter-group default in real Redshift. Sessions override it
    #: with ``SET enable_result_cache``; benchmarks flip it off so
    #: repeated queries measure execution, not cache lookups.
    enable_result_cache_default = True

    def __init__(
        self,
        node_count: int = 2,
        slices_per_node: int = 2,
        block_capacity: int = BLOCK_CAPACITY_DEFAULT,
        node_type: str = "dw2.large",
        disk_capacity_bytes: int | None = None,
        systable_max_rows: int | None = None,
    ):
        if node_count < 1:
            raise ValueError(f"node_count must be positive, got {node_count}")
        if slices_per_node < 1:
            raise ValueError(
                f"slices_per_node must be positive, got {slices_per_node}"
            )
        self.node_type = node_type
        self.nodes: list[ComputeNode] = [
            ComputeNode(f"node-{i}", slices_per_node, block_capacity,
                        disk_capacity_bytes)
            for i in range(node_count)
        ]
        self.catalog = Catalog()
        self._stores = self.slice_stores
        self.transactions = TransactionManager(self._touch_tables)
        self.interconnect = Interconnect()
        from repro.engine.workload import WorkloadLog

        self.workload = WorkloadLog()
        from repro.systables import SystemTables

        #: SQL-queryable telemetry (stl_*/stv_*/svl_*); registers its
        #: schemas into the catalog so sessions resolve them like tables.
        self.systables = SystemTables(self, max_rows_per_table=systable_max_rows)
        from repro.storage.blockcache import BlockDecodeCache

        #: Cluster-wide decoded-block cache; vectorized scans serve
        #: repeat block reads from here (see stv_block_cache).
        self.block_cache = BlockDecodeCache()
        self.block_capacity = block_capacity
        from repro.engine.resultcache import QueryResultCache

        #: Leader-side query result cache: repeat SELECTs over unchanged
        #: tables return their cached rows without execution (see
        #: stv_result_cache; per-session SET enable_result_cache).
        self.result_cache = QueryResultCache(self.table_version)
        from repro.engine.session import PlanMemo

        #: Client SELECT plans Session.execute reuses (DESIGN.md §9).
        self.plan_memo = PlanMemo(self.catalog)
        from repro.exec.segmentcache import CodeCache

        #: Compiled-pipeline code, keyed by generated source and shared by
        #: every session's compiled executor (see svl_compile_cache).
        self.segment_cache = CodeCache("<query-pipeline>")
        from repro.exec.workers import PoolManager, register_slices

        #: Morsel worker pools for the parallel executor: one cached pool
        #: per cluster, re-forked when storage mutates (see exec.workers).
        self.pool_manager = PoolManager()
        #: Key of this cluster's slice list in the worker-side registry;
        #: registered before any pool forks so children inherit it.
        self.worker_registry_id = register_slices(self.slice_stores)
        self._worker_finalizer = weakref.finalize(
            self, _release_workers, self.pool_manager, self.worker_registry_id
        )
        self._sources: dict[str, SourceProvider] = {}
        self._row_counters: dict[str, int] = {}
        #: Serializes storage mutation (row routing, sealing, VACUUM
        #: rewrites) across concurrent sessions: interleaved appends from
        #: two threads would misalign column chains within a shard.
        #: Reentrant because DML paths nest (UPDATE marks deletes, then
        #: routes replacement rows through distribute_rows).
        self.storage_lock = threading.RLock()
        #: Session ids handed out by :meth:`connect` (stl_query /
        #: stv_sessions join key).
        self._session_ids = itertools.count(1)
        #: The :class:`~repro.server.ClusterServer` fronting this
        #: cluster, if any (feeds the stv_sessions system table).
        self.server = None
        #: Shared fault injector; None until :meth:`attach_faults`.
        self.fault_injector = None
        #: Callable(exc) -> bool set by a RecoveryCoordinator: it repairs a
        #: recoverable fault so the read or checkpoint that met it reruns.
        self.recovery_handler: Callable[[Exception], bool] | None = None
        self._read_only_reason: str | None = None

    # ---- fault plumbing & degraded mode ------------------------------------

    def attach_faults(self, injector) -> None:
        """Route this cluster's fault decisions through *injector*: every
        slice disk consults it for media errors, and executors use it for
        node-crash checkpoints."""
        self.fault_injector = injector
        for store in self.slice_stores:
            store.disk.attach_injector(injector)

    @property
    def read_only(self) -> bool:
        return self._read_only_reason is not None

    @property
    def read_only_reason(self) -> str | None:
        return self._read_only_reason

    def set_read_only(self, reason: str) -> None:
        """Degrade to read-only: reads keep working, writes raise.

        The escalator stance — while redundancy is lost the cluster keeps
        answering queries instead of going fully unavailable.
        """
        self._read_only_reason = reason

    def clear_read_only(self) -> None:
        self._read_only_reason = None

    # ---- topology ------------------------------------------------------------

    @property
    def slices(self) -> list[Slice]:
        return [s for node in self.nodes for s in node.slices]

    @property
    def slice_stores(self) -> list[SliceStorage]:
        return [s.storage for s in self.slices]

    @property
    def slice_count(self) -> int:
        return sum(len(node.slices) for node in self.nodes)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def connect(
        self,
        executor: str = "compiled",
        parallelism: int | None = None,
        pool_mode: str | None = None,
        memory_limit: int | None = None,
        user_name: str = "",
        queue: str = "default",
    ):
        """Open a session (the ODBC/JDBC connection analogue).

        ``parallelism`` and ``pool_mode`` configure the parallel executor
        (``executor="parallel"``): worker count per pipeline (1 = inline
        on the leader), and "fork" / "thread" (fork where available).
        ``memory_limit`` caps per-query operator memory in bytes
        (queries over it spill; equivalent to ``SET query_memory_limit``).
        ``user_name`` and ``queue`` tag the session's stl_query rows so
        capture/replay and stv_sessions can join on them.
        """
        from repro.engine.session import Session

        return Session(
            self,
            executor=executor,
            parallelism=parallelism,
            pool_mode=pool_mode,
            memory_limit=memory_limit,
            user_name=user_name,
            queue=queue,
        )

    def close(self) -> None:
        """Shut down worker pools and release the slice registry entry.

        Optional — a garbage-collected cluster cleans up the same way —
        but deterministic shutdown keeps forked workers from outliving
        tests that count processes.
        """
        self._worker_finalizer()

    # ---- storage lifecycle ------------------------------------------------------

    def table_version(self, table_name: str) -> int:
        """The largest version number among *table_name*'s shards (0: none)."""
        return max(store.version_number(table_name) for store in self._stores)

    def _touch_tables(self, table_names) -> None:
        for store in self._stores:
            store.touch(table_names)

    def create_table_storage(self, table: TableInfo) -> None:
        """Create the per-slice shards for a new table."""
        codecs = {
            c.name: (c.encode or "raw") for c in table.columns
        }
        with self.storage_lock:
            for store in self.slice_stores:
                store.create_shard(table.name, table.column_specs, codecs)
            self._row_counters[table.name] = 0

    def drop_table_storage(self, table_name: str) -> None:
        with self.storage_lock:
            for store in self.slice_stores:
                if store.has_shard(table_name):
                    store.drop_shard(table_name)
            self._row_counters.pop(table_name, None)

    def invalidate_statistics(self, table_name: str) -> None:
        """Mark a table's optimizer statistics stale.

        Sessions flip staleness via ``_mark_stats_stale`` on their own
        DML; this is the hook for every path that mutates storage
        *outside* a session — scrub block repair, replica failover,
        restore adoption — so the CBO never keeps trusting NDV/min-max
        measured against bytes that no longer exist.
        """
        try:
            table = self.catalog.table(table_name)
        except TableNotFoundError:
            return
        if table.statistics is not None:
            table.statistics.stale = True

    # ---- row routing -------------------------------------------------------------

    def distribute_rows(
        self,
        table: TableInfo,
        rows: Iterable[Sequence[object]],
        xid: int,
        validate: bool = True,
    ) -> int:
        """Route rows to slices per the table's distribution style.

        Rows are validated against column types and NOT NULL constraints
        unless the caller already validated them.
        """
        # The insert funnel: every INSERT/COPY/CTAS/UPDATE lands here, so
        # this is where the writing transaction learns it touched the
        # table (commit/rollback move its version for the result cache).
        self.transactions.record_write(xid, table.name)
        dist = table.distribution
        n = self.slice_count
        key_index: int | None = None
        if dist.style is DistStyle.KEY:
            key_index = table.column_index(dist.column)  # type: ignore[attr-defined]
        buffers: list[list[tuple]] = [[] for _ in range(n)]
        count = 0
        with self.storage_lock:
            counter = self._row_counters.get(table.name, 0)
            for row in rows:
                if validate:
                    row = self._validate_row(table, row)
                key_value = row[key_index] if key_index is not None else None
                for target in dist.target_slices(counter, key_value, n):
                    buffers[target].append(tuple(row))
                counter += 1
                count += 1
            self._row_counters[table.name] = counter
            for store, buffered in zip(self.slice_stores, buffers):
                if buffered:
                    store.shard(table.name).append_rows(buffered, xid)
                    store.disk.record_write(len(buffered) * table.row_byte_width)
        return count

    @staticmethod
    def _validate_row(table: TableInfo, row: Sequence[object]) -> tuple:
        if len(row) != len(table.columns):
            raise DataError(
                f"row has {len(row)} values, table {table.name!r} expects "
                f"{len(table.columns)}"
            )
        out = []
        for column, value in zip(table.columns, row):
            if value is None and column.not_null:
                raise DataError(
                    f"null value in column {column.name!r} violates NOT NULL"
                )
            out.append(column.sql_type.validate(value))
        return tuple(out)

    def seal_table(self, table_name: str) -> None:
        """Seal open tail blocks on every slice (end of a bulk load)."""
        with self.storage_lock:
            for store in self.slice_stores:
                if store.has_shard(table_name):
                    store.shard(table_name).seal()

    def scan_table(
        self,
        table: TableInfo,
        snapshot,
        column_names: Sequence[str | None] | None = None,
        zone_predicates: Sequence[tuple[int, str, object]] = (),
        *,
        one_replica: bool = False,
        **cursor,
    ):
        """Yield ``(slice index, batch)`` per block of *table* with a row
        *snapshot* sees — the slice walk of every whole-table reader
        outside the executors (DML, ANALYZE, resize), over the block
        cursor whose arguments these are; *column_names* default to all.
        *one_replica* stops after the first shard of a DISTSTYLE ALL table;
        reads are charged to each slice's disk and recovered as a SELECT's."""
        from repro.exec.context import recovered
        from repro.exec.scan import scan_batches

        if column_names is None:
            column_names = table.column_names
        recover = partial(recovered, self.recovery_handler)
        for index, store in enumerate(self.slice_stores):
            if not store.has_shard(table.name):
                continue
            shard = store.shard(table.name)
            for batch in scan_batches(
                shard, column_names, zone_predicates, snapshot,
                charge=store.disk.record_read, recover=recover, **cursor,
            ):
                yield index, batch
            if one_replica and table.distribution.style is DistStyle.ALL:
                return

    # ---- COPY sources ---------------------------------------------------------------

    def register_source(self, prefix: str, provider: SourceProvider) -> None:
        """Register a COPY source provider for URIs starting with *prefix*."""
        self._sources[prefix] = provider

    def register_inline_source(self, uri: str, lines: Sequence[str]) -> None:
        """Convenience: serve a fixed line list for one exact URI."""
        frozen = list(lines)
        self._sources[uri] = lambda requested: iter(frozen)

    def open_source(self, uri: str) -> Iterable[str]:
        """Resolve a COPY source URI to its line stream."""
        best: str | None = None
        for prefix in self._sources:
            if uri.startswith(prefix) and (best is None or len(prefix) > len(best)):
                best = prefix
        if best is None:
            raise CopyError(
                f"no COPY source registered for {uri!r} "
                f"(register one with Cluster.register_source)"
            )
        return self._sources[best](uri)

    # ---- introspection -----------------------------------------------------------------

    def table_bytes(self, table_name: str) -> int:
        """Total encoded bytes of a table across all slices."""
        total = 0
        for store in self.slice_stores:
            if store.has_shard(table_name):
                total += store.shard(table_name).encoded_bytes
        return total

    def total_bytes(self) -> int:
        return sum(store.used_bytes for store in self.slice_stores)


def _release_workers(pool_manager, registry_id: int) -> None:
    """Cluster finalizer (must not close over the cluster itself)."""
    from repro.exec.workers import unregister_slices

    pool_manager.close()
    unregister_slices(registry_id)
