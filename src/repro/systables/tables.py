"""System table schemas, recording API and virtual-table providers.

One :class:`SystemTables` instance rides on each cluster. It registers the
schemas below into the cluster catalog (so the binder and planner resolve
them like ordinary relations), offers the recording API the session, WLM
and executors call, and materializes rows on demand:

- ``stl_query`` — one row per completed statement (log).
- ``svl_query_summary`` — one row per executed plan step of a query (log),
  fed by the volcano/scan instrumentation hooks.
- ``stv_wlm_query_state`` — per-query admission outcomes of the most
  recent WLM simulation (snapshot: replaced each run).
- ``stl_wlm_rule_action`` — shed/timeout events from WLM admission (log).
- ``stv_blocklist`` — per-slice block/column/encoding/size, computed live
  from slice storage (snapshot: never stored).
- ``stl_fault_events`` — the fault injector's event log as a table,
  computed live from the attached injector.
- ``stv_slice_exec`` — per-slice worker accounting of the most recent
  parallel-executor query (snapshot: replaced each parallel run).
- ``svl_scan_encoding`` — per-codec operate-on-compressed counters of the
  most recent encoded scan (snapshot: replaced per such query).
- ``stv_sessions`` — one row per live server session, computed live from
  the attached :class:`~repro.server.ClusterServer` (empty when no
  server is running).
- ``stl_connection_log`` — connect/disconnect events of server sessions
  (log).

Timestamps come from a bound :class:`~repro.cloud.simclock.SimClock` when
the control plane manages the cluster (deterministic), and from wall
clock otherwise.
"""

from __future__ import annotations

import itertools
import time as _time

from repro.datatypes.types import BIGINT, DOUBLE, INTEGER, varchar_type
from repro.engine.catalog import ColumnInfo, TableInfo
from repro.engine.wlm import AdmissionStatus

#: table name -> [(column name, SqlType)]
SYSTEM_TABLE_COLUMNS: dict[str, list[tuple[str, object]]] = {
    "stl_query": [
        ("query", INTEGER),
        ("querytxt", varchar_type(4096)),
        ("queue", varchar_type(64)),
        ("state", varchar_type(16)),       # 'success' | 'error'
        ("error", varchar_type(1024)),
        ("starttime", DOUBLE),
        ("endtime", DOUBLE),
        ("elapsed_us", BIGINT),
        ("executor", varchar_type(16)),
        ("rows", BIGINT),
        ("recoveries", INTEGER),
        ("session_id", INTEGER),
        ("user_name", varchar_type(64)),
        ("result_fingerprint", varchar_type(64)),
        ("routed_to", varchar_type(16)),   # 'main' | 'burst'
    ],
    "stv_sessions": [
        ("session_id", INTEGER),
        ("user_name", varchar_type(64)),
        ("queue", varchar_type(64)),
        ("state", varchar_type(16)),       # 'idle' | 'busy' | 'draining'
        ("connected_at", DOUBLE),
        ("queries", BIGINT),
        ("errors", BIGINT),
        ("queue_depth", INTEGER),
    ],
    "stv_burst_clusters": [
        ("cluster_id", varchar_type(128)),
        ("state", varchar_type(16)),       # 'active' | 'retired'
        ("snapshot_id", varchar_type(64)),
        ("provisioned_at", DOUBLE),
        ("last_routed_at", DOUBLE),
        ("routed_queries", BIGINT),
        ("fallbacks", BIGINT),
        ("stale_rejects", BIGINT),
    ],
    "stl_connection_log": [
        ("recorded_at", DOUBLE),
        ("event", varchar_type(32)),       # 'connect' | 'disconnect'
        ("session_id", INTEGER),
        ("user_name", varchar_type(64)),
        ("queue", varchar_type(64)),
        ("detail", varchar_type(256)),
    ],
    "svl_query_summary": [
        ("query", INTEGER),
        ("step", INTEGER),
        ("operator", varchar_type(128)),
        ("rows", BIGINT),
        ("bytes", BIGINT),
        ("elapsed_us", BIGINT),
        ("blocks_read", BIGINT),
        ("blocks_skipped", BIGINT),
        ("cache_hits", BIGINT),
        ("cache_misses", BIGINT),
        ("encoded_batches", BIGINT),
        ("decode_bytes_avoided", BIGINT),
        ("workers", INTEGER),
        ("morsels", INTEGER),
        ("result_cache_hit", INTEGER),
        ("spilled_bytes", BIGINT),
        ("spill_partitions", INTEGER),
        ("est_rows", DOUBLE),
        ("misest_factor", DOUBLE),
    ],
    "svl_table_stats": [
        ("table_name", varchar_type(128)),
        ("row_count", BIGINT),
        ("total_bytes", BIGINT),
        ("stale", INTEGER),
    ],
    "svl_column_stats": [
        ("table_name", varchar_type(128)),
        ("column_name", varchar_type(128)),
        ("low", varchar_type(256)),
        ("high", varchar_type(256)),
        ("ndv", BIGINT),
        ("null_fraction", DOUBLE),
    ],
    "svl_scan_encoding": [
        ("query", INTEGER),
        ("encoding", varchar_type(32)),
        ("blocks", BIGINT),
        ("values_scanned", BIGINT),
        ("bytes_avoided", BIGINT),
        ("masks", BIGINT),
        ("folds", BIGINT),
        ("gathers", BIGINT),
    ],
    "stv_slice_exec": [
        ("query", INTEGER),
        ("slice", varchar_type(32)),
        ("node", varchar_type(32)),
        ("mode", varchar_type(16)),        # 'fork' | 'thread' | 'serial'
        ("morsels", INTEGER),
        ("rows", BIGINT),
        ("scanned_rows", BIGINT),
        ("elapsed_us", BIGINT),
        ("crashes", INTEGER),
    ],
    "stv_wlm_query_state": [
        ("query", INTEGER),
        ("queue", varchar_type(64)),
        ("state", varchar_type(16)),       # AdmissionStatus values
        ("arrival_s", DOUBLE),
        ("started_s", DOUBLE),
        ("wait_s", DOUBLE),
        ("exec_s", DOUBLE),
        ("peak_queue_depth", INTEGER),
        ("label", varchar_type(128)),
    ],
    "stl_wlm_rule_action": [
        ("recorded_at", DOUBLE),
        ("queue", varchar_type(64)),
        ("action", varchar_type(16)),      # 'shed' | 'timeout'
        ("label", varchar_type(128)),
        ("wait_s", DOUBLE),
    ],
    "stv_blocklist": [
        ("slice", varchar_type(32)),
        ("tbl", varchar_type(128)),
        ("col", varchar_type(128)),
        ("blocknum", INTEGER),
        ("num_values", INTEGER),
        ("encoding", varchar_type(32)),
        ("size_bytes", BIGINT),
        ("minvalue", varchar_type(256)),
        ("maxvalue", varchar_type(256)),
    ],
    "stl_fault_events": [
        ("at_s", DOUBLE),
        ("kind", varchar_type(64)),
        ("target", varchar_type(128)),
        ("detail", varchar_type(512)),
    ],
    "stv_block_cache": [
        ("capacity", INTEGER),
        ("entries", INTEGER),
        ("hits", BIGINT),
        ("misses", BIGINT),
        ("evictions", BIGINT),
        ("invalidations", BIGINT),
    ],
    "stv_result_cache": [
        ("key", varchar_type(64)),
        ("querytxt", varchar_type(4096)),
        ("executor", varchar_type(16)),
        ("rows", BIGINT),
        ("tables", varchar_type(256)),
        ("hits", BIGINT),
        ("valid", INTEGER),
    ],
    "svl_compile_cache": [
        ("kind", varchar_type(16)),        # 'pipeline' | 'kernel'
        ("signature", varchar_type(64)),
        ("mode", varchar_type(16)),
        ("hits", BIGINT),
    ],
}

#: Tables whose rows live in the event store (the rest are computed live).
_STORED_TABLES = frozenset(
    (
        "stl_query",
        "svl_query_summary",
        "stv_wlm_query_state",
        "stl_wlm_rule_action",
        "stv_slice_exec",
        "svl_scan_encoding",
        "stl_connection_log",
    )
)

_RULE_ACTIONS = {
    AdmissionStatus.SHED: "shed",
    AdmissionStatus.TIMED_OUT: "timeout",
}


def _misestimation_factor(actual: int, estimated: float) -> float:
    """How far off the planner's row estimate was, as a >=1 ratio.

    ``max(svl_query_summary.misest_factor)`` per query names the worst
    operator. Both sides are floored at one row so empty results and
    unestimated synthetic steps do not divide by zero.
    """
    actual_f = max(1.0, float(actual))
    estimated_f = max(1.0, float(estimated))
    return max(actual_f, estimated_f) / min(actual_f, estimated_f)


def _table_info(name: str) -> TableInfo:
    return TableInfo(
        name=name,
        columns=[
            ColumnInfo(name=column, sql_type=sql_type)
            for column, sql_type in SYSTEM_TABLE_COLUMNS[name]
        ],
    )


class SystemTables:
    """Per-cluster system-table facade: schemas, recording, providers."""

    def __init__(self, cluster, max_rows_per_table: int | None = None):
        from repro.systables.store import DEFAULT_MAX_ROWS, SystemEventStore

        self._cluster = cluster
        self.store = SystemEventStore(max_rows_per_table or DEFAULT_MAX_ROWS)
        self._clock = None
        self._query_ids = itertools.count(1)
        for name in SYSTEM_TABLE_COLUMNS:
            cluster.catalog.register_system_table(_table_info(name))

    # ---- time ----------------------------------------------------------------

    def bind_clock(self, clock) -> None:
        """Stamp rows from *clock* (a SimClock) instead of wall time."""
        self._clock = clock

    @property
    def now(self) -> float:
        if self._clock is not None:
            return self._clock.now
        return _time.time()

    # ---- recording: queries ---------------------------------------------------

    def next_query_id(self) -> int:
        return next(self._query_ids)

    def record_query(
        self,
        query_id: int,
        text: str,
        state: str,
        started: float,
        ended: float,
        elapsed_us: int,
        queue: str = "default",
        error: str | None = None,
        executor: str | None = None,
        rows: int = 0,
        recoveries: int = 0,
        session_id: int = 0,
        user_name: str = "",
        result_fingerprint: str = "",
        routed_to: str = "main",
    ) -> None:
        self.store.append(
            "stl_query",
            (
                query_id,
                text[:4096],
                queue,
                state,
                error,
                started,
                ended,
                elapsed_us,
                executor,
                rows,
                recoveries,
                session_id,
                user_name,
                result_fingerprint,
                routed_to,
            ),
        )

    def record_connection(
        self,
        event: str,
        session_id: int,
        user_name: str,
        queue: str,
        detail: str = "",
    ) -> None:
        """Append one stl_connection_log row (server connect/disconnect)."""
        self.store.append(
            "stl_connection_log",
            (self.now, event, session_id, user_name, queue, detail[:256]),
        )

    def record_query_summary(
        self, query_id: int, operators, result_cache_hit: bool = False
    ) -> None:
        """One svl_query_summary row per executed plan step.

        *operators* are :class:`repro.exec.context.OperatorStat` objects.
        A result-cache hit records its one synthetic "Result Cache" step
        with ``result_cache_hit`` set on the row.
        """
        for op in sorted(operators, key=lambda o: o.step):
            self.store.append(
                "svl_query_summary",
                (
                    query_id,
                    op.step,
                    op.operator,
                    op.rows,
                    op.bytes_read,
                    op.elapsed_us,
                    op.blocks_read,
                    op.blocks_skipped,
                    op.cache_hits,
                    op.cache_misses,
                    op.encoded_batches,
                    op.decode_bytes_avoided,
                    op.workers,
                    op.morsels,
                    int(result_cache_hit),
                    op.spilled_bytes,
                    op.spill_partitions,
                    float(op.est_rows),
                    _misestimation_factor(op.rows, op.est_rows),
                ),
            )

    def record_scan_encoding(self, query_id: int, encoding: dict) -> None:
        """Snapshot the latest encoded query's per-codec scan counters
        (svl_scan_encoding; *encoding* is ``ScanStats.encoding`` — codec
        name → count vector indexed by ``repro.exec.encoded.ENC_*``)."""
        from repro.exec.encoded import (
            ENC_BLOCKS,
            ENC_BYTES_AVOIDED,
            ENC_FOLDS,
            ENC_GATHERS,
            ENC_MASKS,
            ENC_VALUES,
        )

        self.store.replace(
            "svl_scan_encoding",
            [
                (
                    query_id,
                    codec,
                    counts[ENC_BLOCKS],
                    counts[ENC_VALUES],
                    counts[ENC_BYTES_AVOIDED],
                    counts[ENC_MASKS],
                    counts[ENC_FOLDS],
                    counts[ENC_GATHERS],
                )
                for codec, counts in sorted(encoding.items())
            ],
        )

    def record_slice_exec(self, query_id: int, slice_execs) -> None:
        """Snapshot per-slice worker accounting of the latest parallel
        query (stv_slice_exec; *slice_execs* are
        :class:`repro.exec.context.SliceExec` objects)."""
        self.store.replace(
            "stv_slice_exec",
            [
                (
                    query_id,
                    s.slice_id,
                    s.node_id,
                    s.mode,
                    s.morsels,
                    s.rows,
                    s.scanned_rows,
                    s.elapsed_us,
                    s.crashes,
                )
                for s in slice_execs
            ],
        )

    # ---- recording: WLM -------------------------------------------------------

    def record_wlm(self, reports: dict) -> None:
        """Record one WLM admission simulation.

        ``stv_wlm_query_state`` is a snapshot of the latest run (replaced);
        shed/timeout events append to ``stl_wlm_rule_action``.
        """
        state_rows: list[tuple] = []
        query_seq = 0
        for name in sorted(reports):
            report = reports[name]
            depth = report.max_queue_depth
            for outcome in sorted(
                report.outcomes, key=lambda o: o.arrival.arrival_s
            ):
                query_seq += 1
                state_rows.append(
                    (
                        query_seq,
                        name,
                        outcome.status.value,
                        outcome.arrival.arrival_s,
                        outcome.started_s,
                        outcome.wait_s,
                        outcome.finished_s - outcome.started_s,
                        depth,
                        outcome.arrival.label,
                    )
                )
                action = _RULE_ACTIONS.get(outcome.status)
                if action is not None:
                    self.store.append(
                        "stl_wlm_rule_action",
                        (
                            outcome.started_s,
                            name,
                            action,
                            outcome.arrival.label,
                            outcome.wait_s,
                        ),
                    )
        self.store.replace("stv_wlm_query_state", state_rows)

    # ---- providers ------------------------------------------------------------

    def rows(self, name: str) -> list[tuple]:
        """Materialize the current rows of one system table."""
        if name in _STORED_TABLES:
            return self.store.rows(name)
        if name == "stv_blocklist":
            return self._blocklist_rows()
        if name == "stl_fault_events":
            return self._fault_rows()
        if name == "stv_block_cache":
            return self._block_cache_rows()
        if name == "stv_result_cache":
            return self._result_cache_rows()
        if name == "svl_compile_cache":
            return self._compile_cache_rows()
        if name == "stv_sessions":
            return self._session_rows()
        if name == "stv_burst_clusters":
            return self._burst_cluster_rows()
        if name == "svl_table_stats":
            return self._table_stats_rows()
        if name == "svl_column_stats":
            return self._column_stats_rows()
        raise KeyError(f"unknown system table {name!r}")

    def _table_stats_rows(self) -> list[tuple]:
        rows: list[tuple] = []
        for name in self._cluster.catalog.table_names():
            stats = self._cluster.catalog.table(name).statistics
            rows.append(
                (name, stats.row_count, stats.total_bytes, int(stats.stale))
            )
        return rows

    def _column_stats_rows(self) -> list[tuple]:
        rows: list[tuple] = []
        for name in self._cluster.catalog.table_names():
            table = self._cluster.catalog.table(name)
            for column in table.columns:
                col = table.statistics.columns.get(column.name)
                if col is None:
                    continue  # never analyzed
                rows.append(
                    (
                        name,
                        column.name,
                        None if col.low is None else str(col.low),
                        None if col.high is None else str(col.high),
                        col.distinct_count,
                        col.null_fraction,
                    )
                )
        return rows

    def _session_rows(self) -> list[tuple]:
        server = getattr(self._cluster, "server", None)
        if server is None:
            return []
        return server.session_rows()

    def _burst_cluster_rows(self) -> list[tuple]:
        server = getattr(self._cluster, "server", None)
        if server is None:
            return []
        return server.burst_rows()

    def _result_cache_rows(self) -> list[tuple]:
        cache = getattr(self._cluster, "result_cache", None)
        if cache is None:
            return []
        return [
            (
                entry.key,
                entry.sql[:4096],
                entry.executor,
                len(entry.rows),
                ",".join(entry.tables)[:256],
                entry.hits,
                int(entry.valid()),
            )
            for entry in cache.entries()
        ]

    def _compile_cache_rows(self) -> list[tuple]:
        from repro.exec.batch import KERNEL_CACHE

        # Kernel code objects are process-wide (shared by every cluster
        # in the process), unlike the per-cluster pipeline cache.
        return [
            ("pipeline", *row) for row in self._cluster.segment_cache.rows()
        ] + [("kernel", *row) for row in KERNEL_CACHE.rows()]

    def _block_cache_rows(self) -> list[tuple]:
        cache = getattr(self._cluster, "block_cache", None)
        if cache is None:
            return []
        return [
            (
                cache.capacity,
                len(cache),
                cache.hits,
                cache.misses,
                cache.evictions,
                cache.invalidations,
            )
        ]

    def _blocklist_rows(self) -> list[tuple]:
        rows: list[tuple] = []
        for store in self._cluster.slice_stores:
            for shard in store.shards.values():
                for column_name in shard.column_names:
                    chain = shard.chain(column_name)
                    for blocknum, block in enumerate(chain.blocks):
                        zone = block.zone_map
                        rows.append(
                            (
                                store.slice_id,
                                shard.table_name,
                                column_name,
                                blocknum,
                                block.count,
                                block.codec_name,
                                block.encoded_bytes,
                                None if zone.low is None else str(zone.low),
                                None if zone.high is None else str(zone.high),
                            )
                        )
        return rows

    def _fault_rows(self) -> list[tuple]:
        injector = self._cluster.fault_injector
        if injector is None:
            return []
        return [
            (event.at_s, event.kind, event.target, event.detail)
            for event in injector.log
        ]
