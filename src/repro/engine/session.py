"""Sessions: the leader-node statement driver.

A session parses SQL, plans it, runs it through the configured executor,
and manages transactions (autocommit per statement unless BEGIN is
active). It implements the full statement set: queries, DDL, DML, COPY,
ANALYZE [COMPRESSION], VACUUM [REINDEX], EXPLAIN, and transaction control.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.compression.analyzer import CompressionAnalyzer
from repro.datatypes.parsing import parse_literal
from repro.datatypes.types import type_from_name
from repro.distribution.diststyle import DistStyle, make_distribution
from repro.engine.catalog import (
    ColumnInfo,
    ColumnStatistics,
    TableInfo,
    TableStatistics,
)
from repro.engine.cluster import Cluster
from repro.engine.resultcache import result_cache_key
from repro.engine.transactions import BOOTSTRAP_XID
from repro.errors import (
    QUERY_RECOVERABLE_ERRORS,
    AnalysisError,
    ClusterReadOnlyError,
    CopyError,
    DataError,
    ExecutionError,
    QueryRetryExhaustedError,
    ReproError,
    SpillCapacityError,
    TransactionError,
)
from repro.exec import workers
from repro.exec.batch import ColumnBatch, apply_masks, make_mask_kernel
from repro.exec.codegen import CompiledExecutor
from repro.exec.context import (
    ExecutionContext,
    OperatorStat,
    ParallelConfig,
    QueryStats,
)
from repro.exec.spill import MemoryBudget
from repro.exec.parallel import ParallelExecutor
from repro.exec.scan import ROW_OFFSET, scan_batches
from repro.exec.vectorized import VectorizedExecutor
from repro.exec.volcano import VolcanoExecutor, scan_column_names
from repro.plan.binder import Binder
from repro.plan.physical import PhysicalPlanner, PhysicalScan, explain
from repro.sql import ast
from repro.sql.expressions import compile_expression
from repro.sql.hll import HyperLogLog
from repro.sql.parser import parse_statement, parse_statements
from repro.sql.subqueries import expand_in_expression, expand_subqueries
from repro.storage import epoch
from repro.util.fingerprint import result_fingerprint


@dataclass
class QueryResult:
    """Rows plus metadata from one statement execution."""

    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    rowcount: int = 0
    stats: QueryStats = field(default_factory=QueryStats)
    command: str = ""
    #: The next three are the statement envelope's record
    #: (:meth:`Session._execute_statement`), read by the server, the
    #: burst router's counters and replay instead of being recomputed.
    #: Canonical text of a client SELECT as it was planned and recorded.
    sql_text: str = ""
    #: sha256 over a SELECT's columns and rows ("" for other commands).
    result_fingerprint: str = ""
    #: "burst" when a concurrency-scaling cluster executed the SELECT.
    routed_to: str = "main"

    def scalar(self) -> object:
        """The single value of a single-row, single-column result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got {len(self.rows)} rows"
            )
        return self.rows[0][0]

    def column(self, name: str) -> list[object]:
        """All values of one named output column."""
        try:
            index = self.columns.index(name)
        except ValueError:
            raise ExecutionError(f"no output column {name!r}") from None
        return [row[index] for row in self.rows]


#: The selectable execution engines (``SET executor = <name>``).
_EXECUTORS = {
    "volcano": VolcanoExecutor,
    "compiled": CompiledExecutor,
    "vectorized": VectorizedExecutor,
    "parallel": ParallelExecutor,
}

#: Statement types refused while the cluster is degraded to read-only.
_WRITE_STATEMENTS = (
    ast.CreateTableStatement,
    ast.CreateTableAsStatement,
    ast.DropTableStatement,
    ast.InsertStatement,
    ast.DeleteStatement,
    ast.UpdateStatement,
    ast.CopyStatement,
    ast.VacuumStatement,
)


@dataclass(slots=True)
class _PlannedSelect:
    """One bound and planned SELECT: what the cache, admit and execute
    stages need, whichever cluster's storage they then run against."""

    physical: object
    plan_text: str
    columns: list[str]
    #: System-table rows materialized once per query (a stable snapshot
    #: across retries); user tables are read from slice storage.
    system_rows: dict[str, list[tuple]]
    sql_text: str
    #: Sorted user tables the plan scans: the burst router's freshness
    #: check and the result-cache entry's invalidation dependencies.
    scan_tables: tuple[str, ...]
    executor: str
    #: Only the outermost SELECT of a statement faces WLM admission.
    top_level: bool


def _on_off(name: str, value: object) -> bool:
    """The value of a boolean ``SET name = on | off``."""
    text = str(value).lower()
    if text in ("on", "true", "1"):
        return True
    if text in ("off", "false", "0"):
        return False
    raise AnalysisError(f"{name} expects on/off, got {value!r}")


class Session:
    """One client connection to a cluster."""

    #: Leader-side segment retries before a recoverable fault becomes fatal.
    MAX_SEGMENT_RETRIES = 3

    def __init__(
        self,
        cluster: Cluster,
        executor: str = "compiled",
        parallelism: int | None = None,
        pool_mode: str | None = None,
        memory_limit: int | None = None,
        user_name: str = "",
        queue: str = "default",
    ):
        if executor not in _EXECUTORS:
            raise ValueError(f"unknown executor {executor!r}")
        if parallelism is not None and parallelism < 1:
            raise ValueError(f"parallelism must be positive, got {parallelism}")
        if pool_mode is not None and pool_mode not in ("fork", "thread", "serial"):
            raise ValueError(f"unknown pool mode {pool_mode!r}")
        self._cluster = cluster
        #: Cluster-unique connection identity; stl_query rows carry it so
        #: capture/replay can reconstruct per-session query streams.
        self.session_id = next(cluster._session_ids)
        self.user_name = user_name
        self.queue_name = queue
        #: Per-session admission gate override. The concurrent server
        #: (:class:`repro.server.ClusterServer`) installs its live
        #: per-queue SlotGate here; None falls back to the cluster gate.
        self.wlm_gate = None
        #: Concurrency-scaling router (:class:`repro.server.burst.BurstRouter`),
        #: installed by the server like the gate. The SELECT stage asks it,
        #: once the plan names the scanned tables, whether a burst
        #: cluster's storage should serve this statement.
        self.burst_router = None
        self._executor_kind = executor
        #: Workers per parallel pipeline; None = one per slice (capped to
        #: the machine's cores), the paper's slice-per-core layout.
        self._parallelism = parallelism
        self._pool_mode = pool_mode
        self._binder = Binder(cluster.catalog)
        #: ``SET enable_cbo`` rebuilds it: cost-based join enumeration and
        #: operator selection (on by default); off keeps joins in written
        #: order.
        self._planner = PhysicalPlanner(cluster.catalog, cluster.slice_count)
        self._xid: int | None = None  # explicit transaction, if any
        #: ``SET enable_result_cache``; the cluster's parameter-group
        #: default (on, as in Redshift) unless overridden per session.
        self._enable_result_cache = cluster.enable_result_cache_default
        if memory_limit is not None and memory_limit < 1:
            raise ValueError(
                f"memory_limit must be positive bytes, got {memory_limit}"
            )
        #: ``SET query_memory_limit``: explicit per-query operator-memory
        #: cap in bytes. None derives one from the cluster's memory pool
        #: and the admitting WLM queue's per-slot share (or runs
        #: unbounded when neither is configured).
        self._memory_limit = memory_limit
        #: ``SET enable_encoded_scan``: off forces vectorized and parallel
        #: scans to decode every block up front instead of handing encoded
        #: columns to the kernels.
        self._enable_encoded_scan = True
        #: SELECT nesting depth — only the outermost SELECT of a
        #: statement consults the WLM admission gate (subqueries ride
        #: their parent's admission).
        self._select_depth = 0

    # ---- public API ---------------------------------------------------------

    def execute(self, sql: str) -> QueryResult:
        """Execute exactly one SQL statement."""
        return self._execute_statement(parse_statement(sql))

    def execute_script(self, sql: str) -> list[QueryResult]:
        """Execute a semicolon-separated script, returning all results."""
        return [self._execute_statement(s) for s in parse_statements(sql)]

    def set_executor(self, executor: str) -> None:
        if executor not in _EXECUTORS:
            raise ValueError(f"unknown executor {executor!r}")
        self._executor_kind = executor

    @property
    def in_transaction(self) -> bool:
        return self._xid is not None

    # ---- the statement envelope ---------------------------------------------

    def _execute_statement(self, statement: ast.Statement) -> QueryResult:
        """The one statement envelope. Every parsed client statement is
        timed, fingerprinted and written to stl_query here, once, however
        it ends; the exception it died with is re-raised unchanged."""
        systables = self._cluster.systables
        query_id = systables.next_query_id()
        started = systables.now
        t0 = time.perf_counter()
        error: BaseException | None = None
        try:
            result = self._run_statement(statement)
            if result.command == "SELECT":
                result.result_fingerprint = result_fingerprint(
                    result.columns, result.rows
                )
            return result
        except BaseException as exc:
            error = exc
            result = QueryResult()  # an error row carries no result detail
            raise
        finally:
            stats = result.stats
            systables.record_query(
                query_id,
                text=result.sql_text or statement.to_sql(),
                state="success" if error is None else "error",
                started=started,
                ended=systables.now,
                elapsed_us=int((time.perf_counter() - t0) * 1_000_000),
                error=None if error is None else str(error),
                executor=stats.executor if error is None else None,
                rows=result.rowcount,
                segment_retries=stats.segment_retries,
                queue=self.queue_name,
                session_id=self.session_id,
                user_name=self.user_name,
                result_fingerprint=result.result_fingerprint,
                routed_to=result.routed_to,
            )
            if stats.operators:
                systables.record_query_summary(
                    query_id,
                    stats.operators,
                    result_cache_hit=stats.result_cache_hit,
                )
            if stats.scan.encoding:
                systables.record_scan_encoding(query_id, stats.scan.encoding)
            if stats.slice_exec:
                systables.record_slice_exec(query_id, stats.slice_exec)
            if stats.spill_events:
                systables.record_query_spill(query_id, stats.spill_events)

    def _run_statement(self, statement: ast.Statement) -> QueryResult:
        """Transaction control, SET and plain EXPLAIN run as they are;
        everything else runs inside a transaction that is resolved in a
        ``finally``: an autocommit statement commits or rolls back however
        it ends, an explicit transaction stays open for the client."""
        if isinstance(statement, ast.BeginStatement):
            if self._xid is not None:
                raise TransactionError("a transaction is already in progress")
            self._xid = self._cluster.transactions.begin()
            return QueryResult(command="BEGIN")
        if isinstance(statement, ast.CommitStatement):
            if self._xid is None:
                raise TransactionError("no transaction in progress")
            self._cluster.transactions.commit(self._xid)
            self._xid = None
            return QueryResult(command="COMMIT")
        if isinstance(statement, ast.RollbackStatement):
            if self._xid is None:
                raise TransactionError("no transaction in progress")
            self._cluster.transactions.rollback(self._xid)
            self._xid = None
            return QueryResult(command="ROLLBACK")
        if isinstance(statement, ast.SetStatement):
            return self._set_parameter(statement)
        if isinstance(statement, ast.ExplainStatement):
            if not statement.analyze:
                return self._explain(statement.statement)
            if not isinstance(statement.statement, ast.SelectStatement):
                raise AnalysisError(
                    "EXPLAIN ANALYZE supports only SELECT statements"
                )
            # EXPLAIN ANALYZE runs the query, so it needs a snapshot
            # like any SELECT; fall through to the transaction path.

        autocommit = self._xid is None
        transactions = self._cluster.transactions
        xid = transactions.begin() if autocommit else self._xid
        ok = False
        try:
            result = self._dispatch(statement, xid)
            ok = True
            return result
        finally:
            if autocommit and ok:
                transactions.commit(xid)
            elif autocommit:
                transactions.rollback(xid)

    def _dispatch(self, statement: ast.Statement, xid: int) -> QueryResult:
        if self._cluster.read_only and isinstance(statement, _WRITE_STATEMENTS):
            # Degraded mode keeps answering reads (§5's escalator): only
            # statements that would mutate storage are refused.
            raise ClusterReadOnlyError(self._cluster.read_only_reason or "")
        if isinstance(statement, ast.SelectStatement):
            return self._run_select(statement.query, xid, client=True)
        if isinstance(statement, ast.ExplainStatement):
            return self._explain_analyze(statement.statement, xid)
        if isinstance(statement, ast.CreateTableStatement):
            return self._create_table(statement)
        if isinstance(statement, ast.CreateTableAsStatement):
            return self._create_table_as(statement, xid)
        if isinstance(statement, ast.DropTableStatement):
            return self._drop_table(statement)
        if isinstance(statement, ast.InsertStatement):
            return self._insert(statement, xid)
        if isinstance(statement, ast.DeleteStatement):
            return self._delete(statement, xid)
        if isinstance(statement, ast.UpdateStatement):
            return self._update(statement, xid)
        if isinstance(statement, ast.CopyStatement):
            return self._copy(statement, xid)
        if isinstance(statement, ast.AnalyzeStatement):
            return self._analyze(statement, xid)
        if isinstance(statement, ast.VacuumStatement):
            return self._vacuum(statement, xid)
        raise AnalysisError(
            f"unsupported statement {type(statement).__name__}"
        )

    def _set_parameter(self, statement: ast.SetStatement) -> QueryResult:
        """``SET name = value``: session parameters. ``executor`` selects
        the execution engine (volcano | compiled | vectorized | parallel);
        ``parallelism`` sets the parallel executor's workers per pipeline."""
        name = statement.name.lower()
        if name == "executor":
            try:
                self.set_executor(statement.value.lower())
            except ValueError as exc:
                raise AnalysisError(str(exc)) from exc
        elif name == "parallelism":
            try:
                degree = int(statement.value)
            except (TypeError, ValueError):
                raise AnalysisError(
                    f"parallelism must be an integer, got {statement.value!r}"
                ) from None
            if degree < 1:
                raise AnalysisError(
                    f"parallelism must be positive, got {degree}"
                )
            self._parallelism = degree
        elif name == "enable_result_cache":
            self._enable_result_cache = _on_off(name, statement.value)
        elif name == "query_memory_limit":
            limit = None
            if str(statement.value).lower() not in (
                "off", "unlimited", "none", "0"
            ):
                try:
                    limit = int(statement.value)
                except (TypeError, ValueError):
                    raise AnalysisError(
                        "query_memory_limit expects bytes or off/unlimited, "
                        f"got {statement.value!r}"
                    ) from None
                if limit < 1:
                    raise AnalysisError(
                        f"query_memory_limit must be positive, got {limit}"
                    )
            self._memory_limit = limit
        elif name == "enable_encoded_scan":
            self._enable_encoded_scan = _on_off(name, statement.value)
        elif name == "enable_cbo":
            self._planner = PhysicalPlanner(
                self._cluster.catalog,
                self._cluster.slice_count,
                enable_cbo=_on_off(name, statement.value),
            )
        else:
            raise AnalysisError(
                f"unknown session parameter {statement.name!r}"
            )
        return QueryResult(command="SET")

    # ---- SELECT ---------------------------------------------------------------------

    def effective_parallelism(self) -> int:
        """Workers per parallel pipeline: the configured degree, or one
        worker per slice capped to the machine's cores."""
        if self._parallelism is not None:
            return self._parallelism
        return max(1, min(self._cluster.slice_count, os.cpu_count() or 1))

    def effective_memory_limit(self) -> int | None:
        """The per-query operator-memory cap in bytes, or None (unbounded).

        An explicit session limit (``SET query_memory_limit`` /
        ``connect(memory_limit=...)``) wins; otherwise the cluster's
        memory pool priced by the admitting WLM queue's per-slot share.
        """
        if self._memory_limit is not None:
            return self._memory_limit
        pool = self._cluster.memory_bytes
        manager = self._cluster.workload_manager
        gate = self._admission_gate()
        if not pool or manager is None or gate is None:
            return None
        try:
            fraction = manager.memory_per_slot_fraction(gate.queue)
        except KeyError:
            return None
        return max(1, int(pool * fraction))

    def _admission_gate(self):
        """The WLM gate this session faces: the server-installed live
        per-queue gate when one is set, else the cluster-wide gate."""
        if self.wlm_gate is not None:
            return self.wlm_gate
        return self._cluster.wlm_gate

    def _context(
        self, cluster: Cluster, xid: int, executor: str
    ) -> ExecutionContext:
        """One attempt's context: *cluster*'s storage, caches and fault
        injector under this session's parameters."""
        # Each query gets its own interconnect so its stats are scoped to
        # it; totals roll up to the cluster interconnect afterwards.
        from repro.engine.network import Interconnect

        ctx = ExecutionContext(
            slices=cluster.slice_stores,
            snapshot=cluster.transactions.snapshot(xid),
            interconnect=Interconnect(),
            fault_injector=cluster.fault_injector,
            block_cache=cluster.block_cache,
            encoded_scan=self._enable_encoded_scan,
            segment_cache=cluster.segment_cache,
        )
        limit = self.effective_memory_limit()
        if limit is not None:
            from repro.storage.spillfile import SpillManager

            ctx.memory_budget = MemoryBudget(limit)
            ctx.spill = SpillManager(injector=cluster.fault_injector)
        if executor == "parallel":
            ctx.parallel = ParallelConfig(
                degree=self.effective_parallelism(),
                mode=self._pool_mode or workers.default_mode(),
                pool_manager=cluster.pool_manager,
                registry_id=cluster.worker_registry_id,
            )
        ctx.stats.network = ctx.interconnect.stats
        return ctx

    def _run_select(
        self, query, xid: int, executor: str | None = None, client: bool = False
    ) -> QueryResult:
        """Plan *query*, then cache → admit → execute it. *executor*
        overrides the session's for this SELECT and its subqueries;
        *client* marks a client's own SELECT statement, the only kind the
        burst router is asked about."""
        executor = executor or self._executor_kind
        # Subqueries re-enter here from the expansion below.
        top_level = self._select_depth == 0
        self._select_depth += 1
        try:
            expand_subqueries(
                query, lambda inner: self._run_select(inner, xid, executor).rows
            )
            logical = self._binder.bind_select(query)
            physical = self._planner.plan(logical)
            self._cluster.workload.record_plan(physical)
            scan_tables, system_rows = self._scanned_tables(physical)
            planned = _PlannedSelect(
                physical=physical,
                plan_text=explain(physical),
                columns=[c.name for c in logical.output],
                system_rows=system_rows,
                sql_text=query.to_sql(),
                scan_tables=scan_tables,
                executor=executor,
                top_level=top_level,
            )
            router = self.burst_router
            if client and router is not None and not planned.system_rows:
                # Route before the cache lookup and before admission: a
                # routed statement consults the burst cluster's own cache
                # and takes no slot on main.
                burst = router.route(self, planned.scan_tables)
                if burst is not None:
                    result = self._select_on_burst(router, burst, planned)
                    if result is not None:
                        return result
            return self._select_on(
                self._cluster, planned, xid, self._admission_gate()
            )
        finally:
            self._select_depth -= 1

    def _select_on_burst(self, router, burst, planned) -> QueryResult | None:
        """Run a routed SELECT against the burst cluster. None means it
        failed there: the router has counted the fallback (and retired a
        broken clone), nothing was recorded, and the caller carries on
        down main's path — SELECTs are idempotent."""
        transactions = burst.cluster.transactions
        xid = transactions.begin()
        try:
            result = self._select_on(burst.cluster, planned, xid, None)
        except Exception as exc:  # noqa: BLE001 — idempotent fallback on main
            router.failed(burst, exc)
            return None
        finally:
            transactions.rollback(xid)  # read-only: nothing to commit
        router.completed(burst)
        result.routed_to = "burst"
        return result

    def _select_on(
        self, cluster: Cluster, planned: _PlannedSelect, xid: int, gate
    ) -> QueryResult:
        """Cache → admit → execute[attempt n] against *cluster*'s storage
        and caches, under this session's current parameters."""
        # Result cache: only autocommit SELECTs over user tables are
        # eligible. Inside an explicit transaction this session may read
        # its own uncommitted writes — rows no other query should be
        # served — and system-table rows have no mutation epochs to
        # validate against.
        result_cache = cluster.result_cache
        cache_key: str | None = None
        owns_flight = False
        if (
            self._enable_result_cache
            and self._xid is None
            and not planned.system_rows
        ):
            cache_key = result_cache_key(
                planned.sql_text, planned.plan_text, planned.executor
            )
            # Single-flight: N concurrent sessions missing on the same
            # key execute once — one leads, the rest wait here and are
            # served the entry the leader stored.
            entry, owns_flight = result_cache.lead_or_wait(cache_key)
            if entry is not None:
                return self._serve_cached(entry, planned, gate)
        try:
            if gate is not None and planned.top_level:
                gate.admit(planned.sql_text)
            return self._execute_select(cluster, planned, xid, cache_key)
        except SpillCapacityError:
            # Out of temp space (real capacity or an injected DISK_FULL
            # window): shed the query cleanly — typed error to the
            # client, a WLM rule action for operators.
            self._record_spill_shed(cluster, gate, planned.sql_text)
            raise
        finally:
            # Wake the waiters no matter how the execution ended; a
            # waiter finding no stored entry leads the next flight.
            if owns_flight:
                result_cache.finish_flight(cache_key)

    def _execute_select(
        self,
        cluster: Cluster,
        planned: _PlannedSelect,
        xid: int,
        cache_key: str | None,
    ) -> QueryResult:
        retries = 0
        while True:
            # Each attempt gets a fresh context: a retried segment restarts
            # with clean scan/network accounting against repaired storage.
            # Referenced-table epochs are re-captured per attempt for the
            # same reason — recovery repairs storage (moving epochs)
            # between attempts, and the stored entry must be validated
            # against the state the winning attempt actually read.
            entry_epochs = tuple(
                epoch.table_epoch(table) for table in planned.scan_tables
            )
            ctx = self._context(cluster, xid, planned.executor)
            if cache_key is not None:
                # Cached (autocommit) SELECTs must freeze their snapshot
                # AFTER the epoch capture above: a commit between the
                # transaction-start snapshot and the capture would be
                # invisible to the result yet already in the epochs,
                # storing a stale entry that validates forever.
                ctx.snapshot = cluster.transactions.statement_snapshot(xid)
            ctx.system_rows = planned.system_rows
            ctx.stats.executor = planned.executor
            ctx.stats.plan_text = planned.plan_text
            ctx.stats.segment_retries = retries
            executor = _EXECUTORS[planned.executor](ctx)
            start = time.perf_counter()
            try:
                rows = executor.execute(planned.physical)
            except QUERY_RECOVERABLE_ERRORS as exc:
                handler = cluster.recovery_handler
                if handler is None:
                    raise
                retries += 1
                if retries > self.MAX_SEGMENT_RETRIES or not handler(exc):
                    raise QueryRetryExhaustedError(retries, exc) from exc
                continue
            finally:
                # Whatever way the attempt ended — success, retry, shed,
                # abort — its spill files are reclaimed here, so no temp
                # bytes ever leak onto the slice disks.
                if ctx.spill is not None:
                    ctx.spill.release_all()
            break
        ctx.stats.execute_seconds = time.perf_counter() - start
        ctx.stats.rows_returned = len(rows)
        if ctx.memory_budget is not None:
            ctx.stats.peak_memory_bytes = ctx.memory_budget.peak_bytes
        cluster.interconnect.absorb(ctx.interconnect.stats)
        if cache_key is not None:
            cluster.result_cache.store(
                cache_key,
                planned.sql_text,
                planned.executor,
                planned.columns,
                rows,
                planned.scan_tables,
                entry_epochs,
            )
            ctx.stats.result_cache_status = "miss"
        return QueryResult(
            columns=planned.columns,
            rows=rows,
            rowcount=len(rows),
            stats=ctx.stats,
            command="SELECT",
            sql_text=planned.sql_text,
        )

    @staticmethod
    def _record_spill_shed(cluster: Cluster, gate, label: str) -> None:
        """Log a spill-capacity shed into stl_wlm_rule_action, next to
        the admission sheds it is the execution-time sibling of."""
        systables = cluster.systables
        systables.store.append(
            "stl_wlm_rule_action",
            (
                systables.now,
                gate.queue if gate is not None else "default",
                "shed",
                label[:128],
                0.0,
            ),
        )

    @staticmethod
    def _serve_cached(entry, planned: _PlannedSelect, gate) -> QueryResult:
        """Answer a SELECT from the result cache: no execution, and no
        WLM admission — the gate records a bypass instead."""
        stats = QueryStats()
        stats.executor = entry.executor
        stats.plan_text = planned.plan_text
        stats.result_cache_hit = True
        stats.result_cache_status = "hit"
        rows = list(entry.rows)
        stats.rows_returned = len(rows)
        # One synthetic step (-1 never collides with a plan step, so
        # EXPLAIN ANALYZE renders every plan line "(never executed)"):
        # the hit still lands a row in svl_query_summary.
        stats.operators = [
            OperatorStat(step=-1, operator="Result Cache", rows=len(rows))
        ]
        if gate is not None and planned.top_level:
            gate.record_bypass(entry.sql)
        return QueryResult(
            columns=list(entry.columns),
            rows=rows,
            rowcount=len(rows),
            stats=stats,
            command="SELECT",
            sql_text=planned.sql_text,
        )

    def _scanned_tables(
        self, plan
    ) -> tuple[tuple[str, ...], dict[str, list[tuple]]]:
        """The user tables *plan* scans, sorted, and the provider rows of
        every system table it scans, materialized here once."""
        catalog = self._cluster.catalog
        user: set[str] = set()
        system: dict[str, list[tuple]] = {}

        def walk(node) -> None:
            if isinstance(node, PhysicalScan):
                name = node.table.name
                if not catalog.is_system_table(name):
                    user.add(name)
                elif name not in system:
                    system[name] = self._cluster.systables.rows(name)
            for child in node.children:
                walk(child)

        walk(plan)
        return tuple(sorted(user)), system

    def _explain(self, statement: ast.Statement) -> QueryResult:
        if isinstance(statement, ast.SelectStatement):
            logical = self._binder.bind_select(statement.query)
            physical = self._planner.plan(logical)
            header = f"Executor: {self._executor_kind}"
            if self._executor_kind == "parallel":
                header += f" (parallelism {self.effective_parallelism()})"
            lines = [header] + explain(physical).splitlines()
            return QueryResult(
                columns=["QUERY PLAN"],
                rows=[(line,) for line in lines],
                rowcount=len(lines),
                command="EXPLAIN",
            )
        raise AnalysisError("EXPLAIN supports only SELECT statements")

    def _explain_analyze(
        self, statement: ast.SelectStatement, xid: int
    ) -> QueryResult:
        """Run the query and render the plan with per-step actuals inline.

        The per-operator hooks live in the interpreted and vectorized
        executors; the compiled executor fuses pipelines and reports only
        the steps it drives, so a compiled session's EXPLAIN ANALYZE runs
        through the volcano path for a complete per-step report. A
        vectorized session keeps its own executor (and so also reports
        block-decode cache traffic); a parallel session keeps its own
        executor too and annotates fused steps with their degree of
        parallelism (``workers=... morsels=...``).
        """
        executor = self._executor_kind
        if executor == "compiled":
            executor = "volcano"
        result = self._run_select(statement.query, xid, executor)
        lines = _annotate_plan(result.stats.plan_text, result.stats.operators)
        scan = result.stats.scan
        if scan.cache_hits or scan.cache_misses:
            lines.append(
                f"Block decode cache: {scan.cache_hits} hits, "
                f"{scan.cache_misses} misses"
            )
        if scan.encoding:
            from repro.exec.encoded import PUSHDOWN_KIND

            kinds = sorted(
                {PUSHDOWN_KIND.get(codec, codec) for codec in scan.encoding}
            )
            lines.append(
                f"Encoded scan: {scan.encoded_batches} batches, "
                f"{scan.decode_bytes_avoided} decode bytes avoided "
                f"({', '.join(kinds)})"
            )
        if result.stats.result_cache_status == "hit":
            lines.append("Result cache: hit (execution skipped)")
        elif result.stats.result_cache_status == "miss":
            lines.append("Result cache: miss (result stored)")
        if result.stats.segment_cache_hits or result.stats.segment_cache_misses:
            lines.append(
                f"Segment cache: {result.stats.segment_cache_hits} hits, "
                f"{result.stats.segment_cache_misses} misses"
            )
        lines.append(
            f"Total runtime: {result.stats.execute_seconds * 1000.0:.3f} ms"
            f" ({result.rowcount} rows)"
        )
        return QueryResult(
            columns=["QUERY PLAN"],
            rows=[(line,) for line in lines],
            rowcount=len(lines),
            stats=result.stats,
            command="EXPLAIN",
        )

    # ---- DDL -----------------------------------------------------------------------------

    def _create_table(self, statement: ast.CreateTableStatement) -> QueryResult:
        if statement.if_not_exists and self._cluster.catalog.has_table(
            statement.name
        ):
            return QueryResult(command="CREATE TABLE")
        columns = [
            ColumnInfo(
                name=c.name,
                sql_type=type_from_name(c.type_name, *c.type_params),
                encode=c.encode,
                not_null=c.not_null,
            )
            for c in statement.columns
        ]
        info = TableInfo(
            name=statement.name,
            columns=columns,
            distribution=make_distribution(statement.diststyle, statement.distkey),
            sort_key=self._make_sort_key(
                statement.sortkey, statement.sortkey_interleaved
            ),
        )
        self._validate_table(info, statement.distkey, statement.sortkey)
        self._cluster.catalog.create_table(info)
        self._cluster.create_table_storage(info)
        return QueryResult(command="CREATE TABLE")

    @staticmethod
    def _make_sort_key(columns: list[str], interleaved: bool):
        if not columns:
            return None
        from repro.sortkeys.compound import CompoundSortKey
        from repro.sortkeys.interleaved import InterleavedSortKey

        if interleaved:
            return InterleavedSortKey(columns)
        return CompoundSortKey(columns)

    @staticmethod
    def _validate_table(
        info: TableInfo, distkey: str | None, sortkey: list[str]
    ) -> None:
        if distkey is not None:
            info.column(distkey)  # raises if missing
        for name in sortkey:
            info.column(name)

    def _create_table_as(
        self, statement: ast.CreateTableAsStatement, xid: int
    ) -> QueryResult:
        result = self._run_select(statement.query, xid)
        logical = self._binder.bind_select(statement.query)
        columns = [
            ColumnInfo(name=c.name, sql_type=c.sql_type)
            for c in logical.output
        ]
        info = TableInfo(
            name=statement.name,
            columns=columns,
            distribution=make_distribution(statement.diststyle, statement.distkey),
            sort_key=self._make_sort_key(statement.sortkey, False),
        )
        self._validate_table(info, statement.distkey, statement.sortkey)
        self._cluster.catalog.create_table(info)
        self._cluster.create_table_storage(info)
        count = self._cluster.distribute_rows(info, result.rows, xid)
        self._cluster.seal_table(info.name)
        self._update_statistics(info, xid)
        return QueryResult(rowcount=count, command="CREATE TABLE AS")

    def _drop_table(self, statement: ast.DropTableStatement) -> QueryResult:
        if statement.if_exists and not self._cluster.catalog.has_table(
            statement.name
        ):
            return QueryResult(command="DROP TABLE")
        self._cluster.catalog.drop_table(statement.name)
        self._cluster.drop_table_storage(statement.name)
        return QueryResult(command="DROP TABLE")

    # ---- DML ------------------------------------------------------------------------------

    def _require_user_table(self, name: str, operation: str) -> TableInfo:
        """System tables are read-only: writes resolve here first."""
        if self._cluster.catalog.is_system_table(name):
            raise AnalysisError(
                f"{operation} is not allowed on system table {name!r}"
            )
        return self._cluster.catalog.table(name)

    def _insert(self, statement: ast.InsertStatement, xid: int) -> QueryResult:
        table = self._require_user_table(statement.table, "INSERT")
        target_columns = statement.columns or table.column_names
        for name in target_columns:
            table.column(name)
        if statement.query is not None:
            source_rows = self._run_select(statement.query, xid).rows
        else:
            source_rows = []
            for row_exprs in statement.rows:
                if len(row_exprs) != len(target_columns):
                    raise AnalysisError(
                        f"INSERT has {len(row_exprs)} values for "
                        f"{len(target_columns)} columns"
                    )
                evaluated = []
                for expr in row_exprs:
                    fn = compile_expression(
                        expr, _reject_column_refs
                    )
                    evaluated.append(fn(()))
                source_rows.append(tuple(evaluated))
        rows = [
            self._align_insert_row(table, target_columns, row)
            for row in source_rows
        ]
        count = self._cluster.distribute_rows(table, rows, xid)
        self._mark_stats_stale(table, count)
        return QueryResult(rowcount=count, command="INSERT")

    @staticmethod
    def _align_insert_row(
        table: TableInfo, target_columns: list[str], row: tuple
    ) -> tuple:
        if len(row) != len(target_columns):
            raise DataError(
                f"INSERT row has {len(row)} values for "
                f"{len(target_columns)} columns"
            )
        by_name = dict(zip(target_columns, row))
        return tuple(by_name.get(c.name) for c in table.columns)

    def _delete_matching(
        self, table: TableInfo, where: ast.Expression | None, xid: int, select
    ) -> tuple[list[tuple[int, ColumnBatch]], QueryStats]:
        """Tombstone the rows of *table* matching WHERE. Returns them as
        ``(slice index, batch)`` pairs, and the scan's stats as one plan
        step. The plan of ``SELECT <select> FROM table WHERE ...`` supplies
        live columns, zone predicates and filters; a batch holds that
        scan's columns (dead ones None) and, last, the row offsets."""
        if where is not None:
            where = expand_in_expression(
                where, lambda inner: self._run_select(inner, xid).rows
            )
        query = ast.SelectQuery(
            [ast.SelectItem(select)], ast.TableRef(table.name), where
        )
        scan = self._planner.plan(self._binder.bind_select(query))
        while not isinstance(scan, PhysicalScan):
            (scan,) = scan.children
        masks = [make_mask_kernel(f) for f in scan.filters]
        stats = QueryStats()
        step = OperatorStat(0, scan.label(), est_rows=scan.est_rows)
        stats.operators.append(step)
        transactions = self._cluster.transactions
        matched = []
        start = time.perf_counter()
        # Match and mark under the storage lock: a concurrent VACUUM
        # rewrite between the two would shuffle the offsets out from
        # under the delete markers.
        with self._cluster.storage_lock:
            for index, batch in self._cluster.scan_table(
                table,
                transactions.snapshot(xid),
                scan_column_names(scan) + [ROW_OFFSET],
                scan.zone_predicates,
                stats=stats.scan,
            ):
                step.rows += batch.count
                batch = apply_masks(batch, masks)
                if batch is not None:
                    matched.append((index, batch))
            for index, batch in matched:
                store = self._cluster.slice_stores[index]
                store.shard(table.name).mark_deleted(batch.columns[-1], xid)
                for offset in batch.columns[-1]:
                    transactions.record_delete(
                        xid, table.name, store.slice_id, offset
                    )
        step.elapsed_us = int((time.perf_counter() - start) * 1_000_000)
        step.blocks_read = stats.scan.blocks_read
        step.blocks_skipped = stats.scan.blocks_skipped
        step.bytes_read = stats.scan.bytes_read
        return matched, stats

    def _delete(self, statement: ast.DeleteStatement, xid: int) -> QueryResult:
        table = self._require_user_table(statement.table, "DELETE")
        # DELETE never routes through distribute_rows, so register the
        # write here (commit/rollback re-bump the table's epoch).
        self._cluster.transactions.record_write(xid, table.name)
        # A constant select list: only the predicate's columns are read.
        matched, stats = self._delete_matching(
            table, statement.where, xid, ast.Literal(1)
        )
        count = sum(batch.count for _, batch in matched)
        if table.distribution.style is DistStyle.ALL:
            count //= max(1, self._cluster.slice_count)
        self._mark_stats_stale(table, -count)
        return QueryResult(rowcount=count, stats=stats, command="DELETE")

    def _update(self, statement: ast.UpdateStatement, xid: int) -> QueryResult:
        table = self._require_user_table(statement.table, "UPDATE")
        assignment_fns = []
        scope = _table_scope(self._binder, table)
        for column_name, expr in statement.assignments:
            table.column(column_name)
            expr = expand_in_expression(
                expr, lambda inner: self._run_select(inner, xid).rows
            )
            bound = self._binder._bind_expr(expr, scope, allow_aggregates=False)
            assignment_fns.append(
                (table.column_index(column_name), compile_expression(bound, _reject_column_refs))
            )
        new_rows: list[tuple] = []
        # Delete-then-reinsert is atomic against other storage mutators
        # (the lock is reentrant, so the nested takers are fine).
        with self._cluster.storage_lock:
            matched, stats = self._delete_matching(
                table, statement.where, xid, ast.Star()
            )
            if table.distribution.style is DistStyle.ALL:
                # One replica's rows stand for the logical table.
                matched = [m for m in matched if m[0] == matched[0][0]]
            for _, batch in matched:
                for row in zip(*batch.columns[:-1]):
                    updated = list(row)
                    for index, fn in assignment_fns:
                        updated[index] = fn(row)
                    new_rows.append(tuple(updated))
            self._cluster.distribute_rows(table, new_rows, xid)
        self._mark_stats_stale(table)
        return QueryResult(rowcount=len(new_rows), stats=stats, command="UPDATE")

    # ---- COPY ------------------------------------------------------------------------------

    def _copy(self, statement: ast.CopyStatement, xid: int) -> QueryResult:
        table = self._require_user_table(statement.table, "COPY")
        target_columns = statement.columns or table.column_names
        for name in target_columns:
            table.column(name)
        delimiter = str(statement.options.get("delimiter", "|"))
        null_marker = str(statement.options.get("null", ""))
        use_json = bool(statement.options.get("json", False))
        lines = self._cluster.open_source(statement.source)

        types = [table.column(name).sql_type for name in target_columns]
        rows: list[tuple] = []
        for line_number, line in enumerate(lines, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                if use_json:
                    rows.append(
                        _parse_json_row(line, table, target_columns)
                    )
                else:
                    fields = line.split(delimiter)
                    if len(fields) != len(target_columns):
                        raise CopyError(
                            f"line {line_number}: expected "
                            f"{len(target_columns)} fields, got {len(fields)}"
                        )
                    rows.append(
                        tuple(
                            parse_literal(text, sql_type, null_marker)
                            for text, sql_type in zip(fields, types)
                        )
                    )
            except DataError as exc:
                raise CopyError(f"line {line_number}: {exc}") from exc

        aligned = [
            self._align_insert_row(table, target_columns, row) for row in rows
        ]

        # Automatic compression: on by default for the first load into an
        # empty table — the paper's flagship dusty knob (§2.1, §3.3).
        compupdate = statement.options.get("compupdate")
        was_empty = table.statistics.row_count == 0
        if aligned and was_empty and compupdate is not False:
            self._apply_auto_compression(table, aligned)

        count = self._cluster.distribute_rows(table, aligned, xid)
        # COPY "sorts locally" (§2.1) for the initial load of a sorted
        # table; later loads append unsorted and VACUUM restores order —
        # rewriting every block on every load would defeat incremental
        # backup.
        if table.sort_key is not None and was_empty:
            self._sort_table(table, xid)
        self._cluster.seal_table(table.name)
        # COPY runs the ANALYZE path with the load (STATUPDATE, on by
        # default) — bulk loads leave fresh statistics behind.
        if statement.options.get("statupdate") is not False:
            self._update_statistics(table, xid)
        else:
            self._mark_stats_stale(table, count)
        return QueryResult(rowcount=count, command="COPY")

    def _apply_auto_compression(
        self, table: TableInfo, rows: list[tuple]
    ) -> None:
        analyzer = CompressionAnalyzer()
        vectors = list(zip(*rows)) if rows else [[] for _ in table.columns]
        analyses = analyzer.analyze(table.column_specs, vectors)
        for column in table.columns:
            if column.encode is not None:
                continue  # user-specified ENCODE stays authoritative
            chosen = analyses[column.name].chosen_codec
            column.encode = chosen
            for store in self._cluster.slice_stores:
                if store.has_shard(table.name):
                    store.shard(table.name).chain(column.name).set_codec(chosen)

    # ---- ANALYZE / VACUUM -------------------------------------------------------------------

    def _analyze(self, statement: ast.AnalyzeStatement, xid: int) -> QueryResult:
        names = (
            [statement.table]
            if statement.table
            else self._cluster.catalog.table_names()
        )
        if statement.compression:
            if not statement.table:
                raise AnalysisError("ANALYZE COMPRESSION requires a table name")
            return self._analyze_compression(names[0], xid)
        for name in names:
            self._update_statistics(self._cluster.catalog.table(name), xid)
        return QueryResult(command="ANALYZE")

    def _analyze_compression(self, table_name: str, xid: int) -> QueryResult:
        table = self._cluster.catalog.table(table_name)
        vectors: list[list] = [[] for _ in table.columns]
        snapshot = self._cluster.transactions.snapshot(xid)
        for _, batch in self._cluster.scan_table(table, snapshot, one_replica=True):
            for vector, values in zip(vectors, batch.columns):
                vector.extend(values)
        analyses = CompressionAnalyzer().analyze(table.column_specs, vectors)
        rows = []
        for column in table.columns:
            analysis = analyses[column.name]
            ratio = analysis.trial(analysis.chosen_codec).ratio_vs_raw
            rows.append((column.name, analysis.chosen_codec, round(ratio, 2)))
        return QueryResult(
            columns=["column", "encoding", "est_reduction_ratio"],
            rows=rows,
            rowcount=len(rows),
            command="ANALYZE COMPRESSION",
        )

    def _vacuum(self, statement: ast.VacuumStatement, xid: int) -> QueryResult:
        names = (
            [statement.table]
            if statement.table
            else self._cluster.catalog.table_names()
        )
        for name in names:
            table = self._cluster.catalog.table(name)
            self._sort_table(table, xid, reclaim=True)
            # VACUUM rewrites blocks (row count is unchanged but dead rows
            # are gone); statistics need a fresh ANALYZE afterwards.
            self._mark_stats_stale(table)
        return QueryResult(command="VACUUM")

    def _sort_table(
        self, table: TableInfo, xid: int, reclaim: bool = False
    ) -> None:
        """Per-slice sort (and, for VACUUM, dead-row reclamation)."""
        self._cluster.transactions.record_write(xid, table.name)
        snapshot = self._cluster.transactions.snapshot(xid)
        sort_key = table.sort_key
        key_columns = sort_key.columns if sort_key is not None else []
        # The rewrite replaces whole shards; the storage lock keeps
        # concurrent DML off the table while offsets are reshuffled.
        with self._cluster.storage_lock:
            for store in self._cluster.slice_stores:
                if not store.has_shard(table.name):
                    continue
                shard = store.shard(table.name)
                if shard.row_count == 0:
                    continue
                visible: list[int] = []
                key_vectors: list[list] = [[] for _ in key_columns]
                for batch in scan_batches(
                    shard, [*key_columns, ROW_OFFSET], [], snapshot
                ):
                    *keys, offsets = batch.columns
                    visible.extend(offsets)
                    for vector, values in zip(key_vectors, keys):
                        vector.extend(values)
                if not reclaim and len(visible) != shard.row_count:
                    # COPY-time sorting never drops rows others might see.
                    continue
                order = visible
                if sort_key is not None:
                    order = [visible[i] for i in sort_key.sort_order(key_vectors)]
                shard.rewrite_sorted(order, BOOTSTRAP_XID)

    # ---- statistics -------------------------------------------------------------------------

    def _mark_stats_stale(self, table: TableInfo, delta_rows: int = 0) -> None:
        """DML invalidates statistics without rescanning the table.

        The row count tracks the mutation incrementally so size-based
        planning stays sane, but column statistics (min/max/NDV/nulls)
        are stale until the next ANALYZE or COPY-with-STATUPDATE — the
        planner falls back to its heuristics meanwhile.
        """
        stats = table.statistics
        stats.stale = True
        if delta_rows:
            stats.row_count = max(0, stats.row_count + delta_rows)

    def _update_statistics(self, table: TableInfo, xid: int) -> None:
        """Refresh optimizer statistics by scanning (ANALYZE / on-load)
        under the statement's snapshot, so the writing transaction's own
        rows count."""
        stats = TableStatistics(
            stale=False, total_bytes=self._cluster.table_bytes(table.name)
        )
        names = table.column_names
        hlls = [HyperLogLog(10) for _ in names]
        lows: list[object] = [None] * len(names)
        highs: list[object] = [None] * len(names)
        nulls = [0] * len(names)
        snapshot = self._cluster.transactions.snapshot(xid)
        for _, batch in self._cluster.scan_table(table, snapshot, one_replica=True):
            stats.row_count += batch.count
            for i, values in enumerate(batch.columns):
                present = [value for value in values if value is not None]
                nulls[i] += batch.count - len(present)
                if not present:
                    continue
                for value in present:
                    hlls[i].add(value)
                low, high = min(present), max(present)
                if lows[i] is None or low < lows[i]:
                    lows[i] = low
                if highs[i] is None or high > highs[i]:
                    highs[i] = high
        for i, name in enumerate(names):
            stats.columns[name] = ColumnStatistics(
                low=lows[i],
                high=highs[i],
                null_fraction=(
                    nulls[i] / stats.row_count if stats.row_count else 0.0
                ),
                distinct_count=hlls[i].cardinality(),
            )
        table.statistics = stats


def _annotate_plan(plan_text: str, operators) -> list[str]:
    """Append per-step actuals to the EXPLAIN text's "XN" lines.

    ``explain()`` renders nodes in preorder and ``assign_steps`` numbers
    them the same way, so the k-th "XN" line is plan step k.
    """
    by_step = {op.step: op for op in operators}
    lines: list[str] = []
    step = 0
    for line in plan_text.splitlines():
        if line.lstrip().startswith("XN "):
            op = by_step.get(step)
            if op is None:
                line += " (never executed)"
            else:
                extra = (
                    f" (actual rows={op.rows} est={op.est_rows:.0f}"
                    f" elapsed_us={op.elapsed_us}"
                )
                if op.blocks_read or op.blocks_skipped:
                    extra += (
                        f" blocks_read={op.blocks_read}"
                        f" blocks_skipped={op.blocks_skipped}"
                    )
                if op.cache_hits or op.cache_misses:
                    extra += (
                        f" cache_hits={op.cache_hits}"
                        f" cache_misses={op.cache_misses}"
                    )
                if op.encoded_batches:
                    extra += (
                        f" encoded_batches={op.encoded_batches}"
                        f" decode_saved={op.decode_bytes_avoided}B"
                    )
                if op.workers:
                    extra += f" workers={op.workers} morsels={op.morsels}"
                if op.spilled_bytes:
                    extra += (
                        f" spill={op.spilled_bytes}B"
                        f" spill_partitions={op.spill_partitions}"
                    )
                line += extra + ")"
            step += 1
        lines.append(line)
    return lines


def _reject_column_refs(ref: ast.ColumnRef) -> int:
    raise AnalysisError(f"column reference {ref.to_sql()!r} is not allowed here")


def _table_scope(binder: Binder, table: TableInfo):
    from repro.plan.binder import _Scope, _ScopeColumn

    return _Scope(
        [
            _ScopeColumn(table.name, c.name, c.sql_type, i)
            for i, c in enumerate(table.columns)
        ]
    )


def _parse_json_row(
    line: str, table: TableInfo, target_columns: list[str]
) -> tuple:
    """COPY ... JSON: one object per line, keys matched to column names."""
    import json

    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CopyError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise CopyError("JSON COPY expects one object per line")
    # Accept keys that sanitize to a column name ("user id" -> user_id),
    # matching the relationalizer's identifier rules.
    from repro.engine.relationalize import _sanitize

    obj = {_sanitize(str(k)): v for k, v in obj.items()}
    values = []
    for name in target_columns:
        sql_type = table.column(name).sql_type
        raw = obj.get(name)
        if isinstance(raw, (dict, list)):
            # Nested structures load as their JSON text (the
            # relationalizer types such columns varchar).
            raw = json.dumps(raw)
        if raw is None:
            values.append(None)
        elif isinstance(raw, str) and not sql_type.is_character:
            values.append(parse_literal(raw, sql_type))
        elif isinstance(raw, float) and sql_type.is_integer and raw.is_integer():
            values.append(int(raw))
        else:
            values.append(sql_type.validate(raw))
    return tuple(values)
