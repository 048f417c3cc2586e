"""Per-slice worker pools and the morsel tasks they execute.

The parallel executor (:mod:`repro.exec.parallel`) splits each eligible
scan pipeline into *morsels* — contiguous block ranges of one shard —
and runs them on a pool of workers. On Linux the pool is a fork-based
``ProcessPoolExecutor``: forked children inherit the leader's in-memory
slice stores through :data:`_SLICES` (a module-level registry populated
before the fork), so a task ships only a small :class:`MorselTask` spec
and a result ships only partial-aggregate states or a bounded row list.
Pooled row pipelines pack that list columnar into typed ``array``
vectors (:class:`PackedRows`) before it crosses the pipe: uniform
int/float columns pickle as flat machine bytes instead of N tuples of
boxed values, the same typed-vector representation the block format
uses at rest.
Where fork is unavailable a ``ThreadPoolExecutor`` runs the same tasks
against shared memory.

Staleness: a forked child sees the memory image of fork time. Every
storage mutation bumps :mod:`repro.storage.epoch`, and
:class:`PoolManager` re-forks whenever the epoch moved, so workers never
scan stale blocks. Thread pools share memory and never go stale.

Determinism: workers compute no side effects on shared engine state —
no disk accounting, no fault draws, no interconnect records. Disk reads
are logged per chain block into :attr:`MorselResult.io_log` and replayed
by the leader in morsel order; crash decisions are drawn on the leader
at dispatch time. Result merge order is fixed by morsel index, so the
output is bit-identical to a serial run regardless of OS scheduling.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import time
from array import array
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.engine.transactions import Snapshot
from repro.errors import ExecutionError, WorkerCrashError
from repro.exec.scan import scan_rows
from repro.exec.spill import MemoryBudget, SpillLog, SpillableAggregateStates
from repro.sql import ast
from repro.sql.expressions import compile_expression
from repro.storage import epoch
from repro.storage.chain import ScanStats


def _no_unresolved(ref: ast.ColumnRef) -> int:
    raise ExecutionError(f"unresolved column reference {ref.to_sql()!r}")


def _compile(expr: ast.Expression):
    return compile_expression(expr, _no_unresolved)


# ---------------------------------------------------------------------------
# Slice registry (fork-inherited)
# ---------------------------------------------------------------------------

#: registry id -> that cluster's slice stores, in slice order. Populated
#: in the leader BEFORE any pool forks so children inherit it; fork-mode
#: workers resolve MorselTask.registry_id against their inherited copy.
_SLICES: dict[int, list] = {}

_registry_ids = itertools.count(1)


def register_slices(slices: list) -> int:
    """Register a cluster's slice stores; returns the registry id.

    Bumps the storage epoch: any already-forked pool predates this
    registration and must not serve tasks that reference it.
    """
    registry_id = next(_registry_ids)
    _SLICES[registry_id] = list(slices)
    epoch.bump()
    return registry_id


def unregister_slices(registry_id: int) -> None:
    _SLICES.pop(registry_id, None)


# ---------------------------------------------------------------------------
# Task / result shapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineSpec:
    """A fused scan pipeline, self-contained and picklable.

    Expressions travel as AST nodes and are compiled inside the worker
    (compiled closures don't pickle). ``stages`` are applied bottom-up
    above the scan's own pushed-down ``filters``; each is ``("filter",
    condition)`` or ``("project", expressions)``. When ``group_exprs``
    is not None the pipeline ends in partial aggregation and the result
    carries per-group states instead of rows; ``aggregates`` pairs each
    aggregate object with its argument expression (None = COUNT(*)-style).
    ``partition_slices`` > 0 asks for hash-join build-side partitioning:
    rows come back pre-bucketed by ``stable_hash(row[partition_key])``
    into that many destination lists.
    """

    table: str
    column_names: tuple
    zone_predicates: tuple
    filters: tuple = ()
    stages: tuple = ()
    group_exprs: tuple | None = None
    aggregates: tuple = ()
    partition_key: int = 0
    partition_slices: int = 0


@dataclass(frozen=True)
class MorselTask:
    """One schedulable unit: a block range of one slice's shard."""

    registry_id: int
    slice_index: int
    slice_id: str
    block_start: int
    block_end: int
    include_tail: bool
    pipeline: PipelineSpec
    snapshot: Snapshot
    row_ship_limit: int = 0
    #: Leader-drawn fault decision: the worker raises WorkerCrashError.
    crash: bool = False
    #: Query memory budget in bytes (0 = unbounded). Aggregate morsels
    #: over this spill their state map against an op log the leader
    #: replays through the slice's disk accounting.
    memory_limit: int = 0
    #: Pack row-pipeline output into :class:`PackedRows` before shipping.
    #: Set only on tasks submitted to a pool — inline leader runs and
    #: crash/overflow re-runs keep plain lists (nothing crosses a pipe).
    pack_rows: bool = False


@dataclass
class PackedRows:
    """Row-pipeline output packed columnar for the pool boundary.

    Typed ``array`` columns pickle as one flat machine-byte buffer, so
    shipping N uniform int/float rows through the fork pipe costs one
    buffer copy instead of N pickled tuples of boxed values. Columns
    that are not uniformly plain 64-bit int / float stay plain lists.
    Unpacking with :func:`unpack_rows` is bit-identical: ``array('q')``
    and ``array('d')`` round-trip plain Python ints/floats exactly.
    """

    count: int
    columns: list


def pack_rows(rows: list) -> PackedRows:
    """Transpose *rows* into typed columns where value types allow."""
    columns = []
    if rows:
        columns = [_pack_column(col) for col in zip(*rows)]
    return PackedRows(count=len(rows), columns=columns)


def _pack_column(values):
    first = values[0]
    if type(first) is int:
        for v in values:
            if type(v) is not int:
                return list(values)
        try:
            return array("q", values)
        except OverflowError:
            return list(values)
    if type(first) is float:
        for v in values:
            if type(v) is not float:
                return list(values)
        return array("d", values)
    return list(values)


def unpack_rows(packed: PackedRows) -> list:
    """Back to the list-of-tuples shape the leader's assembly expects."""
    if not packed.columns:
        return [()] * packed.count
    return list(zip(*packed.columns))


@dataclass
class MorselResult:
    """What a worker ships back for one morsel."""

    #: Pipeline output rows (row pipelines): a list, a
    #: :class:`PackedRows` when the task asked for packing, or None.
    rows: "list | PackedRows | None" = None
    #: Per-destination-slice row buckets (partition pipelines), or None.
    buckets: list | None = None
    #: Per-group partial aggregate states (aggregate pipelines), or None.
    partial: dict | None = None
    scan: ScanStats = field(default_factory=ScanStats)
    #: Encoded bytes per chain-block read, in read order — replayed
    #: through the leader's disk accounting.
    io_log: list = field(default_factory=list)
    #: Rows the raw scan produced (pre-filter; feeds the scan step stat).
    scanned_rows: int = 0
    #: Rows emitted after each pipeline stage, in stage order.
    stage_rows: tuple = ()
    elapsed_us: int = 0
    #: Row pipeline exceeded row_ship_limit: everything else is unset and
    #: the leader re-executes the morsel locally.
    overflow: bool = False
    #: Spill ("write"|"read"|"delete", nbytes) ops in execution order —
    #: replayed through the leader's disk accounting like io_log — plus
    #: the morsel's spill counters for svl_query_summary/stv_query_spill.
    spill_log: list = field(default_factory=list)
    spilled_bytes: int = 0
    spill_partitions: int = 0
    spill_bytes_read: int = 0


def run_morsel(task: MorselTask, slices: list | None = None) -> MorselResult:
    """Execute one morsel; runs inside a worker (or inline on the leader).

    Pool workers resolve the slice stores from the fork-inherited
    registry; the leader's inline path (parallelism 1, crash re-runs,
    overflow fallbacks) passes its own *slices* directly.
    """
    if task.crash:
        raise WorkerCrashError(task.slice_id, "injected crash")
    started = time.perf_counter()
    pipeline = task.pipeline
    if slices is None:
        slices = _SLICES.get(task.registry_id)
    if slices is None:
        raise ExecutionError(
            f"worker has no slice registry {task.registry_id} "
            "(pool predates cluster registration)"
        )
    store = slices[task.slice_index]
    shard = store.shard(pipeline.table)
    stats = ScanStats()
    io_log: list[int] = []
    rows = list(
        scan_rows(
            shard,
            pipeline.column_names,
            pipeline.zone_predicates,
            task.snapshot,
            block_start=task.block_start,
            block_end=task.block_end,
            include_tail=task.include_tail,
            stats=stats,
            charge=io_log.append,
        )
    )
    scanned = len(rows)
    for condition in pipeline.filters:
        predicate = _compile(condition)
        rows = [row for row in rows if predicate(row) is True]
    stage_rows = []
    for kind, payload in pipeline.stages:
        if kind == "filter":
            predicate = _compile(payload)
            rows = [row for row in rows if predicate(row) is True]
        else:  # project
            fns = [_compile(expr) for expr in payload]
            rows = [tuple(fn(row) for fn in fns) for row in rows]
        stage_rows.append(len(rows))

    result = MorselResult(
        scan=stats,
        io_log=io_log,
        scanned_rows=scanned,
        stage_rows=tuple(stage_rows),
    )
    if pipeline.group_exprs is not None:
        group_fns = [_compile(expr) for expr in pipeline.group_exprs]
        arg_fns = [
            _compile(arg) if arg is not None else None
            for _, arg in pipeline.aggregates
        ]
        aggregates = [agg for agg, _ in pipeline.aggregates]
        spill_log = None
        if task.memory_limit:
            # Governed morsel: same spillable map as the serial engines,
            # but IO goes to an op log (no shared-state side effects).
            spill_log = SpillLog()
            states: dict = SpillableAggregateStates(
                MemoryBudget(task.memory_limit),
                spill_log.file_factory(),
                f"{task.slice_id}-b{task.block_start}",
                aggregates,
            )
        else:
            states = {}
        for row in rows:
            key = tuple(fn(row) for fn in group_fns)
            entry = states.get(key)
            if entry is None:
                entry = [agg.create() for agg in aggregates]
                states[key] = entry
            for i, agg in enumerate(aggregates):
                fn = arg_fns[i]
                entry[i] = agg.accumulate(entry[i], 1 if fn is None else fn(row))
        if spill_log is not None:
            result.partial = states.finish()
            result.spill_log = spill_log.ops
            result.spilled_bytes = states.bytes_written
            result.spill_partitions = states.partitions_spilled
            result.spill_bytes_read = states.bytes_read
        else:
            result.partial = states
    elif pipeline.partition_slices:
        from repro.distribution.hashing import stable_hash

        if task.row_ship_limit and len(rows) > task.row_ship_limit:
            result.overflow = True
        else:
            buckets: list[list] = [[] for _ in range(pipeline.partition_slices)]
            key = pipeline.partition_key
            for row in rows:
                buckets[stable_hash(row[key]) % pipeline.partition_slices].append(
                    row
                )
            result.buckets = buckets
    else:
        if task.row_ship_limit and len(rows) > task.row_ship_limit:
            result.overflow = True
        elif task.pack_rows:
            result.rows = pack_rows(rows)
        else:
            result.rows = rows
    result.elapsed_us = int((time.perf_counter() - started) * 1_000_000)
    return result


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------

def default_mode() -> str:
    """"fork" where the platform supports it, else "thread"."""
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "thread"


class WorkerPool:
    """A fixed-size pool of morsel workers (fork processes or threads)."""

    def __init__(self, workers: int, mode: str):
        if workers < 1:
            raise ValueError(f"pool needs at least one worker, got {workers}")
        if mode not in ("fork", "thread"):
            raise ValueError(f"unknown pool mode {mode!r}")
        self.workers = workers
        self.mode = mode
        #: Storage epoch the pool's memory image reflects (fork mode).
        self.epoch = epoch.current()
        if mode == "fork":
            context = multiprocessing.get_context("fork")
            self._pool = ProcessPoolExecutor(
                max_workers=workers, mp_context=context
            )
        else:
            self._pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="morsel"
            )

    def submit(self, task: MorselTask) -> Future:
        return self._pool.submit(run_morsel, task)

    def stale(self) -> bool:
        """Fork pools go stale when storage mutated after the fork."""
        return self.mode == "fork" and self.epoch != epoch.current()

    def stale_for(self, tables) -> bool:
        """Staleness restricted to *tables* — the ones a dispatch will
        scan. Mutations of other tables leave the inherited image stale
        only where this dispatch never reads, so the pool stays usable
        (per-table epochs share the global counter's value space, making
        ``table_epoch(t) > fork epoch`` a valid ordering test)."""
        return self.mode == "fork" and any(
            epoch.table_epoch(table) > self.epoch for table in tables
        )

    def close(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)


class PoolManager:
    """Caches one live pool per cluster; re-forks on staleness.

    Owned by the cluster so consecutive queries reuse warm workers; a
    storage mutation between queries just costs one re-fork (cheap on
    Linux: copy-on-write, no state to ship).
    """

    def __init__(self) -> None:
        self._pool: WorkerPool | None = None
        self._lock = threading.Lock()
        #: Pools created over this manager's lifetime (first fork included);
        #: the per-table staleness experiments assert on the delta.
        self.forks = 0
        #: Pools replaced specifically because they went stale.
        self.reforks = 0

    def pool(
        self, workers: int, mode: str, tables: "set[str] | None" = None
    ) -> WorkerPool:
        """The cached pool, re-forked if unusable for this dispatch.

        With *tables* (the tables the dispatch scans) staleness is
        per-table: a fork-mode pool survives mutations of tables it will
        not read. Without it, any storage mutation forces a re-fork.
        """
        with self._lock:
            current = self._pool
            if current is not None and current.workers == workers and (
                current.mode == mode
            ):
                stale = (
                    current.stale_for(tables)
                    if tables is not None
                    else current.stale()
                )
                if not stale:
                    return current
                self.reforks += 1
            if current is not None:
                current.close()
            self._pool = WorkerPool(workers, mode)
            self.forks += 1
            return self._pool

    def invalidate(self) -> None:
        """Drop the cached pool (e.g. after a BrokenProcessPool)."""
        with self._lock:
            if self._pool is not None:
                self._pool.close()
                self._pool = None

    def close(self) -> None:
        self.invalidate()
