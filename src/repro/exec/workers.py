"""Per-slice worker pools and the morsel tasks they execute.

The parallel executor (:mod:`repro.exec.parallel`) splits each eligible
scan pipeline into *morsels* — contiguous block ranges of one shard —
and runs them on a pool of workers. On Linux the pool is a fork-based
``ProcessPoolExecutor``: forked children inherit the leader's in-memory
slice stores through :data:`_SLICES` (a module-level registry populated
before the fork), so a task ships only a small :class:`MorselTask` spec
and a result ships only partial-aggregate states or a bounded list of
plain-list column batches. A morsel is the serial vectorized engine's
batch pipeline over a block range: the same cursor, kernels and
per-batch steps (:mod:`repro.exec.batch`). Workers pass the cursor **no
decode cache**, in any pool mode: a fork child's cache is a private copy,
and its hits (which skip the disk charge and the byte accounting) would
make serial, thread and fork runs disagree stat-for-stat.
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
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.engine.transactions import Snapshot
from repro.errors import ExecutionError, WorkerCrashError
from repro.exec.batch import (
    accumulate_batches,
    apply_masks,
    make_mask_kernel,
    make_value_kernel,
    project_batch,
)
from repro.exec.scan import scan_batches
from repro.exec.spill import MemoryBudget, SpillLog, SpillableAggregateStates
from repro.storage import epoch
from repro.storage.chain import ScanStats


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

    Expressions travel as AST nodes and become batch kernels inside the
    worker (compiled closures don't pickle). ``stages`` are applied bottom-up
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
    """One schedulable unit: a block range of one slice's shard
    (``block_end`` None = through the last sealed block the worker sees)."""

    registry_id: int
    slice_index: int
    slice_id: str
    block_start: int
    block_end: int | None
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
    #: The session's ``enable_encoded_scan``: the cursor hands the
    #: kernels whitelisted codecs undecoded, as in the vectorized engine.
    encoded: bool = False


@dataclass
class MorselResult:
    """What a worker ships back for one morsel."""

    #: Pipeline output (row pipelines): plain-list ColumnBatches in scan
    #: order — never an EncodedColumn, see ColumnBatch.decoded — or None.
    batches: list | None = None
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
    stage_rows: list = field(default_factory=list)
    elapsed_us: int = 0
    #: Row pipeline exceeded row_ship_limit: no output is set and the
    #: leader re-executes the morsel locally.
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
    masks = [make_mask_kernel(f) for f in pipeline.filters]
    stages = [
        (True, (make_mask_kernel(payload),))
        if kind == "filter"
        else (False, [make_value_kernel(expr) for expr in payload])
        for kind, payload in pipeline.stages
    ]
    result = MorselResult(stage_rows=[0] * len(stages))

    def surviving():
        """The morsel's batches after the pushed-down filters and every
        stage, counting rows at each boundary as they stream by."""
        for batch in scan_batches(
            shard,
            pipeline.column_names,
            pipeline.zone_predicates,
            task.snapshot,
            block_start=task.block_start,
            block_end=task.block_end,
            include_tail=task.include_tail,
            stats=result.scan,
            charge=result.io_log.append,
            encoded=task.encoded,
        ):
            result.scanned_rows += batch.count
            batch = apply_masks(batch, masks)
            for i, (is_filter, kernels) in enumerate(stages):
                if batch is None:
                    break
                if is_filter:
                    batch = apply_masks(batch, kernels)
                else:
                    batch = project_batch(batch, kernels)
                if batch is not None:
                    result.stage_rows[i] += batch.count
            if batch is not None:
                yield batch

    if pipeline.group_exprs is not None:
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
        accumulate_batches(
            states,
            surviving(),
            [make_value_kernel(expr) for expr in pipeline.group_exprs],
            [
                make_value_kernel(arg) if arg is not None else None
                for _, arg in pipeline.aggregates
            ],
            aggregates,
        )
        if spill_log is not None:
            result.partial = states.finish()
            result.spill_log = spill_log.ops
            result.spilled_bytes = states.bytes_written
            result.spill_partitions = states.partitions_spilled
            result.spill_bytes_read = states.bytes_read
        else:
            result.partial = states
    else:
        batches = list(surviving())
        if task.row_ship_limit and (
            sum(batch.count for batch in batches) > task.row_ship_limit
        ):
            result.overflow = True
        elif pipeline.partition_slices:
            from repro.distribution.hashing import stable_hash

            buckets: list[list] = [[] for _ in range(pipeline.partition_slices)]
            key = pipeline.partition_key
            for batch in batches:
                for row in batch.rows():
                    buckets[
                        stable_hash(row[key]) % pipeline.partition_slices
                    ].append(row)
            result.buckets = buckets
        else:
            result.batches = [batch.decoded() for batch in batches]
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

    def close(self, wait: bool = False) -> None:
        """Stop taking morsels (a later ``submit`` raises RuntimeError).
        Those already submitted still run — another session may be
        waiting on them; *wait* blocks until the workers have exited."""
        self._pool.shutdown(wait=wait)


class PoolManager:
    """Caches one live pool per cluster; re-forks on staleness.

    Owned by the cluster so consecutive queries reuse warm workers; a
    storage mutation between queries just costs one re-fork (cheap on
    Linux: copy-on-write, no state to ship). Sessions share the pool, so
    replacing it never cancels or waits for another session's morsels.
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

    def invalidate(self, wait: bool = False) -> None:
        """Drop the cached pool (e.g. after a BrokenProcessPool)."""
        with self._lock:
            if self._pool is not None:
                self._pool.close(wait)
                self._pool = None

    def close(self) -> None:
        self.invalidate(wait=True)
