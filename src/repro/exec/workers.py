"""Per-slice worker pools and the morsel tasks they execute.

The parallel executor (:mod:`repro.exec.parallel`) splits the scan
pipeline under each eligible aggregate into *morsels* — contiguous block
ranges of one shard — and runs them on a pool of workers. On Linux the
pool is a fork-based ``ProcessPoolExecutor``: forked children inherit
the leader's in-memory slice stores through :data:`_SLICES` (a
module-level registry populated before the fork), so a task ships only a
small :class:`MorselTask` spec and a result ships only per-group partial
aggregate states — never rows. A morsel is the serial vectorized
engine's batch pipeline over a block range: the same cursor, kernels and
per-batch steps (:mod:`repro.exec.batch`), ending in partial
aggregation. Workers pass the cursor **no
decode cache**, in any pool mode: a fork child's cache is a private copy,
and its hits (which skip the disk charge and the byte accounting) would
make serial, thread and fork runs disagree stat-for-stat.
Where fork is unavailable a ``ThreadPoolExecutor`` runs the same tasks
against shared memory.

Versions: the leader cuts a shard's morsels from the shard version it
bound, and a task carries that version's number. A worker whose shard is
at another version (a forked image older than the bound version, or a
writer that published since) returns no result, and the leader runs the
morsel inline against the version it bound. A pool draws a version
number before it forks, and :class:`PoolManager` re-forks when a
dispatch scans a newer version. Thread pools share memory and never go
stale.

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
from repro.storage.chain import ScanStats
from repro.storage.slicestore import ShardVersion, next_version_number


# ---------------------------------------------------------------------------
# Slice registry (fork-inherited)
# ---------------------------------------------------------------------------

#: registry id -> that cluster's slice stores, in slice order. Populated
#: in the leader BEFORE any pool forks so children inherit it; fork-mode
#: workers resolve MorselTask.registry_id against their inherited copy.
_SLICES: dict[int, list] = {}

_registry_ids = itertools.count(1)


def register_slices(slices: list) -> int:
    """Register a cluster's slice stores; returns the registry id. The
    cluster registers before its pool manager forks anything, so every
    pool of that cluster inherits the entry."""
    registry_id = next(_registry_ids)
    _SLICES[registry_id] = list(slices)
    return registry_id


def unregister_slices(registry_id: int) -> None:
    _SLICES.pop(registry_id, None)


# ---------------------------------------------------------------------------
# Task / result shapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineSpec:
    """A fused scan → partial-aggregate pipeline, self-contained and
    picklable.

    Expressions travel as AST nodes and become batch kernels inside the
    worker (compiled closures don't pickle). ``stages`` are applied bottom-up
    above the scan's own pushed-down ``filters``; each is ``("filter",
    condition)`` or ``("project", expressions)``. The surviving batches
    fold into per-group states keyed by ``group_exprs`` (empty = one
    global group); ``aggregates`` pairs each aggregate object with its
    argument expression (None = COUNT(*)-style).
    """

    table: str
    column_names: tuple
    zone_predicates: tuple
    filters: tuple = ()
    stages: tuple = ()
    group_exprs: tuple = ()
    aggregates: tuple = ()


@dataclass(frozen=True)
class MorselTask:
    """One schedulable unit: a block range of one version of one slice's
    shard."""

    registry_id: int
    slice_index: int
    slice_id: str
    #: Number of the shard version the morsels were cut from.
    version: int
    block_start: int
    block_end: int
    include_tail: bool
    pipeline: PipelineSpec
    snapshot: Snapshot
    #: Leader-drawn fault decision: the worker raises WorkerCrashError.
    crash: bool = False


@dataclass
class MorselResult:
    """What a worker ships back for one morsel."""

    #: Per-group partial aggregate states, in group first-seen order.
    partial: dict = field(default_factory=dict)
    scan: ScanStats = field(default_factory=ScanStats)
    #: Encoded bytes per chain-block read, in read order — replayed
    #: through the leader's disk accounting.
    io_log: list = field(default_factory=list)
    #: Rows the raw scan produced (pre-filter; feeds the scan step stat).
    scanned_rows: int = 0
    #: Rows emitted after each pipeline stage, in stage order.
    stage_rows: list = field(default_factory=list)
    elapsed_us: int = 0


def run_morsel(
    task: MorselTask,
    slices: list | None = None,
    version: ShardVersion | None = None,
) -> MorselResult | None:
    """Execute one morsel; runs inside a worker (or inline on the leader).

    Pool workers resolve the slice stores from the fork-inherited
    registry and scan their shard's version, returning None when it is
    not the task's. The leader's inline path (parallelism 1, crash
    re-runs, morsels a worker could not take) passes its own *slices*
    and the *version* it bound.
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
    shard = slices[task.slice_index].shard(pipeline.table)
    if version is None:
        version = shard.version
        if version.number != task.version:
            return None
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
            version=version,
            block_start=task.block_start,
            block_end=task.block_end,
            include_tail=task.include_tail,
            stats=result.scan,
            charge=result.io_log.append,
            encoded=True,
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

    accumulate_batches(
        result.partial,
        surviving(),
        [make_value_kernel(expr) for expr in pipeline.group_exprs],
        [
            make_value_kernel(arg) if arg is not None else None
            for _, arg in pipeline.aggregates
        ],
        [agg for agg, _ in pipeline.aggregates],
    )
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
        #: Drawn before the fork: every shard version published after
        #: the fork has a larger number.
        self.version = next_version_number()
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

    def stale_for(self, version: int) -> bool:
        """Whether a fork pool's image predates *version*, the newest
        version number of the tables a dispatch scans. Mutations of other
        tables leave the image stale only where it is never read."""
        return self.mode == "fork" and version > self.version

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

    def pool(self, workers: int, mode: str, version: int) -> WorkerPool:
        """The cached pool, re-forked if unusable for this dispatch.

        *version* is the newest shard version the dispatch scans: a
        fork-mode pool survives mutations of the tables it will not read.
        """
        with self._lock:
            current = self._pool
            if current is not None and current.workers == workers and (
                current.mode == mode
            ):
                if not current.stale_for(version):
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
