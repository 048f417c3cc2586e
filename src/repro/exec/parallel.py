"""The slice-parallel executor.

``SET executor = parallel`` runs eligible scan pipelines — scan →
zone-map skip → filter → project, optionally topped by partial
aggregation or hash-join build-side partitioning — on per-slice workers
(:mod:`repro.exec.workers`), the paper's "every slice of every compute
node executes the same compiled segment" data-plane claim. Work is
scheduled as *morsels* (contiguous block ranges of one shard) so a
skewed slice is drained by many workers instead of strangling one.

A morsel runs the serial vectorized engine's batch pipeline (``SET
enable_encoded_scan`` governs both) and row pipelines come back as
per-slice ``BatchList``s; everything not pushed down — joins, sorts,
exchanges, distinct, limits, system-table scans — is inherited from
:class:`VectorizedExecutor`.

Determinism rules (the merge must be bit-identical to a serial run for
integer results, and reproducible run-to-run always):

* Morsels are merged in morsel order = (slice, ascending block range) =
  exactly the serial scan order, so row order and group-key first-seen
  order match the serial engines.
* Workers never touch shared engine state. Disk-IO byte counts come
  back in a log and are replayed through the leader's disks in morsel
  order (identical accounting and media-fault sequence to serial);
  injected worker-crash decisions are drawn on the leader at dispatch.
* Partial aggregates merge per slice in morsel order first, then
  through the same ``_merge_partials`` as every other executor, so
  interconnect accounting is identical. (Floating-point aggregates may
  differ from serial below ~1e-9 because partial sums re-associate.)

Failure handling: a morsel whose worker dies (injected WORKER_CRASH
fault or a broken process pool) is re-executed serially on the leader
and the recovery is logged; a row-pipeline morsel whose output exceeds
the configured ship limit falls back to leader execution the same way,
and so — silently, nothing failed — does one the shared pool would not
take because a concurrent session had just replaced it.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

from repro.exec.context import SliceExec
from repro.exec.scan import shard_block_count
from repro.exec.vectorized import BatchList, VectorizedExecutor
from repro.exec.volcano import PerSlice, redistributed_sides, scan_column_names
from repro.exec.workers import (
    MorselResult,
    MorselTask,
    PipelineSpec,
    run_morsel,
)
from repro.errors import WorkerCrashError
from repro.faults.plan import FaultKind
from repro.plan.physical import (
    PhysicalAggregate,
    PhysicalFilter,
    PhysicalHashJoin,
    PhysicalNode,
    PhysicalProject,
    PhysicalScan,
)
from repro.storage.chain import ScanStats

#: Node shapes a worker pipeline may contain.
_PIPELINE_NODES = (PhysicalScan, PhysicalFilter, PhysicalProject)


class _WorkerSpill:
    """Adapts one morsel's spill counters to _note_spill's interface."""

    def __init__(self, result: MorselResult):
        self.spilled = result.spilled_bytes > 0
        self.bytes_written = result.spilled_bytes
        self.partitions_spilled = result.spill_partitions
        self.bytes_read = result.spill_bytes_read


class ParallelExecutor(VectorizedExecutor):
    """Slice-parallel morsel execution with a leader-side ordered merge."""

    name = "parallel"

    def __init__(self, ctx):
        super().__init__(ctx)
        self._cfg = ctx.parallel
        #: id(join side) -> partition key index, for sides whose rows the
        #: enclosing hash join will redistribute (set in _run_hash_join).
        self._pending_partition: dict[int, int] = {}
        #: id(join side) -> per-source-slice destination buckets produced
        #: by a partition pipeline, consumed by _shuffle_side.
        self._prebucketed: dict[int, list] = {}
        #: slice_id -> per-slice worker accounting (stv_slice_exec).
        self._slice_exec: dict[str, SliceExec] = {}

    # ---- configuration -----------------------------------------------------

    def _effective(self) -> tuple[int, str]:
        """(workers, mode) actually used for this query's dispatches.

        Degree 1 runs morsels inline on the leader ("serial" mode): the
        full morsel machinery with deterministic single-threaded timing —
        what the parity suite pins the pooled modes against. Missing pool
        plumbing (an executor built on a bare context) degrades the same
        way instead of failing.
        """
        cfg = self._cfg
        if cfg is None:
            return 1, "serial"
        degree = max(1, cfg.degree)
        if degree == 1 or cfg.mode == "serial":
            return degree, "serial"
        if cfg.pool_manager is None or not cfg.registry_id:
            return degree, "serial"
        return degree, cfg.mode

    # ---- dispatch hooks ----------------------------------------------------

    def _run_node(self, node: PhysicalNode) -> PerSlice:
        if isinstance(node, _PIPELINE_NODES) and node.parallel_eligible:
            result = self._run_pipeline(node)
            if result is not None:
                return result
        return super()._run_node(node)

    def _run_aggregate(self, node: PhysicalAggregate) -> PerSlice:
        child = node.child
        if isinstance(child, _PIPELINE_NODES) and child.parallel_eligible:
            partials = self._run_pipeline(child, aggregate=node)
            if partials is not None:
                aggregates = [call.aggregate for call in node.aggregates]
                return self._merge_partials(node, partials, aggregates)
        return super()._run_aggregate(node)

    def _run_hash_join(self, node: PhysicalHashJoin) -> PerSlice:
        """Mark to-be-shuffled eligible sides so their pipelines partition
        rows by join key inside the workers (build-side partitioning)."""
        shuffled_left, shuffled_right = redistributed_sides(node)
        marked: list[int] = []
        if node.keys:
            lk, rk = node.keys[0]
            for side, shuffled, key in (
                (node.left, shuffled_left, lk),
                (node.right, shuffled_right, rk),
            ):
                if (
                    shuffled
                    and isinstance(side, _PIPELINE_NODES)
                    and side.parallel_eligible
                    and side.partitioning.kind != "all"
                ):
                    self._pending_partition[id(side)] = key
                    marked.append(id(side))
        try:
            return super()._run_hash_join(node)
        finally:
            for key_id in marked:
                self._pending_partition.pop(key_id, None)
                self._prebucketed.pop(key_id, None)

    def _shuffle_side(
        self, side: PhysicalNode, per_slice: PerSlice, key_index: int, width: int
    ) -> PerSlice:
        buckets = self._prebucketed.pop(id(side), None)
        if buckets is None:
            return super()._shuffle_side(side, per_slice, key_index, width)
        # Assemble worker-partitioned buckets exactly as exchange.shuffle
        # would: destination lists are source-major, and only rows whose
        # destination differs from their source cross the interconnect.
        self._ctx.check_faults()
        n = self._ctx.slice_count
        out: PerSlice = [[] for _ in range(n)]
        moved = 0
        for source in range(n):
            for dest in range(n):
                rows = buckets[source][dest]
                out[dest].extend(rows)
                if dest != source:
                    moved += len(rows)
        self._ctx.interconnect.record_redistribution(moved * width)
        return out

    # ---- the pipeline runner ----------------------------------------------

    def _run_pipeline(
        self, top: PhysicalNode, aggregate: PhysicalAggregate | None = None
    ):
        """Run the scan pipeline rooted at *top* on slice workers.

        Returns per-slice ``BatchList``s (row pipelines), row lists
        (partition pipelines) or partial-state dicts (*aggregate* given),
        or None when the pipeline cannot be pushed down (system-table
        scan).
        """
        chain: list[PhysicalNode] = []
        node = top
        while not isinstance(node, PhysicalScan):
            chain.append(node)
            node = node.child
        scan = node
        chain.append(scan)
        if scan.table.name in self._ctx.system_rows:
            return None

        stage_nodes = list(reversed(chain[:-1]))  # bottom-up, above the scan
        stages = []
        for stage in stage_nodes:
            if isinstance(stage, PhysicalFilter):
                stages.append(("filter", stage.condition))
            else:
                stages.append(("project", tuple(stage.expressions)))

        partition_key = (
            self._pending_partition.get(id(top)) if aggregate is None else None
        )
        spec = PipelineSpec(
            table=scan.table.name,
            column_names=tuple(scan_column_names(scan)),
            zone_predicates=tuple(scan.zone_predicates),
            filters=tuple(scan.filters),
            stages=tuple(stages),
            group_exprs=(
                tuple(aggregate.group_exprs) if aggregate is not None else None
            ),
            aggregates=(
                tuple((call.aggregate, call.argument) for call in aggregate.aggregates)
                if aggregate is not None
                else ()
            ),
            partition_key=partition_key or 0,
            partition_slices=(
                self._ctx.slice_count if partition_key is not None else 0
            ),
        )
        tasks = self._morselize(scan, spec, aggregate is not None)
        workers, mode = self._effective()
        # Start the fused nodes' clocks before dispatch so their elapsed
        # spans the worker work (the top node's clock already runs — _run
        # begins it before _run_node).
        for fused in chain:
            self._begin_stat(fused)
        results = self._dispatch(tasks, workers, mode)

        # Replay worker disk reads (and any spill IO) through the
        # leader's disks in morsel order: identical accounting (and
        # injected media-fault / DISK_FULL sequence) to a serial scan.
        for task, result in zip(tasks, results):
            disk = self._ctx.slices[task.slice_index].disk
            for nbytes in result.io_log:
                disk.record_read(nbytes)
            if result.spill_log:
                self._ctx.spill.replay(disk, result.spill_log)
                self._note_spill(aggregate, _WorkerSpill(result), disk.disk_id)

        self._pipeline_stats(
            top, scan, stage_nodes, aggregate, tasks, results, workers, mode
        )

        if aggregate is not None:
            return self._assemble_partials(aggregate, tasks, results)
        if spec.partition_slices:
            return self._assemble_buckets(top, spec, tasks, results)
        per_slice: PerSlice = [BatchList() for _ in self._ctx.slices]
        for task, result in zip(tasks, results):
            per_slice[task.slice_index].extend(result.batches)
        return per_slice

    def _morselize(
        self, scan: PhysicalScan, spec: PipelineSpec, for_aggregate: bool
    ) -> list[MorselTask]:
        """Split every shard of the scanned table into block-range tasks.

        All slices are scanned even for DISTSTYLE ALL tables — the serial
        engines drain every replica too (and charge every disk), and the
        aggregate assembly keeps only slice 0's partials, mirroring
        ``_one_copy``.
        """
        cfg = self._cfg
        step = max(1, cfg.morsel_blocks if cfg is not None else 4)
        ship_limit = (
            0 if for_aggregate
            else (cfg.row_ship_limit if cfg is not None else 0)
        )
        # Aggregate morsels inherit the query's memory budget: their
        # state maps are the only worker-side structures that grow
        # unbounded (row pipelines are bounded by the ship limit).
        memory_limit = 0
        if for_aggregate:
            state = self._spill_state()
            if state is not None and state[0].limit_bytes:
                memory_limit = state[0].limit_bytes
        tasks: list[MorselTask] = []
        registry_id = cfg.registry_id if cfg is not None else 0
        for index, store in enumerate(self._ctx.slices):
            if not store.has_shard(spec.table):
                continue
            blocks = shard_block_count(store.shard(spec.table))
            starts = list(range(0, blocks, step)) or [0]
            for j, start in enumerate(starts):
                last = j == len(starts) - 1
                tasks.append(
                    MorselTask(
                        registry_id=registry_id,
                        slice_index=index,
                        slice_id=store.slice_id,
                        block_start=start,
                        # Open-ended: a concurrent writer may seal the tail
                        # into new blocks before the morsel is scanned.
                        block_end=None if last else start + step,
                        include_tail=last,
                        pipeline=spec,
                        snapshot=self._ctx.snapshot,
                        row_ship_limit=ship_limit,
                        memory_limit=memory_limit,
                        encoded=self._ctx.encoded_scan,
                    )
                )
        return tasks

    def _dispatch(
        self, tasks: list[MorselTask], workers: int, mode: str
    ) -> list[MorselResult]:
        """Run tasks on the pool; results come back in task (morsel) order.

        Worker-crash faults are drawn on the leader per task, in morsel
        order, from the injector's "worker" stream — deterministic no
        matter how the OS schedules the pool. A crashed or pool-broken
        morsel is re-executed serially on the leader; so is one the pool
        never took, and one whose row output overflowed the ship limit.
        """
        injector = self._ctx.fault_injector
        prepared = []
        for task in tasks:
            if injector is not None and injector.worker_crash(task.slice_id):
                task = replace(task, crash=True)
            prepared.append(task)

        futures: list = []
        if mode != "serial":
            manager = self._cfg.pool_manager
            scanned = {task.pipeline.table for task in prepared}
            try:
                pool = manager.pool(workers, mode, tables=scanned)
                for task in prepared:
                    futures.append(pool.submit(task))
            except (BrokenProcessPool, OSError):
                manager.invalidate()
            except RuntimeError:
                # A concurrent session replaced the shared pool between
                # pool() and submit(). Nothing crashed, so no fault is
                # logged: the morsels it would not take run inline below.
                pass
        results: list[MorselResult] = []
        for i, task in enumerate(prepared):
            try:
                results.append(
                    futures[i].result()
                    if i < len(futures)  # else: serial mode, or never taken
                    else run_morsel(task, self._ctx.slices)
                )
            except WorkerCrashError:
                results.append(self._recover(i, task))
            except BrokenProcessPool:
                manager.invalidate()
                results.append(self._recover(i, task, detail="pool broken"))

        for i, result in enumerate(results):
            if result.overflow:
                # Too many rows to ship: the leader re-runs the morsel
                # locally (its stats replace the worker's attempt).
                results[i] = run_morsel(
                    replace(tasks[i], row_ship_limit=0, crash=False),
                    self._ctx.slices,
                )
        return results

    def _recover(
        self, index: int, task: MorselTask, detail: str = "injected crash"
    ) -> MorselResult:
        """Serial re-execution of a morsel whose worker died."""
        injector = self._ctx.fault_injector
        if injector is not None:
            injector.record(
                FaultKind.WORKER_CRASH.value,
                task.slice_id,
                f"morsel {index}: {detail}",
            )
            injector.record(
                "recovery:morsel_rerun", task.slice_id, f"morsel {index}"
            )
        entry = self._slice_entry(task)
        entry.crashes += 1
        return run_morsel(replace(task, crash=False), self._ctx.slices)

    # ---- result assembly ---------------------------------------------------

    def _assemble_partials(
        self,
        aggregate: PhysicalAggregate,
        tasks: list[MorselTask],
        results: list[MorselResult],
    ) -> list[dict]:
        """Merge per-morsel partial states into per-slice dicts, in morsel
        order — group-key insertion order therefore matches a serial scan,
        and the inherited _merge_partials sees exactly what it would see
        from serial per-slice accumulation."""
        aggregates = [call.aggregate for call in aggregate.aggregates]
        partials: list[dict] = [{} for _ in self._ctx.slices]
        for task, result in zip(tasks, results):
            target = partials[task.slice_index]
            for key, entry in result.partial.items():
                existing = target.get(key)
                if existing is None:
                    target[key] = entry
                else:
                    for i, agg in enumerate(aggregates):
                        existing[i] = agg.merge(existing[i], entry[i])
        if aggregate.child.partitioning.kind == "all":
            # Every slice holds a full replica; keep one copy of the
            # partials (the serial path's _one_copy before accumulation).
            partials = [partials[0]] + [{} for _ in self._ctx.slices[1:]]
        return partials

    def _assemble_buckets(
        self,
        top: PhysicalNode,
        spec: PipelineSpec,
        tasks: list[MorselTask],
        results: list[MorselResult],
    ) -> PerSlice:
        """Stash per-source destination buckets for _shuffle_side and
        return flat per-slice row lists for the generic join plumbing."""
        n = spec.partition_slices
        buckets = [[[] for _ in range(n)] for _ in self._ctx.slices]
        for task, result in zip(tasks, results):
            source = buckets[task.slice_index]
            for dest in range(n):
                source[dest].extend(result.buckets[dest])
        self._prebucketed[id(top)] = buckets
        return [
            [row for dest in source for row in dest] for source in buckets
        ]

    # ---- instrumentation ---------------------------------------------------

    def _pipeline_stats(
        self,
        top: PhysicalNode,
        scan: PhysicalScan,
        stage_nodes: list[PhysicalNode],
        aggregate: PhysicalAggregate | None,
        tasks: list[MorselTask],
        results: list[MorselResult],
        workers: int,
        mode: str,
    ) -> None:
        """Populate OperatorStats for the fused pipeline's interior.

        The topmost counted node (the aggregate, or a non-scan pipeline
        top) still gets its row count from the generic _run/_count_slices
        path; everything below is filled in here from worker counters.
        """
        morsels = len(tasks)
        scan_stat = self._begin_stat(scan)
        if scan_stat is not None:
            local = self._scan_locals.get(scan_stat.step)
            if local is None:
                local = ScanStats()
                self._scan_locals[scan_stat.step] = local
            for result in results:
                local.merge(result.scan)
            scan_stat.rows += sum(r.scanned_rows for r in results)
            scan_stat.workers = workers
            scan_stat.morsels += morsels
            self._touch(scan_stat, self._start_times[scan_stat.step])

        # Interior stage nodes: everything above the scan except the
        # counted top (for row pipelines the top is counted generically;
        # under an aggregate every stage node is interior).
        counted = stage_nodes if aggregate is not None else stage_nodes[:-1]
        for i, stage in enumerate(counted):
            stat = self._begin_stat(stage)
            if stat is None:
                continue
            stat.rows += sum(
                r.stage_rows[i] for r in results if i < len(r.stage_rows)
            )
            stat.workers = workers
            stat.morsels += morsels
            self._touch(stat, self._start_times[stat.step])

        # Mark the counted top (aggregate or pipeline top) with its
        # degree of parallelism for EXPLAIN ANALYZE / svl_query_summary.
        # A scan-topped pipeline was already marked above.
        record = aggregate if aggregate is not None else top
        if record is not scan:
            top_stat = self._begin_stat(record)
            if top_stat is not None:
                top_stat.workers = workers
                top_stat.morsels += morsels

        for task, result in zip(tasks, results):
            entry = self._slice_entry(task, mode)
            entry.morsels += 1
            entry.scanned_rows += result.scanned_rows
            entry.elapsed_us += result.elapsed_us
            if result.batches is not None:
                entry.rows += sum(batch.count for batch in result.batches)
            elif result.buckets is not None:
                entry.rows += sum(len(b) for b in result.buckets)
            elif result.partial is not None:
                entry.rows += len(result.partial)

    def _slice_entry(self, task: MorselTask, mode: str | None = None) -> SliceExec:
        entry = self._slice_exec.get(task.slice_id)
        if entry is None:
            _, effective_mode = self._effective()
            entry = SliceExec(
                slice_id=task.slice_id,
                node_id=task.slice_id.rsplit("-s", 1)[0],
                mode=mode or effective_mode,
            )
            self._slice_exec[task.slice_id] = entry
        return entry

    def _finish_stats(self) -> None:
        for store in self._ctx.slices:
            entry = self._slice_exec.get(store.slice_id)
            if entry is not None:
                self._ctx.stats.slice_exec.append(entry)
        self._slice_exec = {}
        super()._finish_stats()
