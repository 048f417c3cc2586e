"""The slice-parallel executor.

``SET executor = parallel`` runs partial aggregation over eligible scan
pipelines — scan → zone-map skip → filter → project → partial aggregate
— on per-slice workers (:mod:`repro.exec.workers`), the paper's "every
slice of every compute node executes the same compiled segment"
data-plane claim. Work is scheduled as *morsels* (contiguous block
ranges of one shard) so a skewed slice is drained by many workers
instead of strangling one.

A morsel runs the serial vectorized engine's batch pipeline, encoded
scan included, and ships back per-group partial states only. Every
other pipeline — rows a client or a join consumes,
sorts, exchanges, distinct, limits, system-table scans — runs on the
serial batch engine inherited from :class:`VectorizedExecutor`: measured
on two cores, shipping rows to workers never beat it and partitioning a
join side in workers ran at half its speed (DESIGN.md §8). So does every
aggregate of a governed query: its memory grant is one budget, charged
and spilled against on the leader.

Determinism rules (the merge must be bit-identical to a serial run for
integer results, and reproducible run-to-run always):

* Morsels are merged in morsel order = (slice, ascending block range) =
  exactly the serial scan order, so group-key first-seen order matches
  the serial engines.
* Workers never touch shared engine state. Disk-IO byte counts come
  back in a log and are replayed through the leader's disks in morsel
  order (identical accounting and media-fault sequence to serial);
  injected worker-crash decisions are drawn on the leader at dispatch.
* Partial aggregates merge per slice in morsel order first (the same
  ``merge_states`` as the leader's), then through the same
  ``_merge_partials`` as every other executor, so interconnect
  accounting is identical. (Floating-point aggregates may differ from
  serial below ~1e-9 because partial sums re-associate.)

Failure handling: a morsel whose worker dies (injected WORKER_CRASH
fault or a broken process pool) is re-executed serially on the leader
and the recovery is logged; so — silently, nothing failed — is one the
shared pool would not take because a concurrent session had just
replaced it. A morsel whose read met a corrupt block re-runs there too,
once the recovery handler has repaired it.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from functools import partial

from repro.exec.context import SliceExec
from repro.exec.vectorized import VectorizedExecutor
from repro.exec.volcano import PerSlice, merge_states, scan_column_names
from repro.exec.workers import MorselResult, MorselTask, PipelineSpec, run_morsel
from repro.errors import WorkerCrashError
from repro.faults.plan import FaultKind
from repro.plan.physical import (
    PhysicalAggregate,
    PhysicalFilter,
    PhysicalNode,
    PhysicalProject,
    PhysicalScan,
)

#: Node shapes a worker pipeline may contain.
_PIPELINE_NODES = (PhysicalScan, PhysicalFilter, PhysicalProject)

#: Blocks per morsel: the scheduling quantum workers pull.
MORSEL_BLOCKS = 4


class ParallelExecutor(VectorizedExecutor):
    """Slice-parallel partial aggregation with a leader-side ordered merge."""

    name = "parallel"

    def __init__(self, ctx):
        super().__init__(ctx)
        self._cfg = ctx.parallel
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
        if degree == 1:
            return degree, "serial"
        if cfg.pool_manager is None or not cfg.registry_id:
            return degree, "serial"
        return degree, cfg.mode

    # ---- the one dispatch hook ---------------------------------------------

    def _run_aggregate(self, node: PhysicalAggregate) -> PerSlice:
        """Fan an eligible aggregate out to morsels, unless the query is
        governed: workers would each hold a grant of their own, where the
        serial batch path charges the query's one budget."""
        child = node.child
        if (
            self._ctx.memory_budget is None
            and isinstance(child, _PIPELINE_NODES)
            and child.parallel_eligible
        ):
            partials = self._run_pipeline(node)
            if partials is not None:
                aggregates = [call.aggregate for call in node.aggregates]
                return self._merge_partials(node, partials, aggregates)
        return super()._run_aggregate(node)

    # ---- the pipeline runner ----------------------------------------------

    def _run_pipeline(self, aggregate: PhysicalAggregate) -> list[dict] | None:
        """Run *aggregate*'s scan pipeline on slice workers.

        Returns per-slice partial-state dicts, or None when the pipeline
        cannot be pushed down (system-table scan).
        """
        chain: list[PhysicalNode] = []
        node = aggregate.child
        while not isinstance(node, PhysicalScan):
            chain.append(node)
            node = node.child
        scan = node
        if scan.table.name in self._ctx.system_rows:
            return None

        stage_nodes = list(reversed(chain))  # bottom-up, above the scan
        stages = []
        for stage in stage_nodes:
            if isinstance(stage, PhysicalFilter):
                stages.append(("filter", stage.condition))
            else:
                stages.append(("project", tuple(stage.expressions)))

        spec = PipelineSpec(
            table=scan.table.name,
            column_names=tuple(scan_column_names(scan)),
            zone_predicates=tuple(scan.zone_predicates),
            filters=tuple(scan.filters),
            stages=tuple(stages),
            group_exprs=tuple(aggregate.group_exprs),
            aggregates=tuple(
                (call.aggregate, call.argument) for call in aggregate.aggregates
            ),
        )
        tasks, versions = self._morselize(spec)
        workers, mode = self._effective()
        # Start the fused nodes' clocks before dispatch so their elapsed
        # spans the worker work (the aggregate's clock already runs — _run
        # begins it before _run_node).
        for fused in (*chain, scan):
            self._begin_stat(fused)
        results = self._dispatch(tasks, versions, workers, mode)

        # Replay worker disk reads through the leader's disks in morsel
        # order: identical accounting (and injected media-fault
        # sequence) to a serial scan.
        for task, result in zip(tasks, results):
            disk = self._ctx.slices[task.slice_index].disk
            for nbytes in result.io_log:
                self._ctx.recover(partial(disk.record_read, nbytes))

        self._pipeline_stats(
            scan, stage_nodes, aggregate, tasks, results, workers, mode
        )
        return self._assemble_partials(aggregate, tasks, results)

    def _morselize(self, spec: PipelineSpec) -> tuple[list[MorselTask], dict]:
        """Split the shard version bound here of every shard of the
        scanned table into block-range tasks; returns them and the bound
        versions by slice index.

        All slices are scanned even for DISTSTYLE ALL tables — the serial
        engines drain every replica too (and charge every disk), and the
        aggregate assembly keeps only slice 0's partials, mirroring
        ``_one_copy``.
        """
        tasks: list[MorselTask] = []
        versions = {}
        registry_id = self._cfg.registry_id if self._cfg is not None else 0
        for index, store in enumerate(self._ctx.slices):
            if not store.has_shard(spec.table):
                continue
            version = versions[index] = store.shard(spec.table).version
            blocks = len(version.lead_blocks)
            starts = list(range(0, blocks, MORSEL_BLOCKS)) or [0]
            for start in starts:
                tasks.append(
                    MorselTask(
                        registry_id=registry_id,
                        slice_index=index,
                        slice_id=store.slice_id,
                        version=version.number,
                        block_start=start,
                        block_end=min(start + MORSEL_BLOCKS, blocks),
                        include_tail=start == starts[-1],
                        pipeline=spec,
                        snapshot=self._ctx.snapshot,
                    )
                )
        return tasks, versions

    def _dispatch(
        self, tasks: list[MorselTask], versions: dict, workers: int, mode: str
    ) -> list[MorselResult]:
        """Run tasks on the pool; results come back in task (morsel) order.

        Worker-crash faults are drawn on the leader per task, in morsel
        order, from the injector's "worker" stream — deterministic no
        matter how the OS schedules the pool. A crashed or pool-broken
        morsel is re-executed serially on the leader against the bound
        *versions*; so is one the pool never took, one a worker handed
        back (its shard was at another version), and one whose read met
        a fault, once it is repaired.
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
            newest = max((v.number for v in versions.values()), default=0)
            try:
                pool = manager.pool(workers, mode, newest)
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
            version = versions[task.slice_index]
            inline = partial(run_morsel, task, self._ctx.slices, version)
            try:
                # Serial mode, or a morsel the pool never took, runs inline.
                first = futures[i].result if i < len(futures) else inline
                result = self._ctx.recover(first, inline)
                if result is None:
                    result = self._ctx.recover(inline)
            except WorkerCrashError:
                result = self._recover(i, task, version)
            except BrokenProcessPool:
                manager.invalidate()
                result = self._recover(i, task, version, detail="pool broken")
            results.append(result)
        return results

    def _recover(
        self, index: int, task: MorselTask, version, detail="injected crash"
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
        task = replace(task, crash=False)
        return self._ctx.recover(partial(run_morsel, task, self._ctx.slices, version))

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
            merge_states(partials[task.slice_index], result.partial, aggregates)
        if aggregate.child.partitioning.kind == "all":
            # Every slice holds a full replica; keep one copy of the
            # partials (the serial path's _one_copy before accumulation).
            partials = [partials[0]] + [{} for _ in self._ctx.slices[1:]]
        return partials

    # ---- instrumentation ---------------------------------------------------

    def _pipeline_stats(
        self,
        scan: PhysicalScan,
        stage_nodes: list[PhysicalNode],
        aggregate: PhysicalAggregate,
        tasks: list[MorselTask],
        results: list[MorselResult],
        workers: int,
        mode: str,
    ) -> None:
        """Populate OperatorStats for the fused pipeline below *aggregate*.

        The aggregate still gets its row count from the generic
        _run/_count_slices path; the scan and every stage node are
        filled in here from worker counters.
        """
        morsels = len(tasks)
        scan_stat = self._begin_stat(scan)
        if scan_stat is not None:
            local = self._scan_local(scan_stat)
            for result in results:
                local.merge(result.scan)
            scan_stat.rows += sum(r.scanned_rows for r in results)
            scan_stat.workers = workers
            scan_stat.morsels += morsels
            self._touch(scan_stat, self._start_times[scan_stat.step])

        for i, stage in enumerate(stage_nodes):
            stat = self._begin_stat(stage)
            if stat is None:
                continue
            stat.rows += sum(r.stage_rows[i] for r in results)
            stat.workers = workers
            stat.morsels += morsels
            self._touch(stat, self._start_times[stat.step])

        # Mark the aggregate with its degree of parallelism for EXPLAIN
        # ANALYZE / svl_query_summary.
        top_stat = self._begin_stat(aggregate)
        if top_stat is not None:
            top_stat.workers = workers
            top_stat.morsels += morsels

        for task, result in zip(tasks, results):
            entry = self._slice_entry(task, mode)
            entry.morsels += 1
            entry.scanned_rows += result.scanned_rows
            entry.elapsed_us += result.elapsed_us
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
