"""The interpreted (Volcano-style) executor.

Rows flow through chains of Python generators; expressions are evaluated
by closure trees from :func:`repro.sql.expressions.compile_expression`.
Pipelines stay lazy between blocking points (joins, aggregation, sorts,
exchanges), mirroring the per-row iterator dispatch of a classical
interpreted executor — the baseline the query-compilation experiment (a2)
measures against.
"""

from __future__ import annotations

import time
from typing import Iterable

from repro.errors import ExecutionError
from repro.exec import exchange
from repro.exec.batch import BatchList, ColumnBatch, _compile
from repro.exec.context import ExecutionContext, OperatorStat, SpillEvent
from repro.exec.scan import scan_batches, scan_rows
from repro.exec.spill import (
    SpillableAggregateStates,
    SpillableHashTable,
    SpillableSorter,
)
from repro.plan.physical import (
    JoinDistribution,
    PhysicalAggregate,
    PhysicalDistinct,
    PhysicalFilter,
    PhysicalHashJoin,
    PhysicalLimit,
    PhysicalMergeJoin,
    PhysicalNestedLoopJoin,
    PhysicalNode,
    PhysicalProject,
    PhysicalScan,
    PhysicalSetOp,
    PhysicalSingleRow,
    PhysicalSort,
    assign_steps,
)
from repro.sql import ast
from repro.storage.chain import ScanStats

PerSlice = list


class VolcanoExecutor:
    """Executes physical plans by interpreted iteration."""

    name = "volcano"

    def __init__(self, ctx: ExecutionContext):
        self._ctx = ctx
        #: id(node) -> preorder step; populated by execute().
        self._steps: dict[int, int] = {}
        self._stats_by_step: dict[int, OperatorStat] = {}
        self._start_times: dict[int, float] = {}
        #: step -> node-local ScanStats, merged into ctx.stats.scan at end.
        self._scan_locals: dict[int, ScanStats] = {}

    # ---- public -----------------------------------------------------------

    def execute(self, plan: PhysicalNode) -> list[tuple]:
        """Run the plan and return the result rows at the leader."""
        self._ctx.check_faults()
        self._steps = assign_steps(plan)
        try:
            rows = self._leader_rows(plan, self._run(plan))
        finally:
            self._finish_stats()
        return rows

    # ---- per-operator instrumentation ------------------------------------------

    def _begin_stat(self, node: PhysicalNode) -> OperatorStat | None:
        """The node's OperatorStat, created (and its clock started) on
        first sight. None when the plan has no step numbering (a node run
        outside execute())."""
        step = self._steps.get(id(node))
        if step is None:
            return None
        stat = self._stats_by_step.get(step)
        if stat is None:
            stat = OperatorStat(
                step=step, operator=node.label(), est_rows=float(node.est_rows)
            )
            self._stats_by_step[step] = stat
            self._start_times[step] = time.perf_counter()
            self._ctx.stats.operators.append(stat)
        return stat

    def _scan_local(self, stat: OperatorStat | None) -> ScanStats:
        """The ScanStats a scan accrues into: its step's own (folded in by
        :meth:`_finish_stats`), or the query totals when unnumbered."""
        if stat is None:
            return self._ctx.stats.scan
        return self._scan_locals.setdefault(stat.step, ScanStats())

    def _touch(self, stat: OperatorStat, start: float) -> None:
        elapsed = int((time.perf_counter() - start) * 1_000_000)
        if elapsed > stat.elapsed_us:
            stat.elapsed_us = elapsed

    def _counted_iter(self, rows: Iterable[tuple], stat: OperatorStat, start: float):
        count = 0
        try:
            for row in rows:
                count += 1
                yield row
        finally:
            stat.rows += count
            self._touch(stat, start)

    def _count_slices(self, per_slice: PerSlice, stat: OperatorStat) -> PerSlice:
        start = self._start_times[stat.step]
        out: PerSlice = []
        for rows in per_slice:
            if isinstance(rows, BatchList):
                stat.rows += sum(batch.count for batch in rows)
                out.append(rows)
            elif isinstance(rows, list):
                stat.rows += len(rows)
                out.append(rows)
            else:
                out.append(self._counted_iter(rows, stat, start))
        self._touch(stat, start)
        return out

    def _finish_stats(self) -> None:
        """Fold node-local scan counters into the stats and into their
        OperatorStats, then fix the report order to plan-step order."""
        for step, local in self._scan_locals.items():
            stat = self._stats_by_step.get(step)
            if stat is not None:
                stat.blocks_read = local.blocks_read
                stat.blocks_skipped = local.blocks_skipped
                stat.bytes_read = local.bytes_read
                stat.cache_hits = local.cache_hits
                stat.cache_misses = local.cache_misses
                stat.encoded_batches = local.encoded_batches
                stat.decode_bytes_avoided = local.decode_bytes_avoided
            self._ctx.stats.scan.merge(local)
        self._scan_locals.clear()
        self._ctx.stats.operators.sort(key=lambda s: s.step)

    # ---- memory governor / spill ---------------------------------------------

    def _spill_state(self):
        """(budget, manager) when this query runs governed, else None."""
        budget = self._ctx.memory_budget
        manager = self._ctx.spill
        if budget is None or manager is None:
            return None
        return budget, manager

    def _spill_label(self, node: PhysicalNode, slice_index: int) -> str:
        step = self._steps.get(id(node), 0)
        return f"step{step}-s{slice_index}"

    def _agg_states(
        self, node: PhysicalNode, slice_index: int, aggregates, tag: str = ""
    ) -> dict:
        """A fresh per-group state map: plain dict when unbounded, a
        budget-charged :class:`SpillableAggregateStates` when governed.
        Leader-side maps (partial merge) use slice 0's disk — the repo's
        convention for leader work — via ``slice_index=0``."""
        state = self._spill_state()
        if state is None:
            return {}
        budget, manager = state
        disk = self._ctx.slices[slice_index].disk
        label = self._spill_label(node, slice_index) + tag
        return SpillableAggregateStates(
            budget, manager.file_factory(disk), label, aggregates
        )

    def _finish_agg_states(
        self, node: PhysicalNode, slice_index: int, states: dict
    ) -> dict:
        """Resolve a state map to a plain dict in first-seen order,
        folding any spill activity into the operator's stats."""
        if isinstance(states, SpillableAggregateStates):
            finished = states.finish()
            self._note_spill(
                node, states, self._ctx.slices[slice_index].disk.disk_id
            )
            return finished
        return states

    def _note_spill(self, node: PhysicalNode, spilled, disk_id: str) -> None:
        """Fold one structure's spill counters into the operator stat,
        the query totals and the spill event list."""
        if spilled is None or not spilled.spilled:
            return
        stats = self._ctx.stats
        stats.spilled_bytes += spilled.bytes_written
        stats.spill_partitions += spilled.partitions_spilled
        step = self._steps.get(id(node), 0)
        stat = self._stats_by_step.get(step)
        if stat is not None:
            stat.spilled_bytes += spilled.bytes_written
            stat.spill_partitions += spilled.partitions_spilled
        stats.spill_events.append(
            SpillEvent(
                step=step,
                operator=node.label(),
                disk_id=disk_id,
                partitions=spilled.partitions_spilled,
                bytes_written=spilled.bytes_written,
                bytes_read=spilled.bytes_read,
            )
        )

    # ---- dispatch ------------------------------------------------------------

    def _run(self, node: PhysicalNode) -> PerSlice:
        stat = self._begin_stat(node)
        per_slice = self._run_node(node)
        if stat is None or isinstance(node, PhysicalScan):
            # Scan output is counted at the raw-scan level (shared with
            # the compiled executor), before the pushed-down filters.
            return per_slice
        return self._count_slices(per_slice, stat)

    def _run_node(self, node: PhysicalNode) -> PerSlice:
        if isinstance(node, PhysicalScan):
            return self._run_scan(node)
        if isinstance(node, PhysicalFilter):
            return self._run_filter(node)
        if isinstance(node, PhysicalProject):
            return self._run_project(node)
        if isinstance(node, PhysicalHashJoin):
            return self._run_hash_join(node)
        if isinstance(node, PhysicalMergeJoin):
            return self._run_merge_join(node)
        if isinstance(node, PhysicalNestedLoopJoin):
            return self._run_nested_loop(node)
        if isinstance(node, PhysicalAggregate):
            return self._run_aggregate(node)
        if isinstance(node, PhysicalDistinct):
            return self._run_distinct(node)
        if isinstance(node, PhysicalSort):
            return self._run_sort(node)
        if isinstance(node, PhysicalLimit):
            return self._run_limit(node)
        if isinstance(node, PhysicalSetOp):
            return self._run_set_op(node)
        if isinstance(node, PhysicalSingleRow):
            return [[()]] + [[] for _ in range(self._ctx.slice_count - 1)]
        raise ExecutionError(f"cannot execute {type(node).__name__}")

    def _run_set_op(self, node: PhysicalSetOp) -> PerSlice:
        left = self._one_copy(
            node.left, self._materialize(node.left, self._run(node.left))
        )
        right = self._one_copy(
            node.right, self._materialize(node.right, self._run(node.right))
        )
        if node.op == "union" and node.all:
            # Stays distributed: concatenate per slice.
            return [l + r for l, r in zip(left, right)]
        width = exchange.row_width(node.output) if node.output else 1
        left_rows = exchange.gather(left, self._ctx, width)
        right_rows = exchange.gather(right, self._ctx, width)
        if node.op == "union":
            seen: set = set()
            out = []
            for row in left_rows + right_rows:
                if row not in seen:
                    seen.add(row)
                    out.append(row)
        elif node.op == "intersect":
            right_set = set(right_rows)
            seen = set()
            out = []
            for row in left_rows:
                if row in right_set and row not in seen:
                    seen.add(row)
                    out.append(row)
        else:  # except
            right_set = set(right_rows)
            seen = set()
            out = []
            for row in left_rows:
                if row not in right_set and row not in seen:
                    seen.add(row)
                    out.append(row)
        return [out] + [[] for _ in range(self._ctx.slice_count - 1)]

    # ---- leaf / pipeline operators ------------------------------------------

    def _system_slices(
        self, node: PhysicalScan, stat: OperatorStat | None
    ) -> PerSlice | None:
        """A system-table scan's rows per slice, counted; None for a user
        table. System rows live at the leader; slice 0 carries all of
        them, a valid round-robin placement for downstream exchanges,
        joins and aggregates."""
        system = self._ctx.system_rows.get(node.table.name)
        if system is None:
            return None
        rows = [tuple(row[i] for i in node.column_indexes) for row in system]
        if stat is not None:
            stat.rows += len(rows)
            self._touch(stat, self._start_times[stat.step])
        return [rows] + [[] for _ in range(self._ctx.slice_count - 1)]

    def _batch_slices(
        self, node: PhysicalScan, encoded: bool, keep=lambda batch: batch
    ) -> PerSlice:
        """Per-slice :class:`BatchList`s of the cursor's batches, each
        passed through *keep* (None drops it): the scan of the compiled
        and vectorized engines. Rows are counted per batch before *keep*,
        as the row scan counts them before the pushed-down filters;
        system rows arrive as one batch on slice 0."""
        stat = self._begin_stat(node)
        system = self._system_slices(node, stat)
        if system is not None:
            width = len(node.column_indexes)
            kept = [keep(ColumnBatch.from_rows(rows, width)) if rows else None
                    for rows in system]
            return [BatchList([] if batch is None else [batch]) for batch in kept]
        local, names = self._scan_local(stat), scan_column_names(node)
        out: PerSlice = []
        for store in self._ctx.slices:
            kept = BatchList()
            out.append(kept)
            if not store.has_shard(node.table.name):
                continue
            for batch in scan_batches(
                store.shard(node.table.name), names, node.zone_predicates,
                self._ctx.snapshot, stats=local, charge=store.disk.record_read,
                block_cache=self._ctx.block_cache, encoded=encoded,
                recover=self._ctx.recover,
            ):
                if stat is not None:
                    stat.rows += batch.count
                batch = keep(batch)
                if batch is not None:
                    kept.append(batch)
        if stat is not None:
            self._touch(stat, self._start_times[stat.step])
        return out

    def _scan_slices(self, node: PhysicalScan) -> PerSlice:
        """Per-slice raw row iterables: zone-map pruning and MVCC
        visibility applied, pushed-down filters NOT applied (the caller
        wraps them): volcano's scan."""
        stat = self._begin_stat(node)
        system = self._system_slices(node, stat)
        if system is not None:
            return system
        local, names = self._scan_local(stat), scan_column_names(node)
        out: PerSlice = []
        for store in self._ctx.slices:
            if not store.has_shard(node.table.name):
                out.append([])
                continue
            rows: Iterable[tuple] = scan_rows(
                store.shard(node.table.name), names, node.zone_predicates,
                self._ctx.snapshot, stats=local, charge=store.disk.record_read,
                block_cache=self._ctx.block_cache, recover=self._ctx.recover,
            )
            if stat is not None:
                rows = self._counted_iter(
                    rows, stat, self._start_times[stat.step]
                )
            out.append(rows)
        return out

    def _run_scan(self, node: PhysicalScan) -> PerSlice:
        predicates = [_compile(f) for f in node.filters]
        out: PerSlice = []
        for rows in self._scan_slices(node):
            for predicate in predicates:
                rows = self._filtered(rows, predicate)
            out.append(rows)
        return out

    @staticmethod
    def _filtered(rows: Iterable[tuple], predicate) -> Iterable[tuple]:
        return (row for row in rows if predicate(row) is True)

    def _run_filter(self, node: PhysicalFilter) -> PerSlice:
        child = self._run(node.child)
        predicate = _compile(node.condition)
        return [self._filtered(rows, predicate) for rows in child]

    def _run_project(self, node: PhysicalProject) -> PerSlice:
        child = self._run(node.child)
        exprs = [_compile(e) for e in node.expressions]
        return [
            (tuple(fn(row) for fn in exprs) for row in rows) for rows in child
        ]

    # ---- joins -------------------------------------------------------------------

    def _materialize(
        self, node: PhysicalNode, per_slice: PerSlice
    ) -> PerSlice:
        return [list(rows) for rows in per_slice]

    def _one_copy(self, node: PhysicalNode, per_slice: PerSlice) -> PerSlice:
        """For 'all'-partitioned input: keep one copy (slice 0), so
        row-once consumers (aggregates, shuffles) do not double count."""
        if node.partitioning.kind == "all":
            return [list(per_slice[0])] + [
                [] for _ in range(self._ctx.slice_count - 1)
            ]
        return per_slice

    def _join_input(self, side: PhysicalNode, streams: bool) -> PerSlice:
        """Run one input of a hash join, materialized. *streams* marks a
        probe side that stays in place, which the vectorized engine keeps
        as batches."""
        return self._materialize(side, self._run(side))

    def _move_join_input(
        self, node: PhysicalNode, rows: PerSlice, build: bool
    ) -> PerSlice:
        """Move one input of a join — its *build* side or its probe side —
        as the join's strategy says. Every engine's joins move their
        inputs here, so all of them move the same bytes:

        - DS_BCAST_INNER broadcasts one copy of the build side; a
          replicated probe side keeps one copy;
        - DS_DIST_INNER / OUTER / BOTH hash-shuffle the sides
          :func:`redistributed_sides` names, by their first join key;
        - DS_DIST_NONE moves nothing, but when both sides are replicated
          the probe side keeps one copy, so only one slice produces.
        """
        build_node, build_keys, probe_node, probe_keys = join_sides(node)
        side, keys = (
            (build_node, build_keys) if build else (probe_node, probe_keys)
        )
        strategy = node.strategy
        if strategy is JoinDistribution.DS_DIST_NONE:
            # A replicated probe facing a replicated build keeps one copy;
            # _one_copy leaves any other probe side in place.
            if build or build_node.partitioning.kind != "all":
                return rows
            return self._one_copy(side, rows)
        width = exchange.row_width(side.output)
        if strategy is JoinDistribution.DS_BCAST_INNER:
            rows = self._one_copy(side, rows)
            return exchange.broadcast(rows, self._ctx, width) if build else rows
        if not redistributed_sides(node)[0 if build else 1]:
            return rows
        key = keys[0]
        return exchange.shuffle(
            self._one_copy(side, rows), lambda row: row[key], self._ctx, width
        )

    def _run_hash_join(self, node: PhysicalHashJoin) -> PerSlice:
        build_right = node.build_right
        streams = not probe_moves(node)
        left = self._join_input(node.left, streams and build_right)
        right = self._join_input(node.right, streams and not build_right)
        build, probe = (right, left) if build_right else (left, right)
        build = self._move_join_input(node, build, build=True)
        probe = self._move_join_input(node, probe, build=False)
        _, build_keys, _, probe_keys = join_sides(node)
        residual = _compile(node.residual) if node.residual is not None else None
        out: PerSlice = []
        for s in range(self._ctx.slice_count):
            table, spill_table = self._build_hash_table(
                node, build[s], build_keys, s
            )
            keyed = self._keyed(probe[s], probe_keys)
            out.append(self._probe(node, build_right, keyed, table, residual))
            if spill_table is not None:
                spill_table.done()
        return out

    def _keyed(self, rows, keys: list[int]):
        """``(join key, row)`` per probe row, in order."""
        return ((tuple(row[i] for i in keys), row) for row in rows)

    def _probe(
        self, node: PhysicalNode, build_right: bool, keyed, table: dict, residual
    ) -> list:
        """One slice of a join: probe *table* (``key -> build rows``) with
        *keyed* ``(key, probe row)`` pairs. Per probe row, in order, emit
        each match the residual accepts, or — when the join preserves the
        probe side — the row NULL-padded if none did; a FULL join's
        unmatched build rows come last. A key holding NULL matches
        nothing: the table holds no such key. Every engine's hash and
        nested-loop joins emit their rows here."""
        kind = node.kind
        preserve = kind is ast.JoinKind.FULL or kind is (
            ast.JoinKind.LEFT if build_right else ast.JoinKind.RIGHT
        )
        track = kind is ast.JoinKind.FULL
        left_null = (None,) * len(node.left.output)
        right_null = (None,) * len(node.right.output)
        matched: set[int] = set()
        results: list = []
        for key, probe in keyed:
            emitted = False
            for build in table.get(key, ()):
                combined = probe + build if build_right else build + probe
                if residual is not None and residual(combined) is not True:
                    continue
                results.append(combined)
                emitted = True
                if track:
                    matched.add(id(build))
            if preserve and not emitted:
                results.append(
                    probe + right_null if build_right else left_null + probe
                )
        if track:
            for rows in table.values():
                for build in rows:
                    if id(build) not in matched:
                        results.append(
                            left_null + build
                            if build_right
                            else build + right_null
                        )
        return results

    def _build_hash_table(
        self,
        node: PhysicalHashJoin,
        build_rows: list,
        build_keys: list[int],
        slice_index: int,
    ) -> tuple[dict, SpillableHashTable | None]:
        """One slice's join table, ``key -> [build rows]`` (a NULL key
        never equals anything and is left out), shared by every engine's
        hash join. Governed queries build through a
        :class:`SpillableHashTable`, returned so the caller can
        ``done()`` it after probing. FULL joins emit unmatched build rows
        in table order, which a grace-hash repartition would reshuffle —
        they stay in memory."""
        state = (
            self._spill_state() if node.kind is not ast.JoinKind.FULL else None
        )
        if state is None:
            table: dict = {}
            for row in build_rows:
                key = tuple(row[i] for i in build_keys)
                if not any(v is None for v in key):
                    table.setdefault(key, []).append(row)
            return table, None
        budget, manager = state
        disk = self._ctx.slices[slice_index].disk
        spill_table = SpillableHashTable(
            budget,
            manager.file_factory(disk),
            self._spill_label(node, slice_index),
        )
        for row in build_rows:
            key = tuple(row[i] for i in build_keys)
            if not any(v is None for v in key):
                spill_table.insert(key, row)
        table = spill_table.build()
        self._note_spill(node, spill_table, disk.disk_id)
        return table, spill_table

    def _run_merge_join(self, node: PhysicalMergeJoin) -> PerSlice:
        """Sort-merge join. The operator selection only emits this for
        co-located (DS_DIST_NONE) inner joins on a single key, so its
        inputs move only as :meth:`_move_join_input` says (the left one
        probes); each slice sorts its two inputs on the key (near-free
        when they arrive in sort-key order) and merges."""
        if node.kind is not ast.JoinKind.INNER:
            raise ExecutionError("merge join supports INNER joins only")
        left = self._materialize(node.left, self._run(node.left))
        right = self._materialize(node.right, self._run(node.right))
        left = self._move_join_input(node, left, build=False)
        right = self._move_join_input(node, right, build=True)
        residual = _compile(node.residual) if node.residual is not None else None
        left_key, right_key = node.keys[0]
        out: PerSlice = []
        for s in range(self._ctx.slice_count):
            out.append(
                self._merge_join_slice(
                    left[s], right[s], left_key, right_key, residual
                )
            )
        return out

    @staticmethod
    def _merge_join_slice(
        left_rows: list,
        right_rows: list,
        left_key: int,
        right_key: int,
        residual,
    ) -> list:
        lrows = sorted(
            (row for row in left_rows if row[left_key] is not None),
            key=lambda row: row[left_key],
        )
        rrows = sorted(
            (row for row in right_rows if row[right_key] is not None),
            key=lambda row: row[right_key],
        )
        results: list = []
        i = j = 0
        n_left, n_right = len(lrows), len(rrows)
        while i < n_left and j < n_right:
            lval = lrows[i][left_key]
            rval = rrows[j][right_key]
            if lval < rval:
                i += 1
            elif lval > rval:
                j += 1
            else:
                j_end = j
                while j_end < n_right and rrows[j_end][right_key] == lval:
                    j_end += 1
                while i < n_left and lrows[i][left_key] == lval:
                    left_row = lrows[i]
                    for jj in range(j, j_end):
                        combined = left_row + rrows[jj]
                        if residual is None or residual(combined) is True:
                            results.append(combined)
                    i += 1
                j = j_end
        return results

    def _run_nested_loop(self, node: PhysicalNestedLoopJoin) -> PerSlice:
        """A join without equi-keys: broadcast the inner side — the right
        one, unless a RIGHT join preserves it — and test every pair."""
        left = self._materialize(node.left, self._run(node.left))
        right = self._materialize(node.right, self._run(node.right))
        build_right = node.kind is not ast.JoinKind.RIGHT
        inner, build, outer, probe = (
            (node.right, right, node.left, left)
            if build_right
            else (node.left, left, node.right, right)
        )
        width = exchange.row_width(inner.output)
        build = exchange.broadcast(self._one_copy(inner, build), self._ctx, width)
        probe = self._one_copy(outer, probe)
        residual = _compile(node.residual) if node.residual is not None else None
        return [
            self._probe(
                node, build_right, (((), row) for row in probe[s]),
                {(): build[s]}, residual,
            )
            for s in range(self._ctx.slice_count)
        ]

    # ---- aggregation / distinct -----------------------------------------------

    def _run_aggregate(self, node: PhysicalAggregate) -> PerSlice:
        child = self._one_copy(
            node.child, self._materialize(node.child, self._run(node.child))
        )
        group_fns = [_compile(e) for e in node.group_exprs]
        arg_fns = [
            _compile(call.argument) if call.argument is not None else None
            for call in node.aggregates
        ]
        aggregates = [call.aggregate for call in node.aggregates]

        partials: list[dict] = []
        for s, rows in enumerate(child):
            states = self._agg_states(node, s, aggregates)
            self._accumulate_rows(states, rows, group_fns, arg_fns, aggregates)
            partials.append(self._finish_agg_states(node, s, states))
        return self._merge_partials(node, partials, aggregates)

    @staticmethod
    def _accumulate_rows(
        states: dict, rows, group_fns, arg_fns, aggregates
    ) -> None:
        """Fold row tuples into per-group partial states (shared with the
        vectorized executor's row-input fallback)."""
        for row in rows:
            key = tuple(fn(row) for fn in group_fns)
            entry = states.get(key)
            if entry is None:
                entry = [agg.create() for agg in aggregates]
                states[key] = entry
            for i, agg in enumerate(aggregates):
                fn = arg_fns[i]
                entry[i] = agg.accumulate(entry[i], 1 if fn is None else fn(row))

    def _merge_partials(
        self, node: PhysicalAggregate, partials: list[dict], aggregates
    ) -> PerSlice:
        """Local finalize or leader merge of per-slice partial states —
        identical across executors so network accounting matches."""
        global_agg = not node.group_exprs
        width = exchange.row_width(node.output) if node.output else 8

        if node.local_only:
            out: PerSlice = []
            for states in partials:
                out.append(
                    [
                        key
                        + tuple(
                            agg.finalize(state)
                            for agg, state in zip(aggregates, entry)
                        )
                        for key, entry in states.items()
                    ]
                )
            return out

        merged = self._agg_states(node, 0, aggregates, tag="-merge")
        transferred = 0
        for states in partials:
            transferred += len(states)
            merge_states(merged, states, aggregates)
        self._ctx.interconnect.record_gather(transferred * width)
        merged = self._finish_agg_states(node, 0, merged)

        if global_agg and not merged:
            merged[()] = [agg.create() for agg in aggregates]

        leader_rows = [
            key
            + tuple(agg.finalize(state) for agg, state in zip(aggregates, entry))
            for key, entry in merged.items()
        ]
        return [leader_rows] + [[] for _ in range(self._ctx.slice_count - 1)]

    def _run_distinct(self, node: PhysicalDistinct) -> PerSlice:
        child = self._one_copy(
            node.child, self._materialize(node.child, self._run(node.child))
        )
        width = exchange.row_width(node.output)
        seen: set = set()
        ordered: list = []
        transferred = 0
        for rows in child:
            slice_seen: set = set()
            for row in rows:
                if row not in slice_seen:
                    slice_seen.add(row)
            transferred += len(slice_seen)
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    ordered.append(row)
        self._ctx.interconnect.record_gather(transferred * width)
        return [ordered] + [[] for _ in range(self._ctx.slice_count - 1)]

    # ---- leader operators ----------------------------------------------------------

    def _leader_rows(self, node: PhysicalNode, per_slice: PerSlice) -> list:
        kind = node.partitioning.kind
        if kind == "single":
            return list(per_slice[0])
        width = exchange.row_width(node.output) if node.output else 1
        if kind == "all":
            rows = list(per_slice[0])
            self._ctx.interconnect.record_gather(len(rows) * width)
            return rows
        return exchange.gather(
            [list(rows) for rows in per_slice], self._ctx, width
        )

    def _run_sort(self, node: PhysicalSort) -> PerSlice:
        rows = self._leader_rows(node.child, self._run(node.child))
        state = self._spill_state()
        if state is None:
            rows = sort_rows(rows, node.keys)
        else:
            budget, manager = state
            disk = self._ctx.slices[0].disk
            sorter = SpillableSorter(
                budget,
                manager.file_factory(disk),
                self._spill_label(node, 0),
            )
            rows = sorter.sort(
                rows,
                lambda chunk: sort_rows(chunk, node.keys),
                composite_sort_key(node.keys),
            )
            self._note_spill(node, sorter, disk.disk_id)
        return [rows] + [[] for _ in range(self._ctx.slice_count - 1)]

    def _run_limit(self, node: PhysicalLimit) -> PerSlice:
        rows = self._leader_rows(node.child, self._run(node.child))
        start = node.offset or 0
        end = start + node.limit if node.limit is not None else None
        return [rows[start:end]] + [[] for _ in range(self._ctx.slice_count - 1)]


def merge_states(target: dict, states: dict, aggregates) -> None:
    """Fold one map of per-group partial states into *target*, key by
    key, in *states*' order: a new key takes its entry as is. The one
    merge of partial aggregates, leader-side and per morsel alike."""
    for key, entry in states.items():
        existing = target.get(key)
        if existing is None:
            target[key] = entry
        else:
            for i, agg in enumerate(aggregates):
                existing[i] = agg.merge(existing[i], entry[i])


def join_sides(node: PhysicalNode) -> tuple[PhysicalNode, list, PhysicalNode, list]:
    """``(build input, its keys, probe input, its keys)`` of an equi-join.
    A merge join builds nothing; its left input counts as the probe."""
    left_keys = [l for l, _ in node.keys]
    right_keys = [r for _, r in node.keys]
    if getattr(node, "build_right", True):
        return node.right, right_keys, node.left, left_keys
    return node.left, left_keys, node.right, right_keys


def probe_moves(node: PhysicalNode) -> bool:
    """Whether a join's strategy hash-shuffles its probe input — which a
    fused (compiled) or batch (vectorized) probe cannot follow."""
    return node.strategy in (
        JoinDistribution.DS_DIST_OUTER,
        JoinDistribution.DS_DIST_BOTH,
    )


def redistributed_sides(node: PhysicalNode) -> tuple[bool, bool]:
    """Which inputs, ``(build, probe)``, a join's strategy hash-shuffles:
    neither for co-located and broadcast joins."""
    build = node.strategy in (
        JoinDistribution.DS_DIST_INNER,
        JoinDistribution.DS_DIST_BOTH,
    )
    return build, probe_moves(node)


def scan_column_names(node: PhysicalScan) -> list:
    """Chain names per scan-output position, ``None`` for dead columns."""
    names = []
    for position, table_index in enumerate(node.column_indexes):
        if node.live_columns is not None and position not in node.live_columns:
            names.append(None)
        else:
            names.append(node.table.columns[table_index].name)
    return names


def sort_rows(rows: list, keys: list[tuple[ast.Expression, bool]]) -> list:
    """Sort rows by the bound key expressions (ASC = NULLS LAST, matching
    PostgreSQL defaults). Shared by both executors."""
    out = list(rows)
    for expr, descending in reversed(keys):
        fn = _compile(expr)
        if descending:
            out.sort(key=lambda row: _DescKey(fn(row)))
        else:
            out.sort(key=lambda row: _AscKey(fn(row)))
    return out


def composite_sort_key(keys: list[tuple[ast.Expression, bool]]):
    """One lexicographic key function equivalent to the multi-pass
    stable sorts of :func:`sort_rows` — what the external-merge sorter
    hands ``heapq.merge`` so spilled runs interleave bit-identically."""
    compiled = [(_compile(expr), descending) for expr, descending in keys]

    def key_fn(row):
        return tuple(
            _DescKey(fn(row)) if descending else _AscKey(fn(row))
            for fn, descending in compiled
        )

    return key_fn


class _AscKey:
    """Ascending sort key: NULLs last."""

    __slots__ = ("value",)

    def __init__(self, value: object):
        self.value = value

    def __lt__(self, other: "_AscKey") -> bool:
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def __eq__(self, other: object) -> bool:
        # Tuple comparison (the composite merge key) probes == before <.
        # None == None is True here by design: NULLs tie with NULLs.
        return isinstance(other, _AscKey) and self.value == other.value


class _DescKey:
    """Descending sort key: NULLs first."""

    __slots__ = ("value",)

    def __init__(self, value: object):
        self.value = value

    def __lt__(self, other: "_DescKey") -> bool:
        if self.value is None:
            return other.value is not None
        if other.value is None:
            return False
        return self.value > other.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _DescKey) and self.value == other.value
