"""The vectorized (column-batch) executor.

Operators exchange :class:`~repro.exec.batch.ColumnBatch`es — one Python
list per live column, one block's worth of rows per batch — instead of
row tuples. Scans decode each block once (served from the cluster's
:class:`~repro.storage.blockcache.BlockDecodeCache` across queries),
filters and projections run prebuilt vector kernels over whole columns,
hash joins probe per batch against a prebuilt key column, and aggregates
fold whole argument vectors into partial states.

The executor subclasses :class:`VolcanoExecutor` so distribution logic,
instrumentation and non-batch operators (sorts, limits, set ops, nested
loops, FULL joins) are shared: per-slice payloads are either a
:class:`BatchList` of column batches or a plain row list, and the
materialization choke points (:meth:`_materialize`, :meth:`_leader_rows`,
:meth:`_collect_at_leader`) transparently convert batches to rows where
an inherited operator needs them. Step/row/block accounting is kept
identical to the other executors (scan rows are counted pre-filter,
blocks once per logical block) so ``svl_query_summary`` and EXPLAIN
ANALYZE agree across all three engines.
"""

from __future__ import annotations

from repro.exec import exchange
from repro.exec.batch import (
    _compile,
    accumulate_batches,
    apply_masks,
    make_mask_kernel,
    make_value_kernel,
    project_batch,
)
from repro.exec.scan import scan_batches
from repro.exec.volcano import PerSlice, VolcanoExecutor, scan_column_names
from repro.plan.physical import (
    JoinDistribution,
    PhysicalAggregate,
    PhysicalFilter,
    PhysicalHashJoin,
    PhysicalNode,
    PhysicalProject,
    PhysicalScan,
)
from repro.sql import ast


class BatchList(list):
    """Marker type: a per-slice payload of ColumnBatches (vs row tuples)."""


def _batch_rows(batches: "BatchList") -> list:
    """Materialize a slice's batches into one row-tuple list."""
    out: list = []
    for batch in batches:
        out.extend(batch.rows())
    return out


class VectorizedExecutor(VolcanoExecutor):
    """Executes physical plans over column-vector batches."""

    name = "vectorized"

    # ---- batch/row conversion choke points --------------------------------

    def _materialize(self, node: PhysicalNode, per_slice: PerSlice) -> PerSlice:
        return [
            _batch_rows(rows) if isinstance(rows, BatchList) else list(rows)
            for rows in per_slice
        ]

    def _one_copy(self, node: PhysicalNode, per_slice: PerSlice) -> PerSlice:
        if node.partitioning.kind == "all" and isinstance(
            per_slice[0], BatchList
        ):
            return [per_slice[0]] + [
                BatchList() for _ in range(self._ctx.slice_count - 1)
            ]
        return super()._one_copy(node, per_slice)

    def _leader_rows(self, node: PhysicalNode, per_slice: PerSlice) -> list:
        return super()._leader_rows(node, self._materialize(node, per_slice))

    def _collect_at_leader(
        self, plan: PhysicalNode, per_slice: PerSlice
    ) -> list[tuple]:
        return super()._collect_at_leader(
            plan, self._materialize(plan, per_slice)
        )

    def _count_slices(self, per_slice: PerSlice, stat) -> PerSlice:
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

    # ---- scan --------------------------------------------------------------

    def _run_scan(self, node: PhysicalScan) -> PerSlice:
        if self._ctx.system_rows.get(node.table.name) is not None:
            # System-table rows live at the leader; the row path handles them.
            return super()._run_scan(node)
        stat = self._begin_stat(node)
        local = self._scan_local(stat)
        column_names = scan_column_names(node)
        masks = [make_mask_kernel(f) for f in node.filters]
        out: PerSlice = []
        for store in self._ctx.slices:
            slice_batches = BatchList()
            if store.has_shard(node.table.name):
                shard = store.shard(node.table.name)
                for batch in scan_batches(
                    shard,
                    column_names,
                    node.zone_predicates,
                    self._ctx.snapshot,
                    stats=local,
                    charge=store.disk.record_read,
                    block_cache=self._ctx.block_cache,
                    encoded=self._ctx.encoded_scan,
                    recover=self._ctx.recover,
                ):
                    if stat is not None:
                        # Scan output is counted pre-filter, matching the
                        # row executors' accounting.
                        stat.rows += batch.count
                    batch = apply_masks(batch, masks)
                    if batch is not None:
                        slice_batches.append(batch)
            out.append(slice_batches)
        if stat is not None:
            self._touch(stat, self._start_times[stat.step])
        return out

    # ---- filter / project --------------------------------------------------

    def _run_filter(self, node: PhysicalFilter) -> PerSlice:
        child = self._run(node.child)
        mask = make_mask_kernel(node.condition)
        predicate = None
        out: PerSlice = []
        for rows in child:
            if isinstance(rows, BatchList):
                filtered = BatchList()
                for batch in rows:
                    batch = apply_masks(batch, (mask,))
                    if batch is not None:
                        filtered.append(batch)
                out.append(filtered)
            else:
                if predicate is None:
                    predicate = _compile(node.condition)
                out.append(self._filtered(rows, predicate))
        return out

    def _run_project(self, node: PhysicalProject) -> PerSlice:
        child = self._run(node.child)
        kernels = [make_value_kernel(e) for e in node.expressions]
        exprs = None
        out: PerSlice = []
        for rows in child:
            if isinstance(rows, BatchList):
                out.append(
                    BatchList(project_batch(batch, kernels) for batch in rows)
                )
            else:
                if exprs is None:
                    exprs = [_compile(e) for e in node.expressions]
                out.append(tuple(fn(row) for fn in exprs) for row in rows)
        return out

    # ---- aggregate -----------------------------------------------------------

    def _run_aggregate(self, node: PhysicalAggregate) -> PerSlice:
        child = self._one_copy(node.child, self._run_materialized_or_batches(node.child))
        group_kernels = [make_value_kernel(e) for e in node.group_exprs]
        arg_kernels = [
            make_value_kernel(call.argument)
            if call.argument is not None
            else None
            for call in node.aggregates
        ]
        aggregates = [call.aggregate for call in node.aggregates]
        group_fns = arg_fns = None

        partials: list[dict] = []
        for s, rows in enumerate(child):
            states = self._agg_states(node, s, aggregates)
            if isinstance(rows, BatchList):
                accumulate_batches(
                    states, rows, group_kernels, arg_kernels, aggregates
                )
            else:
                if group_fns is None:
                    group_fns = [_compile(e) for e in node.group_exprs]
                    arg_fns = [
                        _compile(call.argument)
                        if call.argument is not None
                        else None
                        for call in node.aggregates
                    ]
                self._accumulate_rows(
                    states, rows, group_fns, arg_fns, aggregates
                )
            partials.append(self._finish_agg_states(node, s, states))
        return self._merge_partials(node, partials, aggregates)

    def _run_materialized_or_batches(self, node: PhysicalNode) -> PerSlice:
        """Run *node*, materializing lazy row iterables but keeping batch
        payloads as batches (so aggregation consumes columns directly)."""
        per_slice = self._run(node)
        return [
            rows if isinstance(rows, (BatchList, list)) else list(rows)
            for rows in per_slice
        ]

    # ---- hash join ----------------------------------------------------------

    def _run_hash_join(self, node: PhysicalHashJoin) -> PerSlice:
        strategy = node.strategy
        # The batch probe keeps the probe side in place; fall back to the
        # row path whenever the strategy moves it (or for FULL joins,
        # which must track unmatched build rows).
        probe_moves = strategy in (
            JoinDistribution.DS_DIST_BOTH,
            JoinDistribution.DS_DIST_OUTER,
        )
        if (
            not node.batch_capable
            or node.kind is ast.JoinKind.FULL
            or probe_moves
        ):
            return super()._run_hash_join(node)

        build_node = node.right if node.build_right else node.left
        probe_node = node.left if node.build_right else node.right
        build = self._materialize(build_node, self._run(build_node))
        probe = self._run_materialized_or_batches(probe_node)
        build_width = exchange.row_width(build_node.output)
        left_keys = [l for l, _ in node.keys]
        right_keys = [r for _, r in node.keys]
        build_keys = right_keys if node.build_right else left_keys
        probe_keys = left_keys if node.build_right else right_keys

        if strategy is JoinDistribution.DS_DIST_NONE:
            if (
                node.left.partitioning.kind == "all"
                and node.right.partitioning.kind == "all"
            ):
                # Keep one copy of the left side; only slice 0 produces.
                if node.build_right:
                    probe = self._one_copy(node.left, probe)
                else:
                    build = super()._one_copy(node.left, build)
        elif strategy is JoinDistribution.DS_BCAST_INNER:
            build = exchange.broadcast(
                super()._one_copy(build_node, build), self._ctx, build_width
            )
            probe = self._one_copy(probe_node, probe)
        else:  # DS_DIST_INNER: redistribute the build side by its key.
            build = self._shuffle_side(
                build_node, build, build_keys[0], build_width
            )

        residual = (
            _compile(node.residual) if node.residual is not None else None
        )
        build_null = (None,) * len(build_node.output)
        preserve_probe = (
            node.kind is ast.JoinKind.LEFT and node.build_right
        ) or (node.kind is ast.JoinKind.RIGHT and not node.build_right)

        out: PerSlice = []
        for s in range(self._ctx.slice_count):
            table, spill_table = self._build_hash_table(
                node, build[s], build_keys, s
            )
            probe_slice = (
                self._probe_batches
                if isinstance(probe[s], BatchList)
                else self._probe_rows
            )
            out.append(
                probe_slice(
                    node,
                    probe[s],
                    table,
                    probe_keys,
                    residual,
                    build_null,
                    preserve_probe,
                )
            )
            if spill_table is not None:
                spill_table.done()
        return out

    def _probe_batches(
        self,
        node: PhysicalHashJoin,
        batches: "BatchList",
        table: dict,
        probe_keys: list[int],
        residual,
        build_null: tuple,
        preserve_probe: bool,
    ) -> list:
        build_right = node.build_right
        results: list = []
        single_key = len(probe_keys) == 1
        for batch in batches:
            probe_rows = batch.rows()
            if single_key:
                key_column = batch.column(probe_keys[0])
                for j in range(batch.count):
                    value = key_column[j]
                    matches = (
                        table.get((value,)) if value is not None else None
                    )
                    self._emit_matches(
                        results,
                        probe_rows[j],
                        matches,
                        residual,
                        build_null,
                        preserve_probe,
                        build_right,
                    )
            else:
                key_columns = [batch.column(i) for i in probe_keys]
                for j in range(batch.count):
                    key = tuple(col[j] for col in key_columns)
                    matches = (
                        None
                        if any(v is None for v in key)
                        else table.get(key)
                    )
                    self._emit_matches(
                        results,
                        probe_rows[j],
                        matches,
                        residual,
                        build_null,
                        preserve_probe,
                        build_right,
                    )
        return results

    def _probe_rows(
        self,
        node: PhysicalHashJoin,
        probe_rows: list,
        table: dict,
        probe_keys: list[int],
        residual,
        build_null: tuple,
        preserve_probe: bool,
    ) -> list:
        build_right = node.build_right
        results: list = []
        for probe in probe_rows:
            key = tuple(probe[i] for i in probe_keys)
            matches = None if any(v is None for v in key) else table.get(key)
            self._emit_matches(
                results,
                probe,
                matches,
                residual,
                build_null,
                preserve_probe,
                build_right,
            )
        return results

    @staticmethod
    def _emit_matches(
        results: list,
        probe: tuple,
        matches,
        residual,
        build_null: tuple,
        preserve_probe: bool,
        build_right: bool,
    ) -> None:
        emitted = False
        if matches:
            for build in matches:
                combined = probe + build if build_right else build + probe
                if residual is not None and residual(combined) is not True:
                    continue
                results.append(combined)
                emitted = True
        if not emitted and preserve_probe:
            if build_right:
                results.append(probe + build_null)
            else:
                results.append(build_null + probe)

