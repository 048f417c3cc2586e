"""The vectorized (column-batch) executor.

Operators exchange :class:`~repro.exec.batch.ColumnBatch`es — one Python
list per live column, one block's worth of rows per batch — instead of
row tuples. Scans decode each block once (served from the cluster's
:class:`~repro.storage.blockcache.BlockDecodeCache` across queries),
filters and projections run prebuilt vector kernels over whole columns,
hash joins read a batch probe side's keys from its key columns, and
aggregates fold whole argument vectors into partial states.

The executor subclasses :class:`VolcanoExecutor` so distribution logic
(join-input movement, the probe loop, the partial-aggregate merge),
instrumentation and non-batch operators (sorts, limits, set ops, nested
loops) are shared: per-slice payloads are either a
:class:`BatchList` of column batches or a plain row list, and the
materialization choke points (:meth:`_materialize`, :meth:`_leader_rows`)
transparently convert batches to rows where
an inherited operator needs them. Step/row/block accounting is kept
identical to the other executors (scan rows are counted pre-filter,
blocks once per logical block) so ``svl_query_summary`` and EXPLAIN
ANALYZE agree across all three engines.
"""

from __future__ import annotations

from repro.exec.batch import (
    BatchList,
    _compile,
    accumulate_batches,
    apply_masks,
    make_mask_kernel,
    make_value_kernel,
    project_batch,
)
from repro.exec.volcano import PerSlice, VolcanoExecutor
from repro.plan.physical import (
    PhysicalAggregate,
    PhysicalFilter,
    PhysicalNode,
    PhysicalProject,
    PhysicalScan,
)


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

    # ---- scan --------------------------------------------------------------

    def _run_scan(self, node: PhysicalScan) -> PerSlice:
        masks = [make_mask_kernel(f) for f in node.filters]
        return self._batch_slices(
            node, encoded=True, keep=lambda batch: apply_masks(batch, masks)
        )

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

    def _join_input(self, side: PhysicalNode, streams: bool) -> PerSlice:
        if streams:
            return self._run_materialized_or_batches(side)
        return super()._join_input(side, streams)

    def _keyed(self, rows, keys: list[int]):
        """Batch probes read their keys from the batch's key columns."""
        if not isinstance(rows, BatchList):
            return super()._keyed(rows, keys)
        return (
            pair
            for batch in rows
            for pair in zip(
                zip(*(batch.column(i) for i in keys)), batch.rows()
            )
        )
