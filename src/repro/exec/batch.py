"""Column-vector batches and the vector kernels that run over them.

A :class:`ColumnBatch` is the unit of data flow in the vectorized
executor: one Python list per output column (``None`` for dead columns,
late-materialized only if something actually consumes them) plus a row
count. Batches are immutable by convention — columns may alias decoded
block vectors served by the shared :class:`BlockDecodeCache`, so no
consumer ever mutates a column in place.

Kernels are built **once per operator** from a bound expression and then
applied to every batch:

- :func:`make_mask_kernel` produces selection masks (``expr IS TRUE``
  per row) with comprehension fast paths for the comparison shapes the
  compiled executor also inlines (``col <op> literal``, ``col <op> col``,
  AND/OR of masks, BETWEEN, IS NULL), falling back to the interpreted
  closure over transposed rows otherwise.
- :func:`make_value_kernel` produces output vectors for projections,
  group keys and aggregate arguments, with the same inlining rules.

The AND/OR fast paths are sound under SQL's three-valued logic because a
mask encodes ``IS TRUE``: ``(a AND b) IS TRUE`` iff both are TRUE, and
``(a OR b) IS TRUE`` iff either is. ``NOT`` has no such identity (NOT of
UNKNOWN is UNKNOWN, not TRUE) and always takes the fallback.

Fast-path kernels are generated source, compiled through
:data:`KERNEL_CACHE` — the source-keyed code cache the compiled
executor's pipelines use too (:mod:`repro.exec.segmentcache`). Literal
operands arrive through the exec environment, so one code object serves
every literal of a kernel shape.

The per-batch steps built from those kernels (:func:`apply_masks`,
:func:`project_batch`, :func:`accumulate_batches`) live here too: the
vectorized operators and the morsel workers run the same functions.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ExecutionError
from repro.exec.encoded import EncodedColumn
from repro.exec.segmentcache import CodeCache
from repro.sql import ast
from repro.sql.expressions import compile_expression, literal_value

#: SQL comparison -> the Python spelling used in generated comprehensions.
_PY_OPS = {
    "=": "==",
    "<>": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
    "+": "+",
    "-": "-",
    "*": "*",
}

_COMPARISONS = frozenset(["=", "<>", "<", "<=", ">", ">="])

#: ``lit <op> col`` rewritten as ``col <flipped-op> lit`` so encoded
#: columns see the literal on the right.
_FLIPPED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _encoded_compare(index: int, op: str, lit, fallback):
    """Wrap a decoded comparison kernel with the dictionary/RLE/MOSTLY
    pushdown: when the column is still encoded and the codec can answer,
    the mask never touches decoded values."""

    def kernel(batch: ColumnBatch) -> list:
        col = batch.columns[index]
        if type(col) is EncodedColumn:
            mask = col.compare_mask(op, lit)
            if mask is not None:
                return mask
        return fallback(batch)

    return kernel


class ColumnBatch:
    """One block's worth of rows as per-column vectors.

    ``columns[i]`` is the value list of output column *i*, or ``None``
    for a dead (never-read) column; ``count`` is the row count shared by
    every column. Dead columns materialize to all-NULL vectors only on
    first access.
    """

    __slots__ = ("columns", "count", "_rows")

    def __init__(self, columns: list, count: int):
        self.columns = columns
        self.count = count
        self._rows: list | None = None

    @classmethod
    def from_rows(cls, rows: list, width: int) -> "ColumnBatch":
        """Transpose row tuples into a batch (test/fallback helper)."""
        if not rows:
            return cls([[] for _ in range(width)], 0)
        return cls([list(col) for col in zip(*rows)], len(rows))

    def column(self, index: int) -> list:
        """The value vector of one column, materializing dead columns and
        decoding still-encoded ones (the universal fallback boundary)."""
        values = self.columns[index]
        if values is None:
            values = [None] * self.count
            self.columns[index] = values
        elif type(values) is EncodedColumn:
            values = values.materialize()
            self.columns[index] = values
        return values

    def rows(self) -> list:
        """The batch as row tuples (memoized; the late-materialization
        boundary for operators that need full rows)."""
        if self._rows is None:
            if not self.columns:
                self._rows = [()] * self.count
            else:
                self._rows = list(
                    zip(*(self.column(i) for i in range(len(self.columns))))
                )
        return self._rows

    def take(self, selection: list) -> "ColumnBatch":
        """A new batch holding the rows at *selection* (in order); dead
        columns stay dead and encoded columns late-materialize only the
        selected positions."""
        columns: list = []
        for col in self.columns:
            if col is None:
                columns.append(None)
            elif type(col) is EncodedColumn:
                columns.append(col.gather(selection))
            else:
                columns.append([col[i] for i in selection])
        return ColumnBatch(columns, len(selection))


class BatchList(list):
    """Marker type: a per-slice payload of ColumnBatches (vs row tuples)."""


def _no_unresolved(ref: ast.ColumnRef) -> int:
    raise ExecutionError(f"unresolved column reference {ref.to_sql()!r}")


def _compile(expr: ast.Expression):
    """The interpreted row closure of a bound expression — the one
    definition every executor's row fallback shares."""
    return compile_expression(expr, _no_unresolved)


def _inlinable(expr: ast.BinaryOp) -> bool:
    # Deferred import: codegen pulls in the volcano executor, which
    # imports the scan module that consumes batches.
    from repro.exec.codegen import _inlinable as inlinable

    return inlinable(expr)


def _comparable_literal(expr: ast.Expression) -> bool:
    return isinstance(expr, ast.Literal) and literal_value(expr) is not None


#: Kernel code objects, process-wide (shared by every cluster), in the
#: same source-keyed cache class as the compiled executor's pipelines.
KERNEL_CACHE = CodeCache("<batch-kernel>", capacity=512)


def _build(source: str, env: dict) -> Callable:
    """One kernel function from generated source: the ``compile()`` is
    served from :data:`KERNEL_CACHE`; the ``exec`` that binds the
    per-call literal environment is a single cheap ``def``."""
    namespace = dict(env)
    exec(KERNEL_CACHE.compile(source)[0], namespace)  # noqa: S102
    return namespace["_kernel"]


# ---------------------------------------------------------------------------
# Mask kernels (filter position: SQL TRUE -> keep)
# ---------------------------------------------------------------------------

def make_mask_kernel(expr: ast.Expression) -> Callable[[ColumnBatch], list]:
    """A function mapping a batch to a list of plain bools (``expr IS
    TRUE`` per row)."""
    kernel = _try_mask_fast_path(expr)
    if kernel is not None:
        return kernel
    fn = _compile(expr)

    def fallback(batch: ColumnBatch) -> list:
        return [fn(row) is True for row in batch.rows()]

    return fallback


def _try_mask_fast_path(expr: ast.Expression):
    if isinstance(expr, ast.BinaryOp):
        op = expr.op
        if op == "AND":
            left = make_mask_kernel(expr.left)
            right = make_mask_kernel(expr.right)
            return lambda batch: [
                a and b for a, b in zip(left(batch), right(batch))
            ]
        if op == "OR":
            left = make_mask_kernel(expr.left)
            right = make_mask_kernel(expr.right)
            return lambda batch: [
                a or b for a, b in zip(left(batch), right(batch))
            ]
        if op in _COMPARISONS and _inlinable(expr):
            return _comparison_mask(expr)
        return None
    if isinstance(expr, ast.IsNullExpr) and isinstance(
        expr.operand, ast.BoundRef
    ):
        index = expr.operand.index
        negated = expr.negated

        def null_kernel(batch: ColumnBatch) -> list:
            col = batch.columns[index]
            if type(col) is EncodedColumn:
                return col.is_null_mask(negated)
            values = batch.column(index)
            if negated:
                return [v is not None for v in values]
            return [v is None for v in values]

        return null_kernel
    if isinstance(expr, ast.BetweenExpr) and not expr.negated:
        return _between_mask(expr)
    return None


def _comparison_mask(expr: ast.BinaryOp):
    pyop = _PY_OPS[expr.op]
    left, right = expr.left, expr.right
    if isinstance(left, ast.BoundRef) and _comparable_literal(right):
        source = (
            "def _kernel(batch):\n"
            f"    lit = _lit\n"
            f"    return [v is not None and v {pyop} lit"
            f" for v in batch.column({left.index})]\n"
        )
        lit = literal_value(right)
        return _encoded_compare(
            left.index, expr.op, lit, _build(source, {"_lit": lit})
        )
    if isinstance(right, ast.BoundRef) and _comparable_literal(left):
        source = (
            "def _kernel(batch):\n"
            f"    lit = _lit\n"
            f"    return [v is not None and lit {pyop} v"
            f" for v in batch.column({right.index})]\n"
        )
        lit = literal_value(left)
        return _encoded_compare(
            right.index, _FLIPPED[expr.op], lit, _build(source, {"_lit": lit})
        )
    if isinstance(left, ast.BoundRef) and isinstance(right, ast.BoundRef):
        source = (
            "def _kernel(batch):\n"
            f"    return [a is not None and b is not None and a {pyop} b"
            f" for a, b in zip(batch.column({left.index}),"
            f" batch.column({right.index}))]\n"
        )
        return _build(source, {})
    return None


def _between_mask(expr: ast.BetweenExpr):
    operand = expr.operand
    if not isinstance(operand, ast.BoundRef):
        return None
    if not (_comparable_literal(expr.low) and _comparable_literal(expr.high)):
        return None
    # Reuse the codegen type rules: BETWEEN is two inlined comparisons.
    low_cmp = ast.BinaryOp(">=", operand, expr.low)
    high_cmp = ast.BinaryOp("<=", operand, expr.high)
    if not (_inlinable(low_cmp) and _inlinable(high_cmp)):
        return None
    source = (
        "def _kernel(batch):\n"
        "    lo, hi = _lo, _hi\n"
        f"    return [v is not None and lo <= v <= hi"
        f" for v in batch.column({operand.index})]\n"
    )
    low = literal_value(expr.low)
    high = literal_value(expr.high)
    decoded = _build(source, {"_lo": low, "_hi": high})
    index = operand.index

    def between_kernel(batch: ColumnBatch) -> list:
        col = batch.columns[index]
        if type(col) is EncodedColumn:
            low_mask = col.compare_mask(">=", low)
            if low_mask is not None:
                high_mask = col.compare_mask("<=", high)
                if high_mask is not None:
                    return [a and b for a, b in zip(low_mask, high_mask)]
        return decoded(batch)

    return between_kernel


# ---------------------------------------------------------------------------
# Value kernels (projection / group key / aggregate argument position)
# ---------------------------------------------------------------------------

def make_value_kernel(expr: ast.Expression) -> Callable[[ColumnBatch], list]:
    """A function mapping a batch to the expression's output vector."""
    if isinstance(expr, ast.BoundRef):
        index = expr.index

        def ref_kernel(batch: ColumnBatch):
            # A still-encoded column flows through untouched so projections
            # late-materialize and RLE aggregates can fold runs; generic
            # consumers treat it as a sequence (which decodes on demand).
            col = batch.columns[index]
            if type(col) is EncodedColumn:
                return col
            return batch.column(index)

        return ref_kernel
    if isinstance(expr, ast.Literal):
        value = literal_value(expr)
        return lambda batch: [value] * batch.count
    if isinstance(expr, ast.BinaryOp) and expr.op in _PY_OPS and _inlinable(expr):
        kernel = _binary_value(expr)
        if kernel is not None:
            return kernel
    fn = _compile(expr)

    def fallback(batch: ColumnBatch) -> list:
        return [fn(row) for row in batch.rows()]

    return fallback


def _binary_value(expr: ast.BinaryOp):
    pyop = _PY_OPS[expr.op]
    left, right = expr.left, expr.right
    if isinstance(left, ast.BoundRef) and _comparable_literal(right):
        source = (
            "def _kernel(batch):\n"
            "    lit = _lit\n"
            f"    return [None if v is None else v {pyop} lit"
            f" for v in batch.column({left.index})]\n"
        )
        return _build(source, {"_lit": literal_value(right)})
    if isinstance(right, ast.BoundRef) and _comparable_literal(left):
        source = (
            "def _kernel(batch):\n"
            "    lit = _lit\n"
            f"    return [None if v is None else lit {pyop} v"
            f" for v in batch.column({right.index})]\n"
        )
        return _build(source, {"_lit": literal_value(left)})
    if isinstance(left, ast.BoundRef) and isinstance(right, ast.BoundRef):
        source = (
            "def _kernel(batch):\n"
            f"    return [None if a is None or b is None else a {pyop} b"
            f" for a, b in zip(batch.column({left.index}),"
            f" batch.column({right.index}))]\n"
        )
        return _build(source, {})
    return None


# ---------------------------------------------------------------------------
# Per-batch pipeline steps (the serial operators and the morsel workers)
# ---------------------------------------------------------------------------

def apply_masks(batch: ColumnBatch, masks) -> ColumnBatch | None:
    """Filter *batch* through mask kernels; None when nothing survives."""
    for kernel in masks:
        mask = kernel(batch)
        if all(mask):
            continue
        selection = [i for i, keep in enumerate(mask) if keep]
        if not selection:
            return None
        batch = batch.take(selection)
    return batch if batch.count else None


def project_batch(batch: ColumnBatch, kernels) -> ColumnBatch:
    """One output column per value kernel."""
    return ColumnBatch([kernel(batch) for kernel in kernels], batch.count)


def accumulate_batches(
    states: dict, batches, group_kernels, arg_kernels, aggregates
) -> None:
    """Fold *batches* into per-group partial aggregate states. *states*
    is a plain dict or a governed ``SpillableAggregateStates``;
    ``arg_kernels[i]`` is None for COUNT(*)-style aggregates."""
    n_aggs = len(aggregates)
    for batch in batches:
        count = batch.count
        if count == 0:
            continue
        arg_vectors = [
            None if kernel is None else kernel(batch) for kernel in arg_kernels
        ]
        if not group_kernels:
            # Global aggregation: fold whole vectors into one state.
            entry = states.get(())
            if entry is None:
                entry = [agg.create() for agg in aggregates]
                states[()] = entry
            for i in range(n_aggs):
                agg = aggregates[i]
                vector = arg_vectors[i]
                if vector is None:
                    # COUNT(*): every row counts once.
                    entry[i] = agg.merge(entry[i], count)
                elif (
                    type(vector) is EncodedColumn
                    and vector.is_rle
                    and vector.foldable_runs()
                ):
                    # Operate-on-compressed: fold whole RLE runs
                    # without expanding them (NULL runs are omitted,
                    # matching SQL aggregate NULL skipping).
                    state = entry[i]
                    for value, run in vector.runs():
                        state = agg.accumulate_run(state, value, run)
                    entry[i] = state
                else:
                    entry[i] = agg.accumulate_many(entry[i], vector)
            continue
        key_columns = [kernel(batch) for kernel in group_kernels]
        if len(key_columns) == 1:
            keys = [(value,) for value in key_columns[0]]
        else:
            keys = list(zip(*key_columns))
        for j in range(count):
            key = keys[j]
            entry = states.get(key)
            if entry is None:
                entry = [agg.create() for agg in aggregates]
                states[key] = entry
            for i in range(n_aggs):
                vector = arg_vectors[i]
                entry[i] = aggregates[i].accumulate(
                    entry[i], 1 if vector is None else vector[j]
                )
