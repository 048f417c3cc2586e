"""Physical planning: operator selection, filter pushdown, and the
distribution-aware join strategy choice.

This is where the MPP engine earns the paper's claims: a join whose inputs
are hash-partitioned on the join key runs co-located (``DS_DIST_NONE``,
zero bytes moved); otherwise the planner prices broadcasting the build side
against redistributing one or both sides and picks the cheaper, using
catalog statistics for sizing. The EXPLAIN labels follow Redshift's.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.datatypes.types import SqlType
from repro.distribution.diststyle import DistStyle
from repro.engine.catalog import Catalog, ColumnStatistics, TableInfo
from repro.errors import AnalysisError
from repro.plan.bound import (
    AggCall,
    BoundColumn,
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalSetOp,
    LogicalSort,
)
from repro.plan.binder import _SingleRowNode
from repro.sql import ast

#: Default row estimate for tables with no statistics.
_DEFAULT_ROWS = 1000

_RANGE_OPS = frozenset(["<", "<=", ">", ">="])
_ZONE_OPS = frozenset(["=", "<", "<=", ">", ">=", "<>"])
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}


# ---------------------------------------------------------------------------
# Partitioning descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partitioning:
    """How an operator's output rows are placed across slices.

    kind:
      * ``hash`` — hash-partitioned on output columns ``key``
      * ``rr`` — partitioned arbitrarily (round robin / inherited)
      * ``all`` — every slice holds a full copy
      * ``single`` — resident on the leader (slice 0 by convention)
    """

    kind: str
    key: tuple[int, ...] = ()


RR = Partitioning("rr")
ALL = Partitioning("all")
SINGLE = Partitioning("single")


class JoinDistribution(enum.Enum):
    """Redshift EXPLAIN join-distribution labels."""

    DS_DIST_NONE = "DS_DIST_NONE"          # co-located
    DS_BCAST_INNER = "DS_BCAST_INNER"      # broadcast build side
    DS_DIST_INNER = "DS_DIST_INNER"        # redistribute build side only
    DS_DIST_OUTER = "DS_DIST_OUTER"        # redistribute probe side only
    DS_DIST_BOTH = "DS_DIST_BOTH"          # redistribute both sides


# ---------------------------------------------------------------------------
# Physical nodes
# ---------------------------------------------------------------------------

class PhysicalNode:
    output: list[BoundColumn]
    partitioning: Partitioning
    est_rows: float

    #: Whether the vectorized executor has a column-batch implementation
    #: for this operator shape. Non-capable operators (sorts, limits,
    #: set ops, nested loops) consume materialized rows — the vectorized
    #: engine converts batches to rows at these boundaries.
    batch_capable: bool = False

    #: Whether this node's subtree is a per-slice Scan / Filter / Project
    #: chain. Set by :func:`mark_parallel_eligible`; the parallel executor
    #: consumes it only on an Aggregate's child, which it ships to
    #: per-slice workers as one fused partial-aggregate morsel pipeline.
    parallel_eligible: bool = False

    @property
    def children(self) -> list["PhysicalNode"]:
        return []

    @property
    def row_width(self) -> int:
        return max(1, sum(c.sql_type.byte_width for c in self.output))

    @property
    def est_bytes(self) -> float:
        return self.est_rows * self.row_width

    def label(self) -> str:
        raise NotImplementedError


@dataclass
class PhysicalScan(PhysicalNode):
    """Columnar scan with pushed-down filters and zone-map predicates.

    ``zone_predicates`` are (scan-output index, operator, literal) triples
    consulted against block zone maps; ``filters`` are the full residual
    conjuncts re-checked per row. ``live_columns`` (set by
    :func:`compute_live_columns`) are the output positions anything above
    actually reads — the executor fetches only those chains, which is the
    IO saving column stores exist for.
    """

    table: TableInfo
    binding: str
    column_indexes: list[int]
    filters: list[ast.Expression] = field(default_factory=list)
    zone_predicates: list[tuple[int, str, object]] = field(default_factory=list)
    output: list[BoundColumn] = field(default_factory=list)
    partitioning: Partitioning = RR
    est_rows: float = _DEFAULT_ROWS
    live_columns: frozenset[int] | None = None

    batch_capable = True

    def label(self) -> str:
        out = f"Seq Scan on {self.table.name}"
        if self.binding != self.table.name:
            out += f" {self.binding}"
        return out


@dataclass
class PhysicalFilter(PhysicalNode):
    child: PhysicalNode
    condition: ast.Expression
    output: list[BoundColumn] = field(default_factory=list)
    partitioning: Partitioning = RR
    est_rows: float = _DEFAULT_ROWS

    batch_capable = True

    @property
    def children(self):
        return [self.child]

    def label(self) -> str:
        return "Filter"


@dataclass
class PhysicalProject(PhysicalNode):
    child: PhysicalNode
    expressions: list[ast.Expression] = field(default_factory=list)
    output: list[BoundColumn] = field(default_factory=list)
    partitioning: Partitioning = RR
    est_rows: float = _DEFAULT_ROWS

    batch_capable = True

    @property
    def children(self):
        return [self.child]

    def label(self) -> str:
        return "Project"


@dataclass
class PhysicalHashJoin(PhysicalNode):
    """Hash join; ``build_right`` says which child is the build (inner) side."""

    kind: ast.JoinKind
    left: PhysicalNode
    right: PhysicalNode
    keys: list[tuple[int, int]] = field(default_factory=list)
    residual: ast.Expression | None = None
    strategy: JoinDistribution = JoinDistribution.DS_DIST_NONE
    build_right: bool = True
    output: list[BoundColumn] = field(default_factory=list)
    partitioning: Partitioning = RR
    est_rows: float = _DEFAULT_ROWS

    batch_capable = True

    @property
    def children(self):
        return [self.left, self.right]

    def label(self) -> str:
        conds = ", ".join(
            f"{self.left.output[l].name} = {self.right.output[r].name}"
            for l, r in self.keys
        )
        return (
            f"Hash {self.kind.value} Join {self.strategy.value} "
            f"Hash Cond: ({conds})"
        )


@dataclass
class PhysicalMergeJoin(PhysicalNode):
    """Sort-merge join: both inputs are sorted on the join key per slice
    and merged. The default operator-selection chain picks it only for
    co-located (``DS_DIST_NONE``) inner joins whose inputs are scans of
    tables already sorted on the joined column, where the per-slice sort
    is (nearly) free."""

    kind: ast.JoinKind
    left: PhysicalNode
    right: PhysicalNode
    keys: list[tuple[int, int]] = field(default_factory=list)
    residual: ast.Expression | None = None
    strategy: JoinDistribution = JoinDistribution.DS_DIST_NONE
    output: list[BoundColumn] = field(default_factory=list)
    partitioning: Partitioning = RR
    est_rows: float = _DEFAULT_ROWS

    @property
    def children(self):
        return [self.left, self.right]

    def label(self) -> str:
        conds = ", ".join(
            f"{self.left.output[l].name} = {self.right.output[r].name}"
            for l, r in self.keys
        )
        return (
            f"Merge {self.kind.value} Join {self.strategy.value} "
            f"Merge Cond: ({conds})"
        )


@dataclass
class PhysicalNestedLoopJoin(PhysicalNode):
    """Fallback for joins with no equi-keys (cross / theta joins)."""

    kind: ast.JoinKind
    left: PhysicalNode
    right: PhysicalNode
    residual: ast.Expression | None = None
    output: list[BoundColumn] = field(default_factory=list)
    partitioning: Partitioning = RR
    est_rows: float = _DEFAULT_ROWS

    @property
    def children(self):
        return [self.left, self.right]

    def label(self) -> str:
        return f"Nested Loop {self.kind.value} Join DS_BCAST_INNER"


@dataclass
class PhysicalAggregate(PhysicalNode):
    """Hash aggregation.

    ``local_only`` means the grouping covers the child's hash-partition key,
    so every group is confined to one slice and no leader merge is needed —
    the co-located aggregation the distribution-key design enables.
    """

    child: PhysicalNode
    group_exprs: list[ast.Expression] = field(default_factory=list)
    aggregates: list[AggCall] = field(default_factory=list)
    local_only: bool = False
    output: list[BoundColumn] = field(default_factory=list)
    partitioning: Partitioning = RR
    est_rows: float = _DEFAULT_ROWS

    batch_capable = True

    @property
    def children(self):
        return [self.child]

    def label(self) -> str:
        mode = "Local HashAggregate" if self.local_only else "HashAggregate"
        return mode


@dataclass
class PhysicalSetOp(PhysicalNode):
    """UNION (ALL) stays distributed; INTERSECT/EXCEPT and UNION DISTINCT
    finalize at the leader."""

    op: str
    all: bool
    left: PhysicalNode
    right: PhysicalNode
    output: list[BoundColumn] = field(default_factory=list)
    partitioning: Partitioning = RR
    est_rows: float = _DEFAULT_ROWS

    @property
    def children(self):
        return [self.left, self.right]

    def label(self) -> str:
        keyword = self.op.upper() + (" ALL" if self.all else "")
        return f"SetOp {keyword}"


@dataclass
class PhysicalDistinct(PhysicalNode):
    child: PhysicalNode
    output: list[BoundColumn] = field(default_factory=list)
    partitioning: Partitioning = SINGLE
    est_rows: float = _DEFAULT_ROWS

    @property
    def children(self):
        return [self.child]

    def label(self) -> str:
        return "Unique"


@dataclass
class PhysicalSort(PhysicalNode):
    child: PhysicalNode
    keys: list[tuple[ast.Expression, bool]] = field(default_factory=list)
    output: list[BoundColumn] = field(default_factory=list)
    partitioning: Partitioning = SINGLE
    est_rows: float = _DEFAULT_ROWS

    @property
    def children(self):
        return [self.child]

    def label(self) -> str:
        rendered = ", ".join(
            f"{e.to_sql()}{' DESC' if desc else ''}" for e, desc in self.keys
        )
        return f"Merge Sort Key: {rendered}"


@dataclass
class PhysicalLimit(PhysicalNode):
    child: PhysicalNode
    limit: int | None = None
    offset: int | None = None
    output: list[BoundColumn] = field(default_factory=list)
    partitioning: Partitioning = SINGLE
    est_rows: float = _DEFAULT_ROWS

    @property
    def children(self):
        return [self.child]

    def label(self) -> str:
        parts = []
        if self.limit is not None:
            parts.append(f"Limit {self.limit}")
        if self.offset is not None:
            parts.append(f"Offset {self.offset}")
        return " ".join(parts) or "Limit"


@dataclass
class PhysicalSingleRow(PhysicalNode):
    """One empty row (FROM-less SELECT)."""

    output: list[BoundColumn] = field(default_factory=list)
    partitioning: Partitioning = SINGLE
    est_rows: float = 1.0

    def label(self) -> str:
        return "Result"


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------

class PhysicalPlanner:
    """Converts a bound logical plan into a distributed physical plan.

    With ``enable_cbo`` (the default) inner-join regions go through the
    System-R dynamic-programming enumerator in :mod:`repro.plan.optimizer`
    and every join's algorithm / build side / distribution strategy comes
    from the pluggable chain-of-strategies ``operator_selection``. With it
    off, joins stay in written order (the chain still picks strategies, so
    both paths produce identical single-join plans).
    """

    #: Join regions wider than this skip DP enumeration (3^n subset work)
    #: and keep their written order.
    MAX_DP_LEAVES = 10

    def __init__(
        self,
        catalog: Catalog,
        slice_count: int,
        enable_cbo: bool = True,
        operator_selection=None,
    ):
        if slice_count < 1:
            raise ValueError(f"slice_count must be positive, got {slice_count}")
        self._catalog = catalog
        self.slice_count = slice_count
        self.enable_cbo = enable_cbo
        if operator_selection is None:
            from repro.plan.optimizer import default_operator_selection

            operator_selection = default_operator_selection()
        self._operator_selection = operator_selection
        #: id(physical node) -> per-output-position ColumnStatistics (or
        #: None where unknown); the provenance the cardinality model reads.
        self._col_stats: dict[int, list[ColumnStatistics | None]] = {}

    def plan(self, logical: LogicalNode) -> PhysicalNode:
        self._col_stats = {}
        pushed = _push_filters(logical)
        physical = self._convert(pushed)
        compute_live_columns(physical)
        mark_parallel_eligible(physical)
        return physical

    # ---- column-statistics provenance -------------------------------------

    def _record_stats(
        self, node: PhysicalNode, stats: list[ColumnStatistics | None] | None
    ) -> None:
        if stats is not None:
            self._col_stats[id(node)] = stats

    def _stats_for(
        self, node: PhysicalNode
    ) -> list[ColumnStatistics | None] | None:
        return self._col_stats.get(id(node))

    # ---- conversion -------------------------------------------------------

    def _convert(self, node: LogicalNode) -> PhysicalNode:
        if isinstance(node, LogicalScan):
            return self._convert_scan(node, [])
        if isinstance(node, LogicalFilter):
            return self._convert_filter(node)
        if isinstance(node, LogicalProject):
            return self._convert_project(node)
        if isinstance(node, LogicalJoin):
            planned = self._maybe_optimize_join(node, [])
            if planned is not None:
                return planned
            return self._convert_join(node)
        if isinstance(node, LogicalAggregate):
            return self._convert_aggregate(node)
        if isinstance(node, LogicalDistinct):
            child = self._convert(node.child)
            return PhysicalDistinct(
                child,
                output=list(node.output),
                partitioning=SINGLE,
                est_rows=max(1.0, child.est_rows * 0.5),
            )
        if isinstance(node, LogicalSort):
            child = self._convert(node.child)
            return PhysicalSort(
                child,
                keys=node.keys,
                output=list(node.output),
                partitioning=SINGLE,
                est_rows=child.est_rows,
            )
        if isinstance(node, LogicalLimit):
            child = self._convert(node.child)
            est = child.est_rows
            if node.limit is not None:
                est = min(est, node.limit)
            return PhysicalLimit(
                child,
                limit=node.limit,
                offset=node.offset,
                output=list(node.output),
                partitioning=SINGLE,
                est_rows=est,
            )
        if isinstance(node, LogicalSetOp):
            left = self._convert(node.left)
            right = self._convert(node.right)
            if node.op == "union":
                est = left.est_rows + right.est_rows
                if not node.all:
                    est *= 0.7
            elif node.op == "intersect":
                est = min(left.est_rows, right.est_rows) * 0.5
            else:  # except
                est = left.est_rows * 0.5
            partitioning = RR if (node.op == "union" and node.all) else SINGLE
            return PhysicalSetOp(
                op=node.op,
                all=node.all,
                left=left,
                right=right,
                output=list(node.output),
                partitioning=partitioning,
                est_rows=max(1.0, est),
            )
        if isinstance(node, _SingleRowNode):
            return PhysicalSingleRow(output=[])
        raise AnalysisError(f"cannot plan {type(node).__name__}")

    def _convert_scan(
        self, node: LogicalScan, conjuncts: list[ast.Expression]
    ) -> PhysicalScan:
        table = node.table
        from repro.sql.expressions import literal_value

        zone_predicates: list[tuple[int, str, object]] = []
        for conjunct in conjuncts:
            if (
                isinstance(conjunct, ast.BetweenExpr)
                and not conjunct.negated
                and isinstance(conjunct.operand, ast.BoundRef)
                and isinstance(conjunct.low, ast.Literal)
                and isinstance(conjunct.high, ast.Literal)
            ):
                index = conjunct.operand.index
                zone_predicates.append((index, ">=", literal_value(conjunct.low)))
                zone_predicates.append((index, "<=", literal_value(conjunct.high)))
                continue
            zone = _as_zone_predicate(conjunct)
            if zone is not None:
                zone_predicates.append(zone)
        partitioning = self._scan_partitioning(node)
        base_rows = table.statistics.row_count or _DEFAULT_ROWS
        col_stats: list[ColumnStatistics | None] | None = None
        if not table.statistics.stale and table.statistics.row_count > 0:
            col_stats = [
                table.statistics.columns.get(table.columns[i].name)
                for i in node.column_indexes
            ]
        selectivity = 1.0
        for conjunct in conjuncts:
            selectivity *= _conjunct_selectivity(conjunct, col_stats)
        scan = PhysicalScan(
            table=table,
            binding=node.binding,
            column_indexes=list(node.column_indexes),
            filters=list(conjuncts),
            zone_predicates=zone_predicates,
            output=list(node.output),
            partitioning=partitioning,
            est_rows=max(1.0, base_rows * selectivity),
        )
        self._record_stats(scan, col_stats)
        return scan

    def _scan_partitioning(self, node: LogicalScan) -> Partitioning:
        dist = node.table.distribution
        if dist.style is DistStyle.ALL:
            return ALL
        if dist.style is DistStyle.KEY:
            key_column = dist.column  # type: ignore[attr-defined]
            table_index = node.table.column_index(key_column)
            if table_index in node.column_indexes:
                return Partitioning(
                    "hash", (node.column_indexes.index(table_index),)
                )
        return RR

    def _convert_filter(self, node: LogicalFilter) -> PhysicalNode:
        conjuncts = _split_conjuncts(node.condition)
        if isinstance(node.child, LogicalScan):
            return self._convert_scan(node.child, conjuncts)
        if isinstance(node.child, LogicalJoin):
            # Conjuncts that could not sink past the join (they reference
            # both sides) become join-region predicates under the CBO —
            # cross-side equalities turn into hash-join edges there.
            planned = self._maybe_optimize_join(node.child, conjuncts)
            if planned is not None:
                return planned
        child = self._convert(node.child)
        child_stats = self._stats_for(child)
        selectivity = 1.0
        for conjunct in conjuncts:
            selectivity *= _conjunct_selectivity(conjunct, child_stats)
        filt = PhysicalFilter(
            child,
            node.condition,
            output=list(node.output),
            partitioning=child.partitioning,
            est_rows=max(1.0, child.est_rows * selectivity),
        )
        self._record_stats(filt, child_stats)
        return filt

    def _convert_project(self, node: LogicalProject) -> PhysicalProject:
        child = self._convert(node.child)
        partitioning = _project_partitioning(child.partitioning, node.expressions)
        child_stats = self._stats_for(child)
        proj = PhysicalProject(
            child,
            expressions=list(node.expressions),
            output=list(node.output),
            partitioning=partitioning,
            est_rows=child.est_rows,
        )
        if child_stats is not None:
            self._record_stats(
                proj,
                [
                    child_stats[e.index]
                    if isinstance(e, ast.BoundRef) and e.index < len(child_stats)
                    else None
                    for e in node.expressions
                ],
            )
        return proj

    # ---- joins ------------------------------------------------------------------

    def _maybe_optimize_join(
        self, node: LogicalJoin, extra_conjuncts: list[ast.Expression]
    ) -> PhysicalNode | None:
        """Route an inner-join region through the DP enumerator.

        Returns None when the CBO is off, the join kind pins the written
        order (outer joins), or the region exceeds :attr:`MAX_DP_LEAVES`
        — the caller then falls back to written-order conversion.
        """
        if not self.enable_cbo:
            return None
        if node.kind not in (ast.JoinKind.INNER, ast.JoinKind.CROSS):
            return None
        from repro.plan.optimizer import optimize_join_region

        return optimize_join_region(self, node, extra_conjuncts)

    def _convert_join(self, node: LogicalJoin) -> PhysicalNode:
        left = self._convert(node.left)
        right = self._convert(node.right)
        if not node.equi_keys and node.kind is ast.JoinKind.FULL:
            raise AnalysisError("FULL JOIN requires an equality condition")
        return self._make_join(
            node.kind,
            left,
            right,
            list(node.equi_keys),
            node.residual,
            list(node.output),
        )

    def _make_join(
        self,
        kind: ast.JoinKind,
        left: PhysicalNode,
        right: PhysicalNode,
        equi_keys: list[tuple[int, int]],
        residual: ast.Expression | None,
        output: list[BoundColumn],
    ) -> PhysicalNode:
        """Construct a physical join: the operator-selection chain picks
        the algorithm, build side, and distribution strategy."""
        joined_stats = self._joined_stats(left, right)
        if not equi_keys:
            node = self._nested_loop(
                kind, left, right, residual, output, joined_stats
            )
            self._record_stats(node, joined_stats)
            return node
        from repro.plan.optimizer import JoinSite

        site = JoinSite.from_nodes(
            self, kind, equi_keys, left, right, self.slice_count
        )
        decision = self._operator_selection.select_join_operators(site)
        est = self._estimate_join_rows(kind, equi_keys, residual, left, right)
        partitioning = self._join_partitioning(
            equi_keys, left, right, decision.strategy, decision.build_right
        )
        if decision.algorithm == "merge":
            node: PhysicalNode = PhysicalMergeJoin(
                kind=kind,
                left=left,
                right=right,
                keys=list(equi_keys),
                residual=residual,
                strategy=decision.strategy,
                output=output,
                partitioning=partitioning,
                est_rows=est,
            )
        else:
            node = PhysicalHashJoin(
                kind=kind,
                left=left,
                right=right,
                keys=list(equi_keys),
                residual=residual,
                strategy=decision.strategy,
                build_right=decision.build_right,
                output=output,
                partitioning=partitioning,
                est_rows=est,
            )
        self._record_stats(node, joined_stats)
        return node

    def _joined_stats(
        self, left: PhysicalNode, right: PhysicalNode
    ) -> list[ColumnStatistics | None] | None:
        lstats = self._stats_for(left)
        rstats = self._stats_for(right)
        if lstats is None and rstats is None:
            return None
        if lstats is None:
            lstats = [None] * len(left.output)
        if rstats is None:
            rstats = [None] * len(right.output)
        return list(lstats) + list(rstats)

    def _nested_loop(
        self,
        kind: ast.JoinKind,
        left: PhysicalNode,
        right: PhysicalNode,
        residual: ast.Expression | None,
        output: list[BoundColumn],
        joined_stats: list[ColumnStatistics | None] | None = None,
    ) -> PhysicalNestedLoopJoin:
        if kind is ast.JoinKind.FULL:
            raise AnalysisError("FULL JOIN requires an equality condition")
        est = left.est_rows * right.est_rows
        if residual is not None:
            for conjunct in _split_conjuncts(residual):
                est *= _conjunct_selectivity(conjunct, joined_stats)
        return PhysicalNestedLoopJoin(
            kind=kind,
            left=left,
            right=right,
            residual=residual,
            output=output,
            partitioning=left.partitioning
            if left.partitioning.kind != "all"
            else RR,
            est_rows=max(1.0, est),
        )

    @staticmethod
    def _colocated(partitioning: Partitioning, keys: tuple[int, ...]) -> bool:
        """Input already hash-partitioned on (a subset of) the join keys."""
        return (
            partitioning.kind == "hash"
            and len(partitioning.key) == 1
            and partitioning.key[0] in keys
        )

    @staticmethod
    def _keys_aligned(
        equi_keys: list[tuple[int, int]],
        left_part: Partitioning,
        right_part: Partitioning,
    ) -> bool:
        """Both sides must be partitioned on the *same* equi-key pair."""
        if left_part.kind != "hash" or right_part.kind != "hash":
            return False
        for l, r in equi_keys:
            if left_part.key == (l,) and right_part.key == (r,):
                return True
        return False

    def _join_partitioning(
        self,
        equi_keys: list[tuple[int, int]],
        left: PhysicalNode,
        right: PhysicalNode,
        strategy: JoinDistribution,
        build_right: bool,
    ) -> Partitioning:
        offset = len(left.output)
        if strategy is JoinDistribution.DS_DIST_NONE:
            if left.partitioning.kind == "all" and right.partitioning.kind == "all":
                return RR
            if left.partitioning.kind == "all":
                return _shift_partitioning(right.partitioning, offset)
            return left.partitioning
        if strategy is JoinDistribution.DS_BCAST_INNER:
            probe = left if build_right else right
            part = probe.partitioning
            return part if build_right else _shift_partitioning(part, offset)
        # Redistributed joins are hash-partitioned on the first equi pair.
        l, _r = equi_keys[0]
        return Partitioning("hash", (l,))

    def _estimate_join_rows(
        self,
        kind: ast.JoinKind,
        equi_keys: list[tuple[int, int]],
        residual: ast.Expression | None,
        left: PhysicalNode,
        right: PhysicalNode,
    ) -> float:
        """Join cardinality: ``|L|·|R| / max(ndv_L, ndv_R)`` per equi pair
        when both sides carry fresh NDV statistics; the pre-stats upper
        bound ``max(|L|, |R|)`` otherwise (stale/missing stats)."""
        lstats = self._stats_for(left)
        rstats = self._stats_for(right)
        est: float | None = None
        if equi_keys:
            selectivity = 1.0
            have_all = True
            for l, r in equi_keys:
                ndv = _pair_ndv(
                    lstats[l] if lstats and l < len(lstats) else None,
                    rstats[r] if rstats and r < len(rstats) else None,
                )
                if ndv is None:
                    have_all = False
                    break
                selectivity /= ndv
            if have_all:
                est = left.est_rows * right.est_rows * selectivity
        if est is None:
            est = max(left.est_rows, right.est_rows)
        if residual is not None:
            joined = self._joined_stats(left, right)
            for conjunct in _split_conjuncts(residual):
                est *= _conjunct_selectivity(conjunct, joined)
        if kind in (ast.JoinKind.LEFT, ast.JoinKind.FULL):
            est = max(est, left.est_rows)
        if kind in (ast.JoinKind.RIGHT, ast.JoinKind.FULL):
            est = max(est, right.est_rows)
        return max(1.0, est)

    def _sorted_prefix(self, node: PhysicalNode) -> tuple[int, ...]:
        """Output positions a scan's rows arrive sorted on (per slice):
        the compound sort key of an un-filtered scan, mapped through the
        scan's column order. Empty for everything else."""
        from repro.sortkeys import CompoundSortKey

        if not isinstance(node, PhysicalScan):
            return ()
        sort_key = node.table.sort_key
        if not isinstance(sort_key, CompoundSortKey):
            return ()
        out: list[int] = []
        for name in sort_key.columns:
            table_index = node.table.column_index(name)
            if table_index not in node.column_indexes:
                break
            out.append(node.column_indexes.index(table_index))
        return tuple(out)

    # ---- aggregation ------------------------------------------------------------

    def _convert_aggregate(self, node: LogicalAggregate) -> PhysicalAggregate:
        child = self._convert(node.child)
        local_only = False
        group_ref_indexes = {
            expr.index
            for expr in node.group_exprs
            if isinstance(expr, ast.BoundRef)
        }
        if (
            node.group_exprs
            and child.partitioning.kind == "hash"
            and set(child.partitioning.key) <= group_ref_indexes
        ):
            local_only = True
        if node.group_exprs:
            # Distinct-group estimate: the product of the group columns'
            # NDVs capped at the child's rows when statistics are fresh;
            # the historical 0.1 selectivity when stale or non-column.
            child_stats = self._stats_for(child)
            ndv_product: float | None = 1.0
            for expr in node.group_exprs:
                col = (
                    child_stats[expr.index]
                    if child_stats is not None
                    and isinstance(expr, ast.BoundRef)
                    and expr.index < len(child_stats)
                    else None
                )
                if col is None or col.distinct_count <= 0:
                    ndv_product = None
                    break
                ndv_product *= col.distinct_count
            if ndv_product is not None:
                est = max(1.0, min(child.est_rows, ndv_product))
            else:
                est = max(1.0, child.est_rows * 0.1)
        else:
            est = 1.0
        agg_stats: list[ColumnStatistics | None] | None = None
        child_stats_all = self._stats_for(child)
        if child_stats_all is not None:
            agg_stats = [
                child_stats_all[e.index]
                if isinstance(e, ast.BoundRef) and e.index < len(child_stats_all)
                else None
                for e in node.group_exprs
            ] + [None] * len(node.aggregates)
        partitioning: Partitioning
        if local_only:
            # Group keys contain the partition key; output stays distributed,
            # hashed on that key's position in the group-key output.
            key_child_index = child.partitioning.key[0]
            out_index = next(
                i
                for i, expr in enumerate(node.group_exprs)
                if isinstance(expr, ast.BoundRef) and expr.index == key_child_index
            )
            partitioning = Partitioning("hash", (out_index,))
        else:
            partitioning = SINGLE
        agg = PhysicalAggregate(
            child=child,
            group_exprs=list(node.group_exprs),
            aggregates=list(node.aggregates),
            local_only=local_only,
            output=list(node.output),
            partitioning=partitioning,
            est_rows=est,
        )
        self._record_stats(agg, agg_stats)
        return agg


# ---------------------------------------------------------------------------
# Filter pushdown (logical level)
# ---------------------------------------------------------------------------

def _push_filters(node: LogicalNode) -> LogicalNode:
    """Push WHERE conjuncts through joins toward the scans they reference."""
    if isinstance(node, LogicalFilter):
        child = _push_filters(node.child)
        conjuncts = _split_conjuncts(node.condition)
        remaining = _sink_conjuncts(child, conjuncts)
        if remaining is child:
            return child  # everything was absorbed
        return remaining
    for attr in ("child", "left", "right"):
        if hasattr(node, attr):
            setattr(node, attr, _push_filters(getattr(node, attr)))
    return node


def _sink_conjuncts(
    node: LogicalNode, conjuncts: list[ast.Expression]
) -> LogicalNode:
    """Absorb *conjuncts* into the subtree rooted at *node*; returns the
    (possibly new) subtree with a Filter for whatever could not sink."""
    if not conjuncts:
        return node
    if isinstance(node, LogicalJoin):
        width_left = len(node.left.output)
        push_left: list[ast.Expression] = []
        push_right: list[ast.Expression] = []
        keep: list[ast.Expression] = []
        left_ok = node.kind in (ast.JoinKind.INNER, ast.JoinKind.CROSS, ast.JoinKind.LEFT)
        right_ok = node.kind in (ast.JoinKind.INNER, ast.JoinKind.CROSS, ast.JoinKind.RIGHT)
        for conjunct in conjuncts:
            refs = {
                e.index
                for e in ast.walk_expressions(conjunct)
                if isinstance(e, ast.BoundRef)
            }
            if refs and max(refs) < width_left and left_ok:
                push_left.append(conjunct)
            elif refs and min(refs) >= width_left and right_ok:
                push_right.append(_remap(conjunct, -width_left))
            else:
                keep.append(conjunct)
        node.left = _sink_conjuncts(node.left, push_left)
        node.right = _sink_conjuncts(node.right, push_right)
        return _wrap_filter(node, keep)
    if isinstance(node, LogicalFilter):
        merged = _split_conjuncts(node.condition) + conjuncts
        return _sink_conjuncts(node.child, merged)
    if isinstance(node, LogicalScan):
        return _wrap_filter(node, conjuncts)
    # Projections/aggregates: stop sinking (binder already placed HAVING
    # correctly; WHERE never sits above them for a single query block).
    return _wrap_filter(node, conjuncts)


def _wrap_filter(
    node: LogicalNode, conjuncts: list[ast.Expression]
) -> LogicalNode:
    if not conjuncts:
        return node
    condition = conjuncts[0]
    for extra in conjuncts[1:]:
        condition = ast.BinaryOp("AND", condition, extra)
    return LogicalFilter(node, condition, output=list(node.output))


def _remap(expr: ast.Expression, delta: int) -> ast.Expression:
    """Shift every BoundRef index by *delta* (for pushing through joins)."""
    if isinstance(expr, ast.BoundRef):
        return ast.BoundRef(expr.index + delta, expr.sql_type, expr.name)
    from repro.plan.binder import _rebuild

    return _rebuild(expr, lambda e: _remap(e, delta))


def _split_conjuncts(condition: ast.Expression) -> list[ast.Expression]:
    if isinstance(condition, ast.BinaryOp) and condition.op == "AND":
        return _split_conjuncts(condition.left) + _split_conjuncts(condition.right)
    return [condition]


def _shift_partitioning(part: Partitioning, offset: int) -> Partitioning:
    if part.kind != "hash":
        return part
    return Partitioning("hash", tuple(k + offset for k in part.key))


def _project_partitioning(
    child: Partitioning, expressions: list[ast.Expression]
) -> Partitioning:
    """Track hash partitioning through a projection when the key columns
    survive as bare references; otherwise degrade to round robin."""
    if child.kind != "hash":
        return child
    mapping: dict[int, int] = {}
    for out_idx, expr in enumerate(expressions):
        if isinstance(expr, ast.BoundRef) and expr.index not in mapping:
            mapping[expr.index] = out_idx
    new_key = []
    for k in child.key:
        if k not in mapping:
            return RR
        new_key.append(mapping[k])
    return Partitioning("hash", tuple(new_key))


# ---------------------------------------------------------------------------
# Zone predicates & selectivity
# ---------------------------------------------------------------------------

def _as_zone_predicate(
    conjunct: ast.Expression,
) -> tuple[int, str, object] | None:
    """Match ``col <op> literal`` conjuncts usable for block skipping."""
    from repro.sql.expressions import literal_value

    if isinstance(conjunct, ast.BetweenExpr) and not conjunct.negated:
        return None  # handled by the caller splitting BETWEEN; keep simple
    if not isinstance(conjunct, ast.BinaryOp) or conjunct.op not in _ZONE_OPS:
        return None
    left, right = conjunct.left, conjunct.right
    if isinstance(left, ast.BoundRef) and isinstance(right, ast.Literal):
        return (left.index, conjunct.op, literal_value(right))
    if isinstance(right, ast.BoundRef) and isinstance(left, ast.Literal):
        return (right.index, _FLIP[conjunct.op], literal_value(left))
    return None


def _pair_ndv(
    left: ColumnStatistics | None, right: ColumnStatistics | None
) -> int | None:
    """``max(ndv_L, ndv_R)`` for one equi pair, None when neither side
    carries a usable distinct count."""
    ndv = 0
    if left is not None and left.distinct_count > 0:
        ndv = left.distinct_count
    if right is not None and right.distinct_count > 0:
        ndv = max(ndv, right.distinct_count)
    return ndv or None


def _conjunct_selectivity(
    conjunct: ast.Expression,
    stats: list[ColumnStatistics | None] | None,
) -> float:
    """Per-conjunct selectivity, statistics-based where possible.

    *stats* maps the conjunct's BoundRef indices to fresh column
    statistics (None entries / None list mean unknown). Falls back to the
    pre-stats heuristics per conjunct shape.
    """
    if stats is not None:
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op in ("AND", "OR"):
            left = _conjunct_selectivity(conjunct.left, stats)
            right = _conjunct_selectivity(conjunct.right, stats)
            if conjunct.op == "AND":
                return left * right
            return min(1.0, left + right)
        zone = _as_zone_predicate(conjunct)
        if zone is not None:
            index, op, value = zone
            col = stats[index] if index < len(stats) else None
            estimated = _stats_selectivity(col, op, value)
            if estimated is not None:
                return estimated
        if (
            isinstance(conjunct, ast.BetweenExpr)
            and not conjunct.negated
            and isinstance(conjunct.operand, ast.BoundRef)
            and isinstance(conjunct.low, ast.Literal)
            and isinstance(conjunct.high, ast.Literal)
        ):
            from repro.sql.expressions import literal_value

            index = conjunct.operand.index
            col = stats[index] if index < len(stats) else None
            low = _stats_selectivity(col, ">=", literal_value(conjunct.low))
            high = _stats_selectivity(col, "<=", literal_value(conjunct.high))
            if low is not None and high is not None:
                return max(0.0, low + high - 1.0)
        if isinstance(conjunct, ast.IsNullExpr) and isinstance(
            conjunct.operand, ast.BoundRef
        ):
            col = (
                stats[conjunct.operand.index]
                if conjunct.operand.index < len(stats)
                else None
            )
            if col is not None:
                fraction = min(1.0, max(0.0, col.null_fraction))
                return (1.0 - fraction) if conjunct.negated else fraction
        if (
            isinstance(conjunct, ast.InExpr)
            and not conjunct.negated
            and isinstance(conjunct.operand, ast.BoundRef)
        ):
            col = (
                stats[conjunct.operand.index]
                if conjunct.operand.index < len(stats)
                else None
            )
            if col is not None and col.distinct_count > 0:
                return min(
                    1.0, max(1, len(conjunct.items)) / col.distinct_count
                )
    return _selectivity(conjunct)


def _stats_selectivity(
    col: ColumnStatistics | None, op: str, value: object
) -> float | None:
    """Selectivity of ``col <op> value`` from one column's statistics:
    equality via 1/NDV, ranges via min/max interpolation. None when the
    statistics cannot price this comparison."""
    if col is None:
        return None
    not_null = 1.0 - min(1.0, max(0.0, col.null_fraction))
    if op == "=":
        if col.distinct_count <= 0:
            return None
        if _outside_range(col, value):
            return 0.0
        return not_null / col.distinct_count
    if op == "<>":
        if col.distinct_count <= 0:
            return None
        if _outside_range(col, value):
            return not_null
        return not_null * (1.0 - 1.0 / col.distinct_count)
    if op in _RANGE_OPS:
        fraction = _range_fraction(col, value)
        if fraction is None:
            return None
        if op in ("<", "<="):
            return not_null * fraction
        return not_null * (1.0 - fraction)
    return None


def _outside_range(col: ColumnStatistics, value: object) -> bool:
    try:
        if col.low is not None and value < col.low:  # type: ignore[operator]
            return True
        if col.high is not None and value > col.high:  # type: ignore[operator]
            return True
    except TypeError:
        return False
    return False


def _range_fraction(col: ColumnStatistics, value: object) -> float | None:
    """Fraction of the [low, high] interval below *value* (numeric only)."""
    low, high = col.low, col.high
    if not all(isinstance(v, (int, float)) for v in (low, high, value)):
        return None
    if value <= low:  # type: ignore[operator]
        return 0.0
    if value >= high:  # type: ignore[operator]
        return 1.0
    span = float(high) - float(low)  # type: ignore[arg-type]
    if span <= 0:
        return 1.0
    return (float(value) - float(low)) / span  # type: ignore[arg-type]


def _selectivity(conjunct: ast.Expression) -> float:
    """Crude per-conjunct selectivity heuristic for sizing."""
    if isinstance(conjunct, ast.BinaryOp):
        if conjunct.op == "=":
            return 0.05
        if conjunct.op in _RANGE_OPS:
            return 0.33
        if conjunct.op == "<>":
            return 0.9
        if conjunct.op == "OR":
            return min(1.0, _selectivity(conjunct.left) + _selectivity(conjunct.right))
        if conjunct.op == "AND":
            return _selectivity(conjunct.left) * _selectivity(conjunct.right)
    if isinstance(conjunct, ast.BetweenExpr):
        return 0.25
    if isinstance(conjunct, ast.LikeExpr):
        return 0.25
    if isinstance(conjunct, ast.InExpr):
        return min(1.0, 0.05 * max(1, len(conjunct.items)))
    if isinstance(conjunct, ast.IsNullExpr):
        return 0.1
    return 0.5


# ---------------------------------------------------------------------------
# Live-column analysis (projection pushdown to the scan layer)
# ---------------------------------------------------------------------------

def _expr_refs(expr: ast.Expression | None) -> set[int]:
    if expr is None:
        return set()
    return {
        e.index for e in ast.walk_expressions(expr) if isinstance(e, ast.BoundRef)
    }


def compute_live_columns(root: PhysicalNode) -> None:
    """Annotate every scan with the output positions consumers read.

    Row tuples keep full scan width (positions for dead columns hold
    None), so no index remapping is needed anywhere above — but the
    executor only touches the live chains' blocks.
    """
    _live(root, set(range(len(root.output))))


def _live(node: PhysicalNode, needed: set[int]) -> None:
    if isinstance(node, PhysicalScan):
        refs = set(needed)
        for conjunct in node.filters:
            refs |= _expr_refs(conjunct)
        refs |= {i for i, _, _ in node.zone_predicates}
        node.live_columns = frozenset(
            i for i in refs if i < len(node.output)
        )
        return
    if isinstance(node, PhysicalFilter):
        _live(node.child, needed | _expr_refs(node.condition))
        return
    if isinstance(node, PhysicalProject):
        child_needed: set[int] = set()
        for i, expr in enumerate(node.expressions):
            if i in needed:
                child_needed |= _expr_refs(expr)
        _live(node.child, child_needed)
        return
    if isinstance(
        node, (PhysicalHashJoin, PhysicalMergeJoin, PhysicalNestedLoopJoin)
    ):
        width_left = len(node.left.output)
        left_needed = {i for i in needed if i < width_left}
        right_needed = {i - width_left for i in needed if i >= width_left}
        residual = _expr_refs(node.residual)
        left_needed |= {i for i in residual if i < width_left}
        right_needed |= {i - width_left for i in residual if i >= width_left}
        if isinstance(node, (PhysicalHashJoin, PhysicalMergeJoin)):
            left_needed |= {l for l, _ in node.keys}
            right_needed |= {r for _, r in node.keys}
        _live(node.left, left_needed)
        _live(node.right, right_needed)
        return
    if isinstance(node, PhysicalAggregate):
        child_needed: set[int] = set()
        for expr in node.group_exprs:
            child_needed |= _expr_refs(expr)
        for call in node.aggregates:
            child_needed |= _expr_refs(call.argument)
        _live(node.child, child_needed)
        return
    if isinstance(node, PhysicalSort):
        key_refs: set[int] = set()
        for expr, _ in node.keys:
            key_refs |= _expr_refs(expr)
        _live(node.child, needed | key_refs)
        return
    if isinstance(node, PhysicalDistinct):
        # Distinct compares whole rows.
        _live(node.child, set(range(len(node.child.output))))
        return
    if isinstance(node, PhysicalSetOp):
        # Set operations compare whole rows across both inputs.
        _live(node.left, set(range(len(node.left.output))))
        _live(node.right, set(range(len(node.right.output))))
        return
    if isinstance(node, PhysicalLimit):
        _live(node.child, set(needed))
        return
    for child in node.children:  # pragma: no cover - future node kinds
        _live(child, set(range(len(child.output))))


# ---------------------------------------------------------------------------
# Parallel-eligibility marking
# ---------------------------------------------------------------------------

def mark_parallel_eligible(root: PhysicalNode) -> None:
    """Annotate subtrees the parallel executor can ship to slice workers.

    Eligible means the subtree is a pure per-slice pipeline: a Scan
    optionally topped by Filter / Project nodes. Such a chain reads one
    shard's blocks and touches no other slice's data, so it can run as
    independent block-range morsels. Only an aggregate's child is pushed
    down: the executor checks ``node.child.parallel_eligible`` on an
    Aggregate and runs the chain plus partial aggregation in the workers.
    Every other eligible chain runs on the serial batch engine.
    """
    for child in root.children:
        mark_parallel_eligible(child)
    if isinstance(root, PhysicalScan):
        root.parallel_eligible = True
    elif isinstance(root, (PhysicalFilter, PhysicalProject)):
        root.parallel_eligible = root.child.parallel_eligible


# ---------------------------------------------------------------------------
# EXPLAIN rendering
# ---------------------------------------------------------------------------

def explain(node: PhysicalNode, indent: int = 0) -> str:
    """Render a physical plan in Redshift's EXPLAIN style."""
    pad = "  " * indent
    line = f"{pad}XN {node.label()} (rows={node.est_rows:.0f} width={node.row_width})"
    extras: list[str] = []
    if isinstance(node, PhysicalScan):
        if node.filters:
            rendered = " AND ".join(f.to_sql() for f in node.filters)
            extras.append(f"{pad}    Filter: {rendered}")
        if node.zone_predicates:
            rendered = ", ".join(
                f"{node.output[i].name} {op} {value!r}"
                for i, op, value in node.zone_predicates
            )
            extras.append(f"{pad}    Zone maps: {rendered}")
    lines = [line, *extras]
    for child in node.children:
        lines.append(explain(child, indent + 1))
    return "\n".join(lines)


def assign_steps(
    node: PhysicalNode, out: dict[int, int] | None = None
) -> dict[int, int]:
    """Preorder step numbers by ``id(node)``.

    The numbering matches the order :func:`explain` renders "XN" lines,
    which is what lets EXPLAIN ANALYZE annotate the plan text with the
    per-step counters the executors collect.
    """
    if out is None:
        out = {}
    out[id(node)] = len(out)
    for child in node.children:
        assign_steps(child, out)
    return out
