"""Cost-based join optimization: System-R DP enumeration and the
chain-of-strategies physical operator selection.

Two pieces live here, both consumed by
:class:`repro.plan.physical.PhysicalPlanner`:

* **Operator selection** — a pluggable chain of
  :class:`PhysicalOperatorSelection` stages (the PostBOUND pattern). Each
  stage may fill or overwrite part of the :class:`JoinDecision` (build
  side, hash vs. sort-merge, co-located vs. broadcast vs. redistribute)
  and hands it to the next stage via ``chain_with``. The default chain
  reproduces the planner's historical choices exactly, so written-order
  plans are bit-identical with the CBO off.

* **Join enumeration** — a bottom-up, bushy-capable System-R dynamic
  program over the maximal inner-join region of a query. Leaves are the
  non-reorderable subtrees (scans with their pushed filters, outer joins,
  aggregates); edges are equi-join predicates. Every subset of leaves
  keeps its single cheapest plan; costs combine scan bytes, hash build /
  probe bytes, interconnect movement priced per the selected distribution
  strategy, and intermediate-result bytes. Ties break toward the written
  order so cost-symmetric queries keep their familiar plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations

from repro.plan.bound import BoundColumn, LogicalFilter, LogicalJoin, LogicalNode
from repro.plan.physical import (
    RR,
    JoinDistribution,
    Partitioning,
    PhysicalFilter,
    PhysicalNode,
    PhysicalPlanner,
    PhysicalProject,
    _conjunct_selectivity,
    _pair_ndv,
    _project_partitioning,
    _split_conjuncts,
    _wrap_filter,
)
from repro.sql import ast


# ---------------------------------------------------------------------------
# Operator selection (chain of strategies)
# ---------------------------------------------------------------------------

@dataclass
class SideInfo:
    """What the selection stages know about one join input."""

    est_rows: float
    row_width: int
    partitioning: Partitioning
    sorted_on: tuple[int, ...] = ()

    @property
    def est_bytes(self) -> float:
        return self.est_rows * self.row_width


@dataclass
class JoinSite:
    """One join the chain must decide operators for. ``equi_keys`` are
    (left output position, right output position) pairs."""

    kind: ast.JoinKind
    equi_keys: list[tuple[int, int]]
    left: SideInfo
    right: SideInfo
    slices: int

    @classmethod
    def from_nodes(
        cls,
        planner: PhysicalPlanner,
        kind: ast.JoinKind,
        equi_keys: list[tuple[int, int]],
        left: PhysicalNode,
        right: PhysicalNode,
        slices: int,
    ) -> "JoinSite":
        return cls(
            kind=kind,
            equi_keys=list(equi_keys),
            left=SideInfo(
                est_rows=left.est_rows,
                row_width=left.row_width,
                partitioning=left.partitioning,
                sorted_on=planner._sorted_prefix(left),
            ),
            right=SideInfo(
                est_rows=right.est_rows,
                row_width=right.row_width,
                partitioning=right.partitioning,
                sorted_on=planner._sorted_prefix(right),
            ),
            slices=slices,
        )


@dataclass
class JoinDecision:
    """The chain's accumulated verdict for one join."""

    algorithm: str = "hash"  # "hash" | "merge"
    build_right: bool = True
    strategy: JoinDistribution = JoinDistribution.DS_DIST_BOTH


class PhysicalOperatorSelection:
    """One stage of the operator-selection chain.

    Stages run in ``chain_with`` order; each receives the decision so far
    and may overwrite any part of it — later stages win, which lets a
    custom stage be appended to veto or refine the defaults without
    reimplementing them.
    """

    def __init__(self) -> None:
        self.next_selection: PhysicalOperatorSelection | None = None

    def chain_with(
        self, other: "PhysicalOperatorSelection"
    ) -> "PhysicalOperatorSelection":
        """Append *other* to the end of this chain; returns the head."""
        tail = self
        while tail.next_selection is not None:
            tail = tail.next_selection
        tail.next_selection = other
        return self

    def select_join_operators(self, site: JoinSite) -> JoinDecision:
        decision = JoinDecision()
        stage: PhysicalOperatorSelection | None = self
        while stage is not None:
            decision = stage._apply_selection(decision, site)
            stage = stage.next_selection
        return decision

    def _apply_selection(
        self, decision: JoinDecision, site: JoinSite
    ) -> JoinDecision:
        raise NotImplementedError


class BuildSideSelection(PhysicalOperatorSelection):
    """Build on the smaller input; outer joins pin the build side to the
    null-extended side so matched-row tracking stays simple."""

    def _apply_selection(
        self, decision: JoinDecision, site: JoinSite
    ) -> JoinDecision:
        if site.kind is ast.JoinKind.LEFT or site.kind is ast.JoinKind.FULL:
            return replace(decision, build_right=True)
        if site.kind is ast.JoinKind.RIGHT:
            return replace(decision, build_right=False)
        return replace(
            decision,
            build_right=site.right.est_bytes <= site.left.est_bytes,
        )


class DistributionStrategySelection(PhysicalOperatorSelection):
    """Pick the data-movement strategy: co-located when the partitioning
    already aligns with the join keys, otherwise the cheaper of
    broadcasting the build side and redistributing the unplaced side(s)."""

    def _apply_selection(
        self, decision: JoinDecision, site: JoinSite
    ) -> JoinDecision:
        return replace(decision, strategy=self._strategy(decision, site))

    def _strategy(
        self, decision: JoinDecision, site: JoinSite
    ) -> JoinDistribution:
        left, right = site.left, site.right
        left_keys = tuple(l for l, _ in site.equi_keys)
        right_keys = tuple(r for _, r in site.equi_keys)
        build_right = decision.build_right

        if left.partitioning.kind == "all" or right.partitioning.kind == "all":
            # Replicated inputs join co-located, with two exceptions: a FULL
            # join must see each build row exactly once (shuffle both), and
            # an outer join whose *preserved* (probe) side is replicated
            # would emit its unmatched rows once per slice — collapse it to
            # one copy and broadcast the build side instead.
            if site.kind is ast.JoinKind.FULL:
                return JoinDistribution.DS_DIST_BOTH
            probe = left if build_right else right
            preserved = site.kind in (ast.JoinKind.LEFT, ast.JoinKind.RIGHT)
            if preserved and probe.partitioning.kind == "all":
                return JoinDistribution.DS_BCAST_INNER
            return JoinDistribution.DS_DIST_NONE
        if (
            PhysicalPlanner._colocated(left.partitioning, left_keys)
            and PhysicalPlanner._colocated(right.partitioning, right_keys)
            and PhysicalPlanner._keys_aligned(
                site.equi_keys, left.partitioning, right.partitioning
            )
        ):
            return JoinDistribution.DS_DIST_NONE

        build, probe = (right, left) if build_right else (left, right)
        build_keys = right_keys if build_right else left_keys
        probe_keys = left_keys if build_right else right_keys

        # FULL joins cannot broadcast (unmatched build rows would duplicate).
        can_broadcast = site.kind is not ast.JoinKind.FULL
        cost_broadcast = (
            build.est_bytes * (site.slices - 1)
            if can_broadcast
            else float("inf")
        )

        probe_on_key = PhysicalPlanner._colocated(probe.partitioning, probe_keys)
        build_on_key = PhysicalPlanner._colocated(build.partitioning, build_keys)
        if probe_on_key and not build_on_key:
            cost_redist = build.est_bytes
            redist = JoinDistribution.DS_DIST_INNER
        elif build_on_key and not probe_on_key:
            cost_redist = probe.est_bytes
            redist = JoinDistribution.DS_DIST_OUTER
        else:
            cost_redist = build.est_bytes + probe.est_bytes
            redist = JoinDistribution.DS_DIST_BOTH

        if cost_broadcast <= cost_redist:
            return JoinDistribution.DS_BCAST_INNER
        return redist


class MergeJoinSelection(PhysicalOperatorSelection):
    """Prefer a sort-merge join over a hash build when both inputs of a
    co-located inner join arrive sorted on the (single) join key — scans
    of tables whose compound sort key is the distribution/join column —
    so the per-slice sort the operator runs is (nearly) free."""

    def _apply_selection(
        self, decision: JoinDecision, site: JoinSite
    ) -> JoinDecision:
        if (
            site.kind is ast.JoinKind.INNER
            and decision.strategy is JoinDistribution.DS_DIST_NONE
            and len(site.equi_keys) == 1
            and site.left.sorted_on
            and site.right.sorted_on
            and site.left.sorted_on[0] == site.equi_keys[0][0]
            and site.right.sorted_on[0] == site.equi_keys[0][1]
        ):
            return replace(decision, algorithm="merge")
        return decision


def default_operator_selection() -> PhysicalOperatorSelection:
    """The planner's stock chain: build side → distribution → algorithm."""
    return (
        BuildSideSelection()
        .chain_with(DistributionStrategySelection())
        .chain_with(MergeJoinSelection())
    )


# ---------------------------------------------------------------------------
# Join-region extraction
# ---------------------------------------------------------------------------

@dataclass
class _Region:
    """The maximal reorderable inner-join region under one join root.

    Column indices are *global*: positions in the written-order
    concatenation of the leaves' outputs (== the root join's output).
    """

    leaves: list[LogicalNode]
    leaf_offsets: list[int]
    leaf_widths: list[int]
    columns: list[BoundColumn]
    leaf_of: list[int]                       # global col -> leaf id
    edges: list[tuple[int, int]]             # equi predicates (ga, gb)
    preds: list[ast.Expression]              # multi-leaf residual conjuncts
    pred_leaves: list[frozenset[int]]
    const_preds: list[ast.Expression]        # conjuncts with no column refs


def _collect_region(
    root: LogicalJoin, extra_conjuncts: list[ast.Expression]
) -> _Region:
    leaves: list[LogicalNode] = []
    leaf_offsets: list[int] = []
    edges: list[tuple[int, int]] = []
    raw_preds: list[ast.Expression] = []

    from repro.plan.physical import _remap

    def walk(node: LogicalNode, offset: int) -> None:
        if isinstance(node, LogicalJoin) and node.kind in (
            ast.JoinKind.INNER,
            ast.JoinKind.CROSS,
        ):
            width_left = len(node.left.output)
            walk(node.left, offset)
            walk(node.right, offset + width_left)
            for l, r in node.equi_keys:
                edges.append((offset + l, offset + width_left + r))
            if node.residual is not None:
                for conjunct in _split_conjuncts(node.residual):
                    raw_preds.append(_remap(conjunct, offset))
            return
        leaf_offsets.append(offset)
        leaves.append(node)

    walk(root, 0)
    raw_preds.extend(extra_conjuncts)

    leaf_widths = [len(leaf.output) for leaf in leaves]
    leaf_of: list[int] = []
    for leaf_id, width in enumerate(leaf_widths):
        leaf_of.extend([leaf_id] * width)

    region = _Region(
        leaves=leaves,
        leaf_offsets=leaf_offsets,
        leaf_widths=leaf_widths,
        columns=list(root.output),
        leaf_of=leaf_of,
        edges=edges,
        preds=[],
        pred_leaves=[],
        const_preds=[],
    )

    leaf_filters: dict[int, list[ast.Expression]] = {}
    for conjunct in raw_preds:
        refs = {
            e.index
            for e in ast.walk_expressions(conjunct)
            if isinstance(e, ast.BoundRef)
        }
        touched = frozenset(region.leaf_of[r] for r in refs)
        if not touched:
            region.const_preds.append(conjunct)
            continue
        if len(touched) == 1:
            leaf_id = next(iter(touched))
            leaf_filters.setdefault(leaf_id, []).append(
                _remap(conjunct, -region.leaf_offsets[leaf_id])
            )
            continue
        if (
            isinstance(conjunct, ast.BinaryOp)
            and conjunct.op == "="
            and isinstance(conjunct.left, ast.BoundRef)
            and isinstance(conjunct.right, ast.BoundRef)
        ):
            # A cross-leaf equality is a join edge: it can key a hash join
            # instead of filtering a cross product.
            edges.append((conjunct.left.index, conjunct.right.index))
            continue
        region.preds.append(conjunct)
        region.pred_leaves.append(touched)

    # Fold single-leaf conjuncts into their leaf subtree.
    for leaf_id, conjuncts in leaf_filters.items():
        leaf = region.leaves[leaf_id]
        if isinstance(leaf, LogicalFilter):
            conjuncts = _split_conjuncts(leaf.condition) + conjuncts
            leaf = leaf.child
        region.leaves[leaf_id] = _wrap_filter(leaf, conjuncts)
    return region


# ---------------------------------------------------------------------------
# System-R dynamic programming
# ---------------------------------------------------------------------------

@dataclass
class _Entry:
    """The cheapest plan found for one subset of region leaves."""

    subset: frozenset[int]
    order: tuple[int, ...]           # leaf ids, left-to-right
    shape: str                       # nested-paren signature (tie-break)
    est_rows: float
    width: int
    partitioning: Partitioning       # hash keys hold GLOBAL column ids
    cost: float
    col_offset: dict[int, int] = field(default_factory=dict)
    sorted_on: tuple[int, ...] = ()  # global column ids (leaves only)
    leaf: int | None = None
    left: "_Entry | None" = None
    right: "_Entry | None" = None
    edge_ids: tuple[int, ...] = ()
    pred_ids: tuple[int, ...] = ()
    decision: JoinDecision | None = None

    @property
    def est_bytes(self) -> float:
        return self.est_rows * self.width

    def local_of(self, region: _Region, g: int) -> int:
        leaf_id = region.leaf_of[g]
        return self.col_offset[leaf_id] + (g - region.leaf_offsets[leaf_id])

    def local_partitioning(self, region: _Region) -> Partitioning:
        if self.partitioning.kind != "hash":
            return self.partitioning
        return Partitioning(
            "hash",
            tuple(self.local_of(region, g) for g in self.partitioning.key),
        )

    def side_info(self, region: _Region) -> SideInfo:
        return SideInfo(
            est_rows=self.est_rows,
            row_width=self.width,
            partitioning=self.local_partitioning(region),
            sorted_on=tuple(
                self.local_of(region, g) for g in self.sorted_on
            ),
        )


def _globalize(part: Partitioning, offset: int) -> Partitioning:
    if part.kind != "hash":
        return part
    return Partitioning("hash", tuple(k + offset for k in part.key))


class SystemRJoinEnumerator:
    """Bottom-up DP over leaf subsets (bushy-capable, cost-pruned).

    Every subset keeps exactly one entry — the cheapest ordered split —
    which prunes the search the way System R's per-relation-set memo
    does. Ties break toward the written leaf order, then the flattest
    shape, so cost-symmetric queries keep their written plans.
    """

    def __init__(self, planner: PhysicalPlanner, region: _Region):
        self._planner = planner
        self._region = region

    def enumerate(
        self,
        leaf_entries: list[_Entry],
        region_stats,
        pred_selectivity: list[float],
    ) -> _Entry:
        region = self._region
        n = len(region.leaves)
        best: dict[frozenset[int], _Entry] = {
            frozenset([i]): entry for i, entry in enumerate(leaf_entries)
        }
        for size in range(2, n + 1):
            for combo in combinations(range(n), size):
                subset = frozenset(combo)
                members = sorted(subset)
                winner: _Entry | None = None
                for mask in range(1, (1 << size) - 1):
                    s1 = frozenset(
                        members[i] for i in range(size) if mask >> i & 1
                    )
                    entry = self._candidate(
                        best[s1],
                        best[subset - s1],
                        subset,
                        region_stats,
                        pred_selectivity,
                    )
                    if winner is None or (
                        (entry.cost, entry.order, entry.shape)
                        < (winner.cost, winner.order, winner.shape)
                    ):
                        winner = entry
                best[subset] = winner
        return best[frozenset(range(n))]

    def _candidate(
        self,
        e1: _Entry,
        e2: _Entry,
        subset: frozenset[int],
        region_stats,
        pred_selectivity: list[float],
    ) -> _Entry:
        region = self._region
        edge_ids = tuple(
            eid
            for eid, (ga, gb) in enumerate(region.edges)
            if region.leaf_of[ga] in subset
            and region.leaf_of[gb] in subset
            and (region.leaf_of[ga] in e1.subset)
            != (region.leaf_of[gb] in e1.subset)
        )
        pred_ids = tuple(
            pid
            for pid, leaves in enumerate(region.pred_leaves)
            if leaves <= subset
            and not leaves <= e1.subset
            and not leaves <= e2.subset
        )

        # Cardinality: |L|·|R| / max(ndv) per connecting edge with fresh
        # stats; the upper-bound max(|L|, |R|) when any edge lacks them.
        if edge_ids:
            selectivity = 1.0
            have_all = True
            for eid in edge_ids:
                ga, gb = region.edges[eid]
                ndv = _pair_ndv(region_stats[ga], region_stats[gb])
                if ndv is None:
                    have_all = False
                    break
                selectivity /= ndv
            if have_all:
                est = e1.est_rows * e2.est_rows * selectivity
            else:
                est = max(e1.est_rows, e2.est_rows)
        else:
            est = e1.est_rows * e2.est_rows
        for pid in pred_ids:
            est *= pred_selectivity[pid]
        est = max(1.0, est)

        width = e1.width + e2.width
        e1_cols = sum(region.leaf_widths[leaf_id] for leaf_id in e1.subset)
        col_offset = dict(e1.col_offset)
        for leaf_id, off in e2.col_offset.items():
            col_offset[leaf_id] = e1_cols + off

        decision: JoinDecision | None = None
        if edge_ids:
            keys_local = self._local_keys(e1, e2, edge_ids)
            site = JoinSite(
                kind=ast.JoinKind.INNER,
                equi_keys=keys_local,
                left=e1.side_info(region),
                right=e2.side_info(region),
                slices=self._planner.slice_count,
            )
            decision = self._planner._operator_selection.select_join_operators(
                site
            )
            move = _movement_bytes(decision, site)
            cpu = e1.est_bytes + e2.est_bytes
            partitioning = self._hash_partitioning(e1, e2, decision, edge_ids)
        else:
            # Cross/theta join: nested loop, inner side broadcast.
            move = e2.est_bytes * (self._planner.slice_count - 1)
            cpu = e1.est_rows * e2.est_rows * width
            partitioning = (
                e1.partitioning if e1.partitioning.kind != "all" else RR
            )
        cost = e1.cost + e2.cost + cpu + move + est * width

        return _Entry(
            subset=subset,
            order=e1.order + e2.order,
            shape=f"({e1.shape} {e2.shape})",
            est_rows=est,
            width=width,
            partitioning=partitioning,
            cost=cost,
            col_offset=col_offset,
            leaf=None,
            left=e1,
            right=e2,
            edge_ids=edge_ids,
            pred_ids=pred_ids,
            decision=decision,
        )

    def _local_keys(
        self, e1: _Entry, e2: _Entry, edge_ids: tuple[int, ...]
    ) -> list[tuple[int, int]]:
        region = self._region
        keys: list[tuple[int, int]] = []
        for eid in edge_ids:
            ga, gb = region.edges[eid]
            if region.leaf_of[ga] in e1.subset:
                keys.append((e1.local_of(region, ga), e2.local_of(region, gb)))
            else:
                keys.append((e1.local_of(region, gb), e2.local_of(region, ga)))
        return keys

    def _hash_partitioning(
        self,
        e1: _Entry,
        e2: _Entry,
        decision: JoinDecision,
        edge_ids: tuple[int, ...],
    ) -> Partitioning:
        region = self._region
        if decision.strategy is JoinDistribution.DS_DIST_NONE:
            if e1.partitioning.kind == "all" and e2.partitioning.kind == "all":
                return RR
            if e1.partitioning.kind == "all":
                return e2.partitioning
            return e1.partitioning
        if decision.strategy is JoinDistribution.DS_BCAST_INNER:
            probe = e1 if decision.build_right else e2
            return probe.partitioning
        ga, gb = region.edges[edge_ids[0]]
        left_col = ga if region.leaf_of[ga] in e1.subset else gb
        return Partitioning("hash", (left_col,))


# ---------------------------------------------------------------------------
# Region optimization driver (called by the planner)
# ---------------------------------------------------------------------------

def optimize_join_region(
    planner: PhysicalPlanner,
    root: LogicalJoin,
    extra_conjuncts: list[ast.Expression],
) -> PhysicalNode | None:
    """Plan the inner-join region rooted at *root* via the DP enumerator.

    Returns the physical subtree (output columns in the original written
    order), or None when the region is too wide for DP — the caller then
    converts in written order.
    """
    region = _collect_region(root, extra_conjuncts)
    n = len(region.leaves)
    if n < 2 or n > planner.MAX_DP_LEAVES:
        return None

    leaf_phys = [planner._convert(leaf) for leaf in region.leaves]

    region_stats: list = []
    for leaf_id, node in enumerate(leaf_phys):
        stats = planner._stats_for(node)
        for local in range(region.leaf_widths[leaf_id]):
            region_stats.append(
                stats[local] if stats is not None and local < len(stats) else None
            )

    pred_selectivity = [
        _conjunct_selectivity(pred, region_stats) for pred in region.preds
    ]

    leaf_entries: list[_Entry] = []
    for i, node in enumerate(leaf_phys):
        entry = _Entry(
            subset=frozenset([i]),
            order=(i,),
            shape=str(i),
            est_rows=node.est_rows,
            width=node.row_width,
            partitioning=_globalize(
                node.partitioning, region.leaf_offsets[i]
            ),
            cost=node.est_bytes,
            col_offset={i: 0},
            sorted_on=tuple(
                region.leaf_offsets[i] + k
                for k in planner._sorted_prefix(node)
            ),
            leaf=i,
        )
        leaf_entries.append(entry)

    enumerator = SystemRJoinEnumerator(planner, region)
    best = enumerator.enumerate(leaf_entries, region_stats, pred_selectivity)
    node = _emit(planner, region, best, leaf_phys)

    if region.const_preds:
        condition = region.const_preds[0]
        for extra in region.const_preds[1:]:
            condition = ast.BinaryOp("AND", condition, extra)
        selectivity = _conjunct_selectivity(condition, None)
        node = PhysicalFilter(
            node,
            condition,
            output=list(node.output),
            partitioning=node.partitioning,
            est_rows=max(1.0, node.est_rows * selectivity),
        )

    if best.order != tuple(range(n)):
        node = _restore_column_order(planner, region, best, node)
    return node


def _emit(
    planner: PhysicalPlanner,
    region: _Region,
    entry: _Entry,
    leaf_phys: list[PhysicalNode],
) -> PhysicalNode:
    """Rebuild the physical join tree for the DP's winning entry."""
    if entry.leaf is not None:
        return leaf_phys[entry.leaf]
    left = _emit(planner, region, entry.left, leaf_phys)
    right = _emit(planner, region, entry.right, leaf_phys)

    keys: list[tuple[int, int]] = []
    for eid in entry.edge_ids:
        ga, gb = region.edges[eid]
        if region.leaf_of[ga] in entry.left.subset:
            keys.append(
                (entry.left.local_of(region, ga), entry.right.local_of(region, gb))
            )
        else:
            keys.append(
                (entry.left.local_of(region, gb), entry.right.local_of(region, ga))
            )

    width_left = len(left.output)

    def localize(g: int) -> int:
        if region.leaf_of[g] in entry.left.subset:
            return entry.left.local_of(region, g)
        return width_left + entry.right.local_of(region, g)

    residual: ast.Expression | None = None
    for pid in entry.pred_ids:
        conjunct = _relocalize(region.preds[pid], localize)
        residual = (
            conjunct
            if residual is None
            else ast.BinaryOp("AND", residual, conjunct)
        )

    kind = (
        ast.JoinKind.INNER
        if keys or residual is not None
        else ast.JoinKind.CROSS
    )
    output = list(left.output) + list(right.output)
    return planner._make_join(kind, left, right, keys, residual, output)


def _relocalize(expr: ast.Expression, mapping) -> ast.Expression:
    if isinstance(expr, ast.BoundRef):
        return ast.BoundRef(mapping(expr.index), expr.sql_type, expr.name)
    from repro.plan.binder import _rebuild

    return _rebuild(expr, lambda e: _relocalize(e, mapping))


def _restore_column_order(
    planner: PhysicalPlanner,
    region: _Region,
    best: _Entry,
    node: PhysicalNode,
) -> PhysicalNode:
    """Project the reordered join output back to written column order so
    every operator above the region keeps its bound indices."""
    expressions = [
        ast.BoundRef(best.local_of(region, g), col.sql_type, col.name)
        for g, col in enumerate(region.columns)
    ]
    project = PhysicalProject(
        node,
        expressions=expressions,
        output=list(region.columns),
        partitioning=_project_partitioning(node.partitioning, expressions),
        est_rows=node.est_rows,
    )
    node_stats = planner._stats_for(node)
    if node_stats is not None:
        planner._record_stats(
            project,
            [node_stats[e.index] for e in expressions],
        )
    return project


def _movement_bytes(decision: JoinDecision, site: JoinSite) -> float:
    """Interconnect bytes a join ships under *decision*."""
    build = site.right if decision.build_right else site.left
    probe = site.left if decision.build_right else site.right
    strategy = decision.strategy
    if strategy is JoinDistribution.DS_DIST_NONE:
        return 0.0
    if strategy is JoinDistribution.DS_BCAST_INNER:
        return build.est_bytes * (site.slices - 1)
    if strategy is JoinDistribution.DS_DIST_INNER:
        return build.est_bytes
    if strategy is JoinDistribution.DS_DIST_OUTER:
        return probe.est_bytes
    return build.est_bytes + probe.est_bytes
