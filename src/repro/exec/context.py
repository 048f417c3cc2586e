"""Execution context and per-query statistics."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.network import Interconnect, NetworkStats
from repro.engine.transactions import Snapshot
from repro.storage.chain import ScanStats
from repro.storage.slicestore import SliceStorage


@dataclass
class OperatorStat:
    """Per-plan-step execution counters (one svl_query_summary row).

    ``step`` is the node's preorder index in the physical plan — the same
    order ``explain()`` renders lines in. ``rows`` counts rows the
    operator emitted (for scans: rows produced after zone-map pruning and
    visibility, before the pushed-down filters). ``elapsed_us`` is span
    time from the operator's start to the last row it produced; with lazy
    pipelines this is inclusive of child time.
    """

    step: int
    operator: str
    rows: int = 0
    elapsed_us: int = 0
    #: Planner row estimate for this operator (EXPLAIN ANALYZE shows
    #: ``rows=<actual> est=<estimated>``; svl_query_summary derives the
    #: misestimation factor from the pair).
    est_rows: float = 0.0
    #: Scan-only IO counters (zero for non-scan operators).
    blocks_read: int = 0
    blocks_skipped: int = 0
    bytes_read: int = 0
    #: Block-decode cache traffic (nonzero only for vectorized scans).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Operate-on-compressed scan counters (nonzero only for encoded
    #: vectorized and parallel scans): batches that carried still-encoded columns and
    #: the uncompressed bytes whose decode was avoided.
    encoded_batches: int = 0
    decode_bytes_avoided: int = 0
    #: Parallel-executor pushdown (zero for serial executors): the worker
    #: count the pipeline ran with and the morsels it was split into.
    workers: int = 0
    morsels: int = 0
    #: Spill accounting (zero while the operator fits its memory budget):
    #: temp bytes written and partitions/runs spilled by this operator.
    spilled_bytes: int = 0
    spill_partitions: int = 0


@dataclass
class QueryStats:
    """Everything a query run reports besides its rows.

    These counters are the measured quantities behind the benchmark
    experiments: blocks skipped (a1), network bytes by category (a3),
    compile vs execute time (a2).
    """

    scan: ScanStats = field(default_factory=ScanStats)
    network: NetworkStats = field(default_factory=NetworkStats)
    rows_returned: int = 0
    compile_seconds: float = 0.0
    execute_seconds: float = 0.0
    executor: str = "volcano"
    plan_text: str = ""
    #: Segments re-run by the leader after a recoverable fault.
    segment_retries: int = 0
    #: True when the rows were served from the leader's result cache
    #: without execution (svl_query_summary.result_cache_hit).
    result_cache_hit: bool = False
    #: "hit" | "miss" for cache-eligible SELECTs, "" when the cache was
    #: bypassed (explicit transaction, system tables, SET off). Drives
    #: the EXPLAIN ANALYZE annotation.
    result_cache_status: str = ""
    #: Compiled-pipeline fragments reused from / inserted into the
    #: cluster's segment cache by this query (compiled executor only).
    segment_cache_hits: int = 0
    segment_cache_misses: int = 0
    #: Per-plan-step counters (feeds svl_query_summary / EXPLAIN ANALYZE).
    #: The compiled executor only reports the steps it actually drives
    #: (fused pipeline interiors run inside generated code).
    operators: list[OperatorStat] = field(default_factory=list)
    #: Parallel executor only: one SliceExec per slice that ran morsels
    #: (feeds stv_slice_exec).
    slice_exec: list["SliceExec"] = field(default_factory=list)
    #: Spill totals across operators (svl_query_summary columns) and the
    #: per-operator/per-disk breakdown (feeds stv_query_spill).
    spilled_bytes: int = 0
    spill_partitions: int = 0
    spill_events: list["SpillEvent"] = field(default_factory=list)
    #: High-water mark of governed operator memory (hash builds, agg
    #: state, sort buffers) — the working-set measurement bench a13
    #: scales its budgets from. 0 when the query ran ungoverned.
    peak_memory_bytes: int = 0


@dataclass
class SpillEvent:
    """One operator's spill activity on one disk (stv_query_spill row)."""

    step: int
    operator: str
    disk_id: str
    partitions: int
    bytes_written: int
    bytes_read: int


@dataclass
class SliceExec:
    """Per-slice worker accounting for one parallel query (stv_slice_exec)."""

    slice_id: str
    node_id: str
    mode: str
    morsels: int = 0
    rows: int = 0
    scanned_rows: int = 0
    elapsed_us: int = 0
    crashes: int = 0


@dataclass
class ParallelConfig:
    """How the parallel executor runs its per-slice workers.

    ``mode`` is "fork" (process pool, workers inherit slice stores),
    "thread" (fallback where fork is unavailable), or "serial"
    (parallelism 1: morsels run inline on the leader — same machinery,
    no pool). ``pool_manager`` is the cluster's
    :class:`repro.exec.workers.PoolManager`; ``registry_id`` keys the
    cluster's slice list in the worker-side registry.
    """

    degree: int = 2
    mode: str = "fork"
    pool_manager: object = None
    registry_id: int = 0
    #: Blocks per morsel: the scheduling quantum workers pull.
    morsel_blocks: int = 4
    #: Row pipelines whose morsel output exceeds this fall back to
    #: leader execution instead of shipping the rows across the pool.
    row_ship_limit: int = 100_000


@dataclass
class ExecutionContext:
    """Everything an executor needs: slices, visibility, accounting."""

    slices: list[SliceStorage]
    snapshot: Snapshot
    interconnect: Interconnect
    stats: QueryStats = field(default_factory=QueryStats)
    #: Shared fault injector; None means no faults are being injected.
    fault_injector: object = None
    #: System-table rows materialized by the session before execution,
    #: keyed by table name. Scans of these tables read from here (rows
    #: live at the leader / slice 0) instead of slice storage.
    system_rows: dict = field(default_factory=dict)
    #: Cluster-wide decoded-block cache consumed by the vectorized
    #: executor's batch scans; None disables caching.
    block_cache: object = None
    #: Operate-on-compressed scans (SET enable_encoded_scan): vectorized
    #: scans and parallel morsels get whitelisted codecs undecoded.
    encoded_scan: bool = True
    #: Cluster-wide compiled-segment cache consulted by the compiled
    #: executor's pipeline codegen; None disables reuse.
    segment_cache: object = None
    #: Parallel-executor configuration; None for serial executors.
    parallel: "ParallelConfig | None" = None
    #: Per-query memory governor (:class:`repro.exec.spill.MemoryBudget`);
    #: None runs unbounded with no spilling — the pre-governor behaviour.
    memory_budget: object = None
    #: The attempt's :class:`repro.storage.spillfile.SpillManager`. The
    #: session releases it in a ``finally`` so temp bytes never leak,
    #: whatever way the attempt ends.
    spill: object = None

    @property
    def slice_count(self) -> int:
        return len(self.slices)

    @property
    def parallelism(self) -> int:
        return self.parallel.degree if self.parallel is not None else 1

    def check_faults(self) -> None:
        """Fault checkpoint: fire any node crash scheduled for a node that
        owns one of this query's slices. Executors call this at segment
        boundaries — the points where a real leader detects a dead node."""
        if self.fault_injector is None:
            return
        for store in self.slices:
            # Slice ids look like "node-1-s0"; the prefix is the node id.
            node_id = store.slice_id.rsplit("-s", 1)[0]
            self.fault_injector.check_node(node_id)
