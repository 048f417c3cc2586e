"""Analytic model of a Redshift cluster on the paper's workload."""

from __future__ import annotations

from dataclasses import dataclass

from repro.perfmodel.profiles import NodeProfile, profile
from repro.perfmodel.workload import JoinSpec, RetailWorkload


@dataclass
class RedshiftPerfModel:
    """A cluster of ``node_count`` × ``node_type`` under the model.

    All operations parallelise across nodes (the engine measured this
    behaviour at small scale: loads, scans, joins and backups are
    data-parallel per slice), so cluster throughput = node throughput ×
    node count, degraded by ``parallel_efficiency`` for coordination.
    """

    node_type: str = "dw1.8xlarge"
    node_count: int = 100
    parallel_efficiency: float = 0.9
    #: blocks changed per byte of logical change: loads into sorted tables
    #: rewrite neighbouring blocks (vacuum / sort maintenance), so the
    #: incremental backup ships several times the logical delta.
    backup_write_amplification: float = 8.0

    @property
    def nodes(self) -> NodeProfile:
        return profile(self.node_type)

    @property
    def _effective_nodes(self) -> float:
        return self.node_count * self.parallel_efficiency

    # ---- operations -----------------------------------------------------------

    def load_seconds(self, raw_bytes: float) -> float:
        """COPY of *raw_bytes* of delimited input, parallel across slices."""
        rate = self.nodes.ingest_raw_bytes_per_s * self._effective_nodes
        return raw_bytes / rate

    def scan_seconds(self, compressed_bytes: float) -> float:
        rate = self.nodes.scan_bytes_per_s * self._effective_nodes
        return compressed_bytes / rate

    def backup_seconds(self, changed_compressed_bytes: float) -> float:
        """Incremental backup: wall time tracks per-node changed data
        ("proportional to the data changed on a single node")."""
        per_node = (
            changed_compressed_bytes
            * self.backup_write_amplification
            / self.node_count
        )
        return per_node / self.nodes.s3_bytes_per_s

    def restore_seconds(self, dataset_compressed_bytes: float) -> float:
        """Full (non-streaming) restore of the whole dataset from S3."""
        per_node = dataset_compressed_bytes / self.node_count
        return per_node / self.nodes.s3_bytes_per_s

    def streaming_restore_first_query_seconds(self) -> float:
        """Metadata + catalog restoration before SQL opens."""
        return 180.0

    def join_seconds(self, join: JoinSpec, colocated: bool = True) -> float:
        """Distributed hash join.

        Scan both sides, move the small side unless co-located on the
        distribution key, then probe. The big side streams through the
        probe pipelined with its scan, so wall time is the max of scan and
        probe, not the sum.
        """
        scan_big = self.scan_seconds(join.big_scan_bytes)
        scan_small = self.scan_seconds(join.small_bytes)
        if colocated:
            movement = 0.0
        else:
            rate = self.nodes.network_bytes_per_s * self._effective_nodes
            movement = join.small_bytes / rate
        probe_rate = self.nodes.probe_rows_per_s * self._effective_nodes
        probe = join.big_rows / probe_rate
        return scan_small + movement + max(scan_big, probe)

    # ---- workload roll-up -------------------------------------------------------

    def retail_summary(self, workload: RetailWorkload | None = None) -> dict:
        """Model outputs for every §1 operation (seconds)."""
        w = workload or RetailWorkload()
        return {
            "daily_load_s": self.load_seconds(w.daily_raw_bytes),
            "backfill_s": self.load_seconds(w.backfill_raw_bytes),
            "backup_s": self.backup_seconds(w.daily_compressed_bytes),
            "restore_s": self.restore_seconds(w.dataset_compressed_bytes),
            "join_s": self.join_seconds(w.click_product_join()),
        }

    # ---- cost ----------------------------------------------------------------------

    def hourly_cost_usd(self) -> float:
        return self.node_count * self.nodes.hourly_price_usd
