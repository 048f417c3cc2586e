"""End-to-end failure recovery: the escalator side of fault injection.

The :class:`RecoveryCoordinator` is the leader-side handler behind recovery
at the read: when a block read or charge, a fault checkpoint or a morsel
hits a recoverable fault, :meth:`handle_query_fault` repairs the cause —
replica failover for a dead node, scrub-and-repair for a corrupt block —
and only that unit runs again, never the statement. While redundancy is
lost the cluster degrades to read-only rather than failing (§5: "design
escalators, not elevators"); it returns to read-write once
re-replication completes. Every action is appended to the shared fault
injector's log so recovery is as reproducible as the faults themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import (
    BlockCorruptionError,
    DiskMediaError,
    NodeFailureError,
    ReproError,
)
from repro.faults.injector import FaultInjector


@dataclass
class RecoveryReport:
    """What one recovery pass did."""

    action: str
    target: str
    bytes_restored: int = 0
    blocks_repaired: int = 0
    duration_s: float = 0.0
    succeeded: bool = True
    detail: str = ""


class RecoveryCoordinator:
    """Repairs faults so the read that met one can run again.

    Installs itself as ``cluster.recovery_handler``; the unit that raised
    one of :data:`repro.errors.QUERY_RECOVERABLE_ERRORS` consults that
    hook (``repro.exec.context.recovered``).
    """

    def __init__(
        self,
        cluster,
        replication=None,
        s3_reader: Callable[[str], bytes | None] | None = None,
        injector: FaultInjector | None = None,
        clock=None,
        on_degraded: Callable[[str], None] | None = None,
        on_recovered: Callable[[], None] | None = None,
    ):
        self._cluster = cluster
        self._replication = replication
        self._s3_reader = s3_reader
        self._injector = injector
        self._clock = clock
        self._on_degraded = on_degraded
        self._on_recovered = on_recovered
        self.reports: list[RecoveryReport] = []
        cluster.recovery_handler = self.handle_query_fault

    # ---- logging -----------------------------------------------------------

    def _record(self, action: str, target: str = "", detail: str = "") -> None:
        if self._injector is not None:
            self._injector.record(f"recovery:{action}", target, detail)

    # ---- the recovery handler ----------------------------------------------

    def handle_query_fault(self, exc: Exception) -> bool:
        """Repair the cause of a recoverable query fault.

        Returns True when the read or checkpoint that met it may run again.
        """
        if isinstance(exc, NodeFailureError):
            return self.recover_node(exc.node_id)
        if isinstance(exc, BlockCorruptionError):
            report = self.scrub()
            return report.blocks_repaired > 0 or report.succeeded
        if isinstance(exc, DiskMediaError):
            # Transient by definition: the re-read itself is the recovery.
            self._record("media_retry", exc.disk_id, exc.op)
            return True
        return False

    # ---- node failover -----------------------------------------------------

    def recover_node(self, node_id: str) -> bool:
        """Replica failover: rebuild a dead node's slices from mirrors.

        The cluster is read-only while redundancy is lost and returns to
        read-write once every slice is rebuilt. A real engine mirrors
        synchronously on commit; the simulation's sync point runs first so
        recovery starts from the replicated state a real cluster would
        have had at the moment of the crash.
        """
        if self._replication is None:
            self._degrade(f"node {node_id} lost with no replication")
            self._record("failover_impossible", node_id, "no replication")
            return False
        self._degrade(f"node {node_id} down, redundancy lost")
        self._record("failover_start", node_id)
        self._replication.sync_from_cluster()
        failed_slices = self._replication.fail_node(node_id)
        report = RecoveryReport(action="node_failover", target=node_id)
        try:
            for slice_id in failed_slices:
                nbytes, duration = self._replication.recover_slice(
                    slice_id, self._s3_reader
                )
                report.bytes_restored += nbytes
                report.duration_s += duration
                if self._clock is not None:
                    self._clock.advance(duration)
                self._record(
                    "slice_rebuilt", slice_id, f"{nbytes} bytes"
                )
        except ReproError as exc:
            report.succeeded = False
            report.detail = str(exc)
            self.reports.append(report)
            self._record("failover_failed", node_id, str(exc))
            return False
        if self._injector is not None:
            self._injector.mark_node_recovered(node_id)
        self.reports.append(report)
        self._record(
            "failover_done", node_id, f"{report.bytes_restored} bytes"
        )
        self._undegrade()
        return True

    # ---- scrub-and-repair --------------------------------------------------

    def scrub(self) -> RecoveryReport:
        """Checksum-verify every replicated block; repair corrupt copies
        from the mirror replica, falling back to the S3 backup."""
        report = RecoveryReport(action="scrub", target="cluster")
        if self._replication is None:
            report.succeeded = False
            report.detail = "no replication"
            self.reports.append(report)
            return report
        self._record("scrub_start", "cluster")
        scrub = self._replication.scrub(self._s3_reader)
        report.blocks_repaired = len(scrub.repaired)
        report.succeeded = not scrub.unrepairable
        report.detail = (
            f"{scrub.blocks_checked} checked, "
            f"{len(scrub.repaired)} repaired, "
            f"{len(scrub.unrepairable)} unrepairable"
        )
        for block_id in scrub.repaired:
            self._record("block_repaired", block_id)
        for block_id in scrub.unrepairable:
            self._record("block_unrepairable", block_id)
        self.reports.append(report)
        self._record("scrub_done", "cluster", report.detail)
        if scrub.unrepairable:
            self._degrade(
                f"{len(scrub.unrepairable)} blocks unrepairable"
            )
        return report

    # ---- degraded mode -----------------------------------------------------

    def _degrade(self, reason: str) -> None:
        if not self._cluster.read_only:
            self._cluster.set_read_only(reason)
            self._record("degraded_read_only", "cluster", reason)
            if self._on_degraded is not None:
                self._on_degraded(reason)

    def _undegrade(self) -> None:
        if self._cluster.read_only:
            self._cluster.clear_read_only()
            self._record("read_write_restored", "cluster")
            if self._on_recovered is not None:
                self._on_recovered()
