"""Per-node host manager.

"Each Amazon Redshift node has host manager software that helps with
deploying new database engine bits, aggregating events and metrics,
generating instance-level events, archiving and rotating logs, and
monitoring the host, database and log files for errors. The host manager
also has limited capability to perform actions, for example, restarting a
database process on failure" (paper §2.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.cloud.simclock import SimClock


class HostEventKind(enum.Enum):
    PROCESS_CRASH = "process_crash"
    PROCESS_RESTARTED = "process_restarted"
    NODE_UNHEALTHY = "node_unhealthy"
    REPLACEMENT_REQUESTED = "replacement_requested"
    SCRUB_COMPLETED = "scrub_completed"
    BLOCK_REPAIRED = "block_repaired"


@dataclass(frozen=True)
class HostEvent:
    node_id: str
    kind: HostEventKind
    at: float
    detail: str = ""


@dataclass
class HostManager:
    """Monitors one node; restarts the engine process; escalates."""

    node_id: str
    clock: SimClock
    #: polling cadence for crash detection
    poll_interval_s: float = 30.0
    #: engine restart duration
    restart_s: float = 45.0
    #: crashes within the escalation window before asking for replacement
    escalation_threshold: int = 3
    escalation_window_s: float = 3600.0

    events: list[HostEvent] = field(default_factory=list)
    process_running: bool = True
    _recent_crashes: list[float] = field(default_factory=list)

    def crash_process(self) -> None:
        """Failure injection: the engine process dies."""
        self.process_running = False
        self.events.append(
            HostEvent(self.node_id, HostEventKind.PROCESS_CRASH, self.clock.now)
        )

    def poll(self) -> HostEvent | None:
        """One monitoring pass: detect and repair a dead process.

        Returns the most significant event generated, if any. Detection
        costs up to one poll interval, restart a fixed restart time —
        together the "degrade, don't fail" window for the node.
        """
        if self.process_running:
            return None
        # Detection + restart consume simulated time.
        self.clock.advance(self.restart_s)
        self.process_running = True
        now = self.clock.now
        self._recent_crashes = [
            t for t in self._recent_crashes if t >= now - self.escalation_window_s
        ]
        self._recent_crashes.append(now)
        restarted = HostEvent(
            self.node_id, HostEventKind.PROCESS_RESTARTED, now
        )
        self.events.append(restarted)
        if len(self._recent_crashes) >= self.escalation_threshold:
            escalation = HostEvent(
                self.node_id,
                HostEventKind.REPLACEMENT_REQUESTED,
                now,
                detail=f"{len(self._recent_crashes)} crashes in window",
            )
            self.events.append(escalation)
            return escalation
        return restarted

    #: per-block checksum verification cost charged by :meth:`run_scrub`
    SCRUB_SECONDS_PER_BLOCK = 0.01

    def run_scrub(self, replication, s3_reader=None) -> HostEvent:
        """Monitoring pass over this node's blocks: checksum-verify every
        replicated copy the node holds and repair corrupt ones via the
        replication manager (mirror first, S3 backup as the fallback).

        This is the host manager's "monitoring ... for errors" duty
        extended to silent data corruption. Returns the summary event.
        """
        report = replication.scrub(s3_reader, node_id=self.node_id)
        self.clock.advance(report.blocks_checked * self.SCRUB_SECONDS_PER_BLOCK)
        for block_id in report.repaired:
            self.events.append(
                HostEvent(
                    self.node_id,
                    HostEventKind.BLOCK_REPAIRED,
                    self.clock.now,
                    detail=block_id,
                )
            )
        summary = HostEvent(
            self.node_id,
            HostEventKind.SCRUB_COMPLETED,
            self.clock.now,
            detail=(
                f"{report.blocks_checked} checked, "
                f"{len(report.repaired)} repaired, "
                f"{len(report.unrepairable)} unrepairable"
            ),
        )
        self.events.append(summary)
        return summary
