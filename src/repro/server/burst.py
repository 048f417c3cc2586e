"""Concurrency-scaling burst clusters: WLM overflow routed to a clone.

The paper's managed-service argument (§3) is that elasticity is the
*service's* job: when a warehouse saturates, the right answer is more
compute attached transparently, not queries shed at the gate. This
module is the serving half of that story. When a WLM queue's waiting
depth stays above a threshold, the control plane restores a **burst
cluster** from the latest S3 snapshot (PR 1's restore machinery) and
the :class:`BurstRouter` — the routing stage of the session's one
statement path, asked before the result cache and before
:class:`~repro.server.server.SlotGate` admission — starts sending
*read-only* queries there instead of letting them queue on main:

- **Eligibility.** Only a client's plain ``SELECT`` qualifies: outside
  any explicit transaction (a transaction's reads must see its own
  writes, which only exist on main) and scanning no system tables
  (``stv_*`` state lives per cluster; the burst clone's would be wrong).
- **Freshness.** The snapshot manifest captures every table's version
  (``Cluster.table_version``) at backup time. A query routes only while
  *all* of its scanned tables' versions on main still equal the
  captured ones — the moment a table mutates on main, queries over it
  stay on main (counted as ``stale_rejects``). This is the same
  invalidation discipline the result cache uses, and it makes burst
  results bit-identical to main by construction.
- **One set of parameters.** A routed statement is the *main* session's
  own SELECT stage pointed at the burst cluster's storage, caches and
  fault injector: it runs the plan main already made, under that
  session's current executor, parallelism, pool mode, memory limit and
  ``enable_*`` values. There is no burst-side session to drift.
- **Fallback.** The burst cluster deliberately runs without recovery
  handlers: an injected node crash or storage fault mid-query
  propagates out, the router counts the fallback and retires the
  broken burst, and the session carries on down main's path. SELECTs
  are idempotent and the statement is recorded once, by the session's
  envelope, so the retry can neither lose nor double-execute work.
- **Retirement.** After ``burst_idle_timeout_s`` with no routed
  queries the cluster is handed back to the control plane's retire
  hook and its EC2 instances released.

The router never imports the control plane; it is constructed with
``provision``/``retire`` callables (see
``RedshiftService.enable_concurrency_scaling``), keeping the dependency
direction control plane → server.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import (
    BlockCorruptionError,
    CloudError,
    DiskFailureError,
    DiskMediaError,
    NodeFailureError,
    S3TransientError,
    WorkerCrashError,
)

#: Failures that mean the burst *infrastructure* is unhealthy (retire
#: it), as opposed to a query error that would reproduce on main.
_INFRA_ERRORS = (
    NodeFailureError,
    BlockCorruptionError,
    DiskMediaError,
    DiskFailureError,
    WorkerCrashError,
    S3TransientError,
    CloudError,
)


@dataclass(frozen=True)
class BurstConfig:
    """Knobs governing when a burst cluster appears and disappears."""

    #: The WLM queue whose pressure triggers scaling; only sessions on
    #: this queue route to the burst cluster.
    queue: str = "default"
    #: Provision once this many queries are blocked waiting for a slot.
    burst_queue_depth_threshold: int = 4
    #: The depth must hold for this long (server clock) before
    #: provisioning; 0 scales on the first crossing.
    burst_sustain_s: float = 0.0
    #: Retire the burst cluster after this long without a routed query.
    burst_idle_timeout_s: float = 300.0
    #: After a failed provision (S3 outage mid-restore, no EC2
    #: capacity), don't retry before this much simulated time passes.
    provision_cooldown_s: float = 60.0

    def __post_init__(self):
        if self.burst_queue_depth_threshold < 1:
            raise ValueError(
                "burst_queue_depth_threshold must be >= 1, got "
                f"{self.burst_queue_depth_threshold}"
            )
        if self.burst_idle_timeout_s < 0:
            raise ValueError(
                f"burst_idle_timeout_s must be >= 0, got "
                f"{self.burst_idle_timeout_s}"
            )


@dataclass
class BurstCluster:
    """One provisioned burst cluster and its routing counters."""

    cluster_id: str
    #: The restored engine :class:`~repro.engine.cluster.Cluster`.
    cluster: object
    snapshot_id: str
    #: table name -> main's table version captured when the snapshot
    #: was taken; the router's freshness oracle.
    snapshot_versions: dict[str, int]
    provisioned_at: float
    state: str = "active"
    last_routed_at: float = 0.0
    routed_queries: int = 0
    fallbacks: int = 0
    stale_rejects: int = 0

    def __post_init__(self):
        if not self.last_routed_at:
            self.last_routed_at = self.provisioned_at


class BurstRouter:
    """Decides which read-only statements a burst cluster serves.

    The server installs the router on every engine session (like the
    WLM gate). A session dispatching a client SELECT calls :meth:`route`
    with the user tables its plan scans, runs the statement against the
    returned burst cluster itself, and reports back through
    :meth:`completed` or :meth:`failed` — all on the session's own
    worker thread, so main-path admission, slot release and latency
    accounting are untouched.
    """

    def __init__(self, server, config: BurstConfig, provision, retire):
        self._server = server
        self.config = config
        #: () -> BurstCluster; raises on provisioning failure.
        self._provision = provision
        #: (BurstCluster) -> None; releases the cluster's instances.
        self._retire = retire
        self._lock = threading.Lock()
        #: Held (non-blocking) by the one thread doing a provision so
        #: queue pressure triggers exactly one restore.
        self._provision_lock = threading.Lock()
        self.active: BurstCluster | None = None
        #: Every burst cluster ever provisioned, for stv_burst_clusters.
        self.history: list[BurstCluster] = []
        self._pressure_since: float | None = None
        self._cooldown_until: float = float("-inf")
        self.routed = 0
        self.fallbacks = 0
        self.stale_rejects = 0
        self.provisions = 0
        self.provision_failures = 0
        self.retirements = 0

    # ---- routing decision ------------------------------------------------

    def route(self, session, tables: tuple[str, ...]) -> BurstCluster | None:
        """The burst cluster that should run *session*'s SELECT over the
        user *tables*, or None to stay on main."""
        if session.queue_name != self.config.queue or session.in_transaction:
            return None
        now = self._server.now()
        burst = self.active
        if burst is None:
            burst = self._maybe_provision(session.wlm_gate.waiting, now)
            if burst is None:
                return None
        else:
            self.retire_if_idle(now)
            burst = self.active
            if burst is None:
                return None
        main = self._server.cluster
        for name in tables:
            if main.table_version(name) != burst.snapshot_versions.get(name):
                with self._lock:
                    self.stale_rejects += 1
                    burst.stale_rejects += 1
                return None
        return burst

    def _maybe_provision(self, waiting: int, now: float) -> BurstCluster | None:
        if waiting < self.config.burst_queue_depth_threshold:
            self._pressure_since = None
            return None
        if self._pressure_since is None:
            self._pressure_since = now
        if now - self._pressure_since < self.config.burst_sustain_s:
            return None
        if now < self._cooldown_until:
            return None
        # Exactly one thread restores; the rest keep queueing on main
        # rather than stacking up behind the restore.
        if not self._provision_lock.acquire(blocking=False):
            return None
        try:
            if self.active is not None:
                return self.active
            try:
                burst = self._provision()
            except Exception as exc:  # noqa: BLE001 — count + cool down
                with self._lock:
                    self.provision_failures += 1
                self._cooldown_until = (
                    self._server.now() + self.config.provision_cooldown_s
                )
                self._record_event("provision_failed", str(exc))
                return None
            with self._lock:
                self.provisions += 1
                self.active = burst
                self.history.append(burst)
            self._pressure_since = None
            self._record_event(
                "provisioned",
                f"{burst.cluster_id} from {burst.snapshot_id}",
            )
            return burst
        finally:
            self._provision_lock.release()

    # ---- outcome of a routed statement -----------------------------------

    def completed(self, burst: BurstCluster) -> None:
        """A routed statement succeeded on *burst*."""
        now = self._server.now()
        with self._lock:
            self.routed += 1
            burst.routed_queries += 1
            burst.last_routed_at = now

    def failed(self, burst: BurstCluster, exc: Exception) -> None:
        """A routed statement died on *burst*; the session falls back to
        main. An infrastructure fault also retires the clone."""
        with self._lock:
            self.fallbacks += 1
            burst.fallbacks += 1
        if isinstance(exc, _INFRA_ERRORS):
            self.retire_burst(burst, reason=f"fault: {exc}")

    # ---- retirement ------------------------------------------------------

    def retire_if_idle(self, now: float | None = None) -> bool:
        """Retire the active burst cluster once it has sat idle."""
        burst = self.active
        if burst is None:
            return False
        if now is None:
            now = self._server.now()
        if now - burst.last_routed_at < self.config.burst_idle_timeout_s:
            return False
        self.retire_burst(burst, reason="idle")
        return True

    def retire_burst(self, burst: BurstCluster, reason: str = "") -> None:
        with self._lock:
            if burst.state != "active":
                return
            burst.state = "retired"
            if self.active is burst:
                self.active = None
            self.retirements += 1
        try:
            self._retire(burst)
        finally:
            close = getattr(burst.cluster, "close", None)
            if close is not None:
                close()
        self._record_event("retired", f"{burst.cluster_id}: {reason}")

    def shutdown(self) -> None:
        """Retire whatever is still running (server shutdown)."""
        burst = self.active
        if burst is not None:
            self.retire_burst(burst, reason="shutdown")

    # ---- observability ---------------------------------------------------

    def _record_event(self, action: str, detail: str) -> None:
        injector = getattr(self._server.cluster, "fault_injector", None)
        if injector is None:
            return
        injector.record(
            f"burst_{action}", target=self.config.queue, detail=detail[:512]
        )

    def rows(self) -> list[tuple]:
        """Rows for the ``stv_burst_clusters`` system table."""
        with self._lock:
            bursts = list(self.history)
        return [
            (
                b.cluster_id,
                b.state,
                b.snapshot_id,
                b.provisioned_at,
                b.last_routed_at,
                b.routed_queries,
                b.fallbacks,
                b.stale_rejects,
            )
            for b in bursts
        ]

    def counters(self) -> dict[str, int]:
        with self._lock:
            return {
                "routed": self.routed,
                "fallbacks": self.fallbacks,
                "stale_rejects": self.stale_rejects,
                "provisions": self.provisions,
                "provision_failures": self.provision_failures,
                "retirements": self.retirements,
            }
