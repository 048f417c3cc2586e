"""The concurrent session server: thread-per-session over one cluster.

"Amazon Redshift is architected to run on clusters of hundreds of nodes
serving hundreds of concurrent clients" — the serving half of that claim
is what this module reproduces. A :class:`ClusterServer` fronts one
:class:`~repro.engine.cluster.Cluster` with many concurrently-executing
client sessions:

- **Thread per session.** Each :class:`ServerSession` owns one engine
  :class:`~repro.engine.session.Session` (its transaction state, SET
  parameters, and executor choice are per-connection, exactly as over
  ODBC/JDBC) and one worker thread that drains a *bounded* submission
  queue. Statements of one session execute in submission order;
  statements of different sessions interleave freely.
- **Live WLM admission.** Every session is wired to its queue's
  :class:`SlotGate` — the live counterpart of the discrete-event
  :class:`~repro.engine.wlm.WorkloadManager`. A gate holds real
  semaphore slots: queries block for a slot, queue-depth overload sheds
  (:class:`~repro.errors.AdmissionShedError`), and waits past the
  queue's admission timeout fail
  (:class:`~repro.errors.AdmissionTimeoutError`), each recorded into
  ``stl_wlm_rule_action``. Result-cache hits bypass the gate entirely,
  as in real Redshift.
- **Backpressure at the connection.** A full submission queue refuses
  work (:class:`~repro.errors.ServerOverloadError`) instead of
  buffering without bound.
- **Observability.** Live sessions surface in ``stv_sessions``;
  connect/disconnect events land in ``stl_connection_log``; and
  :meth:`ClusterServer.metrics` reports per-queue QPS and p50/p99
  latency from the same accounting.

Isolation comes from the engine, not the server: each statement runs
inside an MVCC snapshot from the cluster's
:class:`~repro.engine.transactions.TransactionManager`, so concurrent
readers never observe a writer's partial commit.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from queue import Empty, Full, Queue

from repro.engine.wlm import AdmissionGate, QueueConfig
from repro.errors import (
    AdmissionShedError,
    AdmissionTimeoutError,
    ServerError,
    ServerOverloadError,
    SessionClosedError,
)
from repro.util.stats import percentile

#: Sentinel telling a session worker to exit its loop.
_CLOSE = object()


class SlotGate(AdmissionGate):
    """Live admission for one WLM queue: real slots, real waiting.

    The base :class:`AdmissionGate` only counts; this subclass makes
    admission *binding* for concurrent sessions. ``admit`` blocks on a
    semaphore holding the queue's configured slot count, sheds on
    arrival when too many queries are already waiting, and gives up
    after the queue's admission timeout — the same three outcomes the
    offline simulator models, now enforced at execution time. Sessions
    of the same queue share one gate; a session's statement may admit
    more than once (INSERT ... SELECT admits its source query), so held
    slots are tracked per thread and released together when the
    statement finishes.
    """

    def __init__(self, config: QueueConfig, systables=None):
        super().__init__(queue=config.name)
        self.config = config
        self._systables = systables
        self._slots = threading.Semaphore(config.slots)
        self._lock = threading.Lock()
        self._held = threading.local()
        #: Queries currently blocked waiting for a slot.
        self.waiting = 0
        self.sheds = 0
        self.timeouts = 0

    def admit(self, label: str = "") -> None:
        config = self.config
        with self._lock:
            if (
                config.max_queue_depth is not None
                and self.waiting >= config.max_queue_depth
            ):
                self.sheds += 1
                self._record_action("shed", label, 0.0)
                raise AdmissionShedError(config.name, self.waiting)
            self.waiting += 1
        try:
            acquired = self._slots.acquire(
                timeout=config.admission_timeout_s
            )
        finally:
            with self._lock:
                self.waiting -= 1
        if not acquired:
            with self._lock:
                self.timeouts += 1
            self._record_action(
                "timeout", label, config.admission_timeout_s or 0.0
            )
            raise AdmissionTimeoutError(
                config.name, config.admission_timeout_s or 0.0
            )
        self._held.count = getattr(self._held, "count", 0) + 1
        super().admit(label)

    def release_held(self) -> None:
        """Release every slot the calling thread's statement acquired."""
        count = getattr(self._held, "count", 0)
        self._held.count = 0
        for _ in range(count):
            self._slots.release()

    def _record_action(self, action: str, label: str, wait_s: float) -> None:
        systables = self._systables
        if systables is None:
            return
        systables.store.append(
            "stl_wlm_rule_action",
            (systables.now, self.config.name, action, label[:128], wait_s),
        )


@dataclass(frozen=True)
class ServerConfig:
    """Server-wide knobs."""

    #: WLM queues the server enforces live. Default mirrors Redshift's
    #: out-of-the-box single queue.
    queues: tuple[QueueConfig, ...] = (
        QueueConfig("default", slots=5, memory_fraction=1.0),
    )
    #: Per-session submission queue bound; a full queue refuses work.
    max_pending_per_session: int = 32


@dataclass
class ServerMetrics:
    """Aggregate serving statistics since the server started."""

    elapsed_s: float
    queries: int
    errors: int
    qps: float
    p50_ms: float
    p99_ms: float
    #: queue name -> queries admitted / bypassed (result-cache hits).
    admissions: dict[str, int] = field(default_factory=dict)
    bypasses: dict[str, int] = field(default_factory=dict)
    sheds: dict[str, int] = field(default_factory=dict)
    timeouts: dict[str, int] = field(default_factory=dict)
    #: Concurrency-scaling counters (routed/fallbacks/stale_rejects/
    #: provisions/provision_failures/retirements); empty when no
    #: burst router is attached.
    burst: dict[str, int] = field(default_factory=dict)


class ServerSession:
    """One client connection: an engine session plus its worker thread.

    Obtained from :meth:`ClusterServer.open_session`; not constructed
    directly. ``submit`` enqueues a statement and returns a
    :class:`~concurrent.futures.Future`; ``execute`` is the blocking
    convenience. Statement errors travel through the future — the
    worker thread never dies on a query failure.
    """

    def __init__(self, server: "ClusterServer", session, gate: SlotGate):
        self._server = server
        self.session = session
        self.session_id = session.session_id
        self.user_name = session.user_name
        self.queue_name = session.queue_name
        self._gate = gate
        self._pending: Queue = Queue(
            maxsize=server.config.max_pending_per_session
        )
        self._lock = threading.Lock()
        self._closed = False
        self.state = "idle"
        self.connected_at = server.now()
        self.queries = 0
        self.errors = 0
        self.latencies_us: list[int] = []
        self._thread = threading.Thread(
            target=self._run,
            name=f"repro-session-{self.session_id}",
            daemon=True,
        )
        self._thread.start()

    # ---- client API ------------------------------------------------------

    def submit(self, sql: str) -> Future:
        """Enqueue one statement; resolves to its QueryResult."""
        if self._closed:
            raise SessionClosedError(self.session_id)
        future: Future = Future()
        try:
            self._pending.put_nowait((future, sql))
        except Full:
            raise ServerOverloadError(
                self.session_id, self._pending.qsize()
            ) from None
        return future

    def execute(self, sql: str, timeout: float | None = None):
        """Submit and wait; raises what the statement raised."""
        return self.submit(sql).result(timeout=timeout)

    @property
    def pending(self) -> int:
        return self._pending.qsize()

    def close(self, timeout: float | None = 30.0) -> None:
        """Finish queued statements, stop the worker, log the disconnect."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._pending.put((None, _CLOSE))
        self._thread.join(timeout=timeout)
        self.state = "closed"
        self._server._on_session_closed(self)

    # ---- worker ----------------------------------------------------------

    def _run(self) -> None:
        while True:
            future, sql = self._pending.get()
            if sql is _CLOSE:
                break
            if not future.set_running_or_notify_cancel():
                continue
            self.state = "busy"
            t0 = time.perf_counter()
            try:
                result = self.session.execute(sql)
            except BaseException as exc:  # noqa: BLE001 — ferried to the client
                with self._lock:
                    self.errors += 1
                future.set_exception(exc)
            else:
                future.set_result(result)
            finally:
                # A shed/failed statement must not strand its slots.
                self._gate.release_held()
                elapsed_us = int((time.perf_counter() - t0) * 1_000_000)
                with self._lock:
                    self.queries += 1
                    self.latencies_us.append(elapsed_us)
                self.state = "idle"


class ClusterServer:
    """Many concurrent client sessions multiplexed over one cluster."""

    def __init__(self, cluster, config: ServerConfig | None = None):
        self.cluster = cluster
        self.config = config or ServerConfig()
        self._gates = {
            q.name: SlotGate(q, cluster.systables)
            for q in self.config.queues
        }
        self._sessions: dict[int, ServerSession] = {}
        #: Latency samples of already-closed sessions (metrics keep
        #: counting after churn).
        self._closed_latencies: list[int] = []
        self._closed_queries = 0
        self._closed_errors = 0
        self._lock = threading.Lock()
        self._shutdown = False
        self._burst_router = None
        self.started_at = self.now()
        self._started_perf = time.perf_counter()
        cluster.server = self

    def now(self) -> float:
        systables = self.cluster.systables
        return systables.now if systables is not None else time.time()

    @property
    def burst_router(self):
        """Concurrency-scaling router (:class:`repro.server.burst.BurstRouter`);
        attached by the control plane's ``enable_concurrency_scaling``.
        None routes everything to the main cluster."""
        return self._burst_router

    @burst_router.setter
    def burst_router(self, router) -> None:
        # Routing is a stage of the engine session's statement path, so
        # the router lives there — on the sessions already open too.
        with self._lock:
            self._burst_router = router
            for handle in self._sessions.values():
                handle.session.burst_router = router

    # ---- session lifecycle ----------------------------------------------

    def open_session(
        self,
        user_name: str = "",
        queue: str = "default",
        executor: str = "compiled",
        **session_kwargs,
    ) -> ServerSession:
        """Open one client connection on *queue*.

        Extra keyword arguments go to :meth:`Cluster.connect`
        (``parallelism``, ``pool_mode``, ``memory_limit``).
        """
        with self._lock:
            if self._shutdown:
                raise ServerError("server is shut down")
            gate = self._gates.get(queue)
            if gate is None:
                raise ServerError(
                    f"no WLM queue {queue!r}; defined: {sorted(self._gates)}"
                )
        session = self.cluster.connect(
            executor=executor,
            user_name=user_name,
            queue=queue,
            **session_kwargs,
        )
        session.wlm_gate = gate
        handle = ServerSession(self, session, gate)
        with self._lock:
            session.burst_router = self._burst_router
            self._sessions[handle.session_id] = handle
        self._log_connection("connect", handle)
        return handle

    def _on_session_closed(self, handle: ServerSession) -> None:
        with self._lock:
            self._sessions.pop(handle.session_id, None)
            self._closed_latencies.extend(handle.latencies_us)
            self._closed_queries += handle.queries
            self._closed_errors += handle.errors
        self._log_connection("disconnect", handle)

    def _log_connection(self, event: str, handle: ServerSession) -> None:
        systables = self.cluster.systables
        if systables is not None:
            systables.record_connection(
                event,
                handle.session_id,
                handle.user_name,
                handle.queue_name,
                detail=f"queries={handle.queries} errors={handle.errors}",
            )

    # ---- convenience -----------------------------------------------------

    def execute(self, sql: str, **open_kwargs):
        """One-shot: open a session, run *sql*, close."""
        handle = self.open_session(**open_kwargs)
        try:
            return handle.execute(sql)
        finally:
            handle.close()

    # ---- drain / shutdown ------------------------------------------------

    def drain(self, timeout: float = 30.0) -> bool:
        """Wait until every session is idle with an empty queue."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            with self._lock:
                handles = list(self._sessions.values())
            if all(h.pending == 0 and h.state == "idle" for h in handles):
                return True
            time.sleep(0.005)
        return False

    def shutdown(self, timeout: float = 30.0) -> None:
        """Close every session (finishing queued work) and detach."""
        with self._lock:
            self._shutdown = True
            handles = list(self._sessions.values())
        for handle in handles:
            handle.close(timeout=timeout)
        router = self.burst_router
        if router is not None:
            router.shutdown()
        if self.cluster.server is self:
            self.cluster.server = None

    # ---- observability ---------------------------------------------------

    def session_rows(self) -> list[tuple]:
        """Rows for the ``stv_sessions`` system table."""
        with self._lock:
            handles = list(self._sessions.values())
        return [
            (
                h.session_id,
                h.user_name,
                h.queue_name,
                h.state,
                h.connected_at,
                h.queries,
                h.errors,
                h.pending,
            )
            for h in handles
        ]

    def burst_rows(self) -> list[tuple]:
        """Rows for the ``stv_burst_clusters`` system table."""
        router = self.burst_router
        if router is None:
            return []
        return router.rows()

    def metrics(self) -> ServerMetrics:
        """QPS and latency percentiles since the server started."""
        with self._lock:
            latencies = list(self._closed_latencies)
            queries = self._closed_queries
            errors = self._closed_errors
            handles = list(self._sessions.values())
        for h in handles:
            with h._lock:
                latencies.extend(h.latencies_us)
                queries += h.queries
                errors += h.errors
        elapsed = max(1e-9, time.perf_counter() - self._started_perf)
        return ServerMetrics(
            elapsed_s=elapsed,
            queries=queries,
            errors=errors,
            qps=queries / elapsed,
            p50_ms=(
                percentile(latencies, 50) / 1000.0 if latencies else 0.0
            ),
            p99_ms=(
                percentile(latencies, 99) / 1000.0 if latencies else 0.0
            ),
            admissions={
                name: gate.admissions for name, gate in self._gates.items()
            },
            bypasses={
                name: gate.bypasses for name, gate in self._gates.items()
            },
            sheds={name: gate.sheds for name, gate in self._gates.items()},
            timeouts={
                name: gate.timeouts for name, gate in self._gates.items()
            },
            burst=(
                self.burst_router.counters()
                if self.burst_router is not None
                else {}
            ),
        )
