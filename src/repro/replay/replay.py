"""Workload replay: re-run a captured trace with its original shape.

Replay reconstructs the captured concurrency, not just the statements:
one server session per captured session, all started on a barrier, each
submitting its queries at the captured start offsets (divided by
*speedup*) so the original interleaving — dashboards overlapping ETL
overlapping ad-hoc — is reproduced against the target cluster. Within a
session, statements stay strictly ordered, as they were on the source.

Correctness checking is fingerprint-based: the session's statement
envelope hashes each replayed SELECT with the function that hashed the
captured one (:func:`repro.util.fingerprint.result_fingerprint`) and
carries the digest on the result, and the differ compares pairs where
both sides carry a fingerprint. Replaying on the same executor kind as
the capture makes the comparison bit-exact — executors are
deterministic; only *across* executor kinds may results legally differ
(e.g. float aggregation order).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import ReplayError, ReproError
from repro.replay.capture import CapturedQuery, CapturedWorkload
from repro.server import ClusterServer, ServerConfig
from repro.engine.wlm import QueueConfig
from repro.util.stats import percentile


@dataclass(frozen=True)
class ReplayedQuery:
    """One statement's outcome in a replay run."""

    query_id: int
    session_id: int
    text: str
    #: Seconds after replay start at which execution actually began.
    offset_s: float
    elapsed_us: int
    state: str
    error: str
    rows: int
    result_fingerprint: str


@dataclass
class ReplayReport:
    """Everything one replay run produced."""

    speedup: float
    wall_s: float
    queries: list[ReplayedQuery] = field(default_factory=list)
    #: The replay server's :class:`~repro.server.ServerMetrics` captured
    #: just before shutdown — per-queue sheds/timeouts and burst-routing
    #: counters for A/B replays (e.g. burst on vs. off).
    metrics: object = None

    @property
    def error_count(self) -> int:
        return sum(1 for q in self.queries if q.state == "error")

    def by_query_id(self) -> dict[int, ReplayedQuery]:
        return {q.query_id: q for q in self.queries}


@dataclass(frozen=True)
class LatencyComparison:
    """Per-query latency distribution, baseline vs replay."""

    queries: int
    baseline_p50_ms: float
    baseline_p99_ms: float
    replay_p50_ms: float
    replay_p99_ms: float

    @property
    def p50_ratio(self) -> float:
        if self.baseline_p50_ms == 0.0:
            return 0.0
        return self.replay_p50_ms / self.baseline_p50_ms


@dataclass
class ReplayDiff:
    """Result and latency comparison of a replay against its baseline."""

    #: Query pairs where both sides carried a fingerprint.
    compared: int = 0
    #: (query_id, baseline fingerprint, replay fingerprint) per mismatch.
    mismatches: list[tuple[int, str, str]] = field(default_factory=list)
    #: Queries that succeeded on the baseline but errored in the replay.
    new_errors: list[int] = field(default_factory=list)
    #: Baseline queries the replay never ran.
    missing: list[int] = field(default_factory=list)
    #: Pairs skipped because a side had no fingerprint (non-SELECT,
    #: oversized result, or an errored baseline row).
    uncomparable: int = 0
    latency: LatencyComparison | None = None

    @property
    def results_identical(self) -> bool:
        """Every comparable pair matched and nothing newly failed."""
        return not self.mismatches and not self.new_errors and not self.missing


def replay(
    workload: CapturedWorkload,
    cluster,
    speedup: float = 1.0,
    executor: str | None = None,
    config: ServerConfig | None = None,
    session_kwargs: dict | None = None,
    on_server=None,
) -> ReplayReport:
    """Re-run *workload* against *cluster* at ``speedup`` x pacing.

    Each captured session becomes one concurrent server session opened
    under the captured user and queue. ``executor`` forces one executor
    kind for every query; None replays each query on the executor that
    ran it originally (the bit-exact choice). ``session_kwargs`` go to
    :meth:`Cluster.connect` (e.g. ``pool_mode="thread"`` when forcing
    the parallel executor from replay threads). ``on_server`` is called
    with the freshly built :class:`ClusterServer` before any session
    opens — the hook point for attaching a burst router or other
    server-level configuration. Statement errors are recorded per
    query, never raised — a replay always completes.
    """
    if speedup <= 0:
        raise ReplayError(f"speedup must be positive, got {speedup}")
    by_session = workload.sessions()
    if not by_session:
        return ReplayReport(speedup=speedup, wall_s=0.0)
    if config is None:
        queue_names = sorted({q.queue for q in workload.queries}) or ["default"]
        config = ServerConfig(
            queues=tuple(
                QueueConfig(
                    name,
                    slots=5,
                    memory_fraction=1.0 / len(queue_names),
                )
                for name in queue_names
            )
        )
    server = ClusterServer(cluster, config)
    if on_server is not None:
        on_server(server)
    results: list[ReplayedQuery] = []
    results_lock = threading.Lock()
    barrier = threading.Barrier(len(by_session) + 1)

    def run_session(stream: list[CapturedQuery]) -> None:
        first = stream[0]
        handle = server.open_session(
            user_name=first.user_name,
            queue=first.queue,
            executor=executor or first.executor or "compiled",
            **(session_kwargs or {}),
        )
        try:
            barrier.wait()
            start = time.perf_counter()
            for captured in stream:
                target = captured.offset_s / speedup
                delay = target - (time.perf_counter() - start)
                if delay > 0:
                    time.sleep(delay)
                if executor is None and captured.executor:
                    try:
                        handle.session.set_executor(captured.executor)
                    except ValueError:
                        pass  # captured on an executor this build lacks
                began = time.perf_counter() - start
                t0 = time.perf_counter()
                state, error, rows, fingerprint = "success", "", 0, ""
                try:
                    result = handle.execute(captured.text)
                    # Read off the engine's one record of the statement.
                    rows, fingerprint = result.rowcount, result.result_fingerprint
                except ReproError as exc:
                    state, error = "error", str(exc)
                outcome = ReplayedQuery(
                    query_id=captured.query_id,
                    session_id=captured.session_id,
                    text=captured.text,
                    offset_s=began,
                    # The client's wall clock: queueing included.
                    elapsed_us=int((time.perf_counter() - t0) * 1_000_000),
                    state=state,
                    error=error,
                    rows=rows,
                    result_fingerprint=fingerprint,
                )
                with results_lock:
                    results.append(outcome)
        finally:
            handle.close()

    threads = [
        threading.Thread(
            target=run_session,
            args=(stream,),
            name=f"replay-session-{session_id}",
            daemon=True,
        )
        for session_id, stream in sorted(by_session.items())
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    t0 = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    metrics = server.metrics()
    server.shutdown()
    results.sort(key=lambda q: (q.offset_s, q.query_id))
    return ReplayReport(
        speedup=speedup, wall_s=wall, queries=results, metrics=metrics
    )


def _latency(
    pairs: list[tuple[int, int]]
) -> LatencyComparison | None:
    """Latency distributions from (baseline_us, replay_us) pairs."""
    if not pairs:
        return None
    baseline = [b / 1000.0 for b, _ in pairs]
    replayed = [r / 1000.0 for _, r in pairs]
    return LatencyComparison(
        queries=len(pairs),
        baseline_p50_ms=percentile(baseline, 50),
        baseline_p99_ms=percentile(baseline, 99),
        replay_p50_ms=percentile(replayed, 50),
        replay_p99_ms=percentile(replayed, 99),
    )


def diff_capture(
    workload: CapturedWorkload, report: ReplayReport
) -> ReplayDiff:
    """Compare a replay against the capture it re-ran."""
    replayed = report.by_query_id()
    diff = ReplayDiff()
    latency_pairs: list[tuple[int, int]] = []
    for captured in workload.queries:
        after = replayed.get(captured.query_id)
        if after is None:
            diff.missing.append(captured.query_id)
            continue
        if captured.state == "success" and after.state == "error":
            diff.new_errors.append(captured.query_id)
            continue
        if after.state == "success":
            latency_pairs.append((captured.elapsed_us, after.elapsed_us))
        if not captured.result_fingerprint or not after.result_fingerprint:
            diff.uncomparable += 1
            continue
        diff.compared += 1
        if captured.result_fingerprint != after.result_fingerprint:
            diff.mismatches.append(
                (
                    captured.query_id,
                    captured.result_fingerprint,
                    after.result_fingerprint,
                )
            )
    diff.latency = _latency(latency_pairs)
    return diff


def diff_reports(baseline: ReplayReport, candidate: ReplayReport) -> ReplayDiff:
    """Compare two replays of the same capture (e.g. two cluster configs)."""
    after_by_id = candidate.by_query_id()
    diff = ReplayDiff()
    latency_pairs: list[tuple[int, int]] = []
    for before in baseline.queries:
        after = after_by_id.get(before.query_id)
        if after is None:
            diff.missing.append(before.query_id)
            continue
        if before.state == "success" and after.state == "error":
            diff.new_errors.append(before.query_id)
            continue
        if after.state == "success":
            latency_pairs.append((before.elapsed_us, after.elapsed_us))
        if not before.result_fingerprint or not after.result_fingerprint:
            diff.uncomparable += 1
            continue
        diff.compared += 1
        if before.result_fingerprint != after.result_fingerprint:
            diff.mismatches.append(
                (
                    before.query_id,
                    before.result_fingerprint,
                    after.result_fingerprint,
                )
            )
    diff.latency = _latency(latency_pairs)
    return diff
