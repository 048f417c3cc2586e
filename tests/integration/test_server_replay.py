"""End-to-end server + replay drills.

Two acceptance scenarios from the concurrent-server work:

1. **Round trip** — a multi-session workload (>= 50 queries) generated
   through the :class:`ClusterServer` is captured from ``stl_query`` and
   replayed at original (1x) and accelerated (4x) pacing against fresh
   same-data clusters; every comparable result must be bit-identical
   and the latency comparison must be populated.

2. **Chaos drill** — the same captured workload replayed while a
   :class:`FaultPlan` keeps WORKER_CRASH and DISK_MEDIA windows open.
   With a :class:`RecoveryCoordinator` installed, recovery at the read must
   absorb every injected fault: zero result mismatches, zero new
   errors.
"""

from __future__ import annotations

import gc
import threading

import pytest

from repro import Cluster
from repro.faults import FaultInjector, FaultPlan
from repro.faults.recovery import RecoveryCoordinator
from repro.replay import capture_workload, diff_capture, replay
from repro.server import ClusterServer, ServerConfig

ROWS = 400
KEYS = 20


def prepared_cluster() -> Cluster:
    """A cluster holding the reference data set, with a clean stl_query."""
    cluster = Cluster(node_count=2, slices_per_node=2, block_capacity=64)
    session = cluster.connect()
    session.execute("CREATE TABLE sales (k int, v int)")
    session.execute(
        "INSERT INTO sales VALUES "
        + ",".join(f"({i % KEYS}, {i})" for i in range(ROWS))
    )
    cluster.systables.store.clear("stl_query")
    return cluster


def run_fleet(cluster: Cluster, sessions: int = 5, per_session: int = 12):
    """Drive a concurrent read fleet through the server; >= 50 queries."""
    server = ClusterServer(cluster, ServerConfig())
    threads = []

    def client(index: int) -> None:
        handle = server.open_session(user_name=f"client-{index}")
        for step in range(per_session):
            low = (index * 3 + step) % KEYS
            handle.execute(
                f"SELECT count(*), sum(v) FROM sales WHERE k >= {low}"
            )
        handle.close()

    for index in range(sessions):
        thread = threading.Thread(target=client, args=(index,))
        threads.append(thread)
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert all(not thread.is_alive() for thread in threads)
    server.shutdown()


@pytest.fixture(scope="module")
def captured():
    source = prepared_cluster()
    run_fleet(source)
    workload = capture_workload(source)
    assert len(workload) >= 50
    assert len(workload.sessions()) >= 5
    return workload


class TestRoundTrip:
    @pytest.mark.parametrize("speedup", [1.0, 4.0])
    def test_replay_is_bit_identical(self, captured, speedup):
        target = prepared_cluster()
        report = replay(captured, target, speedup=speedup)
        diff = diff_capture(captured, report)
        assert report.error_count == 0
        assert len(report.queries) == len(captured)
        assert diff.compared >= 50
        assert diff.mismatches == []
        assert diff.new_errors == []
        assert diff.missing == []
        assert diff.results_identical
        assert diff.latency is not None
        assert diff.latency.queries >= 50

    def test_accelerated_replay_compresses_wall_time(self, captured):
        # 4x pacing finishes in roughly a quarter of the trace span;
        # allow slack for scheduling, but it must beat the 1x span.
        target = prepared_cluster()
        # Collect first: a full collection over the heap earlier tests
        # left behind pauses 45-110 ms, and landing inside this ~20 ms
        # replay it would be timed as replay.
        gc.collect()
        report = replay(captured, target, speedup=4.0)
        assert report.wall_s < max(captured.duration_s, 0.05) * 1.5


class TestChaosReplay:
    def test_zero_mismatches_under_faults(self, captured):
        """WORKER_CRASH + DISK_MEDIA windows held open for the whole
        replay: recovery (serial morsel re-run, media retry) must keep
        every result bit-identical to the fault-free capture."""
        target = prepared_cluster()
        plan = (
            FaultPlan(seed=2015)
            .worker_crashes(at_s=0.0, rate=0.2)
            .disk_media_errors(at_s=0.0, until_s=float("inf"), rate=0.05)
        )
        injector = FaultInjector(plan)
        target.attach_faults(injector)
        RecoveryCoordinator(target, injector=injector)
        # Parallel executor with thread pools: worker crashes actually
        # fire (morsels are dispatched), and replay threads can share
        # the in-process cluster.
        report = replay(
            captured,
            target,
            speedup=8.0,
            executor="parallel",
            session_kwargs={"pool_mode": "thread"},
        )
        diff = diff_capture(captured, report)
        assert report.error_count == 0
        assert diff.mismatches == []
        assert diff.new_errors == []
        assert diff.missing == []
        # count/sum over ints are executor-independent, so the faulted
        # parallel run still compares bit-identical to the capture.
        assert diff.compared >= 50
        assert diff.results_identical

    def test_faults_actually_fired(self, captured):
        """The drill is vacuous if the windows never triggered."""
        target = prepared_cluster()
        plan = (
            FaultPlan(seed=7)
            .worker_crashes(at_s=0.0, rate=0.5)
            .disk_media_errors(at_s=0.0, until_s=float("inf"), rate=0.1)
        )
        injector = FaultInjector(plan)
        target.attach_faults(injector)
        RecoveryCoordinator(target, injector=injector)
        replay(
            captured,
            target,
            speedup=8.0,
            executor="parallel",
            session_kwargs={"pool_mode": "thread"},
        )
        kinds = {event.kind for event in injector.log}
        assert "worker_crash" in kinds or "disk_media" in kinds
