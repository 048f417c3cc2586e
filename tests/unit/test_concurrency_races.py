"""Regression tests for the shared-structure races the server exposed.

Each test here stresses one structure the way concurrent server
sessions do — many threads hammering the same cache, store, or manager
— and pins the behavior the locking/single-flight work guarantees.
Before that work these failed with lost updates, "deque mutated during
iteration" / "set changed size during iteration", or duplicate
executions of the same cached query.
"""

from __future__ import annotations

import hashlib
import sys
import threading
import uuid

import pytest

from repro import Cluster
from repro.engine.resultcache import QueryResultCache
from repro.engine.transactions import BOOTSTRAP_XID, TransactionManager
from repro.exec import segmentcache
from repro.exec.batch import KERNEL_CACHE
from repro.server import ClusterServer
from repro.systables.store import SystemEventStore

THREADS = 16


def _unchanging(table: str) -> int:
    """A table version lookup for caches no table write ever reaches."""
    return 0


def run_all(workers: list[threading.Thread]) -> None:
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=30)
    assert all(not worker.is_alive() for worker in workers)


class TestResultCacheSingleFlight:
    def test_one_leader_many_waiters(self):
        """Misses behind an in-flight execution wait and then hit."""
        import time

        cache = QueryResultCache(_unchanging)
        entry, leads = cache.lead_or_wait("k")
        assert entry is None and leads  # this thread is the leader
        served: list[tuple] = []
        lock = threading.Lock()

        def waiter() -> None:
            got, leads_too = cache.lead_or_wait("k")
            assert not leads_too
            with lock:
                served.append(got.rows)

        threads = [threading.Thread(target=waiter) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)  # let the waiters block on the flight
        cache.store(
            "k", "SELECT 1", "compiled", ["c"], [(1,)],
            ("t",), (0,),
        )
        cache.finish_flight("k")
        for thread in threads:
            thread.join(timeout=30)
        assert all(not thread.is_alive() for thread in threads)
        assert served == [((1,),)] * THREADS
        assert cache.stores == 1
        assert cache.flight_waits >= 1  # at least the blocked waiters

    def test_failed_leader_wakes_waiters_to_reelect(self):
        """A leader that stores nothing hands the flight to a waiter."""
        cache = QueryResultCache(_unchanging)
        leaders: list[int] = []
        lock = threading.Lock()
        barrier = threading.Barrier(4)

        def query() -> None:
            barrier.wait()
            entry, leads = cache.lead_or_wait("k")
            if entry is not None:
                return
            try:
                if leads:
                    with lock:
                        leaders.append(1)
                    # First leader fails (stores nothing); a re-elected
                    # waiter stores on its turn.
                    if len(leaders) > 1:
                        cache.store(
                            "k", "SELECT 1", "compiled", ["c"], [(1,)],
                            ("t",), (0,),
                        )
            finally:
                if leads:
                    cache.finish_flight("k")

        run_all([threading.Thread(target=query) for _ in range(4)])
        assert len(leaders) >= 2  # the flight was re-led after the failure
        assert cache.lookup("k") is not None

    def test_sessions_coalesce_on_shared_cluster(self):
        """End to end: concurrent identical SELECTs execute once."""
        cluster = Cluster(node_count=1, slices_per_node=2, block_capacity=64)
        setup = cluster.connect()
        setup.execute("CREATE TABLE t (k int, v int)")
        setup.execute(
            "INSERT INTO t VALUES "
            + ",".join(f"({i % 10}, {i})" for i in range(100))
        )
        cache = cluster.result_cache
        base_stores = cache.stores
        barrier = threading.Barrier(8)
        answers: list[int] = []
        lock = threading.Lock()

        def client() -> None:
            session = cluster.connect()
            barrier.wait()
            value = session.execute("SELECT sum(v) FROM t").scalar()
            with lock:
                answers.append(value)

        run_all([threading.Thread(target=client) for _ in range(8)])
        assert answers == [4950] * 8
        # One execution stored; everyone else hit or waited on its flight.
        assert cache.stores == base_stores + 1


class TestCodeCacheKeepFirst:
    @pytest.fixture(params=["pipeline", "kernel"])
    def cache(self, request):
        if request.param == "pipeline":
            return Cluster(node_count=1, slices_per_node=1).segment_cache
        return KERNEL_CACHE  # process-wide: the test reads counter deltas

    def test_concurrent_misses_keep_incumbent(self, cache, monkeypatch):
        """Sessions missing on one source at once all compile it; the
        first store wins, every racer gets the incumbent's code object,
        and a hit the incumbent served before the others stored is kept
        instead of reset."""
        source = f"def _kernel(batch):\n    return {uuid.uuid4().hex!r}\n"
        first = "racer-0"
        all_missed = threading.Barrier(THREADS)
        incumbent_hit = threading.Event()

        def racing_compile(*args):
            all_missed.wait(timeout=30)
            if threading.current_thread().name != first:
                incumbent_hit.wait(timeout=30)
            return compile(*args)

        monkeypatch.setattr(segmentcache, "compile", racing_compile, raising=False)
        before = (cache.misses, cache.hits, cache.stores, cache.duplicate_stores)
        got: list[tuple] = []

        def racer() -> None:
            got.append(cache.compile(source))
            if threading.current_thread().name == first:
                got.append(cache.compile(source))
                incumbent_hit.set()

        run_all(
            [
                threading.Thread(target=racer, name=f"racer-{i}")
                for i in range(THREADS)
            ]
        )
        after = (cache.misses, cache.hits, cache.stores, cache.duplicate_stores)
        assert [a - b for a, b in zip(after, before)] == [THREADS, 1, 1, THREADS - 1]
        assert len({id(code) for code, _ in got}) == 1
        assert sorted(hit for _, hit in got) == [False] * THREADS + [True]
        signature = hashlib.sha256(source.encode()).hexdigest()
        assert [h for s, _, h in cache.rows() if s == signature] == [1]


class TestSystemEventStoreUnderConcurrency:
    def test_readers_never_see_mutated_deque(self):
        """rows() snapshots under the lock, so concurrent appends can't
        raise "deque mutated during iteration"."""
        store = SystemEventStore(max_rows_per_table=500)
        stop = threading.Event()
        errors: list[Exception] = []

        def writer() -> None:
            i = 0
            while not stop.is_set():
                store.append("stl_query", (i, "SELECT 1"))
                i += 1

        def reader() -> None:
            try:
                for _ in range(2000):
                    for row in store.rows("stl_query"):
                        assert len(row) == 2
            except Exception as exc:  # noqa: BLE001 — collected for assert
                errors.append(exc)
            finally:
                stop.set()

        writers = [threading.Thread(target=writer) for _ in range(4)]
        readers = [threading.Thread(target=reader) for _ in range(4)]
        run_all(writers + readers)
        assert errors == []

    def test_concurrent_appends_all_land(self):
        store = SystemEventStore(max_rows_per_table=100_000)
        barrier = threading.Barrier(THREADS)

        def writer(tag: int) -> None:
            barrier.wait()
            for i in range(200):
                store.append("stl_scan", (tag, i))

        run_all(
            [
                threading.Thread(target=writer, args=(t,))
                for t in range(THREADS)
            ]
        )
        assert store.row_count("stl_scan") == THREADS * 200


class TestStatementSnapshot:
    def test_sees_commits_after_transaction_start(self):
        """statement_snapshot refreshes the committed set, closing the
        begin-to-version-capture gap that let the result cache store
        stale-but-valid entries (a commit invisible to the frozen
        transaction-start snapshot but already counted in the captured
        table versions)."""
        manager = TransactionManager()
        reader = manager.begin()
        writer = manager.begin()
        manager.commit(writer)
        frozen = manager.snapshot(reader)
        assert not frozen.can_see(writer, None)  # repeatable read
        fresh = manager.statement_snapshot(reader)
        assert fresh.can_see(writer, None)
        assert fresh.xid == reader


class TestTransactionManagerUnderConcurrency:
    def test_concurrent_begin_commit_is_consistent(self):
        """Interleaved begins/commits while other threads take snapshots
        and ask commit state: no "set changed size during iteration",
        every commit lands exactly once."""
        manager = TransactionManager()
        barrier = threading.Barrier(THREADS + 2)
        committed: list[int] = []
        lock = threading.Lock()
        errors: list[Exception] = []
        done = threading.Event()

        def worker() -> None:
            barrier.wait()
            for _ in range(50):
                xid = manager.begin()
                manager.snapshot(xid)
                manager.commit(xid)
                with lock:
                    committed.append(xid)

        def snapshotter() -> None:
            barrier.wait()
            try:
                while not done.is_set():
                    assert manager.is_committed(BOOTSTRAP_XID)
                    latest = manager.snapshot_latest()
                    assert latest.can_see(BOOTSTRAP_XID, None)
            except Exception as exc:  # noqa: BLE001 — collected for assert
                errors.append(exc)

        workers = [threading.Thread(target=worker) for _ in range(THREADS)]
        snapshotters = [
            threading.Thread(target=snapshotter) for _ in range(2)
        ]
        for thread in workers + snapshotters:
            thread.start()
        for thread in workers:
            thread.join(timeout=30)
        done.set()
        for thread in snapshotters:
            thread.join(timeout=30)
        assert errors == []
        assert len(committed) == len(set(committed)) == THREADS * 50
        assert all(manager.is_committed(xid) for xid in committed)
        assert manager.active_count == 0


class TestStatementTemplates:
    def test_sessions_sharing_a_template_keep_their_own_constants(self):
        """Four server sessions run one template 300 times each, each
        with its own constants: every answer matches its own text, so a
        template hit hands each session its own copy of the AST."""
        cluster = Cluster(node_count=1, slices_per_node=2, block_capacity=64)
        setup = cluster.connect()
        setup.execute("CREATE TABLE t (k int)")
        setup.execute("INSERT INTO t VALUES " + ",".join(f"({i})" for i in range(100)))
        server = ClusterServer(cluster)
        handles = [server.open_session() for _ in range(4)]
        barrier = threading.Barrier(len(handles))
        wrong: list[tuple] = []

        def client(n: int) -> None:
            barrier.wait()
            for i in range(300):
                low = (n * 17 + i) % 60
                high = low + n + 1 + i % 30
                tag = n * 1000 + i
                sql = (
                    f"SELECT count(*), min(k), {tag} FROM t "
                    f"WHERE k >= {low} AND k < {high}"
                )
                got = handles[n].execute(sql).rows
                if got != [(high - low, low, tag)]:
                    wrong.append((sql, got))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the parse
        try:
            run_all([threading.Thread(target=client, args=(n,)) for n in range(4)])
        finally:
            sys.setswitchinterval(interval)
            server.shutdown()
            cluster.close()
        assert wrong == []
