"""Recovery at the read: a fault is repaired where it was met.

A media error re-charges one block and a corrupt block is repaired and
read again; the statement itself runs once. So a recovered statement
must be indistinguishable from a fault-free one — rows, ``ScanStats``
and every disk's read accounting — except for ``stats.recoveries``
and the fault log. The leader's own reads (DELETE, ANALYZE) face the
same faults and the same recovery, and so does spill IO.
"""

import pytest

from repro import Cluster
from repro.errors import BlockCorruptionError, DiskMediaError
from repro.faults import FaultInjector, FaultPlan, RecoveryCoordinator

ROWS = 800
SQL = "SELECT count(*), sum(v), min(k), max(v) FROM t WHERE v >= 10"
EXECUTORS = ("volcano", "compiled", "vectorized", "parallel")


def _loaded(executor="volcano"):
    cluster = Cluster(node_count=2, slices_per_node=2, block_capacity=64)
    session = cluster.connect(
        executor=executor, parallelism=2, pool_mode="thread"
    )
    session.execute("SET enable_result_cache = off")
    session.execute("CREATE TABLE t (k int, v int) DISTKEY(k)")
    session.execute(
        "INSERT INTO t VALUES "
        + ",".join(f"({i}, {i * 3})" for i in range(ROWS))
    )
    cluster.seal_table("t")
    return cluster, session


def _media_plan(cluster, rate, coordinator=True):
    """Attach a DISK_MEDIA window on every disk after the load; with
    *coordinator* a RecoveryCoordinator (no mirror) answers the faults."""
    injector = FaultInjector(
        FaultPlan(seed=27).disk_media_errors(0.0, float("inf"), rate=rate)
    )
    cluster.attach_faults(injector)
    if coordinator:
        RecoveryCoordinator(cluster, injector=injector)
    return injector


def _cold(cluster, session, sql):
    """Run *sql* on a cold decode cache, so every block it reads is
    charged; returns the result and each disk's read delta."""
    disks = [store.disk.stats for store in cluster.slice_stores]
    before = [(d.bytes_read, d.read_ops) for d in disks]
    cluster.block_cache.clear()
    result = session.execute(sql)
    reads = [
        (d.bytes_read - b, d.read_ops - o) for d, (b, o) in zip(disks, before)
    ]
    return result, reads


@pytest.mark.parametrize("executor", EXECUTORS)
def test_media_faults_recover_per_block_with_clean_accounting(executor):
    cluster, session = _loaded(executor)
    clean, clean_reads = _cold(cluster, session, SQL)
    injector = _media_plan(cluster, rate=0.3)
    result, reads = _cold(cluster, session, SQL)
    kinds = [event.kind for event in injector.log]
    assert result.rows == clean.rows
    assert result.stats.recoveries > 0
    assert result.stats.recoveries == kinds.count("recovery:media_retry")
    assert kinds.count("disk_media_window") == result.stats.recoveries
    assert result.stats.scan == clean.stats.scan
    assert reads == clean_reads
    assert sum(n for _, n in reads) > 0
    cluster.close()


def test_recoveries_land_in_stl_query():
    cluster, session = _loaded()
    _media_plan(cluster, rate=0.3)
    result, _ = _cold(cluster, session, SQL)
    assert result.stats.recoveries > 0
    recorded = session.execute("SELECT max(recoveries) FROM stl_query")
    assert recorded.scalar() == result.stats.recoveries


def test_a_refused_repair_surfaces_the_fault_unchanged():
    cluster, session = _loaded()
    _media_plan(cluster, rate=1.0, coordinator=False)
    calls = []
    cluster.recovery_handler = lambda exc: calls.append(exc) or False
    with pytest.raises(DiskMediaError) as info:
        _cold(cluster, session, SQL)
    assert calls == [info.value]


@pytest.mark.parametrize("executor", EXECUTORS)
def test_a_corrupt_block_is_repaired_and_read_again(executor):
    """The handler's repair swaps the block object in its chain; the
    scan must re-fetch it rather than re-read the corrupt one."""
    cluster, session = _loaded(executor)
    clean, clean_reads = _cold(cluster, session, SQL)
    chain = cluster.slice_stores[1].shard("t").chain("v")
    victim = chain.blocks[1]
    image = victim.serialize()
    victim.corrupt()
    seen = []

    def repair(exc):
        from repro.storage.block import Block

        seen.append(exc)
        return chain.replace_block(victim.block_id, Block.deserialize(image))

    cluster.recovery_handler = repair
    result, reads = _cold(cluster, session, SQL)
    assert [type(exc) for exc in seen] == [BlockCorruptionError]
    assert result.stats.recoveries == 1
    assert result.rows == clean.rows
    assert result.stats.scan == clean.stats.scan
    assert reads == clean_reads
    cluster.close()


class TestLeaderReads:
    """DML and ANALYZE read through the same recovered charge."""

    def test_delete_and_analyze_recover_and_log_fault_events(self):
        cluster, session = _loaded()
        _media_plan(cluster, rate=0.3)
        cluster.block_cache.clear()
        assert session.execute("DELETE FROM t WHERE v < 300").rowcount == 100
        cluster.block_cache.clear()
        session.execute("ANALYZE t")
        statistics = cluster.catalog.table("t").statistics
        assert statistics.row_count == ROWS - 100
        assert not statistics.stale
        kinds = [
            kind
            for (kind,) in session.execute(
                "SELECT kind FROM stl_fault_events"
            ).rows
        ]
        assert "disk_media_window" in kinds
        assert "recovery:media_retry" in kinds

    @pytest.mark.parametrize("sql", ("DELETE FROM t WHERE v < 300", "ANALYZE t"))
    def test_without_a_coordinator_they_raise(self, sql):
        cluster, session = _loaded()
        _media_plan(cluster, rate=1.0, coordinator=False)
        cluster.block_cache.clear()
        with pytest.raises(DiskMediaError):
            session.execute(sql)


class TestSpillRecovery:
    """Spill IO is one more recoverable unit: a media error on a spill
    read or write is repaired through the recovery handler like one on a
    block charge, and surfaces at once when no handler is installed."""

    SQL = "SELECT k % 97, count(*), sum(v) FROM t GROUP BY k % 97 ORDER BY 2, 1"

    def _governed(self, executor):
        cluster, _ = _loaded()
        session = cluster.connect(
            executor=executor, parallelism=2, pool_mode="thread",
            memory_limit=512,
        )
        session.execute("SET enable_result_cache = off")
        session.execute(self.SQL)  # leaves every block decoded and resident
        return cluster, session

    def _run(self, cluster, session):
        """Run the warm governed query: the only disk IO left is spill
        IO. Returns the result and each disk's IO delta."""
        disks = [store.disk.stats for store in cluster.slice_stores]
        fields = ("bytes_written", "write_ops", "bytes_read", "read_ops")
        before = [[getattr(d, f) for f in fields] for d in disks]
        result = session.execute(self.SQL)
        return result, [
            [getattr(d, f) - b for f, b in zip(fields, was)]
            for d, was in zip(disks, before)
        ]

    def _media_window(self, cluster, rate, coordinator=True):
        spill_disk = cluster.slice_stores[0].disk.disk_id
        injector = FaultInjector(
            FaultPlan(seed=27).disk_media_errors(
                0.0, float("inf"), rate=rate, disk_id=spill_disk
            )
        )
        cluster.attach_faults(injector)
        if coordinator:
            RecoveryCoordinator(cluster, injector=injector)
        return injector

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_spill_faults_recover_with_clean_accounting(self, executor):
        cluster, session = self._governed(executor)
        clean, clean_io = self._run(cluster, session)
        assert clean.stats.spilled_bytes > 0
        assert clean_io[0][0] > 0 and clean_io[0][2] > 0  # spill disk
        injector = self._media_window(cluster, rate=0.3)
        result, io = self._run(cluster, session)
        kinds = [event.kind for event in injector.log]
        recorded = session.execute("SELECT max(recoveries) FROM stl_query")
        assert result.rows == clean.rows
        assert result.stats.recoveries > 0
        assert kinds.count("recovery:media_retry") == recorded.scalar()
        assert recorded.scalar() == result.stats.recoveries
        assert kinds.count("disk_media_window") == result.stats.recoveries
        assert "recovery:spill_retry" not in kinds
        assert io == clean_io
        cluster.close()

    def test_without_a_handler_the_first_fault_surfaces(self):
        cluster, session = self._governed("vectorized")
        injector = self._media_window(cluster, rate=1.0, coordinator=False)
        with pytest.raises(DiskMediaError):
            session.execute(self.SQL)
        assert [event.kind for event in injector.log] == ["disk_media_window"]
        cluster.close()
