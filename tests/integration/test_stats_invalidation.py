"""Statistics invalidation on out-of-session mutation paths.

Only ``Session._mark_stats_stale`` used to flip
``TableStatistics.stale``; restore adoption, scrub ``replace_block``
repair, and failover ``recover_slice`` all moved table versions
without touching statistics, so the CBO kept planning on NDV/min-max/
row counts measured against bytes that no longer existed. These tests
pin the fix: every out-of-session mutation path re-stales statistics,
and a restore re-anchors the row count on what was actually restored.
"""

import pytest

from repro import Cluster
from repro.backup import BackupManager
from repro.cloud.environment import CloudEnvironment
from repro.controlplane.service import RedshiftService
from repro.replication import ReplicationManager
from repro.restore import RestoreManager


def _table_stats_row(session, name):
    rows = session.execute(
        "SELECT table_name, row_count, total_bytes, stale "
        "FROM svl_table_stats"
    ).rows
    return next(r for r in rows if r[0] == name)


@pytest.fixture
def analyzed(env):
    """A backed-up cluster whose stats were made *wrong* on purpose.

    10 rows are inserted and ANALYZEd (fresh stats, row_count=10), then
    1000 more rows arrive through the ``distribute_rows`` bulk backdoor
    — which moves the table's version but never touches statistics, exactly
    the blind spot the restore fix must compensate for.
    """
    cluster = Cluster(node_count=2, slices_per_node=2, block_capacity=64)
    s = cluster.connect()
    s.execute("CREATE TABLE t (k int, v int) DISTKEY(k)")
    s.execute(
        "INSERT INTO t VALUES " + ",".join(f"({i},{i})" for i in range(10))
    )
    s.execute("ANALYZE t")
    info = cluster.catalog.table("t")
    assert info.statistics.stale is False
    assert info.statistics.row_count == 10

    xid = cluster.transactions.begin()
    cluster.distribute_rows(
        info, [(i, i) for i in range(10, 1010)], xid=xid
    )
    cluster.transactions.commit(xid)
    cluster.seal_table("t")
    # The backdoor left the fresh-but-wrong statistics in place.
    assert info.statistics.stale is False
    assert info.statistics.row_count == 10

    backups = BackupManager(cluster, env.s3, "bkt", env.clock)
    backups.snapshot("user", label="s1")
    return cluster, s, backups, env


class TestRestoreStatistics:
    def test_restore_marks_stats_stale_and_reanchors_row_count(
        self, analyzed
    ):
        """The foreground regression: pre-fix, the restored catalog
        carried the pickled ``stale=False, row_count=10`` verbatim, so
        the CBO sized a 1010-row table at 10 rows *and* trusted its
        column stats."""
        _, _, _, env = analyzed
        result = RestoreManager(env.s3, "bkt", env.clock).full_restore("s1")
        restored = result.cluster

        stats = restored.catalog.table("t").statistics
        assert stats.stale is True
        assert stats.row_count == 1010
        assert stats.total_bytes > 0

        # And through SQL, where the fleet tooling reads it.
        name, row_count, total_bytes, stale = _table_stats_row(
            restored.connect(), "t"
        )
        assert (row_count, stale) == (1010, 1)
        # The restored contents really are 1010 rows.
        assert restored.connect().execute(
            "SELECT COUNT(*) FROM t"
        ).rows == [(1010,)]

    def test_restore_excludes_dead_rows_from_row_count(self, env):
        cluster = Cluster(node_count=2, slices_per_node=2, block_capacity=64)
        s = cluster.connect()
        s.execute("CREATE TABLE d (k int)")
        s.execute(
            "INSERT INTO d VALUES " + ",".join(f"({i})" for i in range(100))
        )
        s.execute("DELETE FROM d WHERE k < 40")
        backups = BackupManager(cluster, env.s3, "bkt2", env.clock)
        backups.snapshot("user", label="sd")
        result = RestoreManager(env.s3, "bkt2", env.clock).full_restore("sd")
        assert result.cluster.catalog.table("d").statistics.row_count == 60

    def test_snapshot_captures_table_epochs(self, analyzed):
        cluster, _, backups, env = analyzed
        record = backups.snapshots[-1]
        assert record.table_versions == {"t": cluster.table_version("t")}
        result = RestoreManager(env.s3, "bkt", env.clock).full_restore("s1")
        assert result.table_versions == record.table_versions

    def test_restore_does_not_bump_live_epochs(self, analyzed):
        """Building a clone from snapshot images must not read as a
        mutation of the main cluster's tables — that would invalidate
        caches fleet-wide and permanently defeat burst freshness."""
        cluster, _, _, env = analyzed
        before = cluster.table_version("t")
        RestoreManager(env.s3, "bkt", env.clock).full_restore("s1")
        assert cluster.table_version("t") == before


def _sealed_block(cluster, table, column):
    return next(
        block
        for store in cluster.slice_stores
        if store.has_shard(table)
        for block in store.shard(table).chain(column).blocks
    )


class TestRepairStatistics:
    def _replicated(self, seed):
        env = CloudEnvironment(seed=seed)
        env.ec2.preconfigure("dw2.large", 8)
        service = RedshiftService(env)
        managed, _ = service.create_cluster(node_count=2, block_capacity=64)
        session = managed.connect()
        session.execute("CREATE TABLE t (k int, v int) DISTKEY(k)")
        session.execute(
            "INSERT INTO t VALUES "
            + ",".join(f"({i},{i})" for i in range(500))
        )
        session.execute("ANALYZE t")
        managed.replication.sync_from_cluster()
        assert managed.engine.catalog.table("t").statistics.stale is False
        return managed, session

    def test_scrub_repair_marks_stats_stale(self):
        managed, _ = self._replicated(seed=71)
        _sealed_block(managed.engine, "t", "v").corrupt()
        report = managed.replication.scrub(
            managed.backups.s3_block_reader if managed.backups else None
        )
        assert report.repaired
        assert managed.engine.catalog.table("t").statistics.stale is True

    def test_clean_scrub_leaves_stats_fresh(self):
        managed, _ = self._replicated(seed=72)
        report = managed.replication.scrub()
        assert not report.repaired
        assert managed.engine.catalog.table("t").statistics.stale is False

    def test_failover_recovery_marks_stats_stale(self):
        managed, session = self._replicated(seed=73)
        manager = managed.replication
        info = next(iter(manager.replicas.values()))
        manager.fail_slice(info.primary_slice)
        manager.recover_slice(info.primary_slice)
        assert managed.engine.catalog.table("t").statistics.stale is True
        # The data itself survived the rebuild.
        assert session.execute("SELECT COUNT(*) FROM t").rows == [(500,)]
