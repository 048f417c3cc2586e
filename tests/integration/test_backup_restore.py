"""Backup and restore: incrementality, aging, DR, streaming page faults."""

import pytest

from repro import Cluster
from repro.backup import BackupManager
from repro.errors import SnapshotNotFoundError
from repro.restore import RestoreManager


@pytest.fixture
def backed_up(env):
    cluster = Cluster(node_count=2, slices_per_node=2, block_capacity=64)
    s = cluster.connect()
    s.execute(
        "CREATE TABLE sales (id int, region varchar(8), amt float) "
        "DISTKEY(id) SORTKEY(id)"
    )
    cluster.register_inline_source(
        "inline://sales", [f"{i}|r{i % 3}|{i * 0.5}" for i in range(3000)]
    )
    s.execute("COPY sales FROM 'inline://sales'")
    backups = BackupManager(cluster, env.s3, "bkt", env.clock)
    return cluster, s, backups, env


class TestIncrementalBackup:
    def test_first_snapshot_uploads_everything(self, backed_up):
        _, _, backups, _ = backed_up
        record = backups.snapshot("user", label="s1")
        assert record.blocks_uploaded == record.total_blocks > 0

    def test_second_snapshot_uploads_nothing_when_unchanged(self, backed_up):
        _, _, backups, _ = backed_up
        backups.snapshot("user", label="s1")
        record = backups.snapshot("user", label="s2")
        assert record.blocks_uploaded == 0

    def test_incremental_after_append(self, backed_up):
        cluster, s, backups, _ = backed_up
        first = backups.snapshot("user", label="s1")
        cluster.register_inline_source(
            "inline://more", [f"{i}|x|{i}" for i in range(9000, 9200)]
        )
        s.execute("COPY sales FROM 'inline://more'")
        second = backups.snapshot("user", label="s2")
        assert 0 < second.blocks_uploaded < first.blocks_uploaded

    def test_backup_duration_tracks_busiest_node(self, backed_up):
        _, _, backups, _ = backed_up
        record = backups.snapshot("user", label="s1")
        # Parallel across nodes: far less than serial total transfer.
        serial = backups._s3.transfer_time(record.bytes_uploaded)
        assert record.duration_s < serial

    def test_system_snapshots_age_out(self, backed_up):
        _, _, backups, _ = backed_up
        for i in range(backups.SYSTEM_RETENTION + 3):
            backups.snapshot("system")
        kinds = [s.kind for s in backups.snapshots]
        assert len(kinds) == backups.SYSTEM_RETENTION

    def test_user_snapshots_never_age_out(self, backed_up):
        _, _, backups, _ = backed_up
        backups.snapshot("user", label="keep-me")
        for _ in range(backups.SYSTEM_RETENTION + 2):
            backups.snapshot("system")
        assert any(s.snapshot_id == "keep-me" for s in backups.snapshots)

    def test_delete_snapshot_collects_blocks(self, backed_up):
        _, _, backups, env = backed_up
        backups.snapshot("user", label="s1")
        before = len(env.s3.list_objects("bkt", "blocks/"))
        backups.delete_snapshot("s1")
        after = len(env.s3.list_objects("bkt", "blocks/"))
        assert after < before
        with pytest.raises(SnapshotNotFoundError):
            backups.find("s1")


class TestFullRestore:
    def test_roundtrip(self, backed_up):
        _, s, backups, env = backed_up
        backups.snapshot("user", label="s1")
        restore = RestoreManager(env.s3, "bkt", env.clock)
        result = restore.full_restore("s1")
        s2 = result.cluster.connect()
        assert s2.execute("SELECT count(*), sum(id) FROM sales").rows == \
            s.execute("SELECT count(*), sum(id) FROM sales").rows

    def test_restore_excludes_rows_deleted_before_snapshot(self, backed_up):
        cluster, s, backups, env = backed_up
        s.execute("DELETE FROM sales WHERE id < 1000")
        backups.snapshot("user", label="s1")
        result = RestoreManager(env.s3, "bkt", env.clock).full_restore("s1")
        s2 = result.cluster.connect()
        assert s2.execute("SELECT count(*) FROM sales").scalar() == 2000

    def test_restored_cluster_is_writable(self, backed_up):
        _, _, backups, env = backed_up
        backups.snapshot("user", label="s1")
        result = RestoreManager(env.s3, "bkt", env.clock).full_restore("s1")
        s2 = result.cluster.connect()
        s2.execute("INSERT INTO sales VALUES (99999, 'new', 1.0)")
        assert s2.execute(
            "SELECT count(*) FROM sales WHERE id = 99999"
        ).scalar() == 1

    def test_missing_snapshot(self, backed_up):
        _, _, _, env = backed_up
        with pytest.raises(SnapshotNotFoundError):
            RestoreManager(env.s3, "bkt", env.clock).full_restore("ghost")


class TestStreamingRestore:
    def test_first_query_before_full_download(self, backed_up):
        _, _, backups, env = backed_up
        backups.snapshot("user", label="s1")
        manager = RestoreManager(env.s3, "bkt", env.clock)
        result = manager.streaming_restore("s1")
        assert result.resident_fraction == 0.0  # nothing local yet
        s2 = result.cluster.connect()
        r = s2.execute("SELECT count(*) FROM sales WHERE id BETWEEN 0 AND 50")
        assert r.scalar() == 51
        # The working-set query faulted in only what it touched.
        assert 0 < result.resident_fraction < 0.6

    def test_zone_maps_prune_before_blocks_are_local(self, backed_up):
        _, _, backups, env = backed_up
        backups.snapshot("user", label="s1")
        result = RestoreManager(env.s3, "bkt", env.clock).streaming_restore("s1")
        s2 = result.cluster.connect()
        r = s2.execute("SELECT count(*) FROM sales WHERE id >= 2990")
        assert r.scalar() == 10
        assert r.stats.scan.blocks_skipped > 0
        # Skipped blocks must NOT have been fetched.
        assert result.faulted_blocks < result.total_blocks / 2

    @pytest.mark.parametrize(
        "executor", ["volcano", "compiled", "vectorized", "parallel"]
    )
    def test_every_executor_reads_lazy_blocks(self, backed_up, executor):
        _, _, backups, env = backed_up
        backups.snapshot("user", label="s1")
        result = RestoreManager(env.s3, "bkt", env.clock).streaming_restore("s1")
        s2 = result.cluster.connect(executor=executor)
        r = s2.execute("SELECT sum(id) FROM sales WHERE id >= 2990")
        assert r.scalar() == sum(range(2990, 3000))
        # (Forked parallel workers fault blocks in on their side.)
        assert result.faulted_blocks < result.total_blocks / 2

    def test_background_fetch_completes(self, backed_up):
        _, _, backups, env = backed_up
        backups.snapshot("user", label="s1")
        manager = RestoreManager(env.s3, "bkt", env.clock)
        result = manager.streaming_restore("s1")
        manager.complete_background_fetch(result)
        assert result.resident_fraction == 1.0
        s2 = result.cluster.connect()
        assert s2.execute("SELECT count(*) FROM sales").scalar() == 3000

    def test_streaming_opens_faster_than_full(self, backed_up):
        _, _, backups, env = backed_up
        backups.snapshot("user", label="s1")
        manager = RestoreManager(env.s3, "bkt", env.clock)
        streaming = manager.streaming_restore("s1")
        full = manager.full_restore("s1")
        assert streaming.time_to_first_query_s <= full.time_to_first_query_s


class TestDisasterRecovery:
    def test_objects_replicated_to_remote_region(self, backed_up):
        _, _, backups, env = backed_up
        remote = env.add_remote_region("us-west-2")
        backups.enable_disaster_recovery(remote.s3)
        backups.snapshot("user", label="s1")
        local = set(env.s3.list_objects("bkt"))
        mirrored = set(remote.s3.list_objects("bkt"))
        assert local <= mirrored

    def test_restore_in_remote_region(self, backed_up):
        _, s, backups, env = backed_up
        remote = env.add_remote_region("us-west-2")
        backups.enable_disaster_recovery(remote.s3)
        backups.snapshot("user", label="s1")
        env.s3.start_outage()  # the home region burns down
        result = RestoreManager(remote.s3, "bkt", env.clock).streaming_restore("s1")
        s2 = result.cluster.connect()
        assert s2.execute("SELECT count(*) FROM sales").scalar() == 3000


class TestEncryptedBackup:
    def test_backup_restore_with_key_hierarchy(self, backed_up, env):
        cluster, s, _, _ = backed_up
        from repro.cloud import SimKMS
        from repro.security import ClusterKeyHierarchy

        kms = env.kms
        master = kms.create_master_key("m")
        hierarchy = ClusterKeyHierarchy(kms, master, "c1")
        backups = BackupManager(
            cluster, env.s3, "enc-bkt", env.clock, encryption=hierarchy
        )
        backups.snapshot("user", label="s1")
        # Objects at rest differ from the plaintext serialization.
        some_key = env.s3.list_objects("enc-bkt", "blocks/")[0]
        stored = env.s3.get_object("enc-bkt", some_key).data
        assert b"blk-" not in stored  # block ids appear in plaintext pickles
        result = RestoreManager(
            env.s3, "enc-bkt", env.clock, encryption=hierarchy
        ).full_restore("s1")
        s2 = result.cluster.connect()
        assert s2.execute("SELECT count(*) FROM sales").scalar() == 3000
