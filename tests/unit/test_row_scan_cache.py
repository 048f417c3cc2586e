"""The row executors (volcano, compiled) read through the decode cache.

A warm row scan serves every sealed block from the cluster's one
``BlockDecodeCache``: hits skip the disk charge and ``bytes_read`` while
block, chain and value counts stay the cold run's. Visibility still comes
from the shard's xid lists, and every path that changes a block's bytes
(bit-flip, VACUUM, scrub repair, DROP) evicts it, so a warm read never
serves a stale vector.
"""

import pytest

from repro import Cluster
from repro.compression import codec_by_name
from repro.datatypes import INTEGER
from repro.errors import BlockCorruptionError, DiskMediaError
from repro.faults import FaultInjector, FaultPlan
from repro.storage import Block

ROW_EXECUTORS = ("compiled", "volcano")
SQL = "SELECT a, b FROM t WHERE b >= 20"
COUNTS = ("blocks_total", "blocks_read", "blocks_skipped", "chains_read", "values_read")


@pytest.fixture
def cluster():
    cluster = Cluster(node_count=1, slices_per_node=2, block_capacity=8)
    s = cluster.connect()
    s.execute("CREATE TABLE t (a int, b int) DISTSTYLE EVEN")
    s.execute("INSERT INTO t VALUES " + ",".join(f"({i % 5}, {i})" for i in range(64)))
    cluster.block_cache.clear()
    return cluster


def _session(cluster, executor):
    s = cluster.connect(executor=executor)
    # Result cache off: every repeat must reach the scan.
    s.execute("SET enable_result_cache = off")
    return s


def _rows(keys):
    return sorted((i % 5, i) for i in keys)


def _counts(scan):
    return {name: getattr(scan, name) for name in COUNTS}


def _blocks(cluster, column):
    return [
        block
        for store in cluster.slice_stores
        for block in store.shard("t").chain(column).blocks
    ]


@pytest.mark.parametrize("executor", ROW_EXECUTORS)
class TestWarmRowScan:
    def test_second_scan_is_all_hits(self, cluster, executor):
        s = _session(cluster, executor)
        cold = s.execute(SQL)
        warm = s.execute(SQL)
        assert warm.stats.executor == executor
        assert cold.stats.scan.cache_misses == cold.stats.scan.chains_read > 0
        assert warm.stats.scan.cache_hits == warm.stats.scan.chains_read
        assert warm.stats.scan.cache_misses == 0
        assert warm.stats.scan.bytes_read == 0 < cold.stats.scan.bytes_read
        assert warm.stats.scan.blocks_skipped > 0
        assert _counts(warm.stats.scan) == _counts(cold.stats.scan)
        vectorized = _session(cluster, "vectorized").execute(SQL)
        assert sorted(warm.rows) == sorted(cold.rows) == sorted(vectorized.rows)

    def test_delete_after_warm_read_hides_rows(self, cluster, executor):
        s = _session(cluster, executor)
        s.execute(SQL)
        s.execute("DELETE FROM t WHERE b < 40")
        after = s.execute(SQL)
        # Visibility comes from the xid lists, not from the cached vectors.
        assert sorted(after.rows) == _rows(range(40, 64))
        assert after.stats.scan.cache_hits == after.stats.scan.chains_read > 0

    def test_insert_sealing_new_blocks_is_read(self, cluster, executor):
        s = _session(cluster, executor)
        s.execute("SELECT a, b FROM t")
        warm = s.execute("SELECT a, b FROM t").stats.scan
        s.execute(
            "INSERT INTO t VALUES "
            + ",".join(f"({i % 5}, {i})" for i in range(64, 96))
        )
        after = s.execute("SELECT a, b FROM t")
        assert sorted(after.rows) == _rows(range(96))
        # Old blocks hit, the newly sealed ones miss.
        assert after.stats.scan.cache_hits == warm.chains_read
        assert after.stats.scan.cache_misses == (
            after.stats.scan.chains_read - warm.chains_read
        ) > 0

    def test_corruption_after_warm_read_is_never_masked(self, cluster, executor):
        s = _session(cluster, executor)
        s.execute(SQL)
        _blocks(cluster, "b")[-1].corrupt()
        with pytest.raises(BlockCorruptionError):
            s.execute(SQL)
        # Exactly what a cold read does.
        cluster.block_cache.clear()
        with pytest.raises(BlockCorruptionError):
            s.execute(SQL)

    def test_vacuum_after_warm_read_reads_fresh_blocks(self, cluster, executor):
        s = _session(cluster, executor)
        s.execute(SQL)
        s.execute("DELETE FROM t WHERE b % 2 = 0")
        s.execute("VACUUM t")
        after = s.execute(SQL)
        assert sorted(after.rows) == _rows(range(21, 64, 2))
        assert after.stats.scan.cache_hits == 0
        assert after.stats.scan.cache_misses == after.stats.scan.chains_read

    def test_scrub_replace_after_warm_read_serves_new_image(self, cluster, executor):
        s = _session(cluster, executor)
        s.execute("SELECT a, b FROM t")
        store = cluster.slice_stores[0]
        chain = store.shard("t").chain("a")
        old = chain.blocks[0]
        repaired = Block.build(
            [7] * old.count, INTEGER, codec_by_name("raw"), block_id=old.block_id
        )
        assert chain.replace_block(old.block_id, repaired)
        after = s.execute("SELECT a, b FROM t")
        sevens = [row for row in after.rows if row[0] == 7]
        assert len(sevens) == old.count
        assert after.stats.scan.cache_misses == 1


def test_disk_media_plan_fires_on_a_cold_compiled_read(cluster):
    s = _session(cluster, "compiled")
    s.execute(SQL)  # warm: hits skip the disk entirely
    injector = FaultInjector(
        FaultPlan(seed=3).disk_media_errors(0.0, float("inf"), rate=1.0)
    )
    cluster.attach_faults(injector)
    cluster.block_cache.clear()
    with pytest.raises(DiskMediaError):
        s.execute(SQL)
    assert [event.kind for event in injector.log] == ["disk_media_window"]


@pytest.mark.parametrize("executor", ("compiled", "vectorized"))
def test_drop_table_evicts_its_decoded_vectors(executor):
    cluster = Cluster(node_count=1, slices_per_node=2, block_capacity=16)
    s = _session(cluster, executor)
    cache = cluster.block_cache
    entries, invalidations = len(cache), cache.invalidations
    s.execute("CREATE TABLE d (a int, b int)")
    s.execute("INSERT INTO d VALUES " + ",".join(f"({i}, {i})" for i in range(200)))
    s.execute("VACUUM d")
    s.execute("SELECT sum(a), sum(b) FROM d")
    resident = len(cache) - entries
    assert resident > 0
    s.execute("DROP TABLE d")
    assert s.execute("SELECT entries FROM stv_block_cache").rows == [(entries,)]
    assert cache.invalidations == invalidations + resident
