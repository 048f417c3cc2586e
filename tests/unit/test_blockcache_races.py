"""Regressions for the block-decode cache invalidation races and the
per-table version machinery.

The decode-outside-lock design of :meth:`BlockDecodeCache.lookup` had
two races (both fixed in this revision, both reproduced here by driving
the re-entrant seam a concurrent thread would use):

1. **Lost invalidation**: a miss decodes outside the lock; if the block
   is invalidated (mutated) during that decode, the stale decode must
   not be inserted afterwards.
2. **Lost insert race accounting**: when another thread populates the
   entry during the decode, the caller is served the cached vector — a
   hit — but was permanently counted as a miss with ``cached=False``.

Plus the per-table version semantics the pool manager and result cache
build on: every shard mutation publishes a version numbered from one
increasing counter, and a table's version is its shards' largest.
"""

import multiprocessing
import threading
import time

import pytest

from repro import Cluster
from repro.datatypes.types import INTEGER
from repro.exec.workers import PoolManager
from repro.storage import TableShard
from repro.storage.blockcache import BlockDecodeCache


class _Block:
    """A stand-in block whose decode can run arbitrary cache traffic,
    emulating what a concurrent thread does mid-decode."""

    def __init__(self, block_id, values, during_decode=None):
        self.block_id = block_id
        self._values = values
        self._during_decode = during_decode

    def read_vector(self):
        if self._during_decode is not None:
            self._during_decode()
        return list(self._values)


class TestLostInvalidationRace:
    def test_invalidation_during_decode_discards_insert(self):
        cache = BlockDecodeCache()
        # The mutation lands while the (pre-mutation) decode is running.
        stale = _Block(
            "blk-race", [1, 2, 3],
            during_decode=lambda: cache.invalidate("blk-race"),
        )
        values, cached = cache.lookup(stale)
        assert values == [1, 2, 3]  # the caller still gets its decode
        assert cached is False
        # The stale vector must NOT have repopulated the cache: the next
        # reader decodes the post-mutation content.
        fresh, cached = cache.lookup(_Block("blk-race", [9, 9, 9]))
        assert fresh == [9, 9, 9]
        assert cached is False

    def test_clear_during_decode_also_discards(self):
        cache = BlockDecodeCache()
        block = _Block("blk-c", [1], during_decode=cache.clear)
        cache.lookup(block)
        assert len(cache) == 0

    def test_invalidate_absent_entry_still_advances_generation(self):
        cache = BlockDecodeCache()
        # Invalidating a block that is not resident must still kill any
        # in-flight miss for it (the mutation predates the insert).
        assert cache.invalidate("blk-x") is False
        block = _Block(
            "blk-x", [1], during_decode=lambda: cache.invalidate("blk-x")
        )
        cache.lookup(block)
        assert len(cache) == 0

    def test_unrelated_traffic_does_not_block_insert(self):
        cache = BlockDecodeCache()
        values, cached = cache.lookup(_Block("blk-a", [1, 2]))
        assert cached is False
        values, cached = cache.lookup(_Block("blk-a", [1, 2]))
        assert cached is True


class TestLostInsertRaceAccounting:
    def test_losing_the_insert_race_counts_as_hit(self):
        cache = BlockDecodeCache()
        winner_values = [7, 7, 7]

        def other_thread_wins():
            # Emulates a second thread decoding and inserting the same
            # block while our decode is in flight.
            cache.lookup(_Block("blk-w", winner_values))

        values, cached = cache.lookup(
            _Block("blk-w", [0, 0, 0], during_decode=other_thread_wins)
        )
        # The caller is served the winner's cached vector: that is a hit,
        # and the provisional miss must have been reclassified.
        assert cached is True
        assert values == winner_values
        assert cache.hits == 1
        assert cache.misses == 1  # the winner's own (real) miss only


def _tables(*names):
    """A cluster holding one small table per name, and a session on it."""
    cluster = Cluster(node_count=1, slices_per_node=2, block_capacity=16)
    session = cluster.connect()
    for name in names:
        session.execute(f"CREATE TABLE {name} (k int)")
        session.execute(f"INSERT INTO {name} VALUES (1), (2), (3)")
    return cluster, session


class TestEpochLocking:
    def test_bumps_are_monotonic_across_threads(self):
        shard = TableShard("race_table", [("k", INTEGER)], block_capacity=8)
        observed = [[], []]

        def reader(seen):
            for _ in range(200):
                seen.append(shard.version.number)

        def writer():
            for i in range(200):
                shard.append_rows([(i,), (i + 1,)], xid=1)

        threads = [threading.Thread(target=reader, args=(seen,)) for seen in observed]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(seen == sorted(seen) for seen in observed)
        assert shard.version.row_count == 400


class TestPerTableEpochs:
    def test_bump_moves_only_that_table(self):
        cluster, session = _tables("tbl_mine", "tbl_other")
        before_mine = cluster.table_version("tbl_mine")
        before_other = cluster.table_version("tbl_other")
        session.execute("INSERT INTO tbl_mine VALUES (4)")
        assert cluster.table_version("tbl_mine") > before_mine
        assert cluster.table_version("tbl_other") == before_other

    def test_global_counter_totally_orders_tables(self):
        cluster, session = _tables("tbl_a", "tbl_b")
        session.execute("INSERT INTO tbl_a VALUES (4)")
        a = cluster.table_version("tbl_a")
        session.execute("INSERT INTO tbl_b VALUES (4)")
        assert cluster.table_version("tbl_b") > a


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork-based pools unavailable on this platform",
)
class TestPerTableReforks:
    def test_unrelated_mutation_keeps_pool(self):
        cluster, session = _tables("tbl_scan", "tbl_unrelated")
        manager = PoolManager()
        try:
            first = manager.pool(1, "fork", cluster.table_version("tbl_scan"))
            assert manager.forks == 1
            session.execute("INSERT INTO tbl_unrelated VALUES (4)")
            again = manager.pool(1, "fork", cluster.table_version("tbl_scan"))
            assert again is first
            assert manager.forks == 1 and manager.reforks == 0
        finally:
            manager.close()

    def test_scanned_table_mutation_reforks(self):
        cluster, session = _tables("tbl_scan")
        manager = PoolManager()
        try:
            first = manager.pool(1, "fork", cluster.table_version("tbl_scan"))
            session.execute("INSERT INTO tbl_scan VALUES (4)")
            again = manager.pool(1, "fork", cluster.table_version("tbl_scan"))
            assert again is not first
            assert manager.forks == 2 and manager.reforks == 1
        finally:
            manager.close()

    def test_end_to_end_refork_reduction(self):
        """The tentpole's pool win: a parallel query over table a keeps
        its forked pool across mutations of table b, and still re-forks
        when a itself mutates."""
        cluster = Cluster(node_count=1, slices_per_node=2, block_capacity=16)
        try:
            # Explicit degree: the default collapses to serial (no pool)
            # on single-core machines, and this test needs a real fork.
            s = cluster.connect(
                executor="parallel", parallelism=2, pool_mode="fork"
            )
            s.execute("SET enable_result_cache = off")
            s.execute("CREATE TABLE pa (k int)")
            s.execute("CREATE TABLE pb (k int)")
            s.execute(
                "INSERT INTO pa VALUES "
                + ",".join(f"({i})" for i in range(64))
            )
            s.execute(
                "INSERT INTO pb VALUES "
                + ",".join(f"({i})" for i in range(64))
            )
            manager = cluster.pool_manager
            assert s.execute("SELECT count(*) FROM pa").rows == [(64,)]
            forks = manager.forks
            # Mutating pb must not cost the pa-scan its warm pool ...
            s.execute("INSERT INTO pb VALUES (999)")
            assert s.execute("SELECT count(*) FROM pa").rows == [(64,)]
            assert manager.forks == forks
            # ... while mutating pa itself still re-forks.
            s.execute("INSERT INTO pa VALUES (999)")
            assert s.execute("SELECT count(*) FROM pa").rows == [(65,)]
            assert manager.forks == forks + 1
            assert manager.reforks >= 1
        finally:
            cluster.close()
