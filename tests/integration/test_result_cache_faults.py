"""Result-cache safety across the failure-recovery paths.

The acceptance bar for the result cache is that a hit is *never* stale,
including when data moves underneath it through the fault machinery
rather than through SQL: a bit-flipped block, a scrub repair that
rewrites block content in place, a worker-crash recovery re-execution,
and a snapshot restore. Each scenario primes the cache, drives one
recovery path, and then checks the next read against ground truth
computed from first principles.
"""

import pytest

from repro import Cluster
from repro.cloud import CloudEnvironment
from repro.controlplane import RedshiftService
from repro.faults import FaultInjector, FaultPlan

ROWS = 2000
COUNT_SUM = [(ROWS, sum(range(ROWS)))]
SQL = "SELECT count(*), sum(v) FROM t"


def _managed(seed):
    env = CloudEnvironment(seed=seed)
    env.ec2.preconfigure("dw2.large", 12)
    service = RedshiftService(env)
    managed, _ = service.create_cluster(node_count=2, block_capacity=64)
    session = managed.connect()
    session.execute("CREATE TABLE t (k int, v int) DISTKEY(k)")
    session.execute(
        "INSERT INTO t VALUES " + ",".join(f"({i},{i})" for i in range(ROWS))
    )
    managed.replication.sync_from_cluster()
    return env, service, managed, session


def _sealed_block(cluster, table, column):
    return next(
        block
        for store in cluster.slice_stores
        if store.has_shard(table)
        for block in store.shard(table).chain(column).blocks
    )


def _entry_for(cluster, table):
    return next(
        (e for e in cluster.result_cache.entries() if table in e.tables),
        None,
    )


class TestBitFlipAndScrub:
    def test_corruption_invalidates_and_repair_recomputes(self):
        _, _, managed, session = _managed(seed=31)
        assert session.execute(SQL).rows == COUNT_SUM  # miss, stored
        assert session.execute(SQL).stats.result_cache_hit

        # A silent bit-flip lands on a sealed block of the scanned
        # column. The flip itself must kill the cached entry — serving
        # the pre-flip rows would mask the corruption from the scrub's
        # readers and from any query racing the repair.
        _sealed_block(managed.engine, "t", "v").corrupt()
        entry = _entry_for(managed.engine, "t")
        assert entry is not None and not entry.valid()

        # Scrub repairs from the mirror (rewriting content in place,
        # which moves the version again). The next read recomputes.
        report = managed.replication.scrub(managed.backups.s3_block_reader)
        assert report.repaired and not report.unrepairable
        fresh = session.execute(SQL)
        assert not fresh.stats.result_cache_hit
        assert fresh.rows == COUNT_SUM
        # And the recomputed result is cacheable again.
        assert session.execute(SQL).stats.result_cache_hit

    def test_clean_scrub_does_not_invalidate(self):
        """A scrub that finds nothing to fix rewrites nothing, so warm
        entries survive it — repair precision, not blanket flushes."""
        _, _, managed, session = _managed(seed=32)
        session.execute(SQL)
        report = managed.replication.scrub(managed.backups.s3_block_reader)
        assert report.repaired == [] and report.unrepairable == []
        assert session.execute(SQL).stats.result_cache_hit


class TestWorkerCrashRecovery:
    def _crashy_cluster(self):
        cluster = Cluster(node_count=2, slices_per_node=2, block_capacity=32)
        injector = FaultInjector(FaultPlan(seed=7).worker_crashes(rate=1.0))
        cluster.attach_faults(injector)
        session = cluster.connect(executor="parallel", parallelism=2)
        session.execute("CREATE TABLE t (k int, v int) DISTKEY(k)")
        session.execute(
            "INSERT INTO t VALUES "
            + ",".join(f"({i},{i})" for i in range(ROWS))
        )
        return cluster, injector, session

    def test_recovered_execution_is_cached_and_correct(self):
        cluster, injector, session = self._crashy_cluster()
        # Warm up the pool first, so the timed statements reuse it.
        session.execute("SELECT count(*) FROM t")

        cold = session.execute(SQL)
        assert cold.rows == COUNT_SUM
        kinds = {event.kind for event in injector.log}
        assert "worker_crash" in kinds  # the morsels really crashed
        assert "recovery:morsel_rerun" in kinds

        warm = session.execute(SQL)
        assert warm.stats.result_cache_hit
        assert warm.rows == cold.rows

    def test_mutation_under_crashes_recomputes_fresh(self):
        cluster, _, session = self._crashy_cluster()
        session.execute("SELECT count(*) FROM t")  # pool warm-up
        assert session.execute(SQL).rows == COUNT_SUM
        session.execute("INSERT INTO t VALUES (9999, 9999)")
        fresh = session.execute(SQL)
        assert not fresh.stats.result_cache_hit
        assert fresh.rows == [(ROWS + 1, sum(range(ROWS)) + 9999)]


class TestRestore:
    def test_restored_cluster_serves_snapshot_data_not_source_cache(self):
        _, service, managed, session = _managed(seed=33)
        service.snapshot_cluster(managed.cluster_id, label="pre")
        # The source keeps mutating (and caching) after the snapshot.
        session.execute("INSERT INTO t VALUES (9999, 9999)")
        post = session.execute(SQL)
        assert post.rows == [(ROWS + 1, sum(range(ROWS)) + 9999)]

        restored, _, _ = service.restore_cluster(managed.cluster_id, "pre")
        r = restored.connect()
        back = r.execute(SQL)
        # Snapshot-time data, not the source's cached post-snapshot rows.
        assert back.rows == COUNT_SUM
        assert not back.stats.result_cache_hit
        # The restored cluster's own cache works from there on.
        assert r.execute(SQL).stats.result_cache_hit
        r.execute("INSERT INTO t VALUES (-1, 0)")
        assert r.execute(SQL).rows == [(ROWS + 1, sum(range(ROWS)))]

    def test_restore_does_not_revive_source_staleness(self):
        """A restore builds shards of its own, so it moves no version of
        the source's tables: the source serves its right answer on."""
        _, service, managed, session = _managed(seed=34)
        service.snapshot_cluster(managed.cluster_id, label="pre")
        session.execute(SQL)
        service.restore_cluster(managed.cluster_id, "pre")
        again = session.execute(SQL)
        assert again.rows == COUNT_SUM
