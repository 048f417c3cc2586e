"""The leader-side query result cache: hits, invalidation, bypass rules.

Covers the QueryResultCache structure itself (LRU, row-count limit,
counters), the session integration (warm hits are bit-identical, every
DML/VACUUM path invalidates, explicit transactions and system tables
bypass), the per-table precision of invalidation, the WLM admission
bypass, and the new system-table surface (stv_result_cache,
svl_query_summary.result_cache_hit, EXPLAIN ANALYZE annotations).
"""

import pytest

from repro import Cluster
from repro.engine.resultcache import QueryResultCache, result_cache_key
from repro.engine.wlm import AdmissionGate
from repro.exec import workers
from repro.errors import AnalysisError


@pytest.fixture
def cluster():
    c = Cluster(node_count=1, slices_per_node=2, block_capacity=16)
    s = c.connect()
    s.execute("CREATE TABLE a (k int, v int)")
    s.execute("CREATE TABLE b (k int, v int)")
    s.execute(
        "INSERT INTO a VALUES " + ",".join(f"({i}, {i * 2})" for i in range(40))
    )
    s.execute(
        "INSERT INTO b VALUES " + ",".join(f"({i}, {i * 3})" for i in range(40))
    )
    return c


class TestQueryResultCacheStructure:
    @pytest.fixture(autouse=True)
    def _cluster(self, cluster):
        self.cluster = cluster

    def _cache(self, **kwargs):
        return QueryResultCache(self.cluster.table_version, **kwargs)

    def _store(self, cache, key, rows=((1,),), tables=("a",)):
        versions = tuple(map(self.cluster.table_version, tables))
        cache.store(key, "SELECT 1", "compiled", ["c"], list(rows), tables, versions)

    def test_store_then_lookup_hits(self):
        cache = self._cache()
        self._store(cache, "k1")
        entry = cache.lookup("k1")
        assert entry is not None
        assert entry.rows == ((1,),)
        assert cache.hits == 1 and cache.misses == 0
        assert entry.hits == 1

    def test_lookup_absent_is_miss(self):
        cache = self._cache()
        assert cache.lookup("nope") is None
        assert cache.misses == 1

    def test_epoch_move_invalidates_lazily(self):
        cache = self._cache()
        self._store(cache, "k1", tables=("a",))
        self.cluster.connect().execute("INSERT INTO a VALUES (1, 1)")
        assert cache.lookup("k1") is None
        assert cache.invalidations == 1
        assert len(cache) == 0

    def test_unrelated_table_epoch_keeps_entry(self):
        cache = self._cache()
        self._store(cache, "k1", tables=("a",))
        self.cluster.connect().execute("INSERT INTO b VALUES (1, 1)")
        assert cache.lookup("k1") is not None

    def test_lru_eviction_at_capacity(self):
        cache = self._cache(capacity=2)
        self._store(cache, "k1")
        self._store(cache, "k2")
        cache.lookup("k1")  # k1 becomes most-recent
        self._store(cache, "k3")
        assert cache.evictions == 1
        assert cache.lookup("k2") is None  # the LRU victim
        assert cache.lookup("k1") is not None

    def test_oversized_results_not_cached(self):
        cache = self._cache(max_rows=2)
        self._store(cache, "k1", rows=((1,), (2,), (3,)))
        assert len(cache) == 0

    def test_key_separates_sql_plan_and_executor(self):
        base = result_cache_key("SELECT 1", "plan", "compiled")
        assert result_cache_key("SELECT 2", "plan", "compiled") != base
        assert result_cache_key("SELECT 1", "plan2", "compiled") != base
        assert result_cache_key("SELECT 1", "plan", "volcano") != base
        assert result_cache_key("SELECT 1", "plan", "compiled") == base


class TestSessionIntegration:
    def test_warm_hit_is_bit_identical(self, cluster):
        s = cluster.connect()
        sql = "SELECT k, sum(v) FROM a GROUP BY k ORDER BY k"
        cold = s.execute(sql)
        warm = s.execute(sql)
        assert warm.rows == cold.rows
        assert warm.columns == cold.columns
        assert not cold.stats.result_cache_hit
        assert warm.stats.result_cache_hit
        assert warm.stats.result_cache_status == "hit"
        assert cold.stats.result_cache_status == "miss"

    def test_hit_skips_execution(self, cluster):
        s = cluster.connect()
        sql = "SELECT count(*) FROM a"
        s.execute(sql)
        warm = s.execute(sql)
        assert warm.stats.scan.blocks_read == 0
        assert warm.stats.operators[0].operator == "Result Cache"

    def test_hits_shared_across_sessions(self, cluster):
        s1 = cluster.connect()
        s2 = cluster.connect()
        sql = "SELECT sum(v) FROM a"
        s1.execute(sql)
        assert s2.execute(sql).stats.result_cache_hit

    def test_insert_invalidates(self, cluster):
        s = cluster.connect()
        sql = "SELECT count(*) FROM a"
        assert s.execute(sql).rows == [(40,)]
        s.execute("INSERT INTO a VALUES (99, 99)")
        fresh = s.execute(sql)
        assert not fresh.stats.result_cache_hit
        assert fresh.rows == [(41,)]

    def test_stale_entry_is_reclaimed_by_the_next_lookup(self, cluster):
        # The write moves the plan's row estimates; the key must not
        # follow them, or the stale entry is never found again and
        # squats in the LRU instead of being invalidated.
        s = cluster.connect()
        cache = cluster.result_cache
        sql = "SELECT sum(v) FROM a WHERE k >= 0"
        s.execute(sql)
        entries, invalidations = len(cache), cache.invalidations
        s.execute("INSERT INTO a VALUES (99, 99)")
        fresh = s.execute(sql)
        assert fresh.rows == [(sum(i * 2 for i in range(40)) + 99,)]
        assert not fresh.stats.result_cache_hit
        assert cache.invalidations == invalidations + 1
        assert len(cache) == entries

    def test_delete_invalidates(self, cluster):
        s = cluster.connect()
        sql = "SELECT count(*) FROM a"
        s.execute(sql)
        s.execute("DELETE FROM a WHERE k < 10")
        fresh = s.execute(sql)
        assert not fresh.stats.result_cache_hit
        assert fresh.rows == [(30,)]

    def test_update_invalidates(self, cluster):
        s = cluster.connect()
        sql = "SELECT sum(v) FROM a WHERE k = 0"
        before = s.execute(sql).rows
        s.execute("UPDATE a SET v = 1000 WHERE k = 0")
        fresh = s.execute(sql)
        assert not fresh.stats.result_cache_hit
        assert fresh.rows != before

    def test_vacuum_invalidates(self, cluster):
        s = cluster.connect()
        sql = "SELECT count(*) FROM a"
        s.execute(sql)
        s.execute("VACUUM a")
        assert not s.execute(sql).stats.result_cache_hit

    def test_mutating_one_table_keeps_the_other_cached(self, cluster):
        s = cluster.connect()
        sql_a = "SELECT sum(v) FROM a"
        sql_b = "SELECT sum(v) FROM b"
        s.execute(sql_a)
        s.execute(sql_b)
        s.execute("INSERT INTO b VALUES (99, 99)")
        assert s.execute(sql_a).stats.result_cache_hit
        assert not s.execute(sql_b).stats.result_cache_hit

    def test_join_entry_depends_on_both_tables(self, cluster):
        s = cluster.connect()
        sql = "SELECT count(*) FROM a JOIN b ON a.k = b.k"
        s.execute(sql)
        assert s.execute(sql).stats.result_cache_hit
        s.execute("INSERT INTO b VALUES (1, 1)")
        assert not s.execute(sql).stats.result_cache_hit

    def test_executors_do_not_share_entries(self, cluster):
        sql = "SELECT sum(v) FROM a"
        compiled = cluster.connect(executor="compiled")
        volcano = cluster.connect(executor="volcano")
        compiled.execute(sql)
        cold = volcano.execute(sql)
        assert not cold.stats.result_cache_hit
        assert volcano.execute(sql).stats.result_cache_hit

    def test_set_enable_result_cache_off_and_on(self, cluster):
        s = cluster.connect()
        sql = "SELECT count(*) FROM a"
        s.execute("SET enable_result_cache = off")
        s.execute(sql)
        repeat = s.execute(sql)
        assert not repeat.stats.result_cache_hit
        assert repeat.stats.result_cache_status == ""
        s.execute("SET enable_result_cache = on")
        s.execute(sql)
        assert s.execute(sql).stats.result_cache_hit

    def test_set_enable_result_cache_rejects_garbage(self, cluster):
        s = cluster.connect()
        with pytest.raises(AnalysisError):
            s.execute("SET enable_result_cache = maybe")
        with pytest.raises(AnalysisError, match="unknown session parameter"):
            s.execute("SET enable_spill = off")

    def test_explicit_transaction_bypasses(self, cluster):
        s = cluster.connect()
        sql = "SELECT count(*) FROM a"
        s.execute(sql)  # cached in autocommit
        s.execute("BEGIN")
        s.execute("INSERT INTO a VALUES (1, 1)")
        # Inside the txn the session must see its own uncommitted row,
        # not the cached pre-txn result.
        assert s.execute(sql).rows == [(41,)]
        assert not s.execute(sql).stats.result_cache_hit
        s.execute("ROLLBACK")

    def test_commit_of_concurrent_writer_invalidates(self, cluster):
        """The MVCC staleness window: a SELECT that runs while another
        session's transaction holds uncommitted writes must not pin its
        (correct-at-the-time) result past that transaction's commit."""
        writer = cluster.connect()
        reader = cluster.connect()
        sql = "SELECT count(*) FROM a"
        writer.execute("BEGIN")
        writer.execute("INSERT INTO a VALUES (500, 500)")
        assert reader.execute(sql).rows == [(40,)]  # can't see the insert
        writer.execute("COMMIT")
        fresh = reader.execute(sql)
        assert fresh.rows == [(41,)]
        assert not fresh.stats.result_cache_hit

    def test_system_table_queries_bypass(self, cluster):
        s = cluster.connect()
        sql = "SELECT count(*) FROM stl_query"
        first = s.execute(sql)
        second = s.execute(sql)
        assert not second.stats.result_cache_hit
        assert second.stats.result_cache_status == ""
        # stl_query grows with every statement; a cached answer would
        # have frozen it.
        assert second.rows[0][0] > first.rows[0][0]

    def test_wlm_gate_bypassed_on_hits(self, cluster):
        gate = AdmissionGate()
        s = cluster.connect()
        s.wlm_gate = gate
        sql = "SELECT sum(v) FROM a"
        s.execute(sql)
        s.execute(sql)
        s.execute(sql)
        assert gate.admissions == 1
        assert gate.bypasses == 2


class TestClustersKeepTheirOwnVersions:
    """A table version belongs to its cluster's shards: another cluster's
    table of the same name, or a new cluster, never moves it."""

    SQL = "SELECT sum(v) FROM t"

    def _clusters(self):
        clusters = [
            Cluster(node_count=1, slices_per_node=2, block_capacity=16)
            for _ in range(2)
        ]
        for c in clusters:
            s = c.connect()
            s.execute("CREATE TABLE t (k int, v int)")
            s.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        return clusters

    def test_a_write_to_the_other_clusters_table_keeps_the_hit(self):
        a, b = self._clusters()
        reader = a.connect()
        reader.execute(self.SQL)
        assert reader.execute(self.SQL).stats.result_cache_hit
        b.connect().execute("INSERT INTO t VALUES (4, 40)")
        assert reader.execute(self.SQL).stats.result_cache_hit
        Cluster(node_count=1, slices_per_node=1)
        warm = reader.execute(self.SQL)
        assert warm.stats.result_cache_hit and warm.rows == [(60,)]

    def test_a_write_to_the_other_clusters_table_keeps_the_fork_pool(self):
        if workers.default_mode() != "fork":
            pytest.skip("platform has no fork")
        a, b = self._clusters()
        try:
            reader = a.connect(executor="parallel", parallelism=2, pool_mode="fork")
            reader.execute("SET enable_result_cache = off")
            assert reader.execute(self.SQL).rows == [(60,)]
            forks, reforks = a.pool_manager.forks, a.pool_manager.reforks
            b.connect().execute("INSERT INTO t VALUES (4, 40)")
            assert reader.execute(self.SQL).rows == [(60,)]
            assert (a.pool_manager.forks, a.pool_manager.reforks) == (forks, reforks)
        finally:
            a.close()
            b.close()


class TestSystemTableSurface:
    def test_stv_result_cache_rows(self, cluster):
        s = cluster.connect()
        s.execute("SELECT sum(v) FROM a")
        s.execute("SELECT sum(v) FROM a")
        rows = s.execute(
            "SELECT querytxt, executor, rows, tables, hits, valid "
            "FROM stv_result_cache"
        ).rows
        entry = next(r for r in rows if r[3] == "a")
        querytxt, executor, nrows, tables, hits, valid = entry
        assert "sum" in querytxt.lower()
        assert executor == "compiled"
        assert nrows == 1
        assert hits == 1
        assert valid == 1

    def test_stv_result_cache_shows_stale_entries_invalid(self, cluster):
        s = cluster.connect()
        s.execute("SELECT sum(v) FROM a")
        s.execute("INSERT INTO a VALUES (1, 1)")
        rows = s.execute(
            "SELECT valid FROM stv_result_cache WHERE tables = 'a'"
        ).rows
        assert rows and all(v == (0,) for v in rows)

    def test_svl_query_summary_result_cache_hit_column(self, cluster):
        s = cluster.connect()
        s.execute("SELECT sum(v) FROM a")
        s.execute("SELECT sum(v) FROM a")
        hit_rows = s.execute(
            "SELECT operator, rows FROM svl_query_summary "
            "WHERE result_cache_hit = 1"
        ).rows
        assert ("Result Cache", 1) in hit_rows

    def test_explain_analyze_annotates_miss_then_hit(self, cluster):
        s = cluster.connect(executor="vectorized")
        sql = "EXPLAIN ANALYZE SELECT sum(v) FROM a"
        cold = "\n".join(row[0] for row in s.execute(sql).rows)
        assert "Result cache: miss" in cold
        warm = "\n".join(row[0] for row in s.execute(sql).rows)
        assert "Result cache: hit" in warm
        assert "(never executed)" in warm
