"""Statistics lifecycle: ANALYZE/COPY refresh, mutation staleness, and
the svl_table_stats / svl_column_stats / svl_query_summary surfaces."""

import pytest

from repro import Cluster
from repro.distribution.hashing import stable_hash
from repro.sql import hll


@pytest.fixture
def cluster():
    return Cluster(node_count=2, slices_per_node=2)


@pytest.fixture
def session(cluster):
    s = cluster.connect()
    s.execute("SET enable_result_cache = off")
    return s


@pytest.fixture
def analyzed(cluster, session):
    session.execute("CREATE TABLE t (id int, g int, name varchar(16))")
    session.execute(
        "INSERT INTO t VALUES "
        + ",".join(f"({i}, {i % 5}, 'n{i}')" for i in range(50))
    )
    session.execute("ANALYZE t")
    return cluster.catalog.table("t")


class TestStalenessLifecycle:
    """Every mutation path must flip ``TableStatistics.stale`` so the
    planner stops trusting NDV/min-max until the next ANALYZE."""

    def test_analyze_clears_stale_and_fills_stats(self, analyzed):
        stats = analyzed.statistics
        assert stats.stale is False
        assert stats.row_count == 50
        id_stats = stats.columns["id"]
        assert id_stats.low == 0
        assert id_stats.high == 49
        assert id_stats.distinct_count == pytest.approx(50, abs=3)
        assert stats.columns["g"].distinct_count == pytest.approx(5, abs=1)
        assert id_stats.null_fraction == 0.0

    def test_insert_marks_stale_and_tracks_rowcount(self, analyzed, session):
        session.execute("INSERT INTO t VALUES (100, 1, 'x'), (101, 2, 'y')")
        assert analyzed.statistics.stale is True
        assert analyzed.statistics.row_count == 52

    def test_delete_marks_stale_and_tracks_rowcount(self, analyzed, session):
        session.execute("DELETE FROM t WHERE g = 0")
        assert analyzed.statistics.stale is True
        assert analyzed.statistics.row_count == 40

    def test_update_marks_stale(self, analyzed, session):
        session.execute("UPDATE t SET g = 9 WHERE id < 10")
        assert analyzed.statistics.stale is True

    def test_vacuum_marks_stale(self, analyzed, session):
        session.execute("DELETE FROM t WHERE g = 1")
        session.execute("ANALYZE t")
        assert analyzed.statistics.stale is False
        session.execute("VACUUM t")
        assert analyzed.statistics.stale is True

    def test_analyze_after_mutations_refreshes(self, analyzed, session):
        session.execute("DELETE FROM t WHERE id >= 25")
        session.execute("ANALYZE t")
        stats = analyzed.statistics
        assert stats.stale is False
        assert stats.row_count == 25
        assert stats.columns["id"].high == 24

    def test_bare_analyze_covers_all_tables(self, analyzed, cluster, session):
        session.execute("CREATE TABLE u (k int)")
        session.execute("INSERT INTO u VALUES (1), (2)")
        session.execute("INSERT INTO t VALUES (200, 0, 'z')")
        session.execute("ANALYZE")
        assert analyzed.statistics.stale is False
        assert cluster.catalog.table("u").statistics.stale is False
        assert cluster.catalog.table("u").statistics.row_count == 2


    def test_analyze_in_a_transaction_sees_the_transaction(
        self, analyzed, session
    ):
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (1000, 1, 'a'), (1001, 2, 'b')")
        session.execute("ANALYZE t")
        assert session.execute("SELECT count(*) FROM t").scalar() == 52
        for _ in ("in the transaction", "after COMMIT"):
            stats = analyzed.statistics
            assert stats.stale is False
            assert stats.row_count == 52
            assert stats.columns["id"].high == 1001
            if session.in_transaction:
                session.execute("COMMIT")


class TestCopyStatistics:
    @pytest.fixture
    def source(self, cluster, session):
        session.execute("CREATE TABLE t (id int, g int)")
        cluster.register_inline_source(
            "stats://t", [f"{i}|{i % 3}" for i in range(30)]
        )
        return cluster.catalog.table("t")

    def test_copy_refreshes_statistics_by_default(self, source, session):
        session.execute("COPY t FROM 'stats://t'")
        stats = source.statistics
        assert stats.stale is False
        assert stats.row_count == 30
        assert stats.columns["g"].distinct_count == pytest.approx(3, abs=1)

    def test_copy_statupdate_off_marks_stale(self, source, session):
        session.execute("COPY t FROM 'stats://t' STATUPDATE OFF")
        assert source.statistics.stale is True
        assert source.statistics.row_count == 30  # incremental count only


class TestRefreshCost:
    """The refresh hashes each distinct value once, over vectors the
    decode cache already holds."""

    @pytest.fixture
    def loaded(self, cluster, session):
        session.execute("CREATE TABLE w (a int, b int, c int)")
        cluster.register_inline_source(
            "stats://w", [f"{i % 3}|{i % 7}|{i % 50}" for i in range(5000)]
        )
        session.execute("COPY w FROM 'stats://w' STATUPDATE OFF")
        return cluster.catalog.table("w")

    def test_analyze_hashes_each_distinct_value_once(
        self, loaded, session, monkeypatch
    ):
        calls = []

        def counting(value):
            calls.append(value)
            return stable_hash(value)

        monkeypatch.setattr(hll, "stable_hash", counting)
        session.execute("ANALYZE w")
        assert len(calls) == 3 + 7 + 50
        assert loaded.statistics.row_count == 5000

    def test_analyze_reads_through_the_decode_cache(
        self, loaded, cluster, session
    ):
        session.execute("SELECT * FROM w")
        cache = cluster.block_cache
        hits, misses = cache.hits, cache.misses
        session.execute("ANALYZE w")
        chain_blocks = sum(
            len(store.shard("w").chain(name).blocks)
            for store in cluster.slice_stores
            if store.has_shard("w")
            for name in loaded.column_names
        )
        assert chain_blocks > 0
        assert cache.hits - hits == chain_blocks
        assert cache.misses == misses


class TestStatsSystemTables:
    def test_svl_table_stats_rows(self, analyzed, session):
        rows = session.execute(
            "SELECT table_name, row_count, stale FROM svl_table_stats"
        ).rows
        assert ("t", 50, 0) in rows
        session.execute("INSERT INTO t VALUES (100, 1, 'x')")
        rows = session.execute(
            "SELECT table_name, row_count, stale FROM svl_table_stats"
        ).rows
        assert ("t", 51, 1) in rows

    def test_svl_column_stats_rows(self, analyzed, session):
        rows = session.execute(
            "SELECT column_name, low, high, ndv FROM svl_column_stats "
            "WHERE table_name = 't' ORDER BY column_name"
        ).rows
        by_name = {r[0]: r[1:] for r in rows}
        assert by_name["id"][0] == "0"
        assert by_name["id"][1] == "49"
        assert by_name["id"][2] == pytest.approx(50, abs=3)
        assert by_name["g"][:2] == ("0", "4")

    def test_never_analyzed_table_has_no_column_rows(self, session):
        session.execute("CREATE TABLE fresh (k int)")
        rows = session.execute(
            "SELECT * FROM svl_column_stats WHERE table_name = 'fresh'"
        ).rows
        assert rows == []


class TestEstimateSurfaces:
    def test_explain_analyze_shows_est_vs_actual(self, analyzed, session):
        text = "\n".join(
            r[0]
            for r in session.execute(
                "EXPLAIN ANALYZE SELECT g, count(*) FROM t "
                "WHERE id < 25 GROUP BY g"
            ).rows
        )
        assert "actual rows=" in text
        assert "est=" in text

    def test_plain_explain_has_no_actuals(self, analyzed, session):
        text = "\n".join(
            r[0]
            for r in session.execute("EXPLAIN SELECT * FROM t").rows
        )
        assert "actual rows=" not in text

    def test_query_summary_misestimation_factor(self, analyzed, session):
        session.execute("SELECT count(*) FROM t WHERE id < 25")
        rows = session.execute(
            "SELECT rows, est_rows, misest_factor FROM svl_query_summary "
            "WHERE query = (SELECT max(query) FROM svl_query_summary)"
        ).rows
        assert rows
        for actual, est, factor in rows:
            expected = max(actual, est, 1.0) / max(min(actual, est), 1.0)
            assert factor == pytest.approx(expected)
            assert factor >= 1.0
        # Fresh stats on a simple scan should estimate well: the worst
        # operator misestimation stays within a small factor.
        assert max(r[2] for r in rows) < 3.0
