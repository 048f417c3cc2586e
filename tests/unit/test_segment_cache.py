"""The compiled-code cache: generated source text is the key.

The compiled executor emits each pipeline's source on every run and asks
the cluster's :class:`~repro.exec.segmentcache.CodeCache` only for the
``compile()``, so two plans share code exactly when they generate the
same code. These tests pin what that buys — equal templates share
(across tables, sessions and literal values), different column types don't,
reuse stays correct (join pipelines get hash tables built per query) —
and the vectorized executor's batch kernels, which compile through the
same class and form the second population of svl_compile_cache.
"""

import pytest

from repro import Cluster
from repro.exec.batch import KERNEL_CACHE


@pytest.fixture
def cluster():
    c = Cluster(node_count=1, slices_per_node=2, block_capacity=16)
    s = c.connect()
    s.execute("CREATE TABLE t1 (k int, v int)")
    s.execute("CREATE TABLE t2 (k int, v int)")
    s.execute("CREATE TABLE dim (k int, label varchar(8))")
    s.execute(
        "INSERT INTO t1 VALUES " + ",".join(f"({i}, {i * 2})" for i in range(48))
    )
    s.execute(
        "INSERT INTO t2 VALUES " + ",".join(f"({i}, {i * 5})" for i in range(48))
    )
    s.execute(
        "INSERT INTO dim VALUES "
        + ",".join(f"({k}, 'd{k % 3}')" for k in range(0, 48, 4))
    )
    return c


def _fresh_session(cluster):
    s = cluster.connect(executor="compiled")
    s.execute("SET enable_result_cache = off")  # measure compilation only
    return s


class TestPipelineReuse:
    def test_repeat_query_hits_segment_cache(self, cluster):
        s = _fresh_session(cluster)
        sql = "SELECT sum(v) FROM t1 WHERE k > 10"
        cold = s.execute(sql)
        assert cold.stats.segment_cache_misses > 0
        assert cold.stats.segment_cache_hits == 0
        warm = s.execute(sql)
        assert warm.stats.segment_cache_hits > 0
        assert warm.stats.segment_cache_misses == 0
        assert warm.rows == cold.rows

    def test_same_shape_shares_across_tables(self, cluster):
        """The generated code never names the table: the same pipeline
        over a same-layout table reuses the compiled code."""
        s = _fresh_session(cluster)
        r1 = s.execute("SELECT sum(v) FROM t1 WHERE k > 10")
        r2 = s.execute("SELECT sum(v) FROM t2 WHERE k > 10")
        assert r2.stats.segment_cache_hits > 0
        # And the shared code still computes each table's own answer.
        assert r1.rows == [(sum(i * 2 for i in range(11, 48)),)]
        assert r2.rows == [(sum(i * 5 for i in range(11, 48)),)]

    def test_different_literals_share_code(self, cluster):
        """Literals enter through the environment, so code is keyed by
        the template: a new constant reuses the compiled pipeline, and
        each text still gets its own rows."""
        s = _fresh_session(cluster)
        first = s.execute("SELECT sum(v) FROM t1 WHERE k > 10")
        other = s.execute("SELECT sum(v) FROM t1 WHERE k > 20")
        assert other.stats.segment_cache_misses == 0
        assert other.stats.segment_cache_hits > 0
        assert first.rows == [(sum(i * 2 for i in range(11, 48)),)]
        assert other.rows == [(sum(i * 2 for i in range(21, 48)),)]

    def test_join_pipeline_reuses_with_fresh_hash_tables(self, cluster):
        """A cached join pipeline must execute against hash tables built
        from the *current* plan (build sides are per-query state)."""
        s = _fresh_session(cluster)
        sql = (
            "SELECT dim.label, count(*) FROM t1 "
            "JOIN dim ON t1.k = dim.k GROUP BY dim.label ORDER BY dim.label"
        )
        cold = s.execute(sql)
        warm = s.execute(sql)
        assert warm.stats.segment_cache_hits > 0
        assert warm.rows == cold.rows
        # Mutating the build side must flow into the cached pipeline's
        # next run — nothing about the data may be baked into the code.
        s.execute("INSERT INTO dim VALUES (1, 'dX')")
        after = s.execute(sql)
        assert after.stats.segment_cache_hits > 0
        assert after.rows != cold.rows

    def test_cache_survives_across_sessions(self, cluster):
        a = _fresh_session(cluster)
        b = _fresh_session(cluster)
        sql = "SELECT count(*) FROM t1 WHERE v > 8"
        a.execute(sql)
        assert b.execute(sql).stats.segment_cache_hits > 0

    def test_compile_time_drops_on_hit(self, cluster):
        s = _fresh_session(cluster)
        sql = "SELECT k, sum(v) FROM t1 WHERE v > 4 GROUP BY k"
        cold = s.execute(sql)
        warm = s.execute(sql)
        assert warm.stats.compile_seconds <= cold.stats.compile_seconds


class TestColumnTypesAreInTheKey:
    """Codegen inlines ``+`` / ``-`` for integers but calls the SQL
    helpers for dates, so an ``int`` table and a ``date`` table with the
    same column positions and names generate different code."""

    @pytest.fixture
    def typed(self):
        c = Cluster(node_count=1, slices_per_node=2, block_capacity=16)
        s = c.connect()
        s.execute("CREATE TABLE ints (x int, y int)")
        s.execute("CREATE TABLE dates (x date, y date)")
        s.execute("INSERT INTO ints VALUES (1, 2), (5, 3), (NULL, 4)")
        s.execute(
            "INSERT INTO dates VALUES (DATE '2024-01-01', DATE '2024-01-02'),"
            " (DATE '2024-03-01', DATE '2024-02-28'), (NULL, DATE '2024-05-05')"
        )
        return c

    @pytest.mark.parametrize("expr", ["x + 1", "x - y"])
    @pytest.mark.parametrize(
        "order", [("ints", "dates"), ("dates", "ints")], ids=["ints_first", "dates_first"]
    )
    def test_compiled_matches_volcano(self, typed, expr, order):
        compiled = _fresh_session(typed)
        volcano = typed.connect(executor="volcano")
        volcano.execute("SET enable_result_cache = off")
        for table in order:
            sql = f"SELECT {expr} FROM {table} ORDER BY 1"
            assert compiled.execute(sql).rows == volcano.execute(sql).rows

    def test_same_layout_different_types_do_not_share(self, typed):
        s = _fresh_session(typed)
        s.execute("SELECT x - y FROM ints")
        dates = s.execute("SELECT x - y FROM dates")
        assert dates.stats.segment_cache_hits == 0
        assert dates.stats.segment_cache_misses > 0


class TestKernelCodeCache:
    def test_vectorized_kernel_code_reused(self, cluster):
        s = cluster.connect(executor="vectorized")
        s.execute("SET enable_result_cache = off")
        s.execute("SELECT count(*) FROM t1 WHERE v > 6")
        hits_before = KERNEL_CACHE.hits
        # Same comparison shape over the other table: the generated
        # kernel source is identical (literal arrives via the env).
        s.execute("SELECT count(*) FROM t2 WHERE v > 6")
        assert KERNEL_CACHE.hits > hits_before


class TestSvlCompileCache:
    def test_pipeline_and_kernel_rows(self, cluster):
        s = cluster.connect(executor="compiled")
        s.execute("SELECT sum(v) FROM t1 WHERE k > 3")
        s.execute("SET executor = vectorized")
        s.execute("SELECT sum(v) FROM t1 WHERE k > 3")
        rows = s.execute(
            "SELECT kind, signature, mode, hits FROM svl_compile_cache"
        ).rows
        kinds = {row[0] for row in rows}
        assert "pipeline" in kinds
        assert "kernel" in kinds
        assert all(len(row[1]) == 64 for row in rows)  # sha256 hex
        assert {mode for kind, _, mode, _ in rows if kind == "pipeline"} == {
            "aggregate"
        }
        assert {mode for kind, _, mode, _ in rows if kind == "kernel"} == {""}

    def test_hits_column_counts_reuse(self, cluster):
        s = _fresh_session(cluster)
        sql = "SELECT max(v) FROM t1 WHERE k >= 7"
        s.execute(sql)
        s.execute(sql)
        s.execute(sql)
        rows = s.execute(
            "SELECT hits FROM svl_compile_cache WHERE kind = 'pipeline'"
        ).rows
        assert rows and max(h for (h,) in rows) >= 2
