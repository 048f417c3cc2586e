"""Compiled pipelines loop over the block cursor's column vectors.

The compiled executor feeds each generated pipeline the cursor's batches
and reads a block's columns through one loop variable per column it
uses, zipping whole rows only for a collect or a join probe; COUNT, SUM,
MIN and MAX fold inline. Every case runs one statement on ``volcano``
(the row-at-a-time reference) and on ``compiled`` in the same session,
each warm, and compares the rows, their ``repr``, and the scan steps'
row and block accounting.
"""

import pytest

from repro import Cluster

#: Per scan step (OperatorStat), and per query (ScanStats).
STEP_COUNTERS = ("rows", "blocks_read", "blocks_skipped", "cache_hits")
QUERY_COUNTERS = ("blocks_read", "blocks_skipped", "chains_read", "cache_hits")


def _scan_steps(result):
    return [
        (op.operator,) + tuple(getattr(op, name) for name in STEP_COUNTERS)
        for op in result.stats.operators
        if op.operator.startswith("Seq Scan")
    ]


def _scan_totals(result):
    return tuple(getattr(result.stats.scan, name) for name in QUERY_COUNTERS)


def check(session, sql):
    """*sql* on volcano, then on compiled, each run twice so both read
    warm; the compiled result must equal volcano's in every respect."""
    results = {}
    for executor in ("volcano", "compiled"):
        session.execute(f"SET executor = {executor}")
        session.execute(sql)
        results[executor] = session.execute(sql)
    volcano, compiled = results["volcano"], results["compiled"]
    assert compiled.stats.executor == "compiled"
    assert compiled.rows == volcano.rows, sql
    assert repr(compiled.rows) == repr(volcano.rows), sql
    assert _scan_steps(compiled) == _scan_steps(volcano), sql
    assert _scan_totals(compiled) == _scan_totals(volcano), sql
    return compiled


@pytest.fixture
def cluster():
    return Cluster(node_count=2, slices_per_node=2, block_capacity=16)


@pytest.fixture
def session(cluster):
    s = cluster.connect()
    s.execute("SET enable_result_cache = off")
    s.execute(
        "CREATE TABLE t (k int, v int, s varchar(8), f float) "
        "DISTKEY(k) SORTKEY(v)"
    )
    rows = []
    for i in range(200):
        v = "NULL" if i % 7 == 0 else str((i * 13) % 150 - 40)
        sv = "NULL" if i % 5 == 0 else f"'s{i % 11}'"
        f = "NULL" if i % 13 == 0 else str(round((i % 37) * 0.75 - 5, 2))
        rows.append(f"({i % 23}, {v}, {sv}, {f})")
    s.execute(f"INSERT INTO t VALUES {','.join(rows)}")
    return s


class TestColumnLoops:
    def test_dead_column_referenced_above_the_scan_reads_null(self, session):
        """``user_id`` is pruned from the scan, yet the CTE's projection
        still names it: its loop variable is the constant NULL."""
        session.execute("CREATE TABLE clicks (user_id int, n int)")
        session.execute(
            "INSERT INTO clicks VALUES "
            + ",".join(f"({i % 17}, {(i * 7) % 1000})" for i in range(300))
        )
        sql = (
            "WITH h AS (SELECT user_id FROM clicks WHERE n > 700) "
            "SELECT count(*) FROM h"
        )
        result = check(session, sql)
        assert result.rows == [(sum((i * 7) % 1000 > 700 for i in range(300)),)]

    @pytest.mark.parametrize(
        "select", ["k, v, f", "count(*), sum(v), min(f)"], ids=["collect", "aggregate"]
    )
    def test_column_variables_do_not_collide_with_temps(self, session, select):
        # Row 130 has v = 0 and f = 9.25: no row satisfies both conjuncts.
        sql = f"SELECT {select} FROM t WHERE v BETWEEN 0 AND 0 AND f <= -1"
        result = check(session, sql)
        assert result.rows in ([], [(0, None, None)])

    def test_zero_live_columns(self, session):
        assert check(session, "SELECT count(*) FROM t").rows == [(200,)]

    def test_one_and_several_live_columns(self, session):
        check(session, "SELECT sum(v) FROM t WHERE v > 3")
        check(session, "SELECT k, v * 2, s FROM t WHERE v > 3 AND s <> 's1'")
        check(session, "SELECT s, count(*) FROM t WHERE f < 1.5 GROUP BY s")


class TestVisibility:
    QUERIES = (
        "SELECT k, v, s, f FROM t WHERE v > -10",
        "SELECT k, count(*), sum(v), min(s), max(f) FROM t GROUP BY k",
        "SELECT count(*) FROM t",
    )

    def test_partly_deleted_blocks(self, session):
        session.execute("DELETE FROM t WHERE v % 3 = 0")
        for sql in self.QUERIES:
            check(session, sql)

    def test_own_uncommitted_inserts(self, session):
        session.execute("BEGIN")
        session.execute(
            "INSERT INTO t VALUES "
            + ",".join(f"({i % 23}, {i - 30}, 'u{i}', {i * 0.5})" for i in range(40))
        )
        session.execute("DELETE FROM t WHERE k = 4")
        for sql in self.QUERIES:
            check(session, sql)
        session.execute("ROLLBACK")

    def test_open_tail_only(self, session):
        session.execute("CREATE TABLE tail (a int, b varchar(4))")
        session.execute("INSERT INTO tail VALUES (1, 'x'), (NULL, 'y'), (3, NULL)")
        check(session, "SELECT a, b FROM tail WHERE a IS NOT NULL OR b = 'y'")
        assert check(session, "SELECT count(*), sum(a) FROM tail").rows == [(3, 4)]


def test_system_table_scan(session):
    session.execute("SELECT count(*) FROM t")  # t's blocks exist
    check(
        session,
        "SELECT col, count(*), sum(num_values), min(blocknum), max(size_bytes) "
        "FROM stv_blocklist WHERE tbl = 't' GROUP BY col ORDER BY col",
    )
    check(
        session,
        "SELECT slice, col, blocknum, num_values FROM stv_blocklist "
        "WHERE tbl = 't' AND num_values > 3 ORDER BY 1, 2, 3",
    )


class TestReplicatedJoins:
    @pytest.fixture
    def joined(self, session):
        session.execute("CREATE TABLE big_all (k int, w int) DISTSTYLE ALL")
        session.execute("CREATE TABLE dims (k int, label varchar(8)) DISTSTYLE ALL")
        session.execute("CREATE TABLE few (k int, tag varchar(8)) DISTSTYLE EVEN")
        session.execute(
            "INSERT INTO big_all VALUES "
            + ",".join(f"({i % 23}, {i})" for i in range(120))
        )
        session.execute(
            "INSERT INTO dims VALUES "
            + ",".join(f"({k}, 'd{k % 4}')" for k in range(0, 23, 2))
        )
        session.execute("INSERT INTO few VALUES (1, 'a'), (2, 'b'), (4, NULL)")
        return session

    def test_all_probe_side(self, joined):
        check(joined, "SELECT b.k, b.w, f.tag FROM big_all b JOIN few f ON b.k = f.k")
        check(
            joined,
            "SELECT f.tag, count(*), sum(b.w) FROM big_all b "
            "JOIN few f ON b.k = f.k GROUP BY f.tag",
        )

    def test_both_replicated_dist_none(self, joined):
        sql = (
            "SELECT d.label, count(*), max(b.w) FROM big_all b "
            "JOIN dims d ON b.k = d.k GROUP BY d.label ORDER BY d.label"
        )
        plan = "\n".join(row[0] for row in joined.execute(f"EXPLAIN {sql}").rows)
        assert "DS_DIST_NONE" in plan
        check(joined, sql)
        check(joined, "SELECT b.w, d.label FROM big_all b JOIN dims d ON b.k = d.k")


class TestInlineAggregates:
    @pytest.fixture
    def typed(self, cluster, session):
        session.execute(
            "CREATE TABLE typed (g int, i int, f float, d decimal(10,2), "
            "dt date, s varchar(8)) DISTSTYLE EVEN"
        )
        floats = ["-0.0", "0.0", "1.5", "-2.25", "0.0", "-0.0", "NULL"]
        lines = []
        for j in range(120):
            i = "NULL" if j % 3 == 0 else str(j * 7 % 50 - 20)
            d = "NULL" if j % 5 == 0 else f"{(j * 37) % 1000 / 100:.2f}"
            dt = "NULL" if j % 2 == 0 else f"2024-0{1 + j % 9}-{10 + j % 19}"
            s = "NULL" if j % 3 == 1 else f"v{j % 7}"
            lines.append(f"{j % 4}|{i}|{floats[j % 7]}|{d}|{dt}|{s}")
        cluster.register_inline_source("test://typed", lines)
        session.execute("COPY typed FROM 'test://typed' NULL AS 'NULL'")
        session.execute("CREATE TABLE zeros (g int, f float) DISTKEY(g)")
        session.execute(
            "INSERT INTO zeros VALUES (1, 0.0), (1, -0.0), (2, -0.0), (2, 0.0), "
            "(1, 2.0), (2, NULL), (3, NULL)"
        )
        return session

    def test_int_and_float(self, typed):
        check(
            typed,
            "SELECT g, count(i), sum(i), min(i), max(i), count(f), sum(f), "
            "min(f), max(f) FROM typed GROUP BY g ORDER BY g",
        )

    def test_decimal_date_varchar(self, typed):
        check(
            typed,
            "SELECT g, count(d), sum(d), min(d), max(d), count(dt), min(dt), "
            "max(dt), count(s), min(s), max(s) FROM typed GROUP BY g ORDER BY g",
        )

    def test_signed_zero_ties_keep_the_incumbent(self, typed):
        result = check(
            typed, "SELECT g, min(f), max(f), sum(f) FROM zeros GROUP BY g ORDER BY g"
        )
        assert result.rows[2] == (3, None, None, None)

    def test_global_and_all_null(self, typed):
        check(
            typed,
            "SELECT count(*), count(i), sum(f), min(d), max(dt), min(s) "
            "FROM typed WHERE i > 0",
        )
        result = check(
            typed, "SELECT count(i), sum(i), min(i), max(i) FROM typed WHERE i IS NULL"
        )
        assert result.rows == [(0, None, None, None)]

    def test_other_aggregates_keep_their_accumulate(self, typed):
        check(
            typed,
            "SELECT g, avg(i), stddev(f), variance(i), count(DISTINCT s), "
            "sum(DISTINCT i) FROM typed GROUP BY g ORDER BY g",
        )


def test_governed_aggregate_spills(session):
    session.execute("SET query_memory_limit = 512")
    result = check(
        session,
        "SELECT k, v, count(*), sum(f), min(s), max(f) FROM t "
        "GROUP BY k, v ORDER BY k, v",
    )
    assert result.stats.spilled_bytes > 0
