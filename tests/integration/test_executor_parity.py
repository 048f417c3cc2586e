"""Volcano vs compiled executor: identical results on a wide query battery.

The compiled executor re-implements per-row execution; these tests pin it
to the interpreted executor's semantics query by query.
"""

import pytest

from repro import Cluster

QUERIES = [
    "SELECT count(*) FROM clicks",
    "SELECT count(*), sum(n), avg(price), min(n), max(n) FROM clicks WHERE n > 400",
    "SELECT user_id, count(*), sum(n) FROM clicks GROUP BY user_id",
    "SELECT u.name, count(*) FROM clicks c JOIN users u ON c.user_id = u.id "
    "GROUP BY u.name",
    "SELECT t.label, count(*) FROM clicks c JOIN tiny t ON c.n % 2 = t.k "
    "GROUP BY t.label",
    "SELECT u.name, c.n FROM users u LEFT JOIN clicks c "
    "ON u.id = c.user_id AND c.n < 3",
    "SELECT CASE WHEN n % 3 = 0 THEN 'fizz' ELSE '-' END f, count(*) "
    "FROM clicks GROUP BY 1",
    "SELECT DISTINCT url FROM clicks WHERE user_id = 2",
    "SELECT count(DISTINCT url) FROM clicks",
    "SELECT APPROXIMATE count(DISTINCT n) FROM clicks",
    "SELECT upper(name) FROM users WHERE name IS NOT NULL",
    "SELECT user_id, n FROM clicks WHERE url LIKE '%/3' AND n BETWEEN 5 AND 600",
    "SELECT stddev(price), variance(n) FROM clicks",
    "SELECT c.user_id, t.label, u.name FROM clicks c "
    "JOIN tiny t ON c.n % 2 = t.k JOIN users u ON c.user_id = u.id "
    "WHERE c.n < 50",
    "SELECT user_id, count(*) FROM clicks GROUP BY user_id "
    "HAVING count(*) >= 200",
    "WITH agg AS (SELECT user_id, count(*) c FROM clicks GROUP BY user_id) "
    "SELECT u.name, a.c FROM agg a JOIN users u ON a.user_id = u.id",
    "SELECT n + 0.5, n - price, n * 2, n / 3, n % 7 FROM clicks WHERE n < 20",
    "SELECT sum(n) FROM clicks WHERE price IS NOT NULL AND n <> 13",
    "SELECT name || '!' FROM users WHERE id IN (1, 3)",
    "SELECT coalesce(name, 'x'), age FROM users",
]


def normalize(rows):
    return sorted(
        (
            tuple(round(v, 9) if isinstance(v, float) else v for v in row)
            for row in rows
        ),
        key=repr,
    )


@pytest.mark.parametrize("sql", QUERIES)
def test_parity(loaded_cluster, sql):
    volcano = loaded_cluster.connect(executor="volcano").execute(sql)
    compiled = loaded_cluster.connect(executor="compiled").execute(sql)
    assert normalize(volcano.rows) == normalize(compiled.rows)


def test_both_executors_read_identical_blocks(loaded_cluster):
    sql = "SELECT count(*) FROM clicks WHERE n BETWEEN 100 AND 200"
    v = loaded_cluster.connect(executor="volcano").execute(sql)
    c = loaded_cluster.connect(executor="compiled").execute(sql)
    assert v.stats.scan.blocks_read == c.stats.scan.blocks_read
    assert v.stats.scan.blocks_skipped == c.stats.scan.blocks_skipped


#: One query per join shape, with the plan line that proves the shape.
#: ``ranked`` is KEY- and sort-keyed on its join column (merge joins);
#: ``spread`` is EVEN, so any join on it moves rows.
JOIN_SHAPES = [
    ("Hash INNER Join DS_DIST_NONE",
     "SELECT u.name, count(*) FROM clicks c JOIN users u "
     "ON c.user_id = u.id GROUP BY u.name"),
    ("Hash INNER Join DS_DIST_NONE",
     "SELECT a.label, b.label FROM tiny a JOIN tiny b ON a.k = b.k"),
    ("Hash INNER Join DS_BCAST_INNER",
     "SELECT c.n, u.name FROM clicks c JOIN users u ON c.n = u.id"),
    ("Hash INNER Join DS_DIST_INNER",
     "SELECT c.n, p.y FROM clicks c JOIN spread p ON c.user_id = p.x"),
    ("Hash INNER Join DS_DIST_OUTER",
     "SELECT r.v, p.y FROM ranked r JOIN spread p ON r.k = p.x"),
    ("Hash INNER Join DS_DIST_BOTH",
     "SELECT p.y, q.y FROM spread p JOIN spread q ON p.x = q.y"),
    ("Merge INNER Join DS_DIST_NONE",
     "SELECT a.v, b.v FROM ranked a JOIN ranked b ON a.k = b.k"),
    ("Nested Loop INNER Join",
     "SELECT u.name, t.label FROM users u JOIN tiny t ON u.age > t.k"),
    ("Hash LEFT Join",
     "SELECT u.name, c.n FROM users u LEFT JOIN clicks c ON u.id = c.n"),
    ("Hash RIGHT Join",
     "SELECT u.name, c.n FROM clicks c RIGHT JOIN users u ON u.id = c.n"),
    ("Hash FULL Join",
     "SELECT u.name, c.n FROM users u FULL JOIN clicks c ON u.id = c.n"),
]


def test_both_executors_move_identical_bytes(loaded_cluster):
    """Every executor moves a join's inputs the same way: per shape, all
    four return the same rows and the same interconnect counters."""
    s = loaded_cluster.connect()
    s.execute("CREATE TABLE ranked (k int, v int) DISTKEY(k) SORTKEY(k)")
    s.execute(
        "INSERT INTO ranked VALUES "
        + ",".join(f"({i % 50}, {i})" for i in range(300))
    )
    s.execute("CREATE TABLE spread (x int, y int) DISTSTYLE EVEN")
    s.execute(
        "INSERT INTO spread VALUES "
        + ",".join(f"({i % 60}, {i})" for i in range(400))
    )
    for shape, sql in JOIN_SHAPES:
        plan = "\n".join(row[0] for row in s.execute("EXPLAIN " + sql).rows)
        assert shape in plan, (sql, plan)
        runs = {
            name: loaded_cluster.connect(executor=name).execute(sql)
            for name in ("volcano", "compiled", "vectorized", "parallel")
        }
        reference = runs["volcano"]
        for name, run in runs.items():
            assert normalize(run.rows) == normalize(reference.rows), (name, sql)
            assert run.stats.network == reference.stats.network, (name, sql)


def test_compiled_reports_compile_time(loaded_cluster):
    r = loaded_cluster.connect(executor="compiled").execute(
        "SELECT user_id, count(*) FROM clicks WHERE n > 10 GROUP BY user_id"
    )
    assert r.stats.compile_seconds > 0
    assert r.stats.executor == "compiled"


def test_volcano_has_no_compile_time(loaded_cluster):
    r = loaded_cluster.connect(executor="volcano").execute(
        "SELECT count(*) FROM clicks"
    )
    assert r.stats.compile_seconds == 0


def test_unknown_executor_rejected(loaded_cluster):
    with pytest.raises(ValueError):
        loaded_cluster.connect(executor="jit")
    session = loaded_cluster.connect()
    with pytest.raises(ValueError):
        session.set_executor("turbo")
