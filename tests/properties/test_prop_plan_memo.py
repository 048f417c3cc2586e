"""Property: a memoised SELECT is indistinguishable from a cold plan.

``Session.execute`` keeps planned client SELECTs in the cluster's plan
memo, keyed on (text, executor, enable_cbo, slice count) and valid while
every scanned table's catalog entry, statistics object, row count and
staleness are unchanged. Random interleavings of CREATE / DROP (the same
name with a new schema), INSERT, DELETE, COPY, ANALYZE, VACUUM,
``SET enable_cbo`` and ``SET executor`` run between repeated SELECTs. A
repeat must return the rows, ``stats.plan_text`` (``rows=`` estimates
included) and EXPLAIN of a cold plan, and the third run of an unchanged
text must not plan at all. Texts with a subquery or a system-table scan
never enter the memo.

A threaded case runs one memoised text on four server sessions at once
with the result cache off: every session executes the one shared plan,
so identical rows show that executors do not mutate plan nodes.
"""

from __future__ import annotations

import itertools
import threading
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import Cluster
from repro.plan.physical import PhysicalPlanner
from repro.server import ClusterServer

SCHEMAS = ("a int, b int", "b varchar(8), a int, c int")
EXECUTORS = ("volcano", "compiled", "vectorized", "parallel")

MEMOISED = (
    "SELECT a, count(*) FROM t GROUP BY a ORDER BY a",
    "SELECT count(*), sum(a), min(a) FROM t WHERE a > 3",
    "SELECT * FROM t WHERE a = 2",
    "SELECT d.k, count(*), sum(t.a) FROM t JOIN d ON t.a = d.k "
    "JOIN e ON d.k = e.k GROUP BY d.k ORDER BY d.k",
)
NEVER_MEMOISED = (
    "SELECT count(*) FROM t WHERE a IN (SELECT k FROM d)",
    "SELECT count(*) FROM t WHERE a > (SELECT min(k) FROM d)",
    "SELECT count(*) FROM stl_query",
)

OPS = st.one_of(
    st.tuples(st.just("create"), st.integers(0, 1)),
    st.tuples(st.just("drop"), st.just(0)),
    st.tuples(st.just("insert"), st.integers(1, 30)),
    st.tuples(st.just("delete"), st.integers(0, 8)),
    st.tuples(st.just("copy"), st.integers(1, 30)),
    st.tuples(st.just("analyze"), st.just(0)),
    st.tuples(st.just("vacuum"), st.just(0)),
    st.tuples(st.just("cbo"), st.booleans()),
    st.tuples(st.just("executor"), st.sampled_from(EXECUTORS)),
)

_uris = itertools.count()


def _cluster() -> Cluster:
    cluster = Cluster(node_count=1, slices_per_node=2, block_capacity=16)
    s = cluster.connect()
    s.execute("CREATE TABLE d (k int) DISTSTYLE ALL")
    s.execute("INSERT INTO d VALUES " + ",".join(f"({k})" for k in range(0, 9, 2)))
    s.execute("CREATE TABLE e (k int)")
    s.execute("INSERT INTO e VALUES " + ",".join(f"({k % 5})" for k in range(40)))
    s.execute(f"CREATE TABLE t ({SCHEMAS[0]})")
    return cluster


def _statements(op: str, arg, cluster: Cluster) -> list[str]:
    if op == "create":
        return ["DROP TABLE IF EXISTS t", f"CREATE TABLE t ({SCHEMAS[arg]})"]
    if op == "drop":
        return ["DROP TABLE IF EXISTS t"]
    if op == "insert":
        values = ",".join(f"({(arg * 7 + i) % 10})" for i in range(arg))
        return [f"INSERT INTO t (a) VALUES {values}"]
    if op == "delete":
        return [f"DELETE FROM t WHERE a < {arg}"]
    if op == "copy":
        uri = f"mem://t/{next(_uris)}"
        cluster.register_inline_source(uri, [str(i % 9) for i in range(arg)])
        return [f"COPY t (a) FROM '{uri}'"]
    if op == "analyze":
        return ["ANALYZE t"]
    if op == "vacuum":
        return ["VACUUM t"]
    if op == "cbo":
        return [f"SET enable_cbo = {'on' if arg else 'off'}"]
    return [f"SET executor = {arg}"]


def _outcome(session, sql: str, script: bool):
    try:
        result = session.execute_script(sql)[0] if script else session.execute(sql)
    except Exception as exc:  # noqa: BLE001 — both sides must fail alike
        return type(exc).__name__, None, None
    return result.columns, result.rows, result.stats.plan_text


def _memoised(cluster: Cluster) -> set[str]:
    return {
        key[0] for key, memo in cluster.plan_memo._entries.items() if memo is not None
    }


@given(ops=st.lists(OPS, min_size=1, max_size=8))
@settings(max_examples=30, deadline=None)
def test_memoised_select_matches_a_cold_plan(ops):
    cluster = _cluster()
    warm = cluster.connect(parallelism=1)
    # execute_script never consults the memo: every statement plans cold,
    # and with the result cache off its rows are recomputed too.
    cold = cluster.connect(parallelism=1)
    cold.execute("SET enable_result_cache = off")
    plans = []
    real_plan = PhysicalPlanner.plan

    def counting_plan(planner, logical):
        plans.append(logical)
        return real_plan(planner, logical)

    with mock.patch.object(PhysicalPlanner, "plan", counting_plan):
        for op, arg in ops:
            for sql in _statements(op, arg, cluster):
                if sql.startswith("SET"):
                    cold.execute(sql)
                _outcome(warm, sql, script=False)  # fails once t is dropped
            for sql in MEMOISED:
                expected = _outcome(cold, sql, script=True)
                for run in range(3):
                    del plans[:]
                    got = _outcome(warm, sql, script=False)
                    assert got == expected, (sql, run)
                if expected[1] is None:
                    continue  # the table is dropped: nothing to plan
                assert plans == [], f"third run of {sql!r} planned again"
                explained = warm.execute(f"EXPLAIN {sql}")
                assert [r[0] for r in explained.rows[1:]] == (
                    expected[2].splitlines()
                )
            for sql in NEVER_MEMOISED:
                for _ in range(3):
                    _outcome(warm, sql, script=False)
    assert _memoised(cluster).isdisjoint(NEVER_MEMOISED)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_concurrent_sessions_share_one_plan(executor):
    cluster = _cluster()
    setup = cluster.connect()
    setup.execute(
        "INSERT INTO t (a, b) VALUES "
        + ",".join(f"({i % 10}, {i})" for i in range(200))
    )
    sql = MEMOISED[3]
    server = ClusterServer(cluster)
    try:
        handles = [
            server.open_session(executor=executor, pool_mode="thread")
            for _ in range(4)
        ]
        for handle in handles:
            handle.execute("SET enable_result_cache = off")
        expected = handles[0].execute(sql).rows
        handles[0].execute(sql)  # the second sighting: memoised
        assert sql in _memoised(cluster)
        barrier = threading.Barrier(len(handles))
        results: list[list] = [[] for _ in handles]

        def run(i: int) -> None:
            barrier.wait()
            for _ in range(10):
                results[i].append(handles[i].execute(sql).rows)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert all(rows == expected for per in results for rows in per)
        assert sum(len(per) for per in results) == 40
    finally:
        server.shutdown()
        cluster.close()
