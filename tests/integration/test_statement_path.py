"""The one statement path: parse at most once, route inside, record once.

``Session.execute`` is the only statement envelope: whatever front door a
statement came through (bare session, ``ClusterServer``, burst routing,
replay) it is parsed at most once (never on a plan-memo hit), its
transaction is resolved however it ends, and it leaves exactly one
``stl_query`` row on main. A routed statement
is the main session's own SELECT stage pointed at the burst cluster, so
it runs under that session's current parameters.
"""

import sys

import pytest

from repro.faults.plan import FaultKind, FaultSpec
from repro.plan.binder import Binder
from repro.plan.physical import PhysicalPlanner
from repro.replay import capture_workload, replay
from repro.server import BurstConfig, ClusterServer
from repro.systables.tables import SYSTEM_TABLE_COLUMNS
from tests.integration.test_burst_chaos import (
    DRILL_QUERIES,
    _canonical,
    _Harness,
)

COL = {name: i for i, (name, _) in enumerate(SYSTEM_TABLE_COLUMNS["stl_query"])}


def stl_query(cluster):
    return cluster.systables.rows("stl_query")


@pytest.fixture
def parse_count(monkeypatch):
    """Counts calls to ``parse_statement`` wherever a module bound it."""
    from repro.sql import parser

    calls = []
    real = parser.parse_statement

    def counting(sql):
        calls.append(sql)
        return real(sql)

    for module in list(sys.modules.values()):
        if getattr(module, "parse_statement", None) is real:
            monkeypatch.setattr(module, "parse_statement", counting)
    return calls


@pytest.fixture
def routing():
    """A burst-chaos harness with an active burst cluster and one open
    server session whose SELECTs route to it."""
    h = _Harness(seed=95)
    h.under_pressure(DRILL_QUERIES[0])
    assert h.router.active is not None and h.router.routed == 1
    h.handle = h.server.open_session()
    yield h
    h.server.shutdown()


# ---- every statement resolves its transaction and leaves a row --------------

FAILING = ["SELECT sqrt(-1)", "SELECT b < 1 FROM t"]  # ValueError, TypeError


def _table(executor):
    executor("CREATE TABLE t (a int, b varchar(8))")
    executor("INSERT INTO t VALUES (1, 'x'), (2, 'y')")


@pytest.mark.parametrize("sql", FAILING)
def test_non_repro_error_rolls_back_and_is_recorded(cluster, sql):
    session = cluster.connect()
    _table(session.execute)
    before = len(stl_query(cluster))
    with pytest.raises((ValueError, TypeError)):
        session.execute(sql)
    assert cluster.transactions.active_count == 0
    (row,) = stl_query(cluster)[before:]
    assert row[COL["state"]] == "error"
    assert row[COL["error"]]
    assert session.execute("SELECT count(*) FROM t").scalar() == 2


@pytest.mark.parametrize("sql", FAILING)
def test_non_repro_error_through_the_server(cluster, sql):
    server = ClusterServer(cluster)
    handle = server.open_session()
    _table(handle.execute)
    before = len(stl_query(cluster))
    with pytest.raises((ValueError, TypeError)):
        handle.execute(sql)
    assert cluster.transactions.active_count == 0
    (row,) = stl_query(cluster)[before:]
    assert row[COL["state"]] == "error"
    assert handle.execute("SELECT count(*) FROM t").scalar() == 2
    server.shutdown()


def test_error_inside_begin_leaves_the_transaction_to_the_client(cluster):
    session = cluster.connect()
    _table(session.execute)
    session.execute("BEGIN")
    session.execute("INSERT INTO t VALUES (3, 'z')")
    with pytest.raises(ValueError):
        session.execute("SELECT sqrt(-1)")
    assert session.in_transaction
    assert cluster.transactions.active_count == 1
    assert session.execute("SELECT count(*) FROM t").scalar() == 3
    session.execute("ROLLBACK")
    assert cluster.transactions.active_count == 0
    assert session.execute("SELECT count(*) FROM t").scalar() == 2


def test_explain_analyze_failure_leaves_the_session_executor_alone(cluster):
    session = cluster.connect(executor="compiled")
    _table(session.execute)
    with pytest.raises(ValueError):
        session.execute("EXPLAIN ANALYZE SELECT sqrt(a - 5) FROM t")
    plan = session.execute("EXPLAIN SELECT a FROM t")
    assert plan.rows[0] == ("Executor: compiled",)
    assert session.execute("SELECT a FROM t ORDER BY a").stats.executor == "compiled"


# ---- at most one parse per client statement, whichever route it takes -------


@pytest.fixture
def plan_calls(monkeypatch):
    """Counts ``Binder.bind_select`` and ``PhysicalPlanner.plan`` calls."""
    calls = []
    for cls, name in ((Binder, "bind_select"), (PhysicalPlanner, "plan")):

        def counting(self, node, _real=getattr(cls, name), _name=name):
            calls.append(_name)
            return _real(self, node)

        monkeypatch.setattr(cls, name, counting)
    return calls


def test_one_parse_on_a_plain_session_and_through_the_server(
    cluster, parse_count
):
    session = cluster.connect()
    session.execute("CREATE TABLE t (k int)")
    assert len(parse_count) == 1
    server = ClusterServer(cluster)
    handle = server.open_session()
    counts = []
    for execute in (handle.execute, handle.execute, session.execute):
        del parse_count[:]
        execute("SELECT count(*) FROM t")
        counts.append(len(parse_count))
    # The second sighting enters the cluster's plan memo; from then on
    # a repeat parses nothing, whichever session sends it.
    assert counts == [1, 1, 0]
    server.shutdown()


def test_a_memo_hit_skips_parse_bind_and_plan_but_not_the_rest(
    cluster, parse_count, plan_calls
):
    server = ClusterServer(cluster)
    handle = server.open_session()
    _table(handle.execute)
    sql = "SELECT a, b FROM t ORDER BY a"
    text = _canonical(sql)
    calls = []
    for _ in range(3):
        del parse_count[:], plan_calls[:]
        hit = handle.execute(sql)
        calls.append((len(parse_count), sorted(plan_calls)))
    planned = (1, ["bind_select", "plan"])
    assert calls == [planned, planned, (0, [])]
    assert hit.stats.result_cache_hit and hit.rows == [(1, "x"), (2, "y")]
    recorded = [r for r in stl_query(cluster) if r[COL["querytxt"]] == text]
    assert [r[COL["state"]] for r in recorded] == ["success"] * 3
    # With its entry gone, a memo hit executes and fills the result cache.
    cluster.result_cache.clear()
    del parse_count[:]
    refill = handle.execute(sql)
    assert refill.stats.result_cache_status == "miss"
    assert len(cluster.result_cache) == 1
    assert handle.execute(sql).stats.result_cache_hit
    assert (len(parse_count), plan_calls) == (0, [])
    server.shutdown()


def test_one_parse_when_routed_and_when_routed_then_fallen_back(
    routing, parse_count
):
    # The harness ran this text twice already (its loader, then a queued
    # session), so it is a memo hit: no parse, but it still routes.
    routing.handle.execute(DRILL_QUERIES[1])
    assert routing.router.routed == 2
    assert len(parse_count) == 0

    # The next routed statement lands on a crashing burst node.
    text = _canonical(DRILL_QUERIES[2])
    routing.env.faults.add(
        FaultSpec(
            FaultKind.NODE_CRASH, at_s=routing.env.clock.now, target="node-0"
        )
    )
    del parse_count[:]
    result = routing.handle.execute(DRILL_QUERIES[2])
    assert result.routed_to == "main"
    assert routing.router.fallbacks == 1
    assert len(parse_count) == 1
    rows = [
        r for r in stl_query(routing.managed.engine) if r[COL["querytxt"]] == text
    ]
    assert [r[COL["routed_to"]] for r in rows] == ["main"]


# ---- routed statements honour the session's parameters ----------------------


def test_routed_statement_runs_on_the_session_executor(routing):
    routing.handle.execute(DRILL_QUERIES[1])  # routed under the default
    routing.handle.execute("SET executor = vectorized")
    result = routing.handle.execute(DRILL_QUERIES[1])
    assert routing.router.routed == 3
    assert result.stats.executor == "vectorized"
    assert result.routed_to == "burst"
    row = stl_query(routing.managed.engine)[-1]
    assert row[COL["routed_to"]] == "burst"
    assert row[COL["executor"]] == "vectorized"


def test_routed_statement_spills_under_the_session_memory_limit(routing):
    routing.handle.execute("SET query_memory_limit = 512")
    result = routing.handle.execute(
        "SELECT k, COUNT(*), SUM(v) FROM sales GROUP BY k ORDER BY k"
    )
    assert routing.router.routed == 2
    assert result.stats.spill_events
    assert result.stats.peak_memory_bytes > 0


def test_routed_statement_honours_enable_result_cache(routing):
    handle = routing.handle
    handle.execute("SET enable_result_cache = on")
    handle.execute(DRILL_QUERIES[1])
    hit = handle.execute(DRILL_QUERIES[1])
    assert hit.stats.result_cache_hit
    handle.execute("SET enable_result_cache = off")
    again = handle.execute(DRILL_QUERIES[1])
    assert routing.router.routed == 4
    assert not again.stats.result_cache_hit


def test_replay_through_a_router_keeps_each_captured_executor():
    h = _Harness(seed=96)
    engine = h.managed.engine
    source = engine.connect()
    for executor, sql in zip(("volcano", "vectorized", "compiled"), DRILL_QUERIES):
        source.set_executor(executor)
        source.execute(sql)
    workload = capture_workload(engine)
    assert [q.executor for q in workload.queries] == [
        "volcano",
        "vectorized",
        "compiled",
    ]
    h.server.shutdown()
    engine.systables.store.clear("stl_query")

    def attach(server):
        # A burst cluster that is already up: every replayed query routes.
        router = h.svc.enable_concurrency_scaling("main", server, BurstConfig())
        router.active, _ = h.svc.provision_burst_cluster("main")
        router.history.append(router.active)

    report = replay(workload, engine, on_server=attach)
    assert report.error_count == 0
    assert report.metrics.burst["routed"] == len(workload)
    recorded = [
        (r[COL["routed_to"]], r[COL["executor"]]) for r in stl_query(engine)
    ]
    assert recorded == [
        ("burst", "volcano"),
        ("burst", "vectorized"),
        ("burst", "compiled"),
    ]
