"""System tables end to end: telemetry queryable through the SQL front door.

The paper's operational story (§4–5) leans on the warehouse describing
itself through ordinary tables — stl_query, svl_query_summary,
stv_blocklist and friends — instead of a separate monitoring stack. These
tests drive real workloads and then assert, via plain SELECTs, that the
instrumented numbers match ground truth from the storage and executor
layers.
"""

import pytest

from repro import Cluster
from repro.engine.wlm import QueryArrival, QueueConfig, WorkloadManager
from repro.errors import ColumnNotFoundError
from repro.faults.injector import FaultInjector


@pytest.fixture
def loaded():
    cluster = Cluster(node_count=2, slices_per_node=2, block_capacity=100)
    s = cluster.connect()
    s.execute(
        "CREATE TABLE events (ts int, region int, amount float) "
        "DISTSTYLE EVEN SORTKEY(ts)"
    )
    cluster.register_inline_source(
        "inline://events",
        [f"{i}|{i % 8}|{(i % 13) * 1.5}" for i in range(4000)],
    )
    s.execute("COPY events FROM 'inline://events'")
    return cluster, s


class TestQueryLog:
    def test_stl_query_records_statements(self, loaded):
        _, s = loaded
        s.execute("SELECT count(*) FROM events")
        rows = s.execute(
            "SELECT query, querytxt, state, rows FROM stl_query "
            "WHERE querytxt LIKE '%COUNT(%' ORDER BY query"
        ).rows
        # COPY's internal work is one statement; our count is another.
        assert any("COUNT" in text.upper() for _, text, _, _ in rows)
        last = rows[-1]
        assert last[2] == "success"
        assert last[3] == 1  # one aggregate row came back

    def test_query_over_stl_query_does_not_see_itself(self, loaded):
        _, s = loaded
        before = s.execute("SELECT count(*) c FROM stl_query").scalar()
        after = s.execute("SELECT count(*) c FROM stl_query").scalar()
        # The second query sees exactly one more completed statement (the
        # first count), not itself.
        assert after == before + 1

    def test_errors_are_recorded_with_message(self, loaded):
        _, s = loaded
        with pytest.raises(ColumnNotFoundError):
            s.execute("SELECT no_such_column FROM events")
        rows = s.execute(
            "SELECT state, error FROM stl_query WHERE state = 'error'"
        ).rows
        assert len(rows) == 1
        assert "no_such_column" in rows[0][1]

    def test_elapsed_and_executor_populated(self, loaded):
        cluster, _ = loaded
        for kind in ("volcano", "compiled"):
            sess = cluster.connect(kind)
            sess.execute("SELECT sum(amount) FROM events")
            row = sess.execute(
                "SELECT executor, elapsed_us FROM stl_query "
                "ORDER BY query DESC LIMIT 1"
            ).rows[0]
            assert row[0] == kind
            assert row[1] >= 0


class TestQuerySummary:
    def test_scan_step_matches_scan_stats_ground_truth(self, loaded):
        _, s = loaded
        r = s.execute("SELECT count(*) FROM events WHERE ts BETWEEN 100 AND 199")
        assert r.scalar() == 100
        truth = r.stats.scan
        assert truth.blocks_skipped > 0  # sortkey pruning really happened
        summary = s.execute(
            "SELECT rows, blocks_read, blocks_skipped FROM svl_query_summary "
            "WHERE operator LIKE 'Seq Scan%' "
            "ORDER BY query DESC LIMIT 1"
        ).rows[0]
        # The SQL-visible numbers are the same ones the result carried.
        assert summary[1] == truth.blocks_read
        assert summary[2] == truth.blocks_skipped
        # Scan rows = storage-emitted rows (post-pruning, pre-filter):
        # every row in the surviving blocks.
        assert summary[0] >= 100

    def test_summary_has_one_row_per_plan_step(self, loaded):
        _, s = loaded
        r = s.execute(
            "SELECT region, sum(amount) FROM events GROUP BY region ORDER BY region"
        )
        steps = s.execute(
            "SELECT step, operator, rows FROM svl_query_summary "
            "WHERE query = (SELECT max(query) FROM svl_query_summary) "
            "ORDER BY step"
        ).rows
        assert [step for step, _, _ in steps] == list(range(len(steps)))
        assert len(steps) == len(r.stats.operators)
        # The root step emitted exactly the result rows.
        assert steps[0][2] == r.rowcount

    def test_compiled_executor_reports_scan_steps(self, loaded):
        cluster, _ = loaded
        s = cluster.connect("compiled")
        r = s.execute("SELECT count(*) FROM events WHERE ts < 500")
        assert r.scalar() == 500
        ops = s.execute(
            "SELECT operator FROM svl_query_summary "
            "WHERE query = (SELECT max(query) FROM svl_query_summary)"
        ).rows
        assert any("Seq Scan" in op for (op,) in ops)


    @pytest.mark.parametrize(
        "dml", ["DELETE FROM events", "UPDATE events SET region = 9"]
    )
    def test_dml_scan_is_recorded_with_its_pruning(self, loaded, dml):
        cluster, s = loaded
        # 10 blocks per slice, loaded in ts order: a 25-ts range sits in
        # one block of each slice (two if it straddles a boundary).
        r = s.execute(f"{dml} WHERE ts >= 1000 AND ts < 1025")
        assert r.rowcount == 25
        ((operator, rows, read, skipped),) = s.execute(
            "SELECT operator, rows, blocks_read, blocks_skipped "
            "FROM svl_query_summary WHERE query = ("
            f"SELECT max(query) FROM stl_query WHERE querytxt LIKE '{dml[:6]}%')"
        ).rows
        assert operator == "Seq Scan on events"
        assert 0 < read <= 2 * cluster.slice_count
        assert read + skipped == 10 * cluster.slice_count
        truth = r.stats.scan
        assert (read, skipped) == (truth.blocks_read, truth.blocks_skipped)
        assert rows >= 25  # post-pruning, pre-filter, like a SELECT's scan
        # Still one stl_query row per statement.
        assert s.execute("SELECT count(*) FROM stl_query").scalar() == 4


class TestBlocklist:
    def test_blocklist_matches_storage_ground_truth(self, loaded):
        cluster, s = loaded
        cluster.seal_table("events")
        total_sql = s.execute(
            "SELECT count(*) c FROM stv_blocklist WHERE tbl = 'events'"
        ).scalar()
        truth = sum(
            len(store.shard("events").chain(col).blocks)
            for store in cluster.slice_stores
            if store.has_shard("events")
            for col in store.shard("events").column_names
        )
        assert total_sql == truth > 0

    def test_zone_map_bounds_visible_in_sql(self, loaded):
        cluster, s = loaded
        cluster.seal_table("events")
        rows = s.execute(
            "SELECT minvalue, maxvalue FROM stv_blocklist "
            "WHERE tbl = 'events' AND col = 'ts' AND slice = 'node-0-s0'"
        ).rows
        assert rows
        # Sorted load: per-block ranges are disjoint and increasing.
        bounds = sorted((int(lo), int(hi)) for lo, hi in rows)
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi < lo

    def test_join_system_against_user_table(self, loaded):
        cluster, s = loaded
        cluster.seal_table("events")
        s.execute("CREATE TABLE watch (name varchar(128), owner varchar(32))")
        s.execute("INSERT INTO watch VALUES ('events', 'etl'), ('ghost', 'noone')")
        rows = s.execute(
            "SELECT w.owner, count(*) blocks FROM stv_blocklist b "
            "JOIN watch w ON b.tbl = w.name GROUP BY w.owner"
        ).rows
        assert len(rows) == 1
        assert rows[0][0] == "etl"
        assert rows[0][1] > 0


class TestWlmTables:
    def test_admission_outcomes_queryable(self):
        cluster = Cluster(node_count=1)
        s = cluster.connect()
        wlm = WorkloadManager(
            [
                QueueConfig("short", slots=1, memory_fraction=0.5,
                            admission_timeout_s=1.0),
                QueueConfig("long", slots=2, memory_fraction=0.5),
            ],
            systables=cluster.systables,
        )
        wlm.simulate(
            [
                QueryArrival("short", 0.0, 10.0, label="q1"),
                QueryArrival("short", 0.1, 10.0, label="q2"),  # times out
                QueryArrival("long", 0.0, 5.0, label="big"),
            ]
        )
        states = s.execute(
            "SELECT queue, state, label FROM stv_wlm_query_state "
            "ORDER BY queue, arrival_s"
        ).rows
        assert ("short", "timed_out", "q2") in states
        assert ("long", "completed", "big") in states
        actions = s.execute(
            "SELECT queue, action, label FROM stl_wlm_rule_action"
        ).rows
        assert actions == [("short", "timeout", "q2")]

    def test_snapshot_replaced_each_simulation(self):
        cluster = Cluster(node_count=1)
        s = cluster.connect()
        wlm = WorkloadManager(systables=cluster.systables)
        wlm.simulate([QueryArrival("default", 0.0, 1.0, label="first")])
        wlm.simulate([QueryArrival("default", 0.0, 1.0, label="second")])
        labels = [
            r[0] for r in s.execute("SELECT label FROM stv_wlm_query_state").rows
        ]
        assert labels == ["second"]


class TestFaultEvents:
    def test_injector_log_queryable(self):
        cluster = Cluster(node_count=1)
        injector = FaultInjector()
        cluster.attach_faults(injector)
        injector.record("node_crash", target="node-0", detail="drill")
        injector.record("s3_outage", target="us-east-1")
        s = cluster.connect()
        rows = s.execute(
            "SELECT kind, target FROM stl_fault_events ORDER BY kind"
        ).rows
        assert rows == [
            ("node_crash", "node-0"),
            ("s3_outage", "us-east-1"),
        ]

    def test_no_injector_means_empty_table(self):
        cluster = Cluster(node_count=1)
        s = cluster.connect()
        assert s.execute("SELECT count(*) c FROM stl_fault_events").scalar() == 0


class TestFiveTablesThroughSql:
    def test_select_over_every_system_table(self, loaded):
        cluster, s = loaded
        for name in (
            "stl_query",
            "svl_query_summary",
            "stv_wlm_query_state",
            "stl_wlm_rule_action",
            "stv_blocklist",
            "stl_fault_events",
        ):
            result = s.execute(f"SELECT * FROM {name} LIMIT 3")
            assert result.columns  # schema resolved through the catalog


class TestControlPlaneObservability:
    def test_service_binds_simclock_into_systables(self):
        from repro.cloud import CloudEnvironment
        from repro.controlplane import RedshiftService

        svc = RedshiftService(CloudEnvironment(seed=7))
        managed, _ = svc.create_cluster(node_count=2)
        s = managed.connect()
        s.execute("SELECT 1 x")
        (start,) = s.execute(
            "SELECT starttime FROM stl_query ORDER BY query DESC LIMIT 1"
        ).rows[0]
        # Stamped from the shared simulation clock (well past zero after
        # cluster provisioning), not wall time.
        assert start == svc.env.clock.now > 0

    def test_publish_query_metrics_reads_stl_query(self):
        from repro.cloud import CloudEnvironment
        from repro.controlplane import RedshiftService

        svc = RedshiftService(CloudEnvironment(seed=7))
        managed, _ = svc.create_cluster(node_count=2)
        s = managed.connect()
        s.execute("CREATE TABLE t (a INT)")
        s.execute("INSERT INTO t VALUES (1), (2)")
        s.execute("SELECT * FROM t")
        with pytest.raises(ColumnNotFoundError):
            s.execute("SELECT nope FROM t")
        metrics = svc.publish_query_metrics(managed.cluster_id)
        assert metrics["QueryCount"] == 4.0
        assert metrics["QueryErrors"] == 1.0
        assert metrics["QueryLatencyUs"] > 0
        dims = {"cluster_id": managed.cluster_id}
        series = svc.env.cloudwatch.get_series("QueryErrors", dims)
        assert [p.value for p in series] == [1.0]

    def test_console_pages_render_from_sql(self):
        from repro.controlplane import console as con

        cluster = Cluster(node_count=1, block_capacity=100)
        s = cluster.connect()
        s.execute("CREATE TABLE t (a INT) SORTKEY(a)")
        cluster.register_inline_source(
            "inline://t", [str(i) for i in range(2000)]
        )
        s.execute("COPY t FROM 'inline://t'")
        s.execute("SELECT count(*) FROM t WHERE a < 50")
        cluster.seal_table("t")

        slow = con.slowest_queries(s, limit=3)
        assert slow and all(len(row) == 4 for row in slow)
        pruned = con.most_pruned_scans(s)
        assert pruned and pruned[0][3] > 0  # blocks_skipped
        assert con.fault_timeline(s) == []
        storage = con.storage_summary(s)
        assert [row[0] for row in storage] == ["t"]
