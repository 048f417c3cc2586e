"""The parallel per-slice executor: morsels, pools, recovery, telemetry."""

import pickle
import threading
import time

import pytest

from repro import Cluster
from repro.datatypes import INTEGER
from repro.exec import workers
from repro.exec.scan import shard_block_count
from repro.exec.workers import (
    MorselTask,
    PipelineSpec,
    PoolManager,
    WorkerPool,
    run_morsel,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.sql import ast
from repro.sql.functions import make_aggregate
from repro.storage import ScanStats, SimulatedDisk, epoch
from repro.storage.spillfile import SpillManager


def _load(cluster, rows=300):
    s = cluster.connect()
    s.execute("CREATE TABLE t (a int, b int) DISTKEY(a)")
    s.execute(
        "INSERT INTO t VALUES "
        + ",".join(f"({i}, {i % 7})" for i in range(rows))
    )
    return s


@pytest.fixture
def cluster():
    c = Cluster(node_count=2, slices_per_node=2, block_capacity=16)
    _load(c)
    yield c
    c.close()


def _spec(scan_filters=(), **pipeline):
    return PipelineSpec(
        table="t", column_names=["a", "b"], zone_predicates=[],
        filters=tuple(scan_filters), **pipeline,
    )


def _tasks_for(cluster, spec, morsel_blocks=2, row_ship_limit=0, **task):
    """Morselize the spec's table by hand, mirroring the executor's split."""
    tasks = []
    snapshot = cluster.transactions.snapshot_latest()
    for index, store in enumerate(cluster.slice_stores):
        blocks = shard_block_count(store.shard(spec.table))
        starts = list(range(0, blocks, morsel_blocks)) or [0]
        for j, start in enumerate(starts):
            tasks.append(
                MorselTask(
                    registry_id=cluster.worker_registry_id,
                    slice_index=index,
                    slice_id=store.slice_id,
                    block_start=start,
                    block_end=min(start + morsel_blocks, blocks),
                    include_tail=(j == len(starts) - 1),
                    pipeline=spec,
                    snapshot=snapshot,
                    row_ship_limit=row_ship_limit,
                    **task,
                )
            )
    return tasks


def _rows(result):
    return [row for batch in result.batches for row in batch.rows()]


#: Every operate-on-compressed codec family; ``a`` is unique per row.
ENCODED_DDL = (
    "CREATE TABLE m (a int encode mostly16, b int encode bytedict, "
    "c int encode runlength) DISTSTYLE EVEN"
)


@pytest.fixture
def encoded_cluster():
    """Sealed encoded blocks with deleted rows in them, plus an open tail."""
    c = Cluster(node_count=1, slices_per_node=2, block_capacity=16)
    s = c.connect()
    s.execute(ENCODED_DDL)
    s.execute(
        "INSERT INTO m VALUES "
        + ",".join(f"({i}, {i % 7}, {i // 40})" for i in range(300))
    )
    c.seal_table("m")
    s.execute("DELETE FROM m WHERE a BETWEEN 50 AND 70")
    s.execute("INSERT INTO m VALUES (1000, 1, 9), (1001, 2, 9), (1002, 6, 9)")
    yield c
    c.close()


def _b_below(limit):
    return ast.BinaryOp("<", ast.BoundRef(1, INTEGER, "b"), ast.Literal(limit))


class TestMorsels:
    def test_concatenated_morsels_reproduce_the_serial_scan(self, cluster):
        """Every row exactly once, in serial scan order, however the
        block ranges are cut."""
        for quantum in (1, 2, 3, 100):
            rows = []
            for task in _tasks_for(cluster, _spec(), morsel_blocks=quantum):
                rows.extend(_rows(run_morsel(task, cluster.slice_stores)))
            assert sorted(rows) == [(i, i % 7) for i in range(300)]

    def test_morsel_scan_stats_sum_to_the_serial_scan(self, cluster):
        serial = cluster.connect(executor="volcano")
        want = serial.execute("SELECT a, b FROM t").stats.scan
        got_blocks = got_values = 0
        for task in _tasks_for(cluster, _spec()):
            result = run_morsel(task, cluster.slice_stores)
            got_blocks += result.scan.blocks_read
            got_values += result.scan.values_read
        assert got_blocks == want.blocks_read
        assert got_values == want.values_read

    def test_overflow_flags_instead_of_shipping(self, cluster):
        task = _tasks_for(cluster, _spec(), row_ship_limit=3)[0]
        result = run_morsel(task, cluster.slice_stores)
        assert result.overflow and result.batches is None

    def test_worker_registry_resolves_tasks_without_explicit_slices(
        self, cluster
    ):
        task = _tasks_for(cluster, _spec())[0]
        assert _rows(run_morsel(task)) == _rows(
            run_morsel(task, cluster.slice_stores)
        )

    def test_every_quantum_reproduces_the_vectorized_scan(
        self, encoded_cluster
    ):
        """Morsels are the serial batch pipeline cut into block ranges:
        same rows in the same order, same ScanStats, for every cut."""
        cluster = encoded_cluster
        serial = cluster.connect(executor="vectorized")
        serial.execute("SET enable_result_cache = off")
        cluster.block_cache.clear()  # cold: workers never see the cache
        want = serial.execute("SELECT a, b, c FROM m WHERE b < 5")
        assert want.stats.scan.encoding  # the compressed path engaged
        spec = PipelineSpec(
            table="m", column_names=["a", "b", "c"], zone_predicates=[],
            filters=(_b_below(5),),
        )
        most_blocks = max(
            shard_block_count(store.shard("m"))
            for store in cluster.slice_stores
        )
        for quantum in range(1, most_blocks + 2):
            rows, scan = [], ScanStats()
            for task in _tasks_for(
                cluster, spec, morsel_blocks=quantum, encoded=True
            ):
                result = run_morsel(task, cluster.slice_stores)
                rows.extend(_rows(result))
                scan.merge(result.scan)
            assert rows == want.rows, quantum
            for counter in (
                "blocks_total", "blocks_read", "blocks_skipped",
                "chains_read", "bytes_read", "values_read",
                "encoded_batches", "decode_bytes_avoided", "encoding",
            ):
                assert getattr(scan, counter) == getattr(
                    want.stats.scan, counter
                ), (quantum, counter)

    def test_shipped_result_holds_no_encoded_column(self, encoded_cluster):
        """An EncodedColumn references its block and the worker's
        ScanStats; neither may cross the pool boundary."""
        shipped = 0
        for task in _tasks_for(
            encoded_cluster,
            PipelineSpec(
                table="m", column_names=["a", None, "c"], zone_predicates=[]
            ),
            encoded=True,
        ):
            result = run_morsel(task, encoded_cluster.slice_stores)
            assert result.scan.encoded_batches > 0
            for batch in result.batches:
                assert all(
                    col is None or type(col) is list for col in batch.columns
                )
            payload = pickle.dumps(result)
            assert b"EncodedColumn" not in payload
            assert b"repro.storage.block" not in payload
            assert _rows(pickle.loads(payload)) == _rows(result)
            shipped += len(result.batches)
        assert shipped

    def test_governed_aggregate_morsel_spills_to_its_log(self, cluster):
        """A tiny budget spills the morsel's state map into an op log;
        replayed on the leader it costs the disk exactly what the
        morsel's counters say, and the groups come out unchanged."""
        spec = _spec(
            group_exprs=(ast.BoundRef(0, INTEGER, "a"),),
            aggregates=((make_aggregate("count"), None),),
        )
        free = _tasks_for(cluster, spec, morsel_blocks=100)[0]
        tiny = _tasks_for(cluster, spec, morsel_blocks=100, memory_limit=512)[0]
        want = run_morsel(free, cluster.slice_stores)
        got = run_morsel(tiny, cluster.slice_stores)
        assert not want.spill_log and want.spilled_bytes == 0
        assert got.spilled_bytes > 0 and got.spill_partitions > 0
        assert list(got.partial.items()) == list(want.partial.items())
        assert got.io_log == want.io_log

        disk = SimulatedDisk("d")
        manager = SpillManager()
        manager.replay(disk, got.spill_log)
        assert disk.stats.bytes_written == got.spilled_bytes
        assert manager.bytes_read == got.spill_bytes_read > 0
        # Every temp byte written is deleted again by the end of the log.
        assert sum(n for op, n in got.spill_log if op == "write") == sum(
            n for op, n in got.spill_log if op == "delete"
        )


class TestEncodedMorsels:
    QUERIES = (
        "SELECT b, count(*), sum(a), min(c) FROM m WHERE b <> 3 "
        "GROUP BY b ORDER BY b",
        "SELECT a, b, c FROM m WHERE c >= 2 ORDER BY a",
        "SELECT count(*), sum(c), max(c) FROM m",
    )

    @pytest.mark.parametrize("mode", ["serial", "thread", "fork"])
    def test_enable_encoded_scan_governs_the_workers(
        self, encoded_cluster, mode
    ):
        if mode == "fork" and workers.default_mode() != "fork":
            pytest.skip("platform has no fork")
        volcano = encoded_cluster.connect(executor="volcano")
        s = encoded_cluster.connect(
            executor="parallel", parallelism=2, pool_mode=mode
        )
        s.execute("SET enable_result_cache = off")
        for sql in self.QUERIES:
            s.execute("SET enable_encoded_scan = on")
            on = s.execute(sql)
            s.execute("SET enable_encoded_scan = off")
            off = s.execute(sql)
            assert on.rows == off.rows == volcano.execute(sql).rows, sql
            assert on.stats.scan.encoded_batches > 0, sql
            assert on.stats.scan.decode_bytes_avoided > 0, sql
            assert off.stats.scan.encoded_batches == 0, sql
            assert off.stats.scan.encoding == {}, sql


class TestPools:
    def test_fork_pool_goes_stale_when_storage_mutates(self, cluster):
        if "fork" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("platform has no fork")
        pool = WorkerPool(2, "fork")
        try:
            assert not pool.stale()
            epoch.bump()
            assert pool.stale()
        finally:
            pool.close()

    def test_thread_pool_never_goes_stale(self):
        pool = WorkerPool(2, "thread")
        try:
            epoch.bump()
            assert not pool.stale()
        finally:
            pool.close()

    def test_manager_reuses_then_replaces_on_mutation(self):
        manager = PoolManager()
        try:
            first = manager.pool(2, "thread")
            assert manager.pool(2, "thread") is first
            assert manager.pool(3, "thread") is not first
        finally:
            manager.close()

    def test_insert_between_queries_refreshes_fork_workers(self, cluster):
        """A forked worker must see rows loaded after the fork."""
        mode = workers.default_mode()
        s = cluster.connect(executor="parallel", parallelism=2, pool_mode=mode)
        assert s.execute("SELECT count(*) FROM t").scalar() == 300
        s.execute("INSERT INTO t VALUES (1000, 1), (1001, 2)")
        assert s.execute("SELECT count(*) FROM t").scalar() == 302


    def test_sessions_survive_each_other_replacing_the_pool(self, cluster):
        """One pool per cluster, shared by every session: a dispatch that
        needs another one (stale after a write to the scanned table, or a
        different size) replaces it while other sessions still submit to
        it and wait on it. That costs them nothing visible — no error,
        no fault event, same rows."""
        injector = FaultInjector(FaultPlan(seed=1))  # injects nothing
        cluster.attach_faults(injector)
        mode = workers.default_mode()
        sql = "SELECT b, count(*), sum(a) FROM t GROUP BY b ORDER BY b"
        want = cluster.connect(executor="volcano").execute(sql).rows
        deadline = time.monotonic() + 3.0
        errors, statements = [], []

        def read(parallelism):
            s = cluster.connect(
                executor="parallel", parallelism=parallelism, pool_mode=mode
            )
            s.execute("SET enable_result_cache = off")
            try:
                while time.monotonic() < deadline:
                    assert s.execute(sql).rows == want
                    statements.append(parallelism)
            except Exception as exc:  # noqa: BLE001 - asserted empty below
                errors.append(exc)

        def touch():
            # All the pool manager sees of a write to t, without racing
            # the scans on the data itself.
            while time.monotonic() < deadline:
                epoch.bump("t")
                time.sleep(0.002)

        threads = [
            threading.Thread(target=read, args=(degree,))
            for degree in (2, 2, 3)
        ] + [threading.Thread(target=touch)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(statements) > 3
        assert "worker_crash" not in {event.kind for event in injector.log}
        assert cluster.pool_manager.forks > 1  # pools really were replaced


    @pytest.mark.parametrize("mode", ["thread", "fork"])
    def test_rows_sealed_after_the_morsels_were_cut_are_still_scanned(
        self, cluster, monkeypatch, mode
    ):
        """A writer that lands between cutting the morsels and acquiring
        the pool seals the tail into new blocks; the shard's last morsel
        is open-ended, so those rows are not lost."""
        if mode == "fork" and workers.default_mode() != "fork":
            pytest.skip("platform has no fork")
        writer = cluster.connect()
        acquire = cluster.pool_manager.pool

        def late_pool(*args, **kwargs):
            monkeypatch.undo()  # once
            writer.execute(
                "INSERT INTO t VALUES "
                + ",".join(f"({1000 + i}, 0)" for i in range(40))
            )
            return acquire(*args, **kwargs)

        monkeypatch.setattr(cluster.pool_manager, "pool", late_pool)
        s = cluster.connect(executor="parallel", parallelism=2, pool_mode=mode)
        s.execute("SET enable_result_cache = off")
        assert s.execute("SELECT count(*) FROM t WHERE a < 300").scalar() == 300
        assert s.execute("SELECT count(*) FROM t").scalar() == 340


class TestRecovery:
    def test_injected_crashes_recover_and_are_logged(self, cluster):
        injector = FaultInjector(FaultPlan(seed=3).worker_crashes(rate=1.0))
        cluster.attach_faults(injector)
        s = cluster.connect(executor="parallel", parallelism=2)
        assert s.execute("SELECT sum(a) FROM t").scalar() == sum(range(300))
        kinds = {event.kind for event in injector.log}
        assert "worker_crash" in kinds
        assert "recovery:morsel_rerun" in kinds

    def test_crash_counts_reach_stv_slice_exec(self, cluster):
        injector = FaultInjector(FaultPlan(seed=3).worker_crashes(rate=1.0))
        cluster.attach_faults(injector)
        s = cluster.connect(executor="parallel", parallelism=2)
        s.execute("SELECT count(*) FROM t")
        total = s.execute("SELECT sum(crashes) FROM stv_slice_exec").scalar()
        morsels = s.execute("SELECT sum(morsels) FROM stv_slice_exec").scalar()
        assert total == morsels  # rate 1.0: every morsel crashed once


class TestTelemetry:
    def test_stv_slice_exec_covers_every_slice(self, cluster):
        s = cluster.connect(executor="parallel", parallelism=2)
        s.execute("SELECT count(*) FROM t")
        rows = s.execute(
            "SELECT slice, node, morsels, scanned_rows FROM stv_slice_exec"
            " ORDER BY slice"
        ).rows
        assert [r[0] for r in rows] == [
            st.slice_id for st in cluster.slice_stores
        ]
        assert all(r[0].startswith(r[1]) for r in rows)
        assert sum(r[3] for r in rows) == 300

    def test_query_summary_reports_workers_and_morsels(self, cluster):
        s = cluster.connect(executor="parallel", parallelism=3)
        s.execute("SELECT count(*) FROM t")
        rows = s.execute(
            "SELECT operator, workers, morsels FROM svl_query_summary "
            "WHERE workers > 0"
        ).rows
        assert rows and all(r[1] == 3 and r[2] > 0 for r in rows)

    def test_explain_prints_executor_and_degree(self, cluster):
        s = cluster.connect(executor="parallel", parallelism=4)
        header = s.execute("EXPLAIN SELECT count(*) FROM t").rows[0][0]
        assert header == "Executor: parallel (parallelism 4)"
        serial = cluster.connect(executor="compiled")
        assert (
            serial.execute("EXPLAIN SELECT 1").rows[0][0]
            == "Executor: compiled"
        )

    def test_explain_analyze_annotates_parallel_steps(self, cluster):
        s = cluster.connect(executor="parallel", parallelism=2)
        text = "\n".join(
            r[0] for r in s.execute("EXPLAIN ANALYZE SELECT sum(a) FROM t").rows
        )
        assert "workers=2" in text and "morsels=" in text


class TestSessionConfig:
    def test_set_statements_select_parallel_execution(self, cluster):
        s = cluster.connect()
        s.execute("SET executor = parallel")
        s.execute("SET parallelism = 2")
        result = s.execute("SELECT count(*) FROM t")
        assert result.scalar() == 300
        assert result.stats.slice_exec  # ran through the parallel engine

    def test_bad_parallelism_is_rejected(self, cluster):
        from repro.errors import AnalysisError

        s = cluster.connect()
        with pytest.raises(AnalysisError):
            s.execute("SET parallelism = 0")
        with pytest.raises(ValueError):
            cluster.connect(executor="parallel", parallelism=0)

    def test_thread_mode_matches_fork_results(self, cluster):
        sql = "SELECT b, count(*), sum(a) FROM t GROUP BY b ORDER BY b"
        want = cluster.connect(executor="volcano").execute(sql).rows
        for mode in ("serial", "thread", workers.default_mode()):
            s = cluster.connect(
                executor="parallel", parallelism=2, pool_mode=mode
            )
            assert s.execute(sql).rows == want, mode
