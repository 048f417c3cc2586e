"""DML, transactions, and MVCC behaviour through the session API."""

import pytest

from repro import Cluster
from repro.errors import (
    DataError,
    SerializationError,
    TableAlreadyExistsError,
    TableNotFoundError,
    TransactionError,
)


class TestDdl:
    def test_create_drop(self, session):
        session.execute("CREATE TABLE t (a int)")
        session.execute("DROP TABLE t")
        with pytest.raises(TableNotFoundError):
            session.execute("SELECT * FROM t")

    def test_duplicate_create_rejected(self, session):
        session.execute("CREATE TABLE t (a int)")
        with pytest.raises(TableAlreadyExistsError):
            session.execute("CREATE TABLE t (a int)")

    def test_if_not_exists(self, session):
        session.execute("CREATE TABLE t (a int)")
        session.execute("CREATE TABLE IF NOT EXISTS t (a int)")

    def test_drop_if_exists(self, session):
        session.execute("DROP TABLE IF EXISTS never_created")

    def test_ctas(self, loaded_session):
        r = loaded_session.execute(
            "CREATE TABLE top_users DISTSTYLE ALL AS "
            "SELECT user_id, count(*) c FROM clicks GROUP BY user_id"
        )
        assert r.rowcount == 4
        assert loaded_session.execute(
            "SELECT count(*) FROM top_users"
        ).scalar() == 4

    def test_unknown_distkey_rejected(self, session):
        from repro.errors import ColumnNotFoundError

        with pytest.raises(ColumnNotFoundError):
            session.execute("CREATE TABLE t (a int) DISTKEY(b)")


class TestInsert:
    def test_values_with_column_subset(self, session):
        session.execute("CREATE TABLE t (a int, b varchar(4), c int)")
        session.execute("INSERT INTO t (c, a) VALUES (3, 1)")
        assert session.execute("SELECT a, b, c FROM t").rows == [(1, None, 3)]

    def test_not_null_enforced(self, session):
        session.execute("CREATE TABLE t (a int NOT NULL)")
        with pytest.raises(DataError):
            session.execute("INSERT INTO t VALUES (NULL)")

    def test_type_validated(self, session):
        session.execute("CREATE TABLE t (a smallint)")
        with pytest.raises(DataError):
            session.execute("INSERT INTO t VALUES (99999)")

    def test_insert_select(self, loaded_session):
        loaded_session.execute("CREATE TABLE archive (user_id int, n int)")
        r = loaded_session.execute(
            "INSERT INTO archive SELECT user_id, n FROM clicks WHERE n < 10"
        )
        assert r.rowcount == 10

    def test_arity_mismatch_rejected(self, session):
        session.execute("CREATE TABLE t (a int, b int)")
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            session.execute("INSERT INTO t VALUES (1)")


class TestUpdateDelete:
    def test_update(self, loaded_session):
        r = loaded_session.execute("UPDATE users SET age = age + 10 WHERE id = 2")
        assert r.rowcount == 1
        assert loaded_session.execute(
            "SELECT age FROM users WHERE id = 2"
        ).scalar() == 35

    def test_update_with_null_arithmetic(self, loaded_session):
        loaded_session.execute("UPDATE users SET age = age + 1 WHERE id = 4")
        assert loaded_session.execute(
            "SELECT age FROM users WHERE id = 4"
        ).scalar() is None

    def test_update_distkey_reroutes(self, session):
        session.execute("CREATE TABLE t (k int, v int) DISTKEY(k)")
        session.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        session.execute("UPDATE t SET k = k + 100 WHERE v = 10")
        r = session.execute("SELECT k FROM t ORDER BY k")
        assert r.column("k") == [2, 101]

    def test_delete_with_predicate(self, loaded_session):
        r = loaded_session.execute("DELETE FROM clicks WHERE n >= 400")
        assert r.rowcount == 400
        assert loaded_session.execute(
            "SELECT count(*) FROM clicks"
        ).scalar() == 400

    def test_delete_all(self, session):
        session.execute("CREATE TABLE t (a int)")
        session.execute("INSERT INTO t VALUES (1), (2)")
        assert session.execute("DELETE FROM t").rowcount == 2
        assert session.execute("SELECT count(*) FROM t").scalar() == 0

    def test_delete_on_replicated_table_counts_logical_rows(self, loaded_session):
        r = loaded_session.execute("DELETE FROM tiny WHERE k = 0")
        assert r.rowcount == 1


class TestTransactions:
    def test_rollback_discards_insert(self, session):
        session.execute("CREATE TABLE t (a int)")
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (1)")
        assert session.execute("SELECT count(*) FROM t").scalar() == 1
        session.execute("ROLLBACK")
        assert session.execute("SELECT count(*) FROM t").scalar() == 0

    def test_commit_makes_visible_to_new_sessions(self, cluster):
        a = cluster.connect()
        a.execute("CREATE TABLE t (a int)")
        a.execute("BEGIN")
        a.execute("INSERT INTO t VALUES (1)")
        b = cluster.connect()
        assert b.execute("SELECT count(*) FROM t").scalar() == 0
        a.execute("COMMIT")
        assert b.execute("SELECT count(*) FROM t").scalar() == 1

    def test_rollback_discards_delete(self, session):
        session.execute("CREATE TABLE t (a int)")
        session.execute("INSERT INTO t VALUES (1), (2)")
        session.execute("BEGIN")
        session.execute("DELETE FROM t")
        session.execute("ROLLBACK")
        assert session.execute("SELECT count(*) FROM t").scalar() == 2

    def test_repeatable_read_within_transaction(self, cluster):
        writer = cluster.connect()
        writer.execute("CREATE TABLE t (a int)")
        writer.execute("INSERT INTO t VALUES (1)")
        reader = cluster.connect()
        reader.execute("BEGIN")
        assert reader.execute("SELECT count(*) FROM t").scalar() == 1
        writer.execute("INSERT INTO t VALUES (2)")
        # Reader's snapshot predates the writer's commit.
        assert reader.execute("SELECT count(*) FROM t").scalar() == 1
        reader.execute("COMMIT")
        assert reader.execute("SELECT count(*) FROM t").scalar() == 2

    def test_concurrent_delete_conflict(self, cluster):
        setup = cluster.connect()
        setup.execute("CREATE TABLE t (a int)")
        setup.execute("INSERT INTO t VALUES (1)")
        a = cluster.connect()
        b = cluster.connect()
        a.execute("BEGIN")
        b.execute("BEGIN")
        a.execute("DELETE FROM t WHERE a = 1")
        b.execute("DELETE FROM t WHERE a = 1")
        a.execute("COMMIT")
        with pytest.raises(SerializationError):
            b.execute("COMMIT")

    def test_lost_commit_conflict_ends_the_transaction(self, cluster):
        """A COMMIT that loses a conflict aborts its transaction and
        leaves the session outside it: the next BEGIN ... COMMIT runs."""
        setup = cluster.connect()
        setup.execute("CREATE TABLE t (a int)")
        setup.execute("INSERT INTO t VALUES (1), (2)")
        a = cluster.connect()
        b = cluster.connect()
        a.execute("BEGIN")
        b.execute("BEGIN")
        a.execute("DELETE FROM t WHERE a = 1")
        b.execute("DELETE FROM t WHERE a = 1")
        a.execute("COMMIT")
        with pytest.raises(SerializationError):
            b.execute("COMMIT")
        with pytest.raises(TransactionError, match="no transaction in progress"):
            b.execute("ROLLBACK")
        b.execute("BEGIN")
        assert b.execute("SELECT a FROM t").rows == [(2,)]
        b.execute("COMMIT")
        assert cluster.transactions.active_count == 0

    def test_server_client_keeps_its_connection_after_a_lost_conflict(
        self, cluster
    ):
        from repro.server import ClusterServer

        server = ClusterServer(cluster)
        try:
            setup = server.open_session()
            setup.execute("CREATE TABLE t (a int)")
            setup.execute("INSERT INTO t VALUES (1), (2)")
            a, b = server.open_session(), server.open_session()
            a.execute("BEGIN")
            b.execute("BEGIN")
            a.execute("DELETE FROM t WHERE a = 2")
            b.execute("DELETE FROM t WHERE a = 2")
            a.execute("COMMIT")
            with pytest.raises(SerializationError):
                b.execute("COMMIT")
            b.execute("BEGIN")
            assert b.execute("SELECT count(*) FROM t").scalar() == 1
            b.execute("COMMIT")
            assert b.execute("SELECT a FROM t").rows == [(1,)]
        finally:
            server.shutdown()

    def test_nested_begin_rejected(self, session):
        session.execute("BEGIN")
        with pytest.raises(TransactionError):
            session.execute("BEGIN")
        session.execute("ROLLBACK")

    def test_commit_without_begin_rejected(self, session):
        with pytest.raises(TransactionError):
            session.execute("COMMIT")

    def test_failed_statement_rolls_back_autocommit_txn(self, session):
        session.execute("CREATE TABLE t (a smallint)")
        with pytest.raises(DataError):
            session.execute("INSERT INTO t VALUES (1), (99999)")
        # The whole statement's transaction aborted: nothing visible.
        assert session.execute("SELECT count(*) FROM t").scalar() == 0


class TestVacuum:
    def test_vacuum_reclaims_deleted_rows(self, loaded_cluster):
        session = loaded_cluster.connect()
        session.execute("DELETE FROM clicks WHERE n < 400")
        before = loaded_cluster.table_bytes("clicks")
        session.execute("VACUUM clicks")
        after = loaded_cluster.table_bytes("clicks")
        assert after < before
        assert session.execute("SELECT count(*) FROM clicks").scalar() == 400

    def test_vacuum_restores_sort_order_pruning(self, loaded_cluster):
        session = loaded_cluster.connect()
        # Append unsorted data on top of the sorted load.
        rows = ",".join(f"(1, 'u', {n}, 0.0)" for n in range(800, 1600))
        session.execute(f"INSERT INTO clicks VALUES {rows}")
        session.execute("VACUUM clicks")
        r = session.execute("SELECT count(*) FROM clicks WHERE n >= 1590")
        assert r.scalar() == 10
        assert r.stats.scan.blocks_skipped > r.stats.scan.blocks_read

    def test_vacuum_all_tables(self, loaded_session):
        loaded_session.execute("VACUUM")  # must not raise


class TestExecuteScript:
    def test_script_returns_all_results(self, session):
        results = session.execute_script(
            "CREATE TABLE t (a int); INSERT INTO t VALUES (1); "
            "SELECT * FROM t;"
        )
        assert [r.command for r in results] == ["CREATE TABLE", "INSERT", "SELECT"]
        assert results[-1].rows == [(1,)]
