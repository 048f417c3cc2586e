"""Transaction manager: snapshots, visibility, conflicts."""

import pytest

from repro.engine.transactions import BOOTSTRAP_XID, TransactionManager
from repro.errors import SerializationError, TransactionError


class TestLifecycle:
    def test_begin_commit(self):
        tm = TransactionManager()
        xid = tm.begin()
        assert not tm.is_committed(xid)
        tm.commit(xid)
        assert tm.is_committed(xid)

    def test_rollback_never_commits(self):
        tm = TransactionManager()
        xid = tm.begin()
        tm.rollback(xid)
        assert not tm.is_committed(xid)

    def test_double_commit_rejected(self):
        tm = TransactionManager()
        xid = tm.begin()
        tm.commit(xid)
        with pytest.raises(TransactionError):
            tm.commit(xid)

    def test_unknown_xid_rejected(self):
        tm = TransactionManager()
        with pytest.raises(TransactionError):
            tm.snapshot(99)

    def test_bootstrap_always_committed(self):
        tm = TransactionManager()
        assert tm.is_committed(BOOTSTRAP_XID)


class TestVisibility:
    def test_own_writes_visible(self):
        tm = TransactionManager()
        xid = tm.begin()
        snap = tm.snapshot(xid)
        assert snap.can_see(insert_xid=xid, delete_xid=None)

    def test_uncommitted_others_invisible(self):
        tm = TransactionManager()
        writer = tm.begin()
        reader = tm.begin()
        snap = tm.snapshot(reader)
        assert not snap.can_see(insert_xid=writer, delete_xid=None)

    def test_snapshot_taken_at_begin(self):
        tm = TransactionManager()
        reader = tm.begin()
        writer = tm.begin()
        tm.commit(writer)
        # Repeatable read: the commit happened after the reader began.
        snap = tm.snapshot(reader)
        assert not snap.can_see(insert_xid=writer, delete_xid=None)

    def test_committed_before_begin_visible(self):
        tm = TransactionManager()
        writer = tm.begin()
        tm.commit(writer)
        reader = tm.begin()
        snap = tm.snapshot(reader)
        assert snap.can_see(insert_xid=writer, delete_xid=None)

    def test_delete_visibility(self):
        tm = TransactionManager()
        writer = tm.begin()
        tm.commit(writer)
        deleter = tm.begin()
        reader = tm.begin()
        # Deleter sees its own delete; concurrent reader does not.
        assert not tm.snapshot(deleter).can_see(BOOTSTRAP_XID, deleter)
        assert tm.snapshot(reader).can_see(BOOTSTRAP_XID, deleter)


class TestConflicts:
    def test_concurrent_delete_conflict(self):
        tm = TransactionManager()
        a = tm.begin()
        b = tm.begin()
        tm.record_delete(a, "t", "s0", 5)
        tm.record_delete(b, "t", "s0", 5)
        tm.commit(a)  # first committer wins
        with pytest.raises(SerializationError):
            tm.commit(b)

    def test_sequential_deletes_ok(self):
        tm = TransactionManager()
        a = tm.begin()
        tm.record_delete(a, "t", "s0", 5)
        tm.commit(a)
        b = tm.begin()  # begins after a committed: sees the delete
        tm.record_delete(b, "t", "s0", 5)
        tm.commit(b)

    def test_disjoint_rows_no_conflict(self):
        tm = TransactionManager()
        a = tm.begin()
        b = tm.begin()
        tm.record_delete(a, "t", "s0", 1)
        tm.record_delete(b, "t", "s0", 2)
        tm.commit(a)
        tm.commit(b)

    def test_failed_commit_removes_transaction(self):
        tm = TransactionManager()
        a = tm.begin()
        b = tm.begin()
        tm.record_delete(a, "t", "s0", 1)
        tm.record_delete(b, "t", "s0", 1)
        tm.commit(a)
        with pytest.raises(SerializationError):
            tm.commit(b)
        assert tm.active_count == 0
        assert not tm.is_committed(b)
        assert not tm.snapshot_latest().can_see(b, None)

    def test_winner_in_flight_at_begin_still_conflicts(self):
        """*a* commits after *b* began, while *b* is the oldest active
        transaction: *a* is below b's xid but invisible to b's snapshot,
        so its delete must survive pruning until b resolves."""
        tm = TransactionManager()
        a = tm.begin()
        b = tm.begin()
        tm.record_delete(a, "t", "s0", 7)
        tm.commit(a)
        tm.record_delete(b, "t", "s0", 7)
        with pytest.raises(SerializationError):
            tm.commit(b)


class TestBoundedState:
    def test_committed_deletes_are_pruned(self):
        """2 000 DELETE + commit cycles with no overlapping transaction
        leave no committed delete behind: each winner is seen by every
        live and future snapshot the moment it commits."""
        tm = TransactionManager()
        for cycle in range(2000):
            xid = tm.begin()
            for offset in range(5):
                tm.record_delete(xid, "t", "s0", cycle * 5 + offset)
            tm.commit(xid)
            assert len(tm._committed_deletes) <= 1
        assert tm._committed_deletes == []

    def test_pruning_waits_for_the_oldest_snapshot(self):
        tm = TransactionManager()
        reader = tm.begin()
        for offset in range(50):
            xid = tm.begin()
            tm.record_delete(xid, "t", "s0", offset)
            tm.commit(xid)
        # Each winner committed after the reader began: all are kept.
        assert len(tm._committed_deletes) == 50
        tm.commit(reader)
        xid = tm.begin()
        tm.commit(xid)
        assert tm._committed_deletes == []

    def test_snapshots_hold_no_committed_xids(self):
        """After 20 000 commits a new snapshot carries no committed xid,
        and the manager keeps no per-committed-xid structure."""
        tm = TransactionManager()
        for _ in range(20_000):
            tm.commit(tm.begin())
        xid = tm.begin()
        snapshot = tm.snapshot(xid)
        assert snapshot.in_flight == frozenset()
        assert len(snapshot.aborted) == 0
        assert tm.statement_snapshot(xid).in_flight == {xid}
        assert all(snapshot.can_see(x, None) for x in range(20_001))
        sizes = [
            len(value)
            for value in vars(tm).values()
            if isinstance(value, (set, frozenset, dict, list))
        ]
        assert max(sizes) <= 1
