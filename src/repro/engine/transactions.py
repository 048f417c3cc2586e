"""Transactions: snapshot isolation with serialized commit at the leader.

"The leader node ... coordinates serialization and state of transactions"
(paper §2.1). The engine is single-process, so the manager's job is the
bookkeeping that makes MVCC semantics observable: every statement runs
against a :class:`Snapshot`; writers stamp rows with their xid; rollback
records the xid as aborted, making its rows permanently invisible (space
is reclaimed by VACUUM).

Write-write conflicts are detected at commit: two overlapping transactions
that delete the same row cannot both commit (first committer wins).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.errors import SerializationError, TransactionError

#: xid used for data created outside any user transaction (bootstrap).
BOOTSTRAP_XID = 0


@dataclass(frozen=True, slots=True)
class Snapshot:
    """What a statement sees, in PostgreSQL's shape: its own xid, and each
    xid below *xmax* neither in flight when it was taken nor aborted.

    *aborted* is the manager's append-only set, shared rather than
    copied: an xid aborted after the snapshot was taken was in flight
    then or is at least *xmax*, so its arrival changes nothing here.
    """

    xid: int
    xmax: int
    in_flight: frozenset[int]
    aborted: set[int] | frozenset[int]

    def can_see(self, insert_xid: int, delete_xid: int | None) -> bool:
        """MVCC visibility: inserted by a visible txn (or ourselves) and not
        deleted by one. A txn is visible when it is ours, or below *xmax*
        and neither in flight nor aborted."""
        if insert_xid != self.xid and (
            insert_xid >= self.xmax
            or insert_xid in self.in_flight
            or insert_xid in self.aborted
        ):
            return False
        return delete_xid is None or delete_xid != self.xid and (
            delete_xid >= self.xmax
            or delete_xid in self.in_flight
            or delete_xid in self.aborted
        )


@dataclass
class _Transaction:
    #: The transaction-start snapshot (repeatable read).
    snapshot: Snapshot
    #: The oldest xid in flight at begin, else its own.
    xmin: int
    deleted_rows: set[tuple[str, str, int]] = field(default_factory=set)
    #: Tables this transaction wrote (insert/delete/vacuum funnels call
    #: record_write). Their versions move again when the outcome resolves
    #: — commit makes the rows visible without touching storage, which a
    #: result-cache entry stored mid-flight would otherwise survive.
    written_tables: set[str] = field(default_factory=set)


class TransactionManager:
    """Allocates xids, tracks commit state, detects delete conflicts.

    All state transitions happen under one lock: concurrent sessions
    begin/commit from their own threads, and the lock serializes commit
    itself, which is what makes first-committer-wins conflict detection
    sound under concurrency. A snapshot costs O(active transactions).
    *touch_tables* moves the versions of the tables it is given.
    """

    def __init__(self, touch_tables=lambda tables: None) -> None:
        self._touch_tables = touch_tables
        self._next_xid = 1
        self._active: dict[int, _Transaction] = {}
        self._aborted: set[int] = set()
        #: (winner xid, rows it deleted) per committed delete that a live
        #: snapshot may not see; pruned as the oldest xmin advances.
        self._committed_deletes: list[tuple[int, set[tuple[str, str, int]]]] = []
        self._lock = threading.Lock()

    def _snapshot(self, xid: int) -> Snapshot:
        """Everything committed right now, as seen by *xid* (lock held)."""
        return Snapshot(xid, self._next_xid, frozenset(self._active), self._aborted)

    def begin(self) -> int:
        """Start a transaction; returns its xid."""
        with self._lock:
            xid = self._next_xid
            self._next_xid += 1
            self._active[xid] = _Transaction(
                self._snapshot(xid), min(self._active, default=xid)
            )
            return xid

    def snapshot(self, xid: int) -> Snapshot:
        """The snapshot a statement of *xid* runs against.

        Redshift runs statements against the transaction-start snapshot;
        we match that (repeatable read within a transaction).
        """
        with self._lock:
            return self._require(xid).snapshot

    def record_delete(self, xid: int, table: str, slice_id: str, offset: int) -> None:
        """Note that *xid* deleted a row (for conflict detection at commit)."""
        with self._lock:
            self._require(xid).deleted_rows.add((table, slice_id, offset))

    def record_write(self, xid: int, table: str) -> None:
        """Note that *xid* wrote *table*, so the table's version moves
        again when the transaction commits or rolls back: visibility
        changes then, and a result cached while the writer was in flight
        must die. (Rollback moves it too — spurious but safe.) Writes
        outside any live transaction (bootstrap loads) are ignored."""
        with self._lock:
            txn = self._active.get(xid)
            if txn is not None:
                txn.written_tables.add(table)

    def commit(self, xid: int) -> None:
        """Commit, failing with SerializationError on write-write conflict."""
        with self._lock:
            txn = self._require(xid)
            del self._active[xid]
            for winner, rows in self._committed_deletes:
                if not txn.snapshot.can_see(winner, None) and not rows.isdisjoint(
                    txn.deleted_rows
                ):
                    self._aborted.add(xid)
                    self._touch_tables(txn.written_tables)
                    raise SerializationError(
                        f"transaction {xid} conflicts with concurrent delete of "
                        f"row {min(rows & txn.deleted_rows)} by transaction {winner}"
                    )
            if txn.deleted_rows:
                self._committed_deletes.append((xid, txn.deleted_rows))
            # A winner below every live xmin is seen by every live and
            # future snapshot, so it can conflict with no one.
            live = self._active.values()
            horizon = min((t.xmin for t in live), default=self._next_xid)
            self._committed_deletes = [
                entry for entry in self._committed_deletes if entry[0] >= horizon
            ]
        # Versions move after the commit point: a reader that sees the new
        # number re-reads and finds the rows already visible.
        self._touch_tables(txn.written_tables)

    def rollback(self, xid: int) -> None:
        """Abort: the xid joins the aborted set, so its effects are
        invisible forever."""
        with self._lock:
            txn = self._require(xid)
            del self._active[xid]
            self._aborted.add(xid)
        self._touch_tables(txn.written_tables)

    def statement_snapshot(self, xid: int) -> Snapshot:
        """A snapshot of *xid* against everything committed *right now*.

        Autocommit cached SELECTs use this instead of :meth:`snapshot`:
        the result cache validates entries by table version, and versions
        are captured when the statement starts executing — after
        ``begin()`` froze the transaction-start snapshot. A commit
        landing in that gap would be invisible to the frozen snapshot
        yet already counted in the captured versions, leaving a stale
        entry that validates forever. Taking this snapshot after the
        version capture closes the gap: any commit the statement cannot
        see must move its tables' versions later, killing the entry.
        """
        with self._lock:
            self._require(xid)
            return self._snapshot(xid)

    def snapshot_latest(self) -> Snapshot:
        """A read-only snapshot of everything committed so far (used by
        maintenance paths such as statistics collection)."""
        with self._lock:
            return self._snapshot(-1)

    def is_committed(self, xid: int) -> bool:
        return xid >= 0 and self.snapshot_latest().can_see(xid, None)

    @property
    def active_count(self) -> int:
        with self._lock:
            return len(self._active)

    def _require(self, xid: int) -> _Transaction:
        txn = self._active.get(xid)
        if txn is None:
            raise TransactionError(f"transaction {xid} is not active")
        return txn
