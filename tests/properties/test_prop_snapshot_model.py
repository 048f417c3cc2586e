"""Property: (xid, xmax, in-flight, aborted) snapshots see exactly what a
snapshot holding the explicit committed set would.

The reference model below is the manager's former shape: every commit
adds its xid to one committed set, a snapshot copies that set, and a
delete conflict is checked against the latest committer of each row.
Random interleavings of begin, commit, rollback, row deletes and the
three snapshot calls over up to six live transactions must give the
same ``can_see`` answer for every (inserter, deleter) pair, the same
``is_committed`` for every xid, and the same commit conflicts. Every
snapshot is checked again once the interleaving ends, after later
commits and aborts, because the aborted set is shared, not copied.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine.transactions import BOOTSTRAP_XID, TransactionManager
from repro.errors import SerializationError

MAX_LIVE = 6
OPS = (
    "begin", "commit", "rollback", "delete",
    "snapshot", "statement_snapshot", "snapshot_latest",
)


class Reference:
    """Explicit committed set, copied per snapshot."""

    def __init__(self) -> None:
        self.next_xid = 1
        self.committed = {BOOTSTRAP_XID}
        self.active: dict[int, tuple[frozenset[int], set]] = {}
        self.deletes: dict[tuple, int] = {}

    def begin(self) -> int:
        xid = self.next_xid
        self.next_xid += 1
        self.active[xid] = (frozenset(self.committed), set())
        return xid

    def commit(self, xid: int) -> bool:
        """False where the manager must raise SerializationError."""
        seen, rows = self.active.pop(xid)
        for key in rows:
            winner = self.deletes.get(key)
            if winner is not None and winner not in seen:
                return False
        for key in rows:
            self.deletes[key] = xid
        self.committed.add(xid)
        return True


def _sees_like_reference(own: int, committed: frozenset[int], snapshot, top: int):
    def sees(x: int) -> bool:
        return x == own or x in committed

    xids = range(top)
    for ins in xids:
        for dele in (None, *xids):
            expected = sees(ins) and (dele is None or not sees(dele))
            assert snapshot.can_see(ins, dele) == expected, (own, ins, dele)


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(OPS),
            st.integers(0, MAX_LIVE - 1),
            st.integers(0, 2),
        ),
        max_size=60,
    )
)
# A winner that commits while a later-begun transaction is live stays
# invisible to it: pruning below the oldest *active xid* would drop it.
@example(
    ops=[
        ("begin", 0, 0), ("begin", 0, 0), ("delete", 0, 0),
        ("commit", 0, 0), ("delete", 0, 0), ("commit", 0, 0),
    ]
)
@settings(max_examples=150, deadline=None)
def test_snapshots_match_the_committed_set_model(ops):
    manager, reference = TransactionManager(), Reference()
    live: list[int] = []
    taken = []  # (own xid, reference committed set, snapshot)
    for op, slot, row in ops:
        if op == "begin" or not live:
            if len(live) < MAX_LIVE:
                xid = manager.begin()
                assert reference.begin() == xid
                live.append(xid)
            continue
        xid = live[slot % len(live)]
        if op == "commit":
            live.remove(xid)
            if reference.commit(xid):
                manager.commit(xid)
            else:
                with pytest.raises(SerializationError):
                    manager.commit(xid)
        elif op == "rollback":
            live.remove(xid)
            reference.active.pop(xid)
            manager.rollback(xid)
        elif op == "delete":
            manager.record_delete(xid, "t", "s0", row)
            reference.active[xid][1].add(("t", "s0", row))
        elif op == "snapshot":
            taken.append((xid, reference.active[xid][0], manager.snapshot(xid)))
        elif op == "statement_snapshot":
            frozen = frozenset(reference.committed)
            taken.append((xid, frozen, manager.statement_snapshot(xid)))
        else:
            frozen = frozenset(reference.committed)
            taken.append((-1, frozen, manager.snapshot_latest()))
        top = reference.next_xid + 1
        if taken:
            _sees_like_reference(*taken[-1], top)
        for x in range(-1, top):
            assert manager.is_committed(x) == (x in reference.committed), x
    # Later aborts land in the shared set: every earlier snapshot still
    # sees exactly its frozen committed set.
    for xid in list(live):
        manager.rollback(xid)
    for own, committed, snapshot in taken:
        _sees_like_reference(own, committed, snapshot, reference.next_xid + 1)
