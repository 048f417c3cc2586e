"""Readers see only whole statements: a scan binds one shard version.

Every shard mutation publishes one immutable version, and a scan reads
only the version it bound, with no lock. A writer looping 50-row
autocommit INSERTs therefore never shows a reader a partial statement:
every ``count`` is a multiple of 50, on every executor and in both pool
modes, and no read raises. A scan suspended across a seal, a tombstone
and a VACUUM returns exactly the rows of the version it bound.
"""

import sys
import threading
import time

import pytest

from repro import Cluster
from repro.exec import workers
from repro.exec.scan import ROW_OFFSET, scan_rows

BATCH = 50
SECONDS = 2.0
INSERT = "INSERT INTO t VALUES " + ",".join(f"({i}, {i})" for i in range(BATCH))
COUNTS = ("SELECT count(*) FROM t", "SELECT count(v) FROM t")

SESSIONS = {
    "volcano": dict(executor="volcano"),
    "compiled": dict(executor="compiled"),
    "vectorized": dict(executor="vectorized"),
    "parallel-thread": dict(executor="parallel", parallelism=2, pool_mode="thread"),
    "parallel-fork": dict(executor="parallel", parallelism=2, pool_mode="fork"),
}


@pytest.fixture
def busy_switching():
    """Switch threads often, so writers land inside the readers' scans."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_readers_see_only_whole_statements(name, busy_switching):
    if name == "parallel-fork" and workers.default_mode() != "fork":
        pytest.skip("platform has no fork")
    cluster = Cluster(node_count=2, slices_per_node=2, block_capacity=64)
    cluster.connect().execute("CREATE TABLE t (k int, v int)")
    deadline = time.monotonic() + SECONDS
    counts, errors = [], []

    def write():
        session = cluster.connect()
        try:
            while time.monotonic() < deadline:
                session.execute(INSERT)
        except Exception as exc:  # noqa: BLE001 - asserted empty below
            errors.append(exc)

    def read(queries):
        session = cluster.connect(**SESSIONS[name])
        session.execute("SET enable_result_cache = off")
        try:
            while time.monotonic() < deadline:
                for sql in queries:
                    counts.append(session.execute(sql).scalar())
        except Exception as exc:  # noqa: BLE001 - asserted empty below
            errors.append(exc)

    # A fork pool forks while the other threads run: one reader thread
    # keeps the forked children clear of locks a second reader may hold.
    readers = [COUNTS] if name == "parallel-fork" else [[sql] for sql in COUNTS]
    threads = [threading.Thread(target=write)] + [
        threading.Thread(target=read, args=(queries,)) for queries in readers
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        cluster.close()
    assert errors == []
    assert len(counts) > len(readers)
    assert [n for n in counts if n % BATCH] == []


def test_a_suspended_scan_returns_the_version_it_bound():
    cluster = Cluster(node_count=1, slices_per_node=1, block_capacity=4)
    session = cluster.connect()
    session.execute("CREATE TABLE t (k int, v int)")
    session.execute(
        "INSERT INTO t VALUES " + ",".join(f"({i}, {i * 10})" for i in range(10))
    )
    shard = cluster.slice_stores[0].shard("t")
    bound = shard.version
    assert (len(bound.lead_blocks), bound.tail_count) == (2, 2)
    snapshot = cluster.transactions.snapshot_latest()
    scan = scan_rows(shard, ["k", "v", ROW_OFFSET], [], snapshot)
    rows = [next(scan)]  # the scan has bound its version

    cluster.seal_table("t")
    session.execute("DELETE FROM t WHERE k < 6")
    session.execute("VACUUM t")
    rows.extend(scan)

    assert rows == [(i, i * 10, i) for i in range(10)]
    assert bound.delete_xids == [None] * 10
    assert shard.version.row_count == 4
    assert session.execute("SELECT k FROM t ORDER BY k").rows == [
        (k,) for k in range(6, 10)
    ]
