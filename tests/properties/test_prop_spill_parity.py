"""Property: memory-governed (spilling) execution is bit-identical to
unbounded execution under all four executors.

A shared multi-slice cluster is loaded once; hypothesis generates
join/aggregate/sort SELECTs and every query runs twice per executor —
through an unbounded session and through a session whose
``query_memory_limit`` is far below the working set, so hash-join
builds grace-hash partition, aggregate states flush generations, and
sorts fall back to external run merges. Rows must match EXACTLY (same
values, same order — no sorting, no float rounding): the spill
subsystem's first invariant is that spilling is invisible to results.

A fixed-seed companion test repeats representative queries with a
``DISK_MEDIA_WINDOW`` active, so spill reads/writes hit injected media
errors and recover where they were met (each spill read or write, like
each block read in the scan, re-runs once the recovery handler approves)
— still bit-identical to the clean unbounded run.
"""

from hypothesis import given, settings, strategies as st

from repro import Cluster
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan

EXECUTORS = ("volcano", "compiled", "vectorized", "parallel")

#: Far below any query's working set on this data: forces spilling of
#: joins, aggregations and sorts while staying large enough that the
#: per-partition write buffers make progress.
TINY_BUDGET = 2048


def _load(cluster):
    s = cluster.connect()
    s.execute(
        "CREATE TABLE f (id int, k int, v int, grp int) DISTKEY(id)"
    )
    s.execute("CREATE TABLE d (k int, label varchar(8)) DISTSTYLE ALL")
    rows = []
    for i in range(600):
        v = "NULL" if i % 11 == 0 else str((i * 13) % 350 - 60)
        rows.append(f"({i}, {i % 37}, {v}, {i % 9})")
    s.execute(f"INSERT INTO f VALUES {','.join(rows)}")
    s.execute(
        "INSERT INTO d VALUES "
        + ",".join(f"({k}, 'd{k % 5}')" for k in range(0, 37, 2))
    )
    return cluster


def _build():
    return _load(Cluster(node_count=2, slices_per_node=2, block_capacity=32))


_CLUSTER = _build()
_UNBOUNDED = {
    name: _CLUSTER.connect(executor=name, parallelism=2)
    for name in EXECUTORS
}
_GOVERNED = {
    name: _CLUSTER.connect(
        executor=name, parallelism=2, memory_limit=TINY_BUDGET
    )
    for name in EXECUTORS
}
for _s in (*_UNBOUNDED.values(), *_GOVERNED.values()):
    _s.execute("SET enable_result_cache = off")


predicates = st.one_of(
    st.tuples(
        st.sampled_from(["f.k", "f.v", "f.grp"]),
        st.sampled_from(["<", "<=", "=", "<>", ">=", ">"]),
        st.integers(-60, 290),
    ).map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
    st.sampled_from(["f.v IS NOT NULL", "f.v IS NULL", "f.id % 2 = 0"]),
)


@st.composite
def queries(draw):
    pred = draw(predicates)
    shape = draw(st.integers(0, 4))
    if shape == 0:
        # Hash aggregate over many groups + sort: agg + sorter spill.
        return (
            "SELECT f.k, f.grp, count(*), sum(f.v), min(f.v), max(f.v) "
            f"FROM f WHERE {pred} GROUP BY f.k, f.grp "
            "ORDER BY sum(f.v) DESC, f.k, f.grp"
        )
    if shape == 1:
        # Join build spill (grace-hash) + aggregate.
        return (
            "SELECT d.label, count(*), sum(f.v) FROM f "
            f"JOIN d ON f.k = d.k WHERE {pred} "
            "GROUP BY d.label ORDER BY d.label"
        )
    if shape == 2:
        # Probe-order row output through a spilled build table.
        return (
            "SELECT f.id, f.v, d.label FROM f JOIN d ON f.k = d.k "
            f"WHERE {pred} ORDER BY f.id LIMIT 80"
        )
    if shape == 3:
        # LEFT join: unmatched-probe emission order must survive spill.
        return (
            "SELECT f.id, d.label FROM f LEFT JOIN d ON f.k = d.k "
            f"WHERE {pred} ORDER BY f.id DESC LIMIT 60"
        )
    # Global aggregate (single group) over a spilled join.
    return (
        "SELECT count(*), sum(f.v), avg(f.v) FROM f "
        f"JOIN d ON f.k = d.k WHERE {pred}"
    )


@given(queries())
@settings(max_examples=40, deadline=None)
def test_tiny_budget_runs_bit_identical(sql):
    for name in EXECUTORS:
        expected = _UNBOUNDED[name].execute(sql)
        governed = _GOVERNED[name].execute(sql)
        # EXACT comparison: same rows, same order, same values.
        assert governed.rows == expected.rows, (name, sql)
        assert governed.rowcount == expected.rowcount, (name, sql)


def test_working_set_queries_actually_spill():
    """The budget really is tiny: the heavy shapes report spill activity
    (otherwise the property above would be testing nothing)."""
    sql = (
        "SELECT f.k, f.grp, count(*), sum(f.v) FROM f JOIN d ON f.k = d.k "
        "GROUP BY f.k, f.grp ORDER BY sum(f.v) DESC, f.k, f.grp"
    )
    for name in EXECUTORS:
        result = _GOVERNED[name].execute(sql)
        assert result.stats.spilled_bytes > 0, name
        assert result.stats.spill_partitions > 0, name
        assert result.stats.spill_events, name
        assert result.rows == _UNBOUNDED[name].execute(sql).rows, name


def test_unbounded_sessions_never_spill():
    sql = "SELECT f.k, count(*) FROM f GROUP BY f.k ORDER BY f.k"
    for name in EXECUTORS:
        result = _UNBOUNDED[name].execute(sql)
        assert result.stats.spilled_bytes == 0, name
        assert not result.stats.spill_events, name


class TestSpillParityUnderMediaFaults:
    """Spilled execution with a DISK_MEDIA_WINDOW active recovers (per
    spill IO and per block read) and stays bit-identical to a clean
    unbounded run. Fixed seeds: the injector's draws are deterministic,
    so these scenarios replay identically every run."""

    QUERIES = (
        "SELECT f.k, f.grp, count(*), sum(f.v) FROM f JOIN d ON f.k = d.k "
        "GROUP BY f.k, f.grp ORDER BY sum(f.v) DESC, f.k, f.grp",
        "SELECT f.id, f.v, d.label FROM f JOIN d ON f.k = d.k "
        "WHERE f.v IS NOT NULL ORDER BY f.id LIMIT 80",
        "SELECT count(*), sum(f.v) FROM f WHERE f.grp < 7",
    )

    def _faulty_cluster(self, seed):
        cluster = _build()
        # One disk's IO (block reads AND spill IO) fails ~2% of the
        # time. A spill read or write, like a scan read's charge, is
        # re-run by the recovery handler, once per fault, up to
        # RetryPolicy().max_attempts (deterministic draws).
        cluster.attach_faults(
            FaultInjector(
                FaultPlan(seed=seed).disk_media_errors(
                    0.0, 1e9, rate=0.02, disk_id="node-1-s0-disk"
                )
            )
        )
        cluster.recovery_handler = lambda exc: True
        return cluster

    def test_bit_identical_under_media_window(self):
        for name in EXECUTORS:
            cluster = self._faulty_cluster(seed=42)
            session = cluster.connect(
                executor=name, parallelism=2, memory_limit=TINY_BUDGET
            )
            session.execute("SET enable_result_cache = off")
            for sql in self.QUERIES:
                expected = _UNBOUNDED[name].execute(sql)
                assert session.execute(sql).rows == expected.rows, (name, sql)
            cluster.close()

    def test_media_faults_really_fired(self):
        cluster = self._faulty_cluster(seed=42)
        session = cluster.connect(
            executor="volcano", memory_limit=TINY_BUDGET
        )
        session.execute("SET enable_result_cache = off")
        for sql in self.QUERIES:
            session.execute(sql)
        kinds = [event.kind for event in cluster.fault_injector.log]
        assert "disk_media_window" in kinds
        cluster.close()
