"""Property: the statistics refresh is exact, not approximately right.

``Session._update_statistics`` hashes each distinct visible value once,
over vectors the decode cache holds. Its reference here is the per-row
loop it replaced: every visible value through the shift-loop HyperLogLog
rank, min and max folded block by block, no decode cache. Every refresh
on random tables — COPY STATUPDATE, ANALYZE (also inside an open
transaction, and after DELETE) and CTAS — must give *equal* row count,
``repr`` of low and high, null fraction and NDV. HLL error is no excuse:
the registers must be the same.
"""

import datetime
import decimal
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import Cluster
from repro.distribution.hashing import stable_hash
from repro.engine.session import Session
from repro.sql import hll as hll_module
from repro.sql.hll import HyperLogLog, _mix


def shift_loop_registers(hashes, precision):
    """Registers of the per-value rank loop ``HyperLogLog.add`` once ran."""
    registers = bytearray(1 << precision)
    for h in hashes:
        index = h & ((1 << precision) - 1)
        remainder = h >> precision
        rank = 1
        while rank <= 64 - precision and not (remainder & 1):
            remainder >>= 1
            rank += 1
        registers[index] = max(registers[index], rank)
    return registers


def reference_statistics(cluster, table, xid):
    """The per-row refresh: every visible value of every column, read
    without the decode cache."""
    names = table.column_names
    hashes = [[] for _ in names]
    lows = [None] * len(names)
    highs = [None] * len(names)
    nulls = [0] * len(names)
    rows = 0
    snapshot = cluster.transactions.snapshot(xid)
    for _, batch in cluster.scan_table(table, snapshot, one_replica=True):
        rows += batch.count
        for i, values in enumerate(batch.columns):
            present = [value for value in values if value is not None]
            nulls[i] += batch.count - len(present)
            if not present:
                continue
            hashes[i].extend(_mix(stable_hash(value)) for value in present)
            low, high = min(present), max(present)
            if lows[i] is None or low < lows[i]:
                lows[i] = low
            if highs[i] is None or high > highs[i]:
                highs[i] = high
    columns = {}
    for i, name in enumerate(names):
        sketch = HyperLogLog(10)
        sketch._registers[:] = shift_loop_registers(hashes[i], 10)
        columns[name] = (
            repr(lows[i]),
            repr(highs[i]),
            nulls[i] / rows if rows else 0.0,
            sketch.cardinality(),
        )
    return rows, columns


def observed_statistics(table):
    stats = table.statistics
    return stats.row_count, {
        name: (repr(c.low), repr(c.high), c.null_fraction, c.distinct_count)
        for name, c in stats.columns.items()
    }


# ---- HyperLogLog.update ------------------------------------------------------------


@pytest.mark.parametrize("precision", [4, 10, 18])
def test_update_sets_the_shift_loop_registers(precision, monkeypatch):
    # Identity hashing: each value *is* its 64-bit hash, so the remainders
    # below are exactly the ones under test.
    monkeypatch.setattr(hll_module, "stable_hash", lambda value: value)
    monkeypatch.setattr(hll_module, "_mix", lambda h: h)
    m = 1 << precision
    zero_remainders = [0, m - 1, 5 % m]
    single_bits = [
        (1 << (precision + k)) | (k % m) for k in range(64 - precision)
    ]
    rng = random.Random(precision)
    mixed = [rng.getrandbits(64) for _ in range(2000)] + zero_remainders
    for h in zero_remainders + single_bits:
        assert HyperLogLog(precision).update([h])._registers == (
            shift_loop_registers([h], precision)
        ), hex(h)
    for values in (zero_remainders, single_bits, mixed):
        expected = shift_loop_registers(values, precision)
        one_by_one = HyperLogLog(precision)
        for h in values:
            one_by_one.add(h)
        assert HyperLogLog(precision).update(values)._registers == expected
        assert one_by_one._registers == expected


def test_a_set_of_distinct_values_sets_every_rows_registers():
    # Values Python holds equal share canonical bytes, so the set's one
    # representative sets the register every duplicate row would.
    rows = [
        1, 1.0, decimal.Decimal("1.00"), 0.0, -0.0, 0, decimal.Decimal("-0.00"),
        2.5, decimal.Decimal("2.50"), "", "é", "日本", "é",
        datetime.date(2020, 1, 1), datetime.date(2020, 1, 1),
    ] * 3
    expected = shift_loop_registers([_mix(stable_hash(v)) for v in rows], 10)
    assert len(set(rows)) < len(rows)
    assert HyperLogLog(10).update(set(rows))._registers == expected


# ---- the statistics refresh ---------------------------------------------------------


NULL = "\\N"
small_ints = st.sampled_from([None, None, None, None, 0, 3, 7])
doubles = st.sampled_from([None, "0.0", "-0.0", "1.0", "2", "1e3", "-3.5", "0.25"])
#: Only zeros: low and high are a tie of 0.0 and -0.0, so their ``repr``
#: says which row the refresh kept.
zeros = st.sampled_from([None, "0.0", "-0.0", "0"])
decimals = st.sampled_from([None, "1.00", "1", "1.1", "-0.50", "-0.00", "0", "123.45"])
dates = st.one_of(
    st.none(),
    st.dates(datetime.date(1990, 1, 1), datetime.date(2030, 12, 31)).map(
        datetime.date.isoformat
    ),
)
strings = st.one_of(st.none(), st.text(alphabet="aZ é日ß", max_size=4))
rows = st.lists(
    st.tuples(
        st.integers(-5, 40), small_ints, doubles, zeros, decimals, dates, strings
    ),
    max_size=30,
)
DELETES = ["k < 5", "i IS NULL", "d = 0", "s = ''", "dt < DATE '2010-01-01'", "n > 0"]
ops = st.lists(
    st.one_of(
        st.tuples(st.just("copy"), rows),
        st.tuples(st.just("copy_stale"), rows),
        st.tuples(st.just("delete"), st.sampled_from(DELETES)),
        st.tuples(st.just("analyze"), st.none()),
        st.tuples(st.just("txn"), st.tuples(rows, st.sampled_from(DELETES), st.booleans())),
        st.tuples(st.just("ctas"), st.sampled_from(DELETES)),
    ),
    min_size=1,
    max_size=6,
)


@pytest.mark.parametrize("dist", ["DISTSTYLE EVEN", "DISTSTYLE ALL", "DISTKEY(k)"])
@settings(max_examples=50, deadline=None)
@given(script=ops)
def test_refresh_equals_the_per_row_loop(dist, script):
    cluster = Cluster(node_count=1, slices_per_node=2, block_capacity=4)
    s = cluster.connect()
    s.execute(
        "CREATE TABLE t (k int, i int, d double precision, z float, "
        f"n decimal(10,2), dt date, s varchar(16)) {dist}"
    )
    sources = iter(range(1_000))

    def copy(batch, options=""):
        uri = f"stats://{next(sources)}"
        cluster.register_inline_source(
            uri,
            ["|".join(NULL if v is None else str(v) for v in row) for row in batch],
        )
        s.execute(f"COPY t FROM '{uri}' NULL AS '{NULL}' {options}")

    checked = []
    refresh = Session._update_statistics

    def checking(self, table, xid):
        expected = reference_statistics(self._cluster, table, xid)
        refresh(self, table, xid)
        checked.append((expected, observed_statistics(table)))

    with mock.patch.object(Session, "_update_statistics", checking):
        for n, (op, arg) in enumerate(script):
            if op == "copy":
                copy(arg)
            elif op == "copy_stale":
                copy(arg, "STATUPDATE OFF")
            elif op == "delete":
                s.execute(f"DELETE FROM t WHERE {arg}")
            elif op == "analyze":
                s.execute("ANALYZE t")
            elif op == "txn":
                batch, predicate, commit = arg
                s.execute("BEGIN")
                copy(batch)
                s.execute(f"DELETE FROM t WHERE {predicate}")
                s.execute("ANALYZE t")
                s.execute("COMMIT" if commit else "ROLLBACK")
            else:
                s.execute(f"CREATE TABLE c{n} AS SELECT * FROM t WHERE NOT ({arg})")
        s.execute("ANALYZE t")
    assert checked
    for expected, observed in checked:
        assert observed == expected
