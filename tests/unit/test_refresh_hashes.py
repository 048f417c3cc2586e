"""A statistics refresh hashes each sealed block once.

ANALYZE, COPY STATUPDATE and CTAS fold per-row HyperLogLog codes that a
sealed block computes the first time a refresh reads it. Counting
``repro.sql.hll.stable_hash`` calls shows it: a refresh with no new block
hashes nothing, a COPY hashes only its own block's values, and the first
load hashes no more than one call per distinct value per column. The
codes are derived data: they change no size, checksum, block image or
system-table row, and VACUUM's rewritten blocks start without them.
"""

import datetime
import random
from collections import Counter

import pytest

from repro import Cluster
from repro.distribution.hashing import stable_hash
from repro.sql import hll
from repro.sql.hll import HyperLogLog
from repro.storage import Block

#: One column per Python type, so a hashed value names its column.
COLUMNS = {"k": int, "s": str, "d": datetime.date}


def _rows(rng, count, start):
    day = datetime.date(2020, 1, 1)
    return [
        (
            start + i,
            rng.choice(["a", "b", "c", "d", None]),
            day + datetime.timedelta(days=rng.randrange(40)),
        )
        for i in range(count)
    ]


def _line(row):
    return "|".join(r"\N" if v is None else str(v) for v in row)


def _distinct(rows):
    """Distinct non-NULL values per column: one hash each."""
    return {
        name: len({row[i] for row in rows} - {None})
        for i, name in enumerate(COLUMNS)
    }


@pytest.fixture
def hashes(monkeypatch):
    """Every value the refresh hashes, by column."""
    calls = Counter()

    def counting(value):
        calls[next(n for n, t in COLUMNS.items() if type(value) is t)] += 1
        return stable_hash(value)

    monkeypatch.setattr(hll, "stable_hash", counting)
    return calls


@pytest.fixture
def cluster():
    return Cluster(node_count=1, slices_per_node=2, block_capacity=64)


@pytest.fixture
def loader(cluster):
    session = cluster.connect()
    session.execute("SET enable_result_cache = off")
    session.execute("CREATE TABLE t (k int, s varchar(4), d date)")
    rng = random.Random(7)
    batches = iter(range(100))

    def copy(count, start, options=""):
        rows = _rows(rng, count, start)
        uri = f"hashes://{next(batches)}"
        cluster.register_inline_source(uri, [_line(r) for r in rows])
        session.execute(f"COPY t FROM '{uri}' NULL AS '\\N' {options}")
        return rows

    return session, copy


def test_the_first_load_hashes_each_distinct_value_once(
    loader, hashes, cluster
):
    session, copy = loader
    rows = copy(500, 0)
    assert len(cluster.slice_stores[0].shard("t").chain("k").blocks) > 1
    assert dict(hashes) == _distinct(rows)


def test_a_refresh_without_new_blocks_hashes_nothing(loader, hashes):
    session, copy = loader
    copy(500, 0)
    hashes.clear()
    session.execute("ANALYZE t")
    assert sum(hashes.values()) == 0
    session.execute("DELETE FROM t WHERE k % 3 = 0")
    session.execute("ANALYZE t")
    assert sum(hashes.values()) == 0
    assert session.execute("SELECT count(*) FROM t").scalar() == 333


def test_a_copy_hashes_only_its_own_rows(loader, hashes, cluster):
    session, copy = loader
    copy(500, 0)
    session.execute("DELETE FROM t WHERE k < 100")
    hashes.clear()
    rows = copy(150, 1000)
    new = _distinct(rows)
    assert all(hashes[name] <= new[name] for name in COLUMNS)
    assert hashes["k"] == 150
    stats = cluster.catalog.table("t").statistics
    assert stats.row_count == 550
    assert (stats.columns["k"].low, stats.columns["k"].high) == (100, 1149)


def test_codes_are_derived_data(loader, cluster):
    session, copy = loader
    copy(300, 0, "STATUPDATE OFF")
    shard = cluster.slice_stores[0].shard("t")
    blocks = [b for chain in shard.chains.values() for b in chain.blocks]
    assert all(b.hll_codes is None for b in blocks)
    before = (
        [(b.serialize(), b.checksum, b.encoded_bytes) for b in blocks],
        cluster.table_bytes("t"),
        session.execute("SELECT * FROM stv_blocklist").rows,
    )
    session.execute("ANALYZE t")
    assert all(len(b.hll_codes) == b.count for b in blocks)
    after = (
        [(b.serialize(), b.checksum, b.encoded_bytes) for b in blocks],
        cluster.table_bytes("t"),
        session.execute("SELECT * FROM stv_blocklist").rows,
    )
    assert after == before
    assert Block.deserialize(blocks[0].serialize()).hll_codes is None
    session.execute("DELETE FROM t WHERE k < 10")
    session.execute("VACUUM t")
    rewritten = [b for chain in shard.chains.values() for b in chain.blocks]
    assert rewritten and all(b.hll_codes is None for b in rewritten)


def test_folding_codes_sets_the_registers_update_sets():
    rng = random.Random(3)
    values = [
        rng.choice([None, rng.random(), rng.randrange(10**9), str(rng.random())])
        for _ in range(5000)
    ]
    memo = {}
    coded = set(hll.codes(values[:2500], memo))
    coded |= set(hll.codes(values[2500:], memo))
    present = {v for v in values if v is not None}
    expected = HyperLogLog(hll.CODE_PRECISION).update(present)
    assert HyperLogLog.from_codes(coded)._registers == expected._registers
    assert len(memo) == len(present) + 1  # plus NULL's code
    empty = bytearray(1 << hll.CODE_PRECISION)
    assert HyperLogLog.from_codes({0})._registers == empty
