"""The block cursor and its two adapters agree, whole or cut into ranges."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datatypes import INTEGER
from repro.engine.transactions import Snapshot
from repro.exec.scan import ROW_OFFSET, scan_batches, scan_rows, shard_block_count
from repro.storage import ScanStats, SimulatedDisk, TableShard

COUNTERS = (
    "blocks_total", "blocks_read", "blocks_skipped", "chains_read",
    "bytes_read", "values_read",
)
SNAPSHOT = Snapshot(xid=9, committed=frozenset({1, 2}))
SKIP_FIRST_BLOCK = [(0, ">=", 4)]


def _shard(values=None, capacity=4):
    """Three sealed blocks (rows 1 and 5 deleted by a committed txn) and
    a tail holding two committed rows plus one uncommitted insert."""
    shard = TableShard(
        "t", [("k", INTEGER), ("v", INTEGER), ("pad", INTEGER)],
        block_capacity=capacity,
    )
    if values is not None:
        shard.append_rows([(v, i, 0) for i, v in enumerate(values)], xid=1)
        return shard
    shard.append_rows([(i, i * 10, -i) for i in range(14)], xid=1)
    shard.mark_deleted([1, 5], xid=2)
    shard.append_rows([(14, 140, -14)], xid=3)
    return shard


def _reference(shard, column_names, zone_predicates, snapshot=SNAPSHOT):
    """Visible rows outside zone-skipped blocks, one offset at a time."""
    columns = {name: shard.chain(name).read_all() for name in shard.chains}
    capacity = shard.chain("k").block_capacity
    sealed = sum(b.count for b in shard.chain("k").blocks)
    rows = []
    for offset in range(shard.row_count):
        if not snapshot.can_see(
            shard.insert_xids[offset], shard.delete_xids[offset]
        ):
            continue
        if offset < sealed and any(
            not shard.chain(column_names[pos])
            .blocks[offset // capacity]
            .zone_map.might_satisfy(op, literal)
            for pos, op, literal in zone_predicates
        ):
            continue
        rows.append(
            tuple(
                offset if name == ROW_OFFSET
                else None if name is None
                else columns[name][offset]
                for name in column_names
            )
        )
    return rows


def _counters(stats):
    return {name: getattr(stats, name) for name in COUNTERS}


def _ranges(shard, step):
    blocks = shard_block_count(shard)
    starts = list(range(0, blocks, step)) or [0]
    return [
        (start, min(start + step, blocks), j == len(starts) - 1)
        for j, start in enumerate(starts)
    ]


@pytest.mark.parametrize(
    "column_names, zone_predicates",
    [
        (["k", "v", "pad"], []),
        (["k", "v", "pad"], SKIP_FIRST_BLOCK),
        (["k", None, "pad"], SKIP_FIRST_BLOCK),
        (["v", "k"], [(1, "<", 8), (0, ">", 30)]),
        ([None, None, None], []),
        (["v", ROW_OFFSET], [(0, ">=", 40)]),
        ([ROW_OFFSET, "k", None], [(1, ">=", 4)]),
        ([None, ROW_OFFSET], []),
    ],
)
def test_adapters_and_block_ranges_agree(column_names, zone_predicates):
    shard = _shard()
    expected = _reference(shard, column_names, zone_predicates)
    assert expected  # the fixture leaves something to see

    disk = SimulatedDisk("d")
    row_stats = ScanStats()
    rows = list(
        scan_rows(
            shard, column_names, zone_predicates, SNAPSHOT,
            stats=row_stats, charge=disk.record_read,
        )
    )
    assert rows == expected

    batch_stats, batch_log = ScanStats(), []
    batches = list(
        scan_batches(
            shard, column_names, zone_predicates, SNAPSHOT,
            stats=batch_stats, charge=batch_log.append,
        )
    )
    assert [row for batch in batches for row in batch.rows()] == expected
    assert _counters(batch_stats) == _counters(row_stats)
    assert (sum(batch_log), len(batch_log)) == (
        disk.stats.bytes_read, disk.stats.read_ops,
    )
    assert row_stats.chains_read == len(batch_log)
    if zone_predicates:
        assert row_stats.blocks_skipped > 0

    for step in (1, 2, 3, 100):
        cut_stats, cut_log, cut_rows = ScanStats(), [], []
        for block_start, block_end, include_tail in _ranges(shard, step):
            cut_rows.extend(
                scan_rows(
                    shard, column_names, zone_predicates, SNAPSHOT,
                    block_start=block_start, block_end=block_end,
                    include_tail=include_tail,
                    stats=cut_stats, charge=cut_log.append,
                )
            )
        assert cut_rows == expected, step
        assert _counters(cut_stats) == _counters(row_stats), step
        assert cut_log == batch_log, step


def test_row_offset_indexes_the_chain():
    """ROW_OFFSET is each yielded row's index into ``chain.read_all()``:
    past a zone-skipped block, inside a partially visible one, around an
    all-dead one and into the open tail, for both adapters and for a
    block sub-range."""
    shard = _shard()
    shard.mark_deleted(range(8, 12), xid=2)  # the third block: all dead
    values = shard.chain("v").read_all()
    names, zone = ["v", ROW_OFFSET], [(0, ">=", 40)]  # skips block 0

    rows = list(scan_rows(shard, names, zone, SNAPSHOT))
    assert [offset for _, offset in rows] == [4, 6, 7, 12, 13]
    assert all(values[offset] == v for v, offset in rows)
    batches = list(scan_batches(shard, names, zone, SNAPSHOT))
    assert [list(b.columns[1]) for b in batches] == [[4, 6, 7], [12, 13]]
    assert [row for b in batches for row in b.rows()] == rows

    cut = dict(block_start=1, block_end=3, include_tail=False)
    assert list(scan_rows(shard, names, zone, SNAPSHOT, **cut)) == rows[:3]
    # No chain to walk: offsets come from visibility metadata alone.
    assert list(scan_rows(shard, [ROW_OFFSET], [], SNAPSHOT, **cut)) == [
        (4,), (6,), (7,),
    ]
    assert [o for (o,) in scan_rows(shard, [ROW_OFFSET], [], SNAPSHOT)] == [
        0, 2, 3, 4, 6, 7, 12, 13,
    ]


def test_zone_map_skip_reads_only_the_surviving_block():
    shard = _shard(values=range(100), capacity=10)
    shard.seal()
    stats = ScanStats()
    got = list(scan_rows(shard, ["k"], [(0, ">=", 90)], SNAPSHOT, stats=stats))
    assert got == [(k,) for k in range(90, 100)]
    assert (stats.blocks_skipped, stats.blocks_read) == (9, 1)


def test_rows_stay_aligned_after_skipped_blocks():
    shard = _shard(values=range(30), capacity=10)
    shard.seal()
    # Zone maps are conservative: the whole surviving block is yielded
    # (callers re-filter), and the sibling column — the row's offset —
    # must come from the same block, past the two skipped before it.
    got = list(scan_rows(shard, ["k", "v"], [(0, "=", 25)], SNAPSHOT))
    assert got == [(i, i) for i in range(20, 30)]


def test_unsealed_tail_is_included():
    shard = _shard(values=[1, 2, 3], capacity=100)
    assert shard_block_count(shard) == 0
    assert list(scan_rows(shard, ["k"], [], SNAPSHOT)) == [(1,), (2,), (3,)]
    (batch,) = scan_batches(shard, ["k"], [], SNAPSHOT)
    assert batch.columns == [[1, 2, 3]]
    # The batch owns a copy: a later insert must not grow it.
    shard.append_rows([(4, 3, 0)], xid=1)
    assert batch.columns == [[1, 2, 3]]


@given(
    st.lists(st.integers(0, 1000), min_size=1, max_size=200),
    st.integers(1, 32),
)
@settings(max_examples=50, deadline=None)
def test_zone_scan_is_a_superset_of_matches(values, capacity):
    shard = _shard(values=values, capacity=capacity)
    shard.seal()
    literal = values[len(values) // 2]
    got = {
        offset
        for v, offset in scan_rows(shard, ["k", "v"], [(0, "=", literal)], SNAPSHOT)
    }
    expected = {i for i, v in enumerate(values) if v == literal}
    assert expected <= got  # conservative: may include extras, never misses
