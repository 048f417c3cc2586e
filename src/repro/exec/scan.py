"""The block cursor: the one way executors reach shard storage.

All chains of a shard are appended in lockstep with the same block
capacity, so block *k* covers the same row offsets in every column.
:func:`scan_blocks` therefore consults the zone maps of the predicate
columns per block, and either skips the block in every needed chain or
reads it from every needed chain — row alignment across columns is
preserved by construction. Pruning, MVCC visibility, IO accounting and
the read decision (decode cache, still-encoded, decode) live in that one
loop; :func:`scan_rows` and :func:`scan_batches` only reshape what it
yields.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Callable, Iterator, Sequence

from repro.engine.transactions import Snapshot
from repro.exec.batch import ColumnBatch
from repro.exec.encoded import (
    ENC_BLOCKS,
    ENC_BYTES_AVOIDED,
    ENC_VALUES,
    ENC_WIDTH,
    EncodedColumn,
    supports_block,
)
from repro.storage.chain import ScanStats
from repro.storage.slicestore import TableShard

#: Pseudo-column name: its vector is each row's offset in the shard — the
#: one thing DML needs (*which* row) that no chain stores.
ROW_OFFSET = "<row offset>"


def scan_blocks(
    shard: TableShard,
    column_names: Sequence[str | None],
    zone_predicates: Sequence[tuple[int, str, object]],
    snapshot: Snapshot,
    *,
    block_start: int = 0,
    block_end: int | None = None,
    include_tail: bool = True,
    stats: ScanStats | None = None,
    charge: Callable[[int], None] | None = None,
    block_cache=None,
    encoded: bool = False,
) -> Iterator[tuple[list, list[int] | None, int]]:
    """Yield ``(columns, selection, count)`` per surviving row block.

    ``columns[i]`` is the block's vector for ``column_names[i]``. A
    ``None`` name is a dead column: its chain is never read and its slot
    stays None — the projection pushdown a columnar engine exists for
    (only live chains cost IO); :data:`ROW_OFFSET` costs none either: its
    vector is the block's ``range`` of shard row offsets. ``selection`` is
    None when all ``count`` rows are visible to *snapshot*, else the
    sorted positions that are; blocks with no visible row are not
    yielded. Vectors are shared with the decode cache — callers must not
    mutate them.

    ``zone_predicates`` hold (index into *column_names*, op, literal); a
    block is skipped when any predicate's zone map proves it empty of
    matches. Skipping is conservative — surviving rows are re-checked by
    the caller's filters. Predicate columns must be live.

    The scan covers sealed blocks [*block_start*, *block_end*) and, with
    *include_tail*, the open tail buffers (rows loaded but not yet
    sealed). Concatenating the ranges of a partition of the shard's
    blocks (exactly one range carrying the tail) reproduces the full scan
    row-for-row and stat-for-stat — the parallel executor's morsels.

    *stats* count logical row blocks once each (``blocks_total`` /
    ``blocks_read`` / ``blocks_skipped``); per-column chain-block reads
    are ``chains_read``. *charge* is called with the encoded byte count of
    every chain block fetched from disk, in read order:
    ``disk.record_read`` on the leader, an IO log's ``append`` in a worker
    (the leader replays the log through the disk in morsel order, so disk
    accounting and injected media faults fire as in a serial scan).

    *block_cache* (a :class:`repro.storage.blockcache.BlockDecodeCache`)
    serves decoded vectors across queries; hits skip the charge and the
    byte accounting (the IO they avoid) while block/value counts stay
    identical. With *encoded* (``SET enable_encoded_scan``), blocks whose
    codec the kernels can execute on directly are yielded as
    verified-but-undecoded :class:`EncodedColumn`s — unless the cache
    already holds the decoded vector, which is cheaper still. Encoded
    reads are charged normally and are neither cache hits nor misses (no
    decode was requested).
    """
    width = len(column_names)
    if width == 0:
        return
    xids = (shard.insert_xids, shard.delete_xids)
    chains = {
        position: shard.chain(name)
        for position, name in enumerate(column_names)
        if name is not None and name != ROW_OFFSET
    }
    offset_slots = [i for i, name in enumerate(column_names) if name == ROW_OFFSET]
    if not chains:
        # Pure row-count scans (e.g. unfiltered COUNT(*) / DELETE): no
        # chain IO, one item sized by visibility metadata alone.
        counts = [block.count for block in _any_chain_blocks(shard)]
        start = sum(counts[:block_start])
        offsets = chain(
            range(start, start + sum(counts[block_start:block_end])),
            range(sum(counts), shard.row_count) if include_tail else (),
        )
        visible = [i for i in offsets if snapshot.can_see(xids[0][i], xids[1][i])]
        if visible:
            live = {ROW_OFFSET: visible}
            yield [live.get(name) for name in column_names], None, len(visible)
        return

    sealed = {position: column.blocks for position, column in chains.items()}
    lead = next(iter(sealed.values()))
    if block_end is None:
        block_end = len(lead)
    pruners = [
        (sealed[col_pos], op, literal) for col_pos, op, literal in zone_predicates
    ]
    offset = sum(block.count for block in lead[:block_start])
    for k in range(block_start, block_end):
        row_count = lead[k].count
        skip = False
        for blocks, op, literal in pruners:
            if not blocks[k].zone_map.might_satisfy(op, literal):
                skip = True
                break
        if stats is not None:
            stats.blocks_total += 1
            if skip:
                stats.blocks_skipped += 1
            else:
                stats.blocks_read += 1
        if skip:
            offset += row_count
            continue
        columns: list = [None] * width
        for position, blocks in sealed.items():
            block = blocks[k]
            hit = missed = False
            if encoded and supports_block(block):
                # A resident decoded vector is cheaper than the payload;
                # otherwise hand the compressed column to the kernels.
                values = (
                    block_cache.peek(block) if block_cache is not None else None
                )
                hit = values is not None
                if not hit:
                    values = _encoded_column(block, stats)
            elif block_cache is not None:
                values, hit = block_cache.lookup(block)
                missed = not hit
            else:
                values = block.read_vector()
            if stats is not None:
                stats.chains_read += 1
                stats.values_read += block.count
                if hit:
                    stats.cache_hits += 1
                else:
                    stats.bytes_read += block.encoded_bytes
                    if missed:
                        stats.cache_misses += 1
            if not hit and charge is not None:
                charge(block.encoded_bytes)
            columns[position] = values
        for position in offset_slots:
            columns[position] = range(offset, offset + row_count)
        selection = _selection(xids, offset, row_count, snapshot)
        if selection is None or selection:
            yield columns, selection, row_count
        offset += row_count

    tails = {position: column.tail_values for position, column in chains.items()}
    tail_count = len(next(iter(tails.values()))) if include_tail else 0
    if not tail_count:
        return
    offset = sum(block.count for block in lead)
    selection = _selection(xids, offset, tail_count, snapshot)
    if selection is None or selection:
        columns = [None] * width
        for position, tail in tails.items():
            # Copied: the live buffer grows under concurrent inserts.
            columns[position] = tail[:tail_count]
        for position in offset_slots:
            columns[position] = range(offset, offset + tail_count)
        yield columns, selection, tail_count
    if stats is not None:
        stats.values_read += tail_count * len(chains)


def scan_rows(
    shard: TableShard,
    column_names: Sequence[str | None],
    zone_predicates: Sequence[tuple[int, str, object]],
    snapshot: Snapshot,
    **cursor,
) -> Iterator[tuple]:
    """Yield visible rows (tuples of the named columns, None in dead
    slots) — the row adapter over :func:`scan_blocks`, whose keyword
    arguments *cursor* carries."""
    has_dead = None in column_names
    for columns, selection, count in scan_blocks(
        shard, column_names, zone_predicates, snapshot, **cursor
    ):
        if selection is not None:
            count = len(selection)
            columns = ColumnBatch(columns, count).take(selection).columns
        if has_dead:
            columns = [
                repeat(None, count) if col is None else col for col in columns
            ]
        yield from zip(*columns)


def scan_batches(
    shard: TableShard,
    column_names: Sequence[str | None],
    zone_predicates: Sequence[tuple[int, str, object]],
    snapshot: Snapshot,
    **cursor,
) -> Iterator[ColumnBatch]:
    """Yield visible rows as :class:`ColumnBatch`es, one per surviving
    block — the batch adapter over :func:`scan_blocks`, whose keyword
    arguments *cursor* carries.

    When every row of a block is visible the cursor's vectors are passed
    through without copying — this is where the batch engine's
    decode-once economics come from; otherwise only the visible
    positions are gathered (late-materialized for encoded columns).
    """
    stats = cursor.get("stats")
    for columns, selection, count in scan_blocks(
        shard, column_names, zone_predicates, snapshot, **cursor
    ):
        batch = ColumnBatch(columns, count)
        if selection is not None:
            yield batch.take(selection)
            continue
        if stats is not None and any(
            type(col) is EncodedColumn for col in columns
        ):
            stats.encoded_batches += 1
        yield batch


def shard_block_count(shard: TableShard) -> int:
    """Number of sealed row blocks in *shard* (chains are in lockstep)."""
    return len(_any_chain_blocks(shard))


def _any_chain_blocks(shard: TableShard) -> list:
    for column in shard.chains.values():
        return column.blocks
    return []


def _encoded_column(block, stats: ScanStats | None) -> EncodedColumn:
    """Wrap *block* undecoded: verify the payload bytes (no decode) and
    account the decode avoided, per codec."""
    block.verify_checksum()
    if stats is not None:
        entry = stats.encoding.setdefault(block.codec_name, [0] * ENC_WIDTH)
        avoided = block.count * block.vector.sql_type.byte_width
        entry[ENC_BLOCKS] += 1
        entry[ENC_VALUES] += block.count
        entry[ENC_BYTES_AVOIDED] += avoided
        stats.decode_bytes_avoided += avoided
    return EncodedColumn(block, stats)


def _selection(
    xids: tuple[list, list], start: int, count: int, snapshot: Snapshot
) -> list[int] | None:
    """Positions in [0, *count*) of the rows from offset *start* on that
    *snapshot* can see, None when it sees them all; *xids* are the
    shard's per-row (inserter, deleter) lists."""
    inserted = xids[0][start : start + count]
    deleted = xids[1][start : start + count]
    if _block_fully_visible(inserted, deleted, snapshot):
        return None
    return [
        i
        for i, (ins, dele) in enumerate(zip(inserted, deleted))
        if snapshot.can_see(ins, dele)
    ]


def _block_fully_visible(
    inserted: list[int], deleted: list[int | None], snapshot: Snapshot
) -> bool:
    """True when every row is visible to *snapshot*.

    Checked via the distinct inserter set (typically one xid per block)
    rather than per row, so the common no-deletes case stays O(1)-ish.
    """
    for dele in deleted:
        if dele is not None:
            return False
    for ins in set(inserted):
        if not snapshot.can_see(ins, None):
            return False
    return True
