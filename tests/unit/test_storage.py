"""Blocks, zone maps, chains, slice storage, disks."""

import pytest

from repro.datatypes import INTEGER, varchar_type
from repro.errors import BlockCorruptionError, DiskFailureError, StorageError
from repro.storage import (
    Block,
    ColumnChain,
    SimulatedDisk,
    SliceStorage,
    TableShard,
    ZoneMap,
)
from repro.compression import codec_by_name


class TestZoneMap:
    def test_build(self):
        z = ZoneMap.build([3, 1, None, 9])
        assert (z.low, z.high, z.null_count, z.count) == (1, 9, 1, 4)

    def test_all_null(self):
        z = ZoneMap.build([None, None])
        assert z.all_null
        assert not z.might_satisfy("=", 1)

    def test_might_satisfy_operators(self):
        z = ZoneMap.build(list(range(10, 20)))
        assert z.might_satisfy("=", 15)
        assert not z.might_satisfy("=", 25)
        assert z.might_satisfy("<", 11)
        assert not z.might_satisfy("<", 10)
        assert z.might_satisfy("<=", 10)
        assert z.might_satisfy(">", 18)
        assert not z.might_satisfy(">", 19)
        assert z.might_satisfy(">=", 19)
        assert not z.might_satisfy(">=", 20)

    def test_not_equal_skippable_only_for_constant_block(self):
        constant = ZoneMap.build([5, 5, 5])
        assert not constant.might_satisfy("<>", 5)
        mixed = ZoneMap.build([5, 6])
        assert mixed.might_satisfy("<>", 5)

    def test_null_literal_never_satisfied(self):
        z = ZoneMap.build([1, 2])
        assert not z.might_satisfy("=", None)

    def test_range_overlap(self):
        z = ZoneMap.build([10, 20])
        assert z.might_overlap_range(15, 25)
        assert z.might_overlap_range(None, 10)
        assert not z.might_overlap_range(21, None)
        assert not z.might_overlap_range(None, 9)

    def test_merge(self):
        a = ZoneMap.build([1, 2])
        b = ZoneMap.build([10, None])
        merged = a.merge(b)
        assert (merged.low, merged.high) == (1, 10)
        assert merged.null_count == 1
        assert merged.count == 4

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            ZoneMap.build([1]).might_satisfy("~", 1)


class TestBlock:
    def test_roundtrip_and_metadata(self):
        block = Block.build([5, None, 7], INTEGER, codec_by_name("raw"))
        assert block.read() == [5, None, 7]
        assert block.count == 3
        assert block.zone_map.low == 5
        assert block.zone_map.high == 7

    def test_checksum_detects_corruption(self):
        block = Block.build([1, 2, 3], INTEGER, codec_by_name("raw"))
        block.corrupt()
        with pytest.raises(BlockCorruptionError):
            block.read()

    def test_serialize_roundtrip(self):
        block = Block.build(list(range(50)), INTEGER, codec_by_name("delta"))
        clone = Block.deserialize(block.serialize())
        assert clone.read() == block.read()
        assert clone.block_id == block.block_id

    def test_unique_ids(self):
        a = Block.build([1], INTEGER, codec_by_name("raw"))
        b = Block.build([1], INTEGER, codec_by_name("raw"))
        assert a.block_id != b.block_id


class TestColumnChain:
    def test_append_seals_full_blocks(self):
        chain = ColumnChain("c", INTEGER, "raw", block_capacity=10)
        chain.append(list(range(25)))
        assert chain.block_count == 3  # 2 sealed + tail
        assert len(chain.blocks) == 2
        chain.seal()
        assert len(chain.blocks) == 3
        assert chain.row_count == 25

    def test_read_all_preserves_order(self):
        chain = ColumnChain("c", INTEGER, "delta", block_capacity=7)
        chain.append(list(range(40)))
        assert chain.read_all() == list(range(40))

    def test_rewrite_in_order(self):
        chain = ColumnChain("c", INTEGER, "raw", block_capacity=4)
        chain.append([3, 1, 2, 0])
        chain.seal()
        sorted_chain = chain.rewrite_in_order([3, 1, 2, 0])
        assert sorted_chain.read_all() == [0, 1, 2, 3]

    def test_adopt_blocks(self):
        block = Block.build([9, 8], INTEGER, codec_by_name("raw"))
        chain = ColumnChain("c", INTEGER)
        chain.adopt_blocks([block])
        assert chain.read_all() == [9, 8]

    def test_set_codec_affects_future_blocks_only(self):
        chain = ColumnChain("c", INTEGER, "raw", block_capacity=5)
        chain.append(list(range(5)))
        chain.set_codec("delta")
        chain.append(list(range(5)))
        chain.seal()
        assert chain.blocks[0].codec_name == "raw"
        assert chain.blocks[1].codec_name == "delta"

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ColumnChain("c", INTEGER, block_capacity=0)


class TestTableShard:
    def _shard(self):
        return TableShard(
            "t", [("a", INTEGER), ("b", varchar_type(8))], block_capacity=4
        )

    def test_append_rows(self):
        shard = self._shard()
        n = shard.append_rows([(1, "x"), (2, "y")], xid=5)
        assert n == 2
        assert shard.row_count == 2
        assert shard.insert_xids == [5, 5]
        assert shard.delete_xids == [None, None]

    def test_ragged_row_rejected(self):
        shard = self._shard()
        with pytest.raises(StorageError):
            shard.append_rows([(1,)], xid=1)

    def test_append_columns(self):
        shard = self._shard()
        shard.append_columns([[1, 2, 3], ["a", "b", "c"]], xid=1)
        assert shard.row_count == 3

    def test_append_columns_ragged_rejected(self):
        shard = self._shard()
        with pytest.raises(StorageError):
            shard.append_columns([[1], ["a", "b"]], xid=1)

    def test_mark_deleted_idempotent(self):
        shard = self._shard()
        shard.append_rows([(1, "x"), (2, "y")], xid=1)
        assert shard.mark_deleted([0], xid=2) == 1
        assert shard.mark_deleted([0], xid=3) == 0  # already tombstoned

    def test_rewrite_sorted_drops_dead_rows(self):
        shard = self._shard()
        shard.append_rows([(3, "c"), (1, "a"), (2, "b")], xid=1)
        shard.seal()
        shard.rewrite_sorted([1, 2, 0], xid=9)
        assert shard.chain("a").read_all() == [1, 2, 3]
        assert shard.sorted_prefix == 3
        assert shard.insert_xids == [9, 9, 9]

    def test_unknown_column(self):
        with pytest.raises(StorageError):
            self._shard().chain("zzz")


class TestSliceStorageAndDisk:
    def test_shard_lifecycle(self):
        store = SliceStorage("s0", SimulatedDisk("d0"))
        shard = store.create_shard("t", [("a", INTEGER)])
        assert store.has_shard("t")
        assert store.shard("t") is shard
        with pytest.raises(StorageError):
            store.create_shard("t", [("a", INTEGER)])
        store.drop_shard("t")
        assert not store.has_shard("t")
        with pytest.raises(StorageError):
            store.shard("t")

    def test_disk_accounting(self):
        disk = SimulatedDisk("d", capacity_bytes=100)
        disk.record_write(60)
        assert disk.used_bytes == 60
        disk.record_read(10)
        assert disk.stats.bytes_read == 10
        assert disk.stats.write_ops == 1

    def test_disk_full(self):
        disk = SimulatedDisk("d", capacity_bytes=100)
        disk.record_write(90)
        with pytest.raises(DiskFailureError):
            disk.record_write(20)

    def test_disk_failure_blocks_io(self):
        disk = SimulatedDisk("d")
        disk.fail()
        with pytest.raises(DiskFailureError):
            disk.record_read(1)
        disk.repair()
        disk.record_read(1)  # works again
        assert disk.used_bytes == 0
