"""Column chains: ordered block sequences for one column of one slice.

"Each column within each slice is encoded in a chain of one or more fixed
size data blocks. The linkage between the columns of an individual row is
derived by calculating the logical offset within each column chain"
(paper §2.1). The chain owns an open tail buffer that is sealed into an
encoded block when it reaches capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.compression.codecs import Codec, codec_by_name
from repro.datatypes.types import SqlType
from repro.storage import blockcache
from repro.storage.block import BLOCK_CAPACITY_DEFAULT, Block
from repro.storage.zonemap import ZoneMap


@dataclass
class ScanStats:
    """IO accounting for one chain scan — the currency of the zone-map
    experiments (blocks skipped are disk reads avoided).

    ``blocks_total``/``blocks_read``/``blocks_skipped`` count logical row
    blocks once each, regardless of how many column chains a scan touches;
    ``chains_read`` counts the per-column chain-block reads (so a 3-column
    scan reading one block reports blocks_read=1, chains_read=3).
    """

    blocks_total: int = 0
    blocks_read: int = 0
    blocks_skipped: int = 0
    #: Per-column chain-block reads (>= blocks_read for multi-column scans).
    chains_read: int = 0
    bytes_read: int = 0
    values_read: int = 0
    #: Block-decode cache traffic (batch scan path only).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Operate-on-compressed accounting (encoded scan path only): batches
    #: that carried at least one still-encoded column, and the uncompressed
    #: bytes whose eager decode those columns avoided.
    encoded_batches: int = 0
    decode_bytes_avoided: int = 0
    #: codec name -> [blocks, values, bytes_avoided, masks, folds, gathers]
    #: (see repro.exec.encoded ENC_* index constants); feeds
    #: svl_scan_encoding.
    encoding: dict = field(default_factory=dict)

    def merge(self, other: "ScanStats") -> None:
        self.blocks_total += other.blocks_total
        self.blocks_read += other.blocks_read
        self.blocks_skipped += other.blocks_skipped
        self.chains_read += other.chains_read
        self.bytes_read += other.bytes_read
        self.values_read += other.values_read
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.encoded_batches += other.encoded_batches
        self.decode_bytes_avoided += other.decode_bytes_avoided
        for codec, counts in other.encoding.items():
            entry = self.encoding.setdefault(codec, [0] * len(counts))
            for i, n in enumerate(counts):
                entry[i] += n


class ColumnChain:
    """The storage of one column on one slice."""

    def __init__(
        self,
        column_name: str,
        sql_type: SqlType,
        codec: Codec | str = "raw",
        block_capacity: int = BLOCK_CAPACITY_DEFAULT,
    ):
        if block_capacity < 1:
            raise ValueError(f"block capacity must be positive, got {block_capacity}")
        self.column_name = column_name
        self.sql_type = sql_type
        self.codec = codec_by_name(codec) if isinstance(codec, str) else codec
        self.block_capacity = block_capacity
        self._blocks: list[Block] = []
        self._tail: list[object] = []
        #: Owning table, set by TableShard; attributes cache/epoch
        #: invalidations to the table so per-table staleness stays precise.
        self.table_name: str | None = None

    # ---- writes -----------------------------------------------------------

    def append(self, values: Sequence[object]) -> None:
        """Append validated values, sealing full blocks as they fill."""
        for value in values:
            self._tail.append(value)
            if len(self._tail) >= self.block_capacity:
                self._seal_tail()

    def seal(self) -> None:
        """Flush the open tail buffer into a (possibly short) final block."""
        if self._tail:
            self._seal_tail()

    def _seal_tail(self) -> None:
        block = Block.build(self._tail, self.sql_type, self.codec)
        # Blocks learn their owning table so Block.corrupt() can attribute
        # its invalidation (it only knows the block).
        block.table_name = self.table_name
        self._blocks.append(block)
        self._tail = []

    def set_codec(self, codec: Codec | str) -> None:
        """Change the codec used for *future* blocks (existing blocks keep
        their encoding, as in a real engine until VACUUM rewrites them)."""
        self.codec = codec_by_name(codec) if isinstance(codec, str) else codec

    # ---- metadata -----------------------------------------------------------

    @property
    def row_count(self) -> int:
        return sum(b.count for b in self._blocks) + len(self._tail)

    @property
    def block_count(self) -> int:
        return len(self._blocks) + (1 if self._tail else 0)

    @property
    def blocks(self) -> list[Block]:
        """Sealed blocks (the tail buffer is not yet a block)."""
        return list(self._blocks)

    @property
    def tail_values(self) -> list[object]:
        """The open tail buffer. Treat as read-only."""
        return self._tail

    @property
    def encoded_bytes(self) -> int:
        """Accounted on-disk bytes of all sealed blocks plus the raw tail."""
        tail_bytes = len(self._tail) * self.sql_type.byte_width
        return sum(b.encoded_bytes for b in self._blocks) + tail_bytes

    def chain_zone_map(self) -> ZoneMap:
        """Zone map over the whole chain (used for table-level pruning)."""
        zone = ZoneMap.build(self._tail)
        for block in self._blocks:
            zone = zone.merge(block.zone_map)
        return zone

    # ---- reads ---------------------------------------------------------------

    def read_all(self) -> list[object]:
        """Materialize every value in the chain in row order."""
        out: list[object] = []
        for block in self._blocks:
            out.extend(block.read())
        out.extend(self._tail)
        return out

    def replace_block(self, block_id: str, block: Block) -> bool:
        """Swap a sealed block for a repaired image with the same id.

        Used by scrub-and-repair to splice a restored block back into the
        chain in place. Returns False when no sealed block matches.
        """
        for i, existing in enumerate(self._blocks):
            if existing.block_id == block_id:
                block.table_name = self.table_name
                self._blocks[i] = block
                # The repaired image reuses the id; drop any stale
                # decoded entry so caches serve the new content.
                blockcache.invalidate_everywhere(block_id, self.table_name)
                return True
        return False

    def adopt_blocks(self, blocks: Sequence[Block]) -> None:
        """Replace this chain's contents with already-built blocks.

        Used by recovery and restore paths that reconstruct a chain from
        replicated or backed-up block images. Any open tail is discarded.
        """
        for existing in self._blocks:
            blockcache.invalidate_everywhere(existing.block_id, self.table_name)
        self._blocks = list(blocks)
        for block in self._blocks:
            block.table_name = self.table_name
        self._tail = []

    def rewrite_in_order(self, order: Sequence[int]) -> "ColumnChain":
        """Produce a new chain with rows permuted by *order* (VACUUM/sort).

        The retired blocks' decode-cache entries are invalidated; the
        rewritten chain gets fresh block ids.
        """
        for existing in self._blocks:
            blockcache.invalidate_everywhere(existing.block_id, self.table_name)
        values = self.read_all()
        fresh = ColumnChain(
            self.column_name, self.sql_type, self.codec, self.block_capacity
        )
        fresh.table_name = self.table_name
        fresh.append([values[i] for i in order])
        fresh.seal()
        return fresh
