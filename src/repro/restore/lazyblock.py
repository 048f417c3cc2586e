"""Lazy (page-faulting) blocks for streaming restore.

A :class:`LazyBlock` carries the block's metadata (zone map, row count,
encoded size, checksum) — restored with the catalog — and fetches the data
payload from S3 on first read. Zone-map pruning therefore works *before*
the block is local: queries that skip a block never fault it in at all.
"""

from __future__ import annotations

from typing import Callable

from repro.storage.block import Block
from repro.storage.zonemap import ZoneMap

#: fetcher(block_id) -> serialized block bytes
Fetcher = Callable[[str], bytes]


class LazyBlock:
    """Duck-typed :class:`~repro.storage.block.Block` that faults in its
    payload on demand."""

    hll_codes = None  # per-row HyperLogLog codes, as on a Block

    def __init__(
        self,
        block_id: str,
        zone_map: ZoneMap,
        count: int,
        encoded_bytes: int,
        checksum: int,
        fetcher: Fetcher,
        on_fault: Callable[["LazyBlock"], None] | None = None,
    ):
        self.block_id = block_id
        self.zone_map = zone_map
        self.count = count
        self.encoded_bytes = encoded_bytes
        self.checksum = checksum
        self._fetcher = fetcher
        self._on_fault = on_fault
        self._materialized: Block | None = None

    @property
    def resident(self) -> bool:
        """Whether the payload has been brought down from S3."""
        return self._materialized is not None

    @property
    def codec_name(self) -> str:
        return self._materialize().codec_name

    def _materialize(self) -> Block:
        if self._materialized is None:
            data = self._fetcher(self.block_id)
            self._materialized = Block.deserialize(data)
            if self._on_fault is not None:
                self._on_fault(self)
        return self._materialized

    @property
    def vector(self):
        return self._materialize().vector

    def read(self, verify: bool = True) -> list[object]:
        """Fetch (if needed) and decode the block."""
        return self._materialize().read(verify)

    def read_vector(self, verify: bool = True) -> list[object]:
        return self._materialize().read_vector(verify)

    def verify_checksum(self) -> None:
        self._materialize().verify_checksum()

    def serialize(self) -> bytes:
        return self._materialize().serialize()
