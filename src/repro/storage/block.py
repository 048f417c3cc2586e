"""Fixed-capacity encoded column blocks.

A :class:`Block` is the unit of storage, replication, backup and restore:
it holds one encoded vector of up to ``capacity`` values of a single
column, its zone map, and a checksum verified on every read. Blocks are
immutable once built — updates append new blocks and VACUUM rewrites
chains, mirroring the copy-on-write behaviour the incremental-backup design
relies on.
"""

from __future__ import annotations

import itertools
import pickle
import zlib
from dataclasses import dataclass, field
from typing import Sequence

from repro.compression.codecs import (
    Codec,
    EncodedVector,
    codec_by_name,
    corrupt_payload,
    payload_byte_chunks,
)
from repro.datatypes.types import SqlType
from repro.errors import BlockCorruptionError
from repro.storage import blockcache
from repro.storage.zonemap import ZoneMap

#: Default number of values per block. Real Redshift blocks are a fixed
#: 1 MB; a fixed *value capacity* gives the same skipping and replication
#: granularity while keeping accounting simple.
BLOCK_CAPACITY_DEFAULT = 4096

_block_ids = itertools.count(1)


def _next_block_id() -> str:
    return f"blk-{next(_block_ids):012d}"


def _checksum(vector: EncodedVector) -> int:
    """Content checksum over the encoded payload bytes.

    A single ``zlib.crc32`` pass over the vector's canonical byte image
    (typed-array buffers, compressed byte streams, residual object parts
    pickled once as a unit) plus the codec name, logical count and null
    positions. This replaces the old per-value ``pickle.dumps`` walk over
    decoded values — a hot-path tax paid on every first read — and lets
    encoded scans verify integrity without decoding at all.
    """
    crc = zlib.crc32(vector.codec_name.encode("utf-8"))
    crc = zlib.crc32(vector.count.to_bytes(8, "little"), crc)
    for pos in sorted(vector.null_positions):
        crc = zlib.crc32(pos.to_bytes(8, "little"), crc)
    for chunk in payload_byte_chunks(vector.payload):
        crc = zlib.crc32(chunk, crc)
    return crc


@dataclass
class Block:
    """One immutable encoded column block.

    Attributes:
        block_id: globally unique id used by replication and backup.
        vector: the encoded values.
        zone_map: min/max summary used for block skipping.
        checksum: CRC over the encoded payload bytes, verified on read.
    """

    block_id: str
    vector: EncodedVector
    zone_map: ZoneMap
    checksum: int
    #: True once the content passed checksum verification; reset whenever
    #: the content can have changed (corrupt()), so the hot read path pays
    #: the CRC pass once per block, not once per read.
    _verified: bool = field(default=False, repr=False, compare=False)
    #: The shard whose chain holds the block, set by that chain (None
    #: outside any shard): corrupt() moves its version.
    owner: object = field(default=None, repr=False, compare=False)
    #: Each row's HyperLogLog code (an ``array``, set by the first refresh
    #: that reads it): derived, so outside size, checksum and serialize().
    hll_codes: object = field(default=None, repr=False, compare=False)

    @classmethod
    def build(
        cls,
        values: Sequence[object],
        sql_type: SqlType,
        codec: Codec,
        block_id: str | None = None,
    ) -> "Block":
        """Encode *values* into a new block with zone map and checksum."""
        vector = codec.encode(values, sql_type)
        return cls(
            block_id=block_id or _next_block_id(),
            vector=vector,
            zone_map=ZoneMap.build(values),
            checksum=_checksum(vector),
        )

    @property
    def count(self) -> int:
        """Number of values (including NULLs) stored in the block."""
        return self.vector.count

    @property
    def encoded_bytes(self) -> int:
        """Accounted on-disk size of the block."""
        return self.vector.encoded_bytes

    @property
    def codec_name(self) -> str:
        return self.vector.codec_name

    def read(self, verify: bool = True) -> list[object]:
        """Decode the block's values, verifying the checksum.

        Verification is memoized: the CRC walk runs once per decoded
        content, not once per read. :meth:`corrupt` resets the memo so
        injected bit-flips are still detected.

        Raises :class:`BlockCorruptionError` if the decoded content does
        not match the checksum recorded at build time.
        """
        return list(self.read_vector(verify))

    def read_vector(self, verify: bool = True) -> list[object]:
        """Like :meth:`read` but skips the defensive copy — the batch-scan
        fast path. Callers must not mutate the returned list.

        Deliberately NOT memoized on the block: blocks live as long as
        their chain, so a per-block memo would retain every decoded list
        for the life of the cluster. The bounded
        :class:`~repro.storage.blockcache.BlockDecodeCache` is the only
        place decoded vectors are retained.
        """
        if verify and not self._verified:
            self.verify_checksum()
        codec = codec_by_name(self.vector.codec_name)
        return codec.decode(self.vector)

    def verify_checksum(self) -> None:
        """Verify block integrity, raising :class:`BlockCorruptionError`.

        This never decodes — the encoded scan path verifies compressed
        vectors it will execute on directly.
        Verification is memoized per content; :meth:`corrupt` resets it.
        """
        if self._verified:
            return
        if _checksum(self.vector) != self.checksum:
            raise BlockCorruptionError(
                f"block {self.block_id} failed checksum verification"
            )
        self._verified = True

    def corrupt(self) -> None:
        """Deliberately corrupt the block (test/failure-injection hook).

        Flips bits inside the encoded payload, resets the
        verified-checksum memo, evicts the block from every decode cache
        and moves the owning shard's version, so the next read
        re-verifies and fails and no cached result outlives the flip.
        """
        corrupt_payload(self.vector)
        self._verified = False
        blockcache.invalidate_everywhere(self.block_id)
        if self.owner is not None:
            self.owner.touch()

    def restore(self, image: "Block") -> None:
        """Undo :meth:`corrupt` from *image*, a good copy of this block."""
        self.vector = image.vector
        self.zone_map = image.zone_map
        self.checksum = image.checksum
        self._verified = False

    def serialize(self) -> bytes:
        """Produce the byte image shipped to replicas and to S3 backup."""
        return pickle.dumps(
            {
                "block_id": self.block_id,
                "vector": self.vector,
                "zone_map": self.zone_map,
                "checksum": self.checksum,
                "checksum_kind": "payload",
            },
            protocol=4,
        )

    @classmethod
    def deserialize(cls, data: bytes) -> "Block":
        """Reconstruct a block from :meth:`serialize` output."""
        fields = pickle.loads(data)
        if fields["checksum_kind"] != "payload":
            raise BlockCorruptionError(
                f"block image checksum kind {fields['checksum_kind']!r}"
            )
        return cls(
            block_id=fields["block_id"],
            vector=fields["vector"],
            zone_map=fields["zone_map"],
            checksum=fields["checksum"],
        )
