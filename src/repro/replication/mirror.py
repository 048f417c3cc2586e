"""Primary/secondary block mirroring with transparent failover.

The manager synchronises with an engine cluster after loads (a real engine
replicates synchronously on write; batching at sync points changes none of
the measured quantities), places each block's secondary on a peer node
inside the primary node's cohort, serves reads around disk failures, and
rebuilds failed slices from the surviving copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.cluster import Cluster
from repro.errors import (
    BlockCorruptionError,
    DiskMediaError,
    DurabilityLossError,
    StorageError,
)
from repro.replication.cohort import CohortPlan
from repro.storage.block import Block
from repro.util.units import MB


@dataclass
class ReplicaInfo:
    """Placement record for one block."""

    block_id: str
    primary_slice: str
    secondary_slice: str
    size_bytes: int
    table: str
    column: str
    in_s3: bool = False


@dataclass
class ScrubReport:
    """What one scrub pass over the replicated block set found and fixed."""

    blocks_checked: int = 0
    repaired: list[str] = field(default_factory=list)
    corrupt_primary: list[str] = field(default_factory=list)
    corrupt_secondary: list[str] = field(default_factory=list)
    unrepairable: list[str] = field(default_factory=list)


@dataclass
class _SliceLayout:
    """Reconstruction metadata for one slice captured at sync time."""

    tables: dict[str, dict] = field(default_factory=dict)
    # tables[table] = {
    #   "columns": {column: [block ids in chain order]},
    #   "insert_xids": [...], "delete_xids": [...],
    #   "codecs": {column: codec name},
    # }


class ReplicationManager:
    """Replica placement, failover reads, and slice recovery."""

    #: Node-to-node re-replication bandwidth for duration accounting.
    REREPLICATION_BANDWIDTH = 100 * MB

    def __init__(self, cluster: Cluster, cohort_size: int = 4):
        self._cluster = cluster
        node_ids = [node.node_id for node in cluster.nodes]
        self.cohorts = CohortPlan(
            node_ids, min(max(2, cohort_size), max(2, len(node_ids)))
        ) if len(node_ids) >= 2 else None
        self.replicas: dict[str, ReplicaInfo] = {}
        #: secondary slice id -> block id -> serialized block bytes
        self._secondary_store: dict[str, dict[str, bytes]] = {}
        self._layouts: dict[str, _SliceLayout] = {}
        self._placement_counter = 0
        self.bytes_replicated = 0

    # ---- placement -------------------------------------------------------------

    def _slice_node(self, slice_id: str) -> str:
        for node in self._cluster.nodes:
            for s in node.slices:
                if s.slice_id == slice_id:
                    return node.node_id
        raise StorageError(f"unknown slice {slice_id!r}")

    def _choose_secondary(self, primary_slice: str) -> str:
        """A slice on a different node within the primary node's cohort."""
        if self.cohorts is None:
            raise StorageError(
                "replication requires at least two nodes in the cluster"
            )
        primary_node = self._slice_node(primary_slice)
        peers = self.cohorts.peers_of(primary_node)
        candidate_slices = [
            s.slice_id
            for node in self._cluster.nodes
            if node.node_id in peers
            for s in node.slices
        ]
        self._placement_counter += 1
        return candidate_slices[self._placement_counter % len(candidate_slices)]

    def sync_from_cluster(self) -> int:
        """Register and mirror every block not yet replicated.

        Seals open tail buffers first (a replication checkpoint: rows are
        only durable once their block exists), then mirrors new blocks.
        Returns the number of newly replicated blocks and refreshes the
        per-slice layout metadata used by recovery.
        """
        for name in self._cluster.catalog.table_names():
            self._cluster.seal_table(name)
        new_blocks = 0
        for store in self._cluster.slice_stores:
            layout = _SliceLayout()
            for table_name, shard in store.shards.items():
                # Only sealed blocks replicate; open tails are below the
                # replication point until the next seal (loads seal).
                version = shard.version
                sealed_rows = version.sealed_rows
                entry = {
                    "columns": {},
                    "insert_xids": version.insert_xids[:sealed_rows],
                    "delete_xids": version.delete_xids[:sealed_rows],
                    "codecs": {
                        name: chain.codec.name
                        for name, chain in shard.chains.items()
                    },
                }
                for column_name in shard.column_names:
                    ids = []
                    for block in version.columns[column_name][0]:
                        ids.append(block.block_id)
                        if block.block_id in self.replicas:
                            continue
                        secondary = self._choose_secondary(store.slice_id)
                        data = block.serialize()
                        self._secondary_store.setdefault(secondary, {})[
                            block.block_id
                        ] = data
                        self.replicas[block.block_id] = ReplicaInfo(
                            block_id=block.block_id,
                            primary_slice=store.slice_id,
                            secondary_slice=secondary,
                            size_bytes=len(data),
                            table=table_name,
                            column=column_name,
                        )
                        self.bytes_replicated += len(data)
                        new_blocks += 1
                    entry["columns"][column_name] = ids
                layout.tables[table_name] = entry
            self._layouts[store.slice_id] = layout
        return new_blocks

    # ---- reads with failover -------------------------------------------------------

    def read_block(self, block_id: str, s3_reader=None) -> Block:
        """Read a block from primary, then secondary, then S3.

        *s3_reader* is an optional callable ``block_id -> bytes`` supplied
        by the backup manager; media failures are transparent as long as
        any copy survives.
        """
        info = self.replicas.get(block_id)
        if info is None:
            raise StorageError(f"block {block_id!r} is not replicated")
        primary_store = self._store(info.primary_slice)
        if not primary_store.disk.failed and primary_store.has_shard(info.table):
            shard = primary_store.shard(info.table)
            for block in shard.chain(info.column).blocks:
                if block.block_id == block_id:
                    try:
                        primary_store.disk.record_read(block.encoded_bytes)
                        block.read()  # checksum gate before serving
                        return block
                    except (BlockCorruptionError, DiskMediaError):
                        break  # fail over to the secondary copy
        secondary_store = self._store(info.secondary_slice)
        if not secondary_store.disk.failed:
            data = self._secondary_store.get(info.secondary_slice, {}).get(block_id)
            if data is not None:
                try:
                    secondary_store.disk.record_read(len(data))
                    candidate = Block.deserialize(data)
                    candidate.read()
                    return candidate
                except (BlockCorruptionError, DiskMediaError):
                    pass  # fall through to the S3 backup copy
        if s3_reader is not None:
            data = s3_reader(block_id)
            if data is not None:
                candidate = Block.deserialize(data)
                candidate.read()
                return candidate
        raise DurabilityLossError(
            f"no surviving replica of block {block_id!r}"
        )

    def _store(self, slice_id: str):
        for store in self._cluster.slice_stores:
            if store.slice_id == slice_id:
                return store
        raise StorageError(f"unknown slice {slice_id!r}")

    # ---- scrub-and-repair ----------------------------------------------------

    def _primary_block(self, info: ReplicaInfo):
        """Locate a replica's primary chain and block; (None, None) when the
        primary disk is down or the shard has been dropped."""
        store = self._store(info.primary_slice)
        if store.disk.failed or not store.has_shard(info.table):
            return None, None
        chain = store.shard(info.table).chain(info.column)
        for block in chain.blocks:
            if block.block_id == info.block_id:
                return chain, block
        return chain, None

    @staticmethod
    def _verified(block: Block) -> bool:
        try:
            block.read()
            return True
        except BlockCorruptionError:
            return False

    def scrub(self, s3_reader=None, node_id: str | None = None) -> ScrubReport:
        """Checksum-verify every replicated copy and repair corrupt ones.

        Each corrupt copy is rebuilt from a surviving good copy — mirror
        first, then the S3 backup via *s3_reader*. Blocks with no intact
        copy anywhere are reported unrepairable (durability lost). Pass
        *node_id* to scrub only blocks with a copy on that node.
        """
        report = ScrubReport()
        for block_id in sorted(self.replicas):
            info = self.replicas[block_id]
            if node_id is not None and node_id not in (
                self._slice_node(info.primary_slice),
                self._slice_node(info.secondary_slice),
            ):
                continue
            report.blocks_checked += 1
            chain, primary = self._primary_block(info)
            primary_ok = primary is not None and self._verified(primary)
            if primary is not None and not primary_ok:
                report.corrupt_primary.append(block_id)
            data = self._secondary_store.get(info.secondary_slice, {}).get(
                block_id
            )
            secondary_ok = data is not None and self._verified(
                Block.deserialize(data)
            )
            if data is not None and not secondary_ok:
                report.corrupt_secondary.append(block_id)
            if primary_ok and secondary_ok:
                continue
            source: bytes | None = None
            if primary_ok:
                source = primary.serialize()
            elif secondary_ok:
                source = data
            elif s3_reader is not None:
                candidate = s3_reader(block_id)
                if candidate is not None and self._verified(
                    Block.deserialize(candidate)
                ):
                    source = candidate
            if source is None:
                report.unrepairable.append(block_id)
                continue
            repaired_any = False
            if chain is not None and primary is not None and not primary_ok:
                fresh = Block.deserialize(source)
                with self._cluster.storage_lock:
                    swapped = chain.replace_block(block_id, fresh)
                if swapped:
                    self._store(info.primary_slice).disk.record_write(
                        fresh.encoded_bytes
                    )
                    # Block repair mutates primary storage outside any
                    # session; the optimizer must stop trusting stats
                    # measured against the pre-repair bytes.
                    self._cluster.invalidate_statistics(info.table)
                    repaired_any = True
            if not secondary_ok:
                self._secondary_store.setdefault(info.secondary_slice, {})[
                    block_id
                ] = bytes(source)
                secondary_store = self._store(info.secondary_slice)
                if not secondary_store.disk.failed:
                    secondary_store.disk.record_write(len(source))
                repaired_any = True
            if repaired_any:
                report.repaired.append(block_id)
        return report

    # ---- failure & recovery ------------------------------------------------------------

    def fail_slice(self, slice_id: str) -> None:
        """Inject a disk failure on one slice."""
        self._store(slice_id).disk.fail()

    def fail_node(self, node_id: str) -> list[str]:
        """Fail every disk on a node; returns the failed slice ids."""
        failed = []
        for node in self._cluster.nodes:
            if node.node_id == node_id:
                for s in node.slices:
                    s.storage.disk.fail()
                    failed.append(s.slice_id)
        return failed

    def at_risk_blocks(self) -> list[str]:
        """Blocks currently down to a single in-cluster copy (the paper's
        durability window: a second fault before re-replication loses data
        unless the block reached S3)."""
        out = []
        for info in self.replicas.values():
            primary_failed = self._store(info.primary_slice).disk.failed
            secondary_failed = self._store(info.secondary_slice).disk.failed
            if primary_failed != secondary_failed:
                out.append(info.block_id)
        return out

    def recover_slice(self, slice_id: str, s3_reader=None) -> tuple[int, float]:
        """Rebuild a failed slice from surviving copies.

        Replaces the disk, reconstructs every shard from the layout captured
        at the last sync, and re-mirrors. Returns (bytes restored, simulated
        duration at the re-replication bandwidth).
        """
        store = self._store(slice_id)
        store.disk.repair()
        layout = self._layouts.get(slice_id)
        if layout is None:
            return 0, 0.0
        bytes_restored = 0
        table_infos = {
            name: self._cluster.catalog.table(name)
            for name in layout.tables
            if self._cluster.catalog.has_table(name)
        }
        # Start from empty shards, then adopt recovered blocks.
        for table_name, entry in layout.tables.items():
            info = table_infos.get(table_name)
            if info is None:
                continue
            with self._cluster.storage_lock:
                if store.has_shard(table_name):
                    store.drop_shard(table_name)
                shard = store.create_shard(
                    table_name, info.column_specs, entry["codecs"]
                )
                adopted = {}
                for column_name, block_ids in entry["columns"].items():
                    adopted[column_name] = blocks = []
                    for block_id in block_ids:
                        block = self.read_block(block_id, s3_reader)
                        blocks.append(block)
                        bytes_restored += block.encoded_bytes
                shard.adopt(adopted, entry["insert_xids"], entry["delete_xids"])
            store.disk.record_write(shard.encoded_bytes)
            # Failover rebuilt this table's shard from mirror/S3 copies
            # — a storage mutation no session saw, so stale the stats.
            self._cluster.invalidate_statistics(table_name)
        duration = bytes_restored / self.REREPLICATION_BANDWIDTH
        return bytes_restored, duration
