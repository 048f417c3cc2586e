"""Restore orchestration: full restore and streaming restore."""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

from repro.cloud.s3 import SimS3
from repro.cloud.simclock import SimClock
from repro.engine.catalog import TableStatistics
from repro.engine.cluster import Cluster
from repro.engine.transactions import BOOTSTRAP_XID
from repro.errors import S3TransientError, SnapshotNotFoundError
from repro.faults.retry import RetryPolicy, with_backoff
from repro.restore.lazyblock import LazyBlock
from repro.security.keyhierarchy import ClusterKeyHierarchy, EncryptedBlob
from repro.storage.block import Block
from repro.util.rng import DeterministicRng


@dataclass
class RestoreResult:
    """Outcome of a restore operation."""

    cluster: Cluster
    snapshot_id: str
    streaming: bool
    #: Simulated time until SQL could be issued.
    time_to_first_query_s: float
    #: Simulated time until every block was local (equals the above for
    #: full restores; streaming restores grow it as faults occur or
    #: when complete_background_fetch runs).
    time_to_full_restore_s: float
    total_blocks: int
    total_bytes: int
    faulted_blocks: int = 0
    faulted_bytes: int = 0
    lazy_blocks: list[LazyBlock] = field(default_factory=list)
    #: The source cluster's table versions when the snapshot was taken.
    #: Burst routing compares these against the source's live versions
    #: to decide whether the restored cluster is fresh enough to serve a
    #: query.
    table_versions: dict[str, int] = field(default_factory=dict)

    @property
    def resident_fraction(self) -> float:
        if not self.lazy_blocks:
            return 1.0
        resident = sum(1 for b in self.lazy_blocks if b.resident)
        return resident / len(self.lazy_blocks)


class RestoreManager:
    """Builds clusters back from snapshot manifests."""

    #: catalog + metadata restoration time before SQL opens (simulated).
    METADATA_RESTORE_S = 60.0

    def __init__(
        self,
        s3: SimS3,
        bucket: str,
        clock: SimClock,
        encryption: ClusterKeyHierarchy | None = None,
    ):
        self._s3 = s3
        self._bucket = bucket
        self._clock = clock
        self._encryption = encryption
        self._retry_rng = DeterministicRng(f"restore-retry/{bucket}")

    def _s3_call(self, fn):
        """One S3 request with backed-off retry of transient errors."""
        return with_backoff(
            fn,
            clock=self._clock,
            policy=RetryPolicy(),
            rng=self._retry_rng,
            retry_on=(S3TransientError,),
        )

    # ---- manifest plumbing ---------------------------------------------------

    def _load_manifest(self, snapshot_id: str) -> dict:
        key = f"manifests/{snapshot_id}"
        if not self._s3.has_object(self._bucket, key):
            raise SnapshotNotFoundError(snapshot_id)
        return pickle.loads(
            self._s3_call(lambda: self._s3.get_object(self._bucket, key)).data
        )

    def _fetch_block_bytes(self, block_id: str) -> bytes:
        data = self._s3_call(
            lambda: self._s3.get_object(self._bucket, f"blocks/{block_id}")
        ).data
        if self._encryption is not None:
            data = self._encryption.decrypt_block(
                EncryptedBlob(block_id=block_id, ciphertext=data)
            )
        return data

    # ---- restores ----------------------------------------------------------------

    def full_restore(self, snapshot_id: str) -> RestoreResult:
        """Restore everything before opening for SQL."""
        return self._restore(snapshot_id, streaming=False)

    def streaming_restore(self, snapshot_id: str) -> RestoreResult:
        """Open for SQL after metadata restore; blocks page-fault in."""
        return self._restore(snapshot_id, streaming=True)

    def _restore(self, snapshot_id: str, streaming: bool) -> RestoreResult:
        """Build a new cluster from a manifest. Its shards are its own,
        so building them moves no version of any other cluster."""
        manifest = self._load_manifest(snapshot_id)
        cluster = Cluster(
            node_count=manifest["node_count"],
            slices_per_node=manifest["slices_per_node"],
            block_capacity=manifest["block_capacity"],
        )
        tables = pickle.loads(manifest["tables"])
        for table in tables:
            cluster.catalog.create_table(table)
            cluster.create_table_storage(table)

        total_blocks = 0
        total_bytes = 0
        per_slice_bytes: dict[str, int] = {}
        lazy_blocks: list[LazyBlock] = []
        live_rows: dict[str, int] = {}
        table_bytes: dict[str, int] = {}

        result = RestoreResult(
            cluster=cluster,
            snapshot_id=snapshot_id,
            streaming=streaming,
            time_to_first_query_s=0.0,
            time_to_full_restore_s=0.0,
            total_blocks=0,
            total_bytes=0,
        )

        def on_fault(block: LazyBlock) -> None:
            result.faulted_blocks += 1
            result.faulted_bytes += block.encoded_bytes
            fetch_time = self._s3.transfer_time(block.encoded_bytes)
            self._clock.advance(fetch_time)
            result.time_to_full_restore_s += fetch_time

        stores = {store.slice_id: store for store in cluster.slice_stores}
        restored_slice_ids = sorted(stores)
        source_slices = manifest["slices"]
        for slice_entry, target_id in zip(source_slices, restored_slice_ids):
            store = stores[target_id]
            for table_name, entry in slice_entry["tables"].items():
                shard = store.shard(table_name)
                adopted: dict[str, list] = {}
                for column_name, metas in entry["columns"].items():
                    blocks = []
                    for meta in metas:
                        total_blocks += 1
                        total_bytes += meta["encoded_bytes"]
                        per_slice_bytes[target_id] = (
                            per_slice_bytes.get(target_id, 0)
                            + meta["encoded_bytes"]
                        )
                        table_bytes[table_name] = (
                            table_bytes.get(table_name, 0)
                            + meta["encoded_bytes"]
                        )
                        if streaming:
                            lazy = LazyBlock(
                                block_id=meta["block_id"],
                                zone_map=meta["zone_map"],
                                count=meta["count"],
                                encoded_bytes=meta["encoded_bytes"],
                                checksum=meta["checksum"],
                                fetcher=self._fetch_block_bytes,
                                on_fault=on_fault,
                            )
                            lazy_blocks.append(lazy)
                            blocks.append(lazy)
                        else:
                            blocks.append(
                                Block.deserialize(
                                    self._fetch_block_bytes(meta["block_id"])
                                )
                            )
                    adopted[column_name] = blocks
                row_count = entry["row_count"]
                deleted: list[int | None] = [None] * row_count
                for offset in entry["dead"]:
                    deleted[offset] = BOOTSTRAP_XID
                shard.adopt(adopted, [BOOTSTRAP_XID] * row_count, deleted)
                live_rows[table_name] = (
                    live_rows.get(table_name, 0)
                    + row_count
                    - len(entry["dead"])
                )
                store.disk.record_write(shard.encoded_bytes if not streaming else 0)

        # The pickled TableInfo carries the *source* cluster's statistics
        # verbatim — including a possibly-fresh `stale=False` from an
        # ANALYZE that predates later mutations. Re-anchor the row count
        # and bytes on what was actually restored and mark everything
        # stale: the CBO then plans on the right table sizes but only
        # trusts NDV/min-max after a post-restore ANALYZE.
        for table in tables:
            stats = table.statistics
            if stats is None:
                stats = table.statistics = TableStatistics()
            stats.row_count = live_rows.get(table.name, 0)
            stats.total_bytes = table_bytes.get(table.name, 0)
            stats.stale = True

        metadata_time = (
            self._s3.transfer_time(len(pickle.dumps(manifest, protocol=4)))
            + self.METADATA_RESTORE_S
        )
        if streaming:
            time_to_first_query = metadata_time
            time_to_full = metadata_time  # grows as blocks fault in
        else:
            # Slices fetch their blocks in parallel; the busiest slice
            # bounds wall time.
            busiest = max(per_slice_bytes.values(), default=0)
            fetch_time = self._s3.transfer_time(busiest) if busiest else 0.0
            time_to_first_query = metadata_time + fetch_time
            time_to_full = time_to_first_query
        self._clock.advance(time_to_first_query)

        result.time_to_first_query_s = time_to_first_query
        result.time_to_full_restore_s = time_to_full
        result.total_blocks = total_blocks
        result.total_bytes = total_bytes
        result.lazy_blocks = lazy_blocks
        result.table_versions = dict(manifest["table_versions"])
        return result

    def complete_background_fetch(self, result: RestoreResult) -> float:
        """Finish a streaming restore's background download; returns the
        additional simulated time spent."""
        remaining = [b for b in result.lazy_blocks if not b.resident]
        start = self._clock.now
        for block in remaining:
            block.read()
        return self._clock.now - start
