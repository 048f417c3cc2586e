"""Block-level incremental backup manager."""

from __future__ import annotations

import itertools
import pickle
from dataclasses import dataclass, field

from repro.cloud.s3 import SimS3
from repro.cloud.simclock import SimClock
from repro.engine.cluster import Cluster
from repro.errors import S3TransientError, SnapshotNotFoundError
from repro.faults.retry import RetryPolicy, with_backoff
from repro.security.keyhierarchy import ClusterKeyHierarchy
from repro.util.rng import DeterministicRng

_snapshot_ids = itertools.count(1)


@dataclass
class SnapshotRecord:
    """One completed snapshot."""

    snapshot_id: str
    kind: str  # "system" | "user"
    created_at: float
    manifest_key: str
    blocks_uploaded: int
    bytes_uploaded: int
    duration_s: float
    total_blocks: int
    total_bytes: int
    #: table name -> table version at snapshot time (after seal-all),
    #: consumed by burst-cluster freshness routing.
    table_versions: dict[str, int] = field(default_factory=dict)


class BackupManager:
    """Uploads new blocks and snapshot manifests; ages out system backups.

    The S3 object space is shared by all snapshots — a block uploaded for
    one snapshot is reused by every later manifest that references it,
    which is what makes backups incremental and user backups cheap.
    """

    #: retained system snapshots (older ones age out automatically)
    SYSTEM_RETENTION = 5
    #: catalog/metadata restore overhead charged by restores (simulated s)
    METADATA_RESTORE_S = 60.0

    def __init__(
        self,
        cluster: Cluster,
        s3: SimS3,
        bucket: str,
        clock: SimClock,
        encryption: ClusterKeyHierarchy | None = None,
    ):
        self._cluster = cluster
        self._s3 = s3
        self._bucket = bucket
        self._clock = clock
        self._encryption = encryption
        self._retry_rng = DeterministicRng(f"backup-retry/{bucket}")
        self._s3_call(lambda: s3.create_bucket(bucket))
        self.snapshots: list[SnapshotRecord] = []
        self._uploaded_blocks: set[str] = set()
        self._dr_regions: list[SimS3] = []

    def _s3_call(self, fn):
        """Run one S3 request with backed-off retry of transient errors.

        Declared outages are persistent and re-raise immediately; only the
        per-request 503 analogue is retried."""
        return with_backoff(
            fn,
            clock=self._clock,
            policy=RetryPolicy(),
            rng=self._retry_rng,
            retry_on=(S3TransientError,),
        )

    # ---- DR ------------------------------------------------------------------

    def enable_disaster_recovery(self, remote_s3: SimS3) -> None:
        """Mirror every backup object to a second region (§3.2: 'only
        requires setting a checkbox and specifying the region')."""
        remote_s3.create_bucket(self._bucket)
        self._dr_regions.append(remote_s3)
        # Backfill what already exists.
        self._s3.replicate_to(remote_s3, self._bucket)

    # ---- snapshots ------------------------------------------------------------

    def snapshot(self, kind: str = "system", label: str | None = None) -> SnapshotRecord:
        """Take an incremental snapshot of the whole cluster."""
        if kind not in ("system", "user"):
            raise ValueError(f"snapshot kind must be system or user, got {kind!r}")
        self._cluster_seal_all()
        # Capture table versions *after* seal-all (sealing open tails
        # moves them); a burst restore of this snapshot is fresh for a
        # table exactly while its live version still matches.
        table_versions = {
            name: self._cluster.table_version(name)
            for name in self._cluster.catalog.table_names()
        }
        snapshot_id = label or f"snap-{next(_snapshot_ids):06d}"
        per_node_bytes: dict[str, int] = {}
        blocks_uploaded = 0
        bytes_uploaded = 0
        total_blocks = 0
        total_bytes = 0
        manifest_slices = []
        for node in self._cluster.nodes:
            for sl in node.slices:
                store = sl.storage
                slice_entry: dict = {"slice_id": store.slice_id, "tables": {}}
                for table_name, shard in store.shards.items():
                    version = shard.version
                    columns: dict[str, list[dict]] = {}
                    for column_name in shard.column_names:
                        metas = []
                        for block in version.columns[column_name][0]:
                            key = f"blocks/{block.block_id}"
                            total_blocks += 1
                            total_bytes += block.encoded_bytes
                            if block.block_id not in self._uploaded_blocks:
                                data = block.serialize()
                                if self._encryption is not None:
                                    data = self._encryption.encrypt_block(
                                        block.block_id, data
                                    ).ciphertext
                                self._s3_call(
                                    lambda key=key, data=data: self._s3.put_object(
                                        self._bucket, key, data
                                    )
                                )
                                self._uploaded_blocks.add(block.block_id)
                                blocks_uploaded += 1
                                bytes_uploaded += len(data)
                                per_node_bytes[node.node_id] = (
                                    per_node_bytes.get(node.node_id, 0) + len(data)
                                )
                            metas.append(
                                {
                                    "block_id": block.block_id,
                                    "zone_map": block.zone_map,
                                    "count": block.count,
                                    "encoded_bytes": block.encoded_bytes,
                                    "checksum": block.checksum,
                                    "s3_key": key,
                                }
                            )
                        columns[column_name] = metas
                    dead = [
                        offset
                        for offset, xid in enumerate(version.delete_xids)
                        if xid is not None
                        and self._cluster.transactions.is_committed(xid)
                    ]
                    slice_entry["tables"][table_name] = {
                        "columns": columns,
                        "row_count": version.row_count,
                        "dead": dead,
                        "codecs": {
                            name: chain.codec.name
                            for name, chain in shard.chains.items()
                        },
                    }
                manifest_slices.append(slice_entry)

        manifest = {
            "snapshot_id": snapshot_id,
            "kind": kind,
            "created_at": self._clock.now,
            "node_count": self._cluster.node_count,
            "slices_per_node": len(self._cluster.nodes[0].slices),
            "block_capacity": self._cluster.block_capacity,
            "tables": pickle.dumps(
                [
                    self._cluster.catalog.table(name)
                    for name in self._cluster.catalog.table_names()
                ],
                protocol=4,
            ),
            "slices": manifest_slices,
            "table_versions": table_versions,
        }
        manifest_key = f"manifests/{snapshot_id}"
        manifest_bytes = pickle.dumps(manifest, protocol=4)
        self._s3_call(
            lambda: self._s3.put_object(
                self._bucket, manifest_key, manifest_bytes
            )
        )

        # Uploads run in parallel per node: wall time tracks the busiest
        # node — "proportional to the data changed on a single node".
        busiest = max(per_node_bytes.values(), default=0)
        duration = self._s3.transfer_time(busiest + len(manifest_bytes))
        self._clock.advance(duration)

        for remote in self._dr_regions:
            self._s3.replicate_to(remote, self._bucket)

        record = SnapshotRecord(
            snapshot_id=snapshot_id,
            kind=kind,
            created_at=self._clock.now,
            manifest_key=manifest_key,
            blocks_uploaded=blocks_uploaded,
            bytes_uploaded=bytes_uploaded,
            duration_s=duration,
            total_blocks=total_blocks,
            total_bytes=total_bytes,
            table_versions=table_versions,
        )
        self.snapshots.append(record)
        if kind == "system":
            self._age_out()
        return record

    def _cluster_seal_all(self) -> None:
        for name in self._cluster.catalog.table_names():
            self._cluster.seal_table(name)

    def _age_out(self) -> None:
        """Delete manifests of old system snapshots (blocks referenced by
        surviving manifests are retained)."""
        system = [s for s in self.snapshots if s.kind == "system"]
        excess = len(system) - self.SYSTEM_RETENTION
        for record in system[:max(0, excess)]:
            self._s3_call(
                lambda record=record: self._s3.delete_object(
                    self._bucket, record.manifest_key
                )
            )
            self.snapshots.remove(record)
        if excess > 0:
            self._collect_unreferenced_blocks()

    def _collect_unreferenced_blocks(self) -> None:
        referenced: set[str] = set()
        for record in self.snapshots:
            manifest = self._load_manifest(record.snapshot_id)
            for slice_entry in manifest["slices"]:
                for table in slice_entry["tables"].values():
                    for metas in table["columns"].values():
                        referenced.update(m["s3_key"] for m in metas)
        for key in self._s3_call(
            lambda: self._s3.list_objects(self._bucket, "blocks/")
        ):
            if key not in referenced:
                self._s3_call(
                    lambda key=key: self._s3.delete_object(self._bucket, key)
                )
                self._uploaded_blocks.discard(key.removeprefix("blocks/"))

    # ---- lookups ------------------------------------------------------------------

    def delete_snapshot(self, snapshot_id: str) -> None:
        record = self.find(snapshot_id)
        self._s3_call(
            lambda: self._s3.delete_object(self._bucket, record.manifest_key)
        )
        self.snapshots.remove(record)
        self._collect_unreferenced_blocks()

    def find(self, snapshot_id: str) -> SnapshotRecord:
        for record in self.snapshots:
            if record.snapshot_id == snapshot_id:
                return record
        raise SnapshotNotFoundError(snapshot_id)

    def _load_manifest(self, snapshot_id: str) -> dict:
        record = self.find(snapshot_id)
        data = self._s3_call(
            lambda: self._s3.get_object(self._bucket, record.manifest_key)
        ).data
        return pickle.loads(data)

    def s3_block_reader(self, block_id: str) -> bytes | None:
        """Fetch a block image from backup (for replication failover)."""
        key = f"blocks/{block_id}"
        if not self._s3.has_object(self._bucket, key):
            return None
        data = self._s3_call(
            lambda: self._s3.get_object(self._bucket, key)
        ).data
        if self._encryption is not None:
            from repro.security.keyhierarchy import EncryptedBlob

            data = self._encryption.decrypt_block(
                EncryptedBlob(block_id=block_id, ciphertext=data)
            )
        return data

    @property
    def bucket(self) -> str:
        return self._bucket
