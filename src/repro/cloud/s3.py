"""Simulated Amazon S3: a durable, region-replicated object store.

Carries exactly the properties the paper's backup design relies on
(§2.2): very high durability ("99.9999999%"), incremental block-level
puts, range reads for page-faulting blocks during streaming restore, and
cross-region replication for disaster recovery. Transfer durations follow
a simple latency + size/throughput model so control-plane workflows can
charge realistic simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NoSuchBucketError, NoSuchKeyError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultSpec
from repro.util.rng import DeterministicRng
from repro.util.units import MB


@dataclass
class S3Config:
    """Latency/throughput model, tuned to 2014-era S3 from EC2."""

    request_latency_s: float = 0.02
    throughput_bytes_per_s: float = 60 * MB
    cross_region_latency_s: float = 0.08


@dataclass
class S3Object:
    key: str
    data: bytes
    metadata: dict[str, str] = field(default_factory=dict)
    stored_at: float = 0.0

    @property
    def size(self) -> int:
        return len(self.data)


class SimS3:
    """One region's object store (create more for cross-region DR)."""

    def __init__(
        self,
        region: str = "us-east-1",
        config: S3Config | None = None,
        clock=None,
        rng: DeterministicRng | None = None,
        injector: FaultInjector | None = None,
    ):
        self.region = region
        self.config = config or S3Config()
        self._clock = clock
        self._rng = rng or DeterministicRng(f"s3-{region}")
        self._injector = injector or FaultInjector(
            clock=clock, rng=self._rng.child("faults")
        )
        self._outage_spec: FaultSpec | None = None
        self._buckets: dict[str, dict[str, S3Object]] = {}
        self.bytes_in = 0
        self.bytes_out = 0
        self.put_count = 0
        self.get_count = 0

    # ---- failure injection -----------------------------------------------

    def attach_injector(self, injector: FaultInjector) -> None:
        """Route this store's fault decisions through a shared injector."""
        self._injector = injector
        self._outage_spec = None

    @property
    def injector(self) -> FaultInjector:
        return self._injector

    def start_outage(self) -> None:
        """Inject a regional S3 outage; all requests fail until ended."""
        if self._outage_spec is None:
            self._outage_spec = self._injector.add(
                FaultSpec(
                    FaultKind.S3_OUTAGE,
                    at_s=self._injector.now,
                    target=self.region,
                )
            )

    def end_outage(self) -> None:
        if self._outage_spec is not None:
            self._injector.cancel(self._outage_spec)
            self._outage_spec = None

    def _check_available(self, op: str = "request") -> None:
        """Per-request fault consultation: outages and transient 503s."""
        self._injector.s3_request(self.region, op)

    # ---- bucket/object API ----------------------------------------------------

    def create_bucket(self, bucket: str) -> None:
        self._check_available("create_bucket")
        self._buckets.setdefault(bucket, {})

    def _bucket(self, bucket: str) -> dict[str, S3Object]:
        objects = self._buckets.get(bucket)
        if objects is None:
            raise NoSuchBucketError(bucket)
        return objects

    def put_object(
        self, bucket: str, key: str, data: bytes, metadata: dict | None = None
    ) -> float:
        """Store an object; returns the simulated transfer duration."""
        self._check_available("put_object")
        now = self._clock.now if self._clock is not None else 0.0
        self._bucket(bucket)[key] = S3Object(
            key=key, data=bytes(data), metadata=dict(metadata or {}), stored_at=now
        )
        self.bytes_in += len(data)
        self.put_count += 1
        return self.transfer_time(len(data))

    def get_object(self, bucket: str, key: str) -> S3Object:
        self._check_available("get_object")
        obj = self._bucket(bucket).get(key)
        if obj is None:
            raise NoSuchKeyError(bucket, key)
        self.bytes_out += obj.size
        self.get_count += 1
        return obj

    def head_object(self, bucket: str, key: str) -> S3Object:
        """Metadata-only read (no transfer accounting)."""
        self._check_available("head_object")
        obj = self._bucket(bucket).get(key)
        if obj is None:
            raise NoSuchKeyError(bucket, key)
        return obj

    def has_object(self, bucket: str, key: str) -> bool:
        return key in self._buckets.get(bucket, {})

    def delete_object(self, bucket: str, key: str) -> None:
        self._check_available("delete_object")
        self._bucket(bucket).pop(key, None)

    def list_objects(self, bucket: str, prefix: str = "") -> list[str]:
        self._check_available("list_objects")
        return sorted(
            key for key in self._bucket(bucket) if key.startswith(prefix)
        )

    # ---- models -------------------------------------------------------------------

    def transfer_time(self, nbytes: int) -> float:
        """Simulated seconds to move *nbytes* in or out of the store.

        Active slow-request fault windows stretch the duration.
        """
        base = (
            self.config.request_latency_s
            + nbytes / self.config.throughput_bytes_per_s
        )
        return base * self._injector.s3_slow_factor(self.region)

    def replicate_to(self, other: "SimS3", bucket: str, prefix: str = "") -> int:
        """Cross-region replication (DR): copy objects to *other*'s bucket.

        Returns the number of objects copied. Existing objects with the
        same key are overwritten, mirroring S3 replication semantics.
        """
        self._check_available("replicate")
        other.create_bucket(bucket)
        copied = 0
        for key in self.list_objects(bucket, prefix):
            obj = self._bucket(bucket)[key]
            other.put_object(bucket, key, obj.data, obj.metadata)
            copied += 1
        return copied
