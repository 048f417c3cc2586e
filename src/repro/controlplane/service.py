"""RedshiftService: the customer-facing managed-warehouse API.

One facade owning the fleet: create/delete clusters, snapshot, restore
(full or streaming), resize, enable encryption and disaster recovery —
each implemented as an SWF workflow over the simulated cloud substrate,
with durations accumulating on the shared simulation clock. These
workflows are the generators of Figure 2 and the provisioning claims
(15-minute cold creates, 3-minute warm-pool creates).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.backup.manager import BackupManager, SnapshotRecord
from repro.cloud.environment import CloudEnvironment
from repro.cloud.swf import Workflow
from repro.controlplane.console import AdminOperation, ConsoleModel
from repro.controlplane.hostmanager import HostManager
from repro.engine.cluster import Cluster
from repro.errors import (
    ClusterNotFoundError,
    InsufficientCapacityError,
    InvalidClusterStateError,
    TransientServiceError,
)
from repro.faults.recovery import RecoveryCoordinator
from repro.faults.retry import RetryPolicy, with_backoff
from repro.replication.mirror import ReplicationManager
from repro.restore.manager import RestoreManager, RestoreResult
from repro.security.keyhierarchy import ClusterKeyHierarchy
from repro.util.units import MB, MINUTE

#: node-to-node copy bandwidth during resize
RESIZE_BANDWIDTH = 120 * MB
#: per-node engine install + configure time during provisioning
ENGINE_INSTALL_S = 80.0
#: endpoint (DNS) creation / flip
ENDPOINT_S = 25.0
#: network (VPC) setup
NETWORK_SETUP_S = 20.0


class ClusterState(enum.Enum):
    CREATING = "creating"
    AVAILABLE = "available"
    READ_ONLY = "read_only"
    RESIZING = "resizing"
    RESTORING = "restoring"
    DELETED = "deleted"


@dataclass
class ManagedCluster:
    """A cluster plus everything the service manages around it."""

    cluster_id: str
    engine: Cluster
    node_type: str
    state: ClusterState
    created_at: float
    engine_version: str = "1.0.0"
    previous_version: str | None = None
    backups: BackupManager | None = None
    replication: ReplicationManager | None = None
    encryption: ClusterKeyHierarchy | None = None
    host_managers: dict[str, HostManager] = field(default_factory=dict)
    instance_ids: list[str] = field(default_factory=list)
    maintenance_window_hour: int = 3  # weekly window start (hour of day)
    events: list[tuple[float, str]] = field(default_factory=list)
    #: Set on concurrency-scaling burst clusters: the cluster id this
    #: one bursts for. Burst clusters carry no backups/replication of
    #: their own — they are disposable snapshot clones.
    burst_of: str | None = None

    def record(self, clock_now: float, message: str) -> None:
        self.events.append((clock_now, message))

    def connect(self, executor: str = "compiled"):
        if self.state not in (ClusterState.AVAILABLE, ClusterState.READ_ONLY):
            raise InvalidClusterStateError(
                f"cluster {self.cluster_id} is {self.state.value}"
            )
        return self.engine.connect(executor)


@dataclass
class OperationTiming:
    """What an admin operation cost: human clicks + automated seconds."""

    operation: AdminOperation
    click_seconds: float
    automated_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.click_seconds + self.automated_seconds


class RedshiftService:
    """The control plane entry point."""

    def __init__(
        self,
        env: CloudEnvironment | None = None,
        console: ConsoleModel | None = None,
    ):
        self.env = env or CloudEnvironment()
        self.console = console or ConsoleModel()
        self.clusters: dict[str, ManagedCluster] = {}
        self._ids = itertools.count(1)
        self.operation_log: list[tuple[str, OperationTiming]] = []
        self._retry_rng = self.env.rng.child("controlplane-retry")

    # ---- helpers ------------------------------------------------------------

    def cluster(self, cluster_id: str) -> ManagedCluster:
        managed = self.clusters.get(cluster_id)
        if managed is None or managed.state is ClusterState.DELETED:
            raise ClusterNotFoundError(cluster_id)
        return managed

    def _cluster_record(self, cluster_id: str) -> ManagedCluster:
        """Like :meth:`cluster` but also returns deleted clusters — their
        snapshots outlive them (the Friday-delete/Monday-restore pattern)."""
        managed = self.clusters.get(cluster_id)
        if managed is None:
            raise ClusterNotFoundError(cluster_id)
        return managed

    def _log(self, cluster_id: str, timing: OperationTiming) -> None:
        self.operation_log.append((cluster_id, timing))
        self.env.cloudtrail.record(
            actor="customer",
            action=f"redshift:{timing.operation.value}",
            resource=cluster_id,
            parameters={
                "automated_seconds": f"{timing.automated_seconds:.1f}",
            },
        )

    def _provision(self, node_type: str, count: int, allow_cold: bool = True):
        """EC2 provision with backed-off retry: transient service errors
        and capacity gaps get a few spaced attempts before the typed error
        surfaces to the caller."""
        return with_backoff(
            lambda: self.env.ec2.provision(node_type, count, allow_cold),
            clock=self.env.clock,
            policy=RetryPolicy(max_attempts=4, base_delay_s=2.0, max_delay_s=20.0),
            rng=self._retry_rng,
            retry_on=(TransientServiceError, InsufficientCapacityError),
        )

    def _install_recovery(self, managed: ManagedCluster) -> None:
        """Attach the shared fault injector and stand up query recovery.

        Every cluster the service runs gets leader-side segment retry with
        replica failover and scrub-and-repair; redundancy loss flips the
        managed state to READ_ONLY instead of failing the cluster."""
        engine = managed.engine
        engine.attach_faults(self.env.faults)
        # System-table timestamps follow the simulation clock so stl_query
        # rows line up with CloudTrail entries and CloudWatch points.
        engine.systables.bind_clock(self.env.clock)
        if managed.replication is None:
            return
        clock = self.env.clock

        def on_degraded(reason: str) -> None:
            managed.state = ClusterState.READ_ONLY
            managed.record(clock.now, f"degraded: {reason}")

        def on_recovered() -> None:
            managed.state = ClusterState.AVAILABLE
            managed.record(clock.now, "redundancy restored")

        RecoveryCoordinator(
            engine,
            replication=managed.replication,
            s3_reader=(
                managed.backups.s3_block_reader
                if managed.backups is not None
                else None
            ),
            injector=self.env.faults,
            clock=clock,
            on_degraded=on_degraded,
            on_recovered=on_recovered,
        )

    # ---- create -----------------------------------------------------------------

    def create_cluster(
        self,
        cluster_id: str | None = None,
        node_count: int = 2,
        node_type: str = "dw2.large",
        slices_per_node: int = 2,
        block_capacity: int = 4096,
        encrypted: bool = False,
        use_warm_pool: bool = True,
    ) -> tuple[ManagedCluster, OperationTiming]:
        """Provision a cluster; returns it plus the operation timing.

        The workflow mirrors §3.1: network setup, instance acquisition
        (warm pool first), parallel engine install, endpoint creation.
        """
        cluster_id = cluster_id or f"cluster-{next(self._ids):04d}"
        if cluster_id in self.clusters and self.clusters[
            cluster_id
        ].state is not ClusterState.DELETED:
            raise InvalidClusterStateError(
                f"cluster {cluster_id!r} already exists"
            )
        clock = self.env.clock
        start = clock.now
        captured: dict = {}

        def acquire_instances() -> float:
            instances, duration = self.env.ec2.provision(
                node_type, node_count, allow_cold=True
            ) if use_warm_pool else self.env.ec2.provision(
                node_type, node_count, allow_cold=True
            )
            captured["instances"] = instances
            return duration

        workflow = (
            Workflow(name="create_cluster")
            .step("setup_network", lambda: NETWORK_SETUP_S)
            .step(
                "acquire_instances",
                acquire_instances,
                max_attempts=4,
                retry_delay_s=10.0,
                backoff_factor=2.0,
                max_delay_s=120.0,
            )
            .step("install_engine", lambda: ENGINE_INSTALL_S)
            .step("create_endpoint", lambda: ENDPOINT_S)
        )
        self.env.swf.run(workflow)

        engine = Cluster(
            node_count=node_count,
            slices_per_node=slices_per_node,
            block_capacity=block_capacity,
            node_type=node_type,
        )
        managed = ManagedCluster(
            cluster_id=cluster_id,
            engine=engine,
            node_type=node_type,
            state=ClusterState.AVAILABLE,
            created_at=clock.now,
            instance_ids=[i.instance_id for i in captured.get("instances", [])],
        )
        if encrypted:
            master = self.env.kms.create_master_key(f"{cluster_id}-master")
            managed.encryption = ClusterKeyHierarchy(
                self.env.kms, master, cluster_id
            )
        managed.backups = BackupManager(
            engine,
            self.env.s3,
            f"{cluster_id}-backup",
            clock,
            managed.encryption,
        )
        managed.replication = ReplicationManager(engine) if node_count >= 2 else None
        for node in engine.nodes:
            managed.host_managers[node.node_id] = HostManager(
                node_id=node.node_id, clock=clock
            )
        self._install_recovery(managed)
        self.clusters[cluster_id] = managed
        managed.record(clock.now, "cluster created")

        timing = OperationTiming(
            operation=AdminOperation.DEPLOY,
            click_seconds=self.console.click_time(AdminOperation.DEPLOY),
            automated_seconds=clock.now - start,
        )
        self._log(cluster_id, timing)
        self.env.cloudwatch.put_metric(
            "ClusterCreateSeconds", timing.automated_seconds,
            {"node_count": str(node_count)},
        )
        return managed, timing

    def connect_timing(self, cluster_id: str) -> OperationTiming:
        """Console time to find the endpoint and connect a SQL client."""
        self.cluster(cluster_id)  # validate
        timing = OperationTiming(
            operation=AdminOperation.CONNECT,
            click_seconds=self.console.click_time(AdminOperation.CONNECT),
            automated_seconds=5.0,  # driver handshake
        )
        self._log(cluster_id, timing)
        return timing

    def time_to_first_report(
        self, node_count: int = 2, node_type: str = "dw2.large"
    ) -> float:
        """The §1 metric: decide → create → connect → first query result."""
        managed, deploy = self.create_cluster(
            node_count=node_count, node_type=node_type
        )
        connect = self.connect_timing(managed.cluster_id)
        session = managed.connect()
        session.execute("SELECT 1 x")
        first_query = 2.0  # leader round trip at console scale
        return deploy.total_seconds + connect.total_seconds + first_query

    # ---- delete -------------------------------------------------------------------

    def delete_cluster(
        self, cluster_id: str, final_snapshot: bool = False
    ) -> SnapshotRecord | None:
        managed = self.cluster(cluster_id)
        record = None
        if final_snapshot and managed.backups is not None:
            record = managed.backups.snapshot(
                "user", label=f"{cluster_id}-final"
            )
        for instance_id in managed.instance_ids:
            self.env.ec2.terminate(instance_id)
        managed.state = ClusterState.DELETED
        managed.record(self.env.clock.now, "cluster deleted")
        self.env.cloudtrail.record(
            actor="customer",
            action="redshift:delete",
            resource=cluster_id,
            parameters={"final_snapshot": final_snapshot},
        )
        return record

    # ---- snapshot / restore -----------------------------------------------------------

    def snapshot_cluster(
        self, cluster_id: str, label: str | None = None, kind: str = "user"
    ) -> tuple[SnapshotRecord, OperationTiming]:
        managed = self.cluster(cluster_id)
        start = self.env.clock.now
        record = managed.backups.snapshot(kind, label=label)
        timing = OperationTiming(
            operation=AdminOperation.BACKUP,
            click_seconds=self.console.click_time(AdminOperation.BACKUP)
            if kind == "user"
            else 0.0,
            automated_seconds=self.env.clock.now - start,
        )
        self._log(cluster_id, timing)
        return record, timing

    def restore_cluster(
        self,
        source_cluster_id: str,
        snapshot_id: str,
        new_cluster_id: str | None = None,
        streaming: bool = True,
    ) -> tuple[ManagedCluster, RestoreResult, OperationTiming]:
        """Restore a snapshot into a brand-new cluster."""
        source = self._cluster_record(source_cluster_id)
        clock = self.env.clock
        start = clock.now
        new_cluster_id = new_cluster_id or f"{source_cluster_id}-restored"

        manager = RestoreManager(
            self.env.s3,
            source.backups.bucket,
            clock,
            source.encryption,
        )
        # Instances first (the restored cluster needs hardware too).
        manifest_nodes = source.engine.node_count
        _instances, boot = self._provision(source.node_type, manifest_nodes)
        clock.advance(boot)
        result = (
            manager.streaming_restore(snapshot_id)
            if streaming
            else manager.full_restore(snapshot_id)
        )
        managed = ManagedCluster(
            cluster_id=new_cluster_id,
            engine=result.cluster,
            node_type=source.node_type,
            state=ClusterState.AVAILABLE,
            created_at=clock.now,
        )
        managed.backups = BackupManager(
            result.cluster,
            self.env.s3,
            f"{new_cluster_id}-backup",
            clock,
            source.encryption,
        )
        managed.replication = (
            ReplicationManager(result.cluster)
            if result.cluster.node_count >= 2
            else None
        )
        self._install_recovery(managed)
        self.clusters[new_cluster_id] = managed
        managed.record(clock.now, f"restored from {snapshot_id}")
        timing = OperationTiming(
            operation=AdminOperation.RESTORE,
            click_seconds=self.console.click_time(AdminOperation.RESTORE),
            automated_seconds=clock.now - start,
        )
        self._log(new_cluster_id, timing)
        return managed, result, timing

    # ---- concurrency scaling ----------------------------------------------------------

    def provision_burst_cluster(
        self,
        cluster_id: str,
        snapshot_id: str | None = None,
        burst_cluster_id: str | None = None,
        streaming: bool = False,
    ):
        """Stand up a concurrency-scaling burst cluster for *cluster_id*.

        Restores the latest snapshot (taking one first if none exists)
        onto freshly provisioned instances and returns a
        :class:`repro.server.burst.BurstCluster` carrying the snapshot's
        captured table epochs — the router's freshness oracle. Burst
        clusters deliberately get **no** recovery coordinator,
        replication, or backups: they are disposable; a fault mid-query
        propagates to the router, which falls back to main and retires
        the clone.
        """
        from repro.server.burst import BurstCluster

        source = self.cluster(cluster_id)
        if source.backups is None:
            raise InvalidClusterStateError(
                f"cluster {cluster_id} has no backups to burst from"
            )
        clock = self.env.clock
        start = clock.now
        if snapshot_id is None:
            if source.backups.snapshots:
                snapshot_id = source.backups.snapshots[-1].snapshot_id
            else:
                snapshot_id = source.backups.snapshot("system").snapshot_id
        burst_id = burst_cluster_id or f"{cluster_id}-burst-{next(self._ids)}"

        manager = RestoreManager(
            self.env.s3,
            source.backups.bucket,
            clock,
            source.encryption,
        )
        instances, boot = self._provision(
            source.node_type, source.engine.node_count
        )
        clock.advance(boot)
        try:
            result = (
                manager.streaming_restore(snapshot_id)
                if streaming
                else manager.full_restore(snapshot_id)
            )
        except Exception:
            # A failed restore (S3 outage mid-fetch) must not strand the
            # instances it would have used.
            for instance in instances:
                self.env.ec2.terminate(instance.instance_id)
            raise
        engine = result.cluster
        engine.attach_faults(self.env.faults)
        engine.systables.bind_clock(clock)
        managed = ManagedCluster(
            cluster_id=burst_id,
            engine=engine,
            node_type=source.node_type,
            state=ClusterState.AVAILABLE,
            created_at=clock.now,
            instance_ids=[i.instance_id for i in instances],
            burst_of=cluster_id,
        )
        self.clusters[burst_id] = managed
        managed.record(clock.now, f"burst cluster from {snapshot_id}")
        source.record(clock.now, f"burst cluster {burst_id} attached")
        self.env.cloudtrail.record(
            actor="service",
            action="redshift:burst-provision",
            resource=burst_id,
            parameters={
                "source": cluster_id,
                "snapshot": snapshot_id,
                "automated_seconds": f"{clock.now - start:.1f}",
            },
        )
        return (
            BurstCluster(
                cluster_id=burst_id,
                cluster=engine,
                snapshot_id=snapshot_id,
                snapshot_epochs=dict(result.table_epochs),
                provisioned_at=clock.now,
            ),
            result,
        )

    def retire_burst_cluster(self, burst_cluster_id: str) -> None:
        """Release a burst cluster's instances and mark it deleted."""
        managed = self.clusters.get(burst_cluster_id)
        if managed is None or managed.state is ClusterState.DELETED:
            return
        for instance_id in managed.instance_ids:
            self.env.ec2.terminate(instance_id)
        managed.state = ClusterState.DELETED
        managed.record(self.env.clock.now, "burst cluster retired")
        self.env.cloudtrail.record(
            actor="service",
            action="redshift:burst-retire",
            resource=burst_cluster_id,
            parameters={"source": managed.burst_of or ""},
        )

    def enable_concurrency_scaling(
        self,
        cluster_id: str,
        server,
        config=None,
    ):
        """Wire a :class:`~repro.server.burst.BurstRouter` onto *server*.

        The router owns the when (queue-pressure trigger, idle
        retirement); this service owns the how (snapshot restore onto
        EC2, instance teardown) via the provision/retire callables.
        Returns the attached router.
        """
        from repro.server.burst import BurstConfig, BurstRouter

        config = config or BurstConfig()
        self.cluster(cluster_id)  # validate up front

        def provision():
            burst, _result = self.provision_burst_cluster(cluster_id)
            return burst

        def retire(burst):
            self.retire_burst_cluster(burst.cluster_id)

        router = BurstRouter(server, config, provision, retire)
        server.burst_router = router
        return router

    # ---- resize ---------------------------------------------------------------------------

    def resize_cluster(
        self,
        cluster_id: str,
        new_node_count: int,
        new_node_type: str | None = None,
    ) -> tuple[ManagedCluster, OperationTiming]:
        """Resize by parallel copy to a freshly provisioned cluster.

        "We provision a new cluster, put the original cluster in read-only
        mode, and run a parallel node-to-node copy from source cluster to
        target. The source cluster is available for reads until the
        operation completes, at which time, we move the SQL endpoint and
        decommission the source" (§3.1).
        """
        managed = self.cluster(cluster_id)
        if managed.state is not ClusterState.AVAILABLE:
            raise InvalidClusterStateError(
                f"cluster {cluster_id} is {managed.state.value}, not available"
            )
        clock = self.env.clock
        start = clock.now
        node_type = new_node_type or managed.node_type

        # 1. Provision the target (warm pool first).
        _instances, boot = self._provision(node_type, new_node_count)
        clock.advance(boot + ENGINE_INSTALL_S)

        # 2. Source goes read-only; reads keep working.
        managed.state = ClusterState.READ_ONLY
        managed.record(clock.now, "resize started: source read-only")

        # 3. Parallel node-to-node copy.
        source = managed.engine
        target = Cluster(
            node_count=new_node_count,
            slices_per_node=len(source.nodes[0].slices),
            block_capacity=source.block_capacity,
            node_type=node_type,
        )
        total_bytes = 0
        for name in source.catalog.table_names():
            info = source.catalog.table(name)
            target.catalog.create_table(info)
            target.create_table_storage(info)
            rows = self._read_table_rows(source, name)
            target.distribute_rows(info, rows, xid=0, validate=False)
            target.seal_table(name)
            total_bytes += source.table_bytes(name)
        streams = min(source.node_count, new_node_count)
        copy_seconds = total_bytes / (RESIZE_BANDWIDTH * max(1, streams))
        clock.advance(copy_seconds)

        # 4. Flip the endpoint, decommission the source.
        clock.advance(ENDPOINT_S)
        for instance_id in managed.instance_ids:
            self.env.ec2.terminate(instance_id)
        managed.engine = target
        managed.node_type = node_type
        managed.state = ClusterState.AVAILABLE
        managed.replication = (
            ReplicationManager(target) if new_node_count >= 2 else None
        )
        managed.backups = BackupManager(
            target,
            self.env.s3,
            f"{cluster_id}-backup-{clock.now:.0f}",
            clock,
            managed.encryption,
        )
        managed.host_managers = {
            node.node_id: HostManager(node_id=node.node_id, clock=clock)
            for node in target.nodes
        }
        self._install_recovery(managed)
        managed.record(clock.now, f"resized to {new_node_count} nodes")
        timing = OperationTiming(
            operation=AdminOperation.RESIZE,
            click_seconds=self.console.click_time(AdminOperation.RESIZE),
            automated_seconds=clock.now - start,
        )
        self._log(cluster_id, timing)
        return managed, timing

    @staticmethod
    def _read_table_rows(cluster: Cluster, table_name: str):
        """All visible rows of a table (resize source is read-only)."""
        info = cluster.catalog.table(table_name)
        rows: list[tuple] = []
        snapshot = cluster.transactions.snapshot_latest()
        for _, batch in cluster.scan_table(info, snapshot, one_replica=True):
            rows.extend(batch.rows())
        return rows

    # ---- node replacement -------------------------------------------------------------------

    def replace_node(
        self, cluster_id: str, node_id: str
    ) -> tuple[float, int]:
        """Replace a failed node: new instance, re-replicate its slices.

        §2.2 lists "node replacements" first among control-plane tasks and
        §5 explains the warm pool keeps replacements flowing "if there is
        an Amazon EC2 provisioning interruption". Returns (simulated
        seconds, bytes restored).
        """
        managed = self.cluster(cluster_id)
        clock = self.env.clock
        start = clock.now
        node = next(
            (n for n in managed.engine.nodes if n.node_id == node_id), None
        )
        if node is None:
            raise InvalidClusterStateError(
                f"cluster {cluster_id} has no node {node_id!r}"
            )

        # 1. Acquire replacement hardware (warm pool first, §5).
        instances, boot = self._provision(managed.node_type, 1)
        clock.advance(boot + ENGINE_INSTALL_S)
        managed.instance_ids.append(instances[0].instance_id)

        # 2. Rebuild the node's slices from replicas (and S3 if needed).
        restored = 0
        if managed.replication is not None:
            s3_reader = (
                managed.backups.s3_block_reader
                if managed.backups is not None
                else None
            )
            for sl in node.slices:
                nbytes, duration = managed.replication.recover_slice(
                    sl.slice_id, s3_reader
                )
                restored += nbytes
                clock.advance(duration)

        # 3. Fresh host manager for the new hardware.
        managed.host_managers[node_id] = HostManager(
            node_id=node_id, clock=clock
        )
        managed.record(clock.now, f"node {node_id} replaced")
        self.env.cloudtrail.record(
            actor="control-plane",
            action="redshift:replace_node",
            resource=cluster_id,
            parameters={"node": node_id, "restored_bytes": restored},
        )
        return clock.now - start, restored

    # ---- feature toggles ----------------------------------------------------------------------

    def enable_encryption(self, cluster_id: str) -> OperationTiming:
        """§3.2: 'Enabling encryption requires setting a checkbox.'"""
        managed = self.cluster(cluster_id)
        start = self.env.clock.now
        if managed.encryption is None:
            master = self.env.kms.create_master_key(f"{cluster_id}-master")
            managed.encryption = ClusterKeyHierarchy(
                self.env.kms, master, cluster_id
            )
            managed.backups = BackupManager(
                managed.engine,
                self.env.s3,
                f"{cluster_id}-backup-encrypted",
                self.env.clock,
                managed.encryption,
            )
            # Existing data re-encrypts in the background.
            self.env.clock.advance(
                managed.engine.total_bytes() / (80 * MB) + 30.0
            )
        timing = OperationTiming(
            operation=AdminOperation.ENABLE_ENCRYPTION,
            click_seconds=self.console.click_time(
                AdminOperation.ENABLE_ENCRYPTION
            ),
            automated_seconds=self.env.clock.now - start,
        )
        self._log(cluster_id, timing)
        return timing

    def enable_disaster_recovery(
        self, cluster_id: str, region: str
    ) -> OperationTiming:
        """§3.2: DR 'only requires setting a checkbox and specifying the
        region'."""
        managed = self.cluster(cluster_id)
        start = self.env.clock.now
        remote = self.env.add_remote_region(region)
        managed.backups.enable_disaster_recovery(remote.s3)
        timing = OperationTiming(
            operation=AdminOperation.ENABLE_DR,
            click_seconds=self.console.click_time(AdminOperation.ENABLE_DR),
            automated_seconds=self.env.clock.now - start,
        )
        self._log(cluster_id, timing)
        return timing

    # ---- observability ---------------------------------------------------------------------------

    def publish_query_metrics(self, cluster_id: str) -> dict[str, float]:
        """Publish one cluster's query telemetry into CloudWatch.

        The numbers come out of the cluster's own ``stl_query`` system
        table through ordinary SQL — the control plane is just another
        client of the warehouse's self-description. Emits ``QueryCount``,
        ``QueryErrors`` and ``QueryLatencyUs`` (mean over successes) under
        a ``cluster_id`` dimension and returns the published values.

        The aggregation statement itself lands in ``stl_query`` only
        after it completes, so it never counts itself; it will show up in
        the *next* publish, like any other client query.
        """
        managed = self.cluster(cluster_id)
        session = managed.connect()
        rows = session.execute(
            "SELECT state, count(*) n, sum(elapsed_us) total_us "
            "FROM stl_query GROUP BY state"
        ).rows
        by_state = {state: (n, total_us or 0) for state, n, total_us in rows}
        successes, success_us = by_state.get("success", (0, 0))
        errors, _ = by_state.get("error", (0, 0))
        metrics = {
            "QueryCount": float(successes + errors),
            "QueryErrors": float(errors),
            "QueryLatencyUs": (success_us / successes) if successes else 0.0,
        }
        dimensions = {"cluster_id": cluster_id}
        for name, value in metrics.items():
            self.env.cloudwatch.put_metric(name, value, dimensions)
        return metrics

    # ---- fleet view ------------------------------------------------------------------------------

    @property
    def fleet(self) -> list[ManagedCluster]:
        return [
            m
            for m in self.clusters.values()
            if m.state is not ClusterState.DELETED
        ]

    def fleet_versions(self) -> set[str]:
        return {m.engine_version for m in self.fleet}
