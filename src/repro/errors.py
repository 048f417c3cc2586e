"""Exception hierarchy for the repro data warehouse.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class. Subsystems raise the most specific
subclass available; error messages name the offending object (table,
column, cluster, ...) so that failures are actionable.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# --------------------------------------------------------------------------
# SQL front end
# --------------------------------------------------------------------------

class SqlError(ReproError):
    """Base class for errors in the SQL front end."""


class LexError(SqlError):
    """Raised when the lexer encounters an unrecognised character sequence."""

    def __init__(self, message: str, position: int, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.position = position
        self.line = line
        self.column = column


class ParseError(SqlError):
    """Raised when the parser cannot derive a statement from the token stream."""


class AnalysisError(SqlError):
    """Raised during semantic analysis (unknown table/column, type mismatch...)."""


class TypeMismatchError(AnalysisError):
    """Raised when an expression combines values of incompatible types."""


# --------------------------------------------------------------------------
# Catalog / DDL
# --------------------------------------------------------------------------

class CatalogError(ReproError):
    """Base class for catalog errors."""


class TableNotFoundError(CatalogError):
    def __init__(self, name: str):
        super().__init__(f"table {name!r} does not exist")
        self.table_name = name


class TableAlreadyExistsError(CatalogError):
    def __init__(self, name: str):
        super().__init__(f"table {name!r} already exists")
        self.table_name = name


class ColumnNotFoundError(CatalogError):
    def __init__(self, column: str, table: str | None = None):
        where = f" in table {table!r}" if table else ""
        super().__init__(f"column {column!r} does not exist{where}")
        self.column_name = column
        self.table_name = table


class AmbiguousColumnError(CatalogError):
    def __init__(self, column: str):
        super().__init__(f"column reference {column!r} is ambiguous")
        self.column_name = column


# --------------------------------------------------------------------------
# Data / execution
# --------------------------------------------------------------------------

class DataError(ReproError):
    """Raised for invalid data values (overflow, bad cast, NULL violation)."""


class ExecutionError(ReproError):
    """Raised when a query fails during execution."""


class DivisionByZeroError(ExecutionError):
    def __init__(self) -> None:
        super().__init__("division by zero")


class NodeFailureError(ExecutionError):
    """Raised when a compute node dies while a query is touching it."""

    def __init__(self, node_id: str, detail: str = ""):
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"compute node {node_id} failed mid-query{suffix}")
        self.node_id = node_id


class WorkerCrashError(ExecutionError):
    """Raised inside a parallel worker killed by an injected crash.

    Deliberately NOT in :data:`QUERY_RECOVERABLE_ERRORS`: no repair is
    needed, so the parallel executor just re-executes the failed morsel
    serially on the leader.
    """

    def __init__(self, slice_id: str, detail: str = ""):
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"parallel worker for {slice_id} crashed{suffix}")
        self.slice_id = slice_id


class SpillCapacityError(ExecutionError):
    """Raised when a query must spill but its slice's disk has no room
    for more temp space (the disk is full, or a DISK_FULL fault window
    is active).

    Deliberately NOT in :data:`QUERY_RECOVERABLE_ERRORS`: writing the
    spill again would just fill the disk again. The session converts it into
    a clean WLM shed — the query fails with this typed error, its temp
    files are reclaimed, and an ``stl_wlm_rule_action`` row records the
    shed — rather than crashing or leaking spill bytes.
    """

    def __init__(self, disk_id: str, needed: int, detail: str = ""):
        suffix = f" ({detail})" if detail else ""
        super().__init__(
            f"no spill capacity on disk {disk_id} for {needed} bytes{suffix}"
        )
        self.disk_id = disk_id
        self.needed = needed


class CopyError(ReproError):
    """Raised when a COPY load fails (malformed source, missing object...)."""


class TransactionError(ReproError):
    """Raised for transaction protocol violations (commit conflicts...)."""


class SerializationError(TransactionError):
    """Raised when concurrent transactions cannot be serialized."""


# --------------------------------------------------------------------------
# Storage / durability
# --------------------------------------------------------------------------

class StorageError(ReproError):
    """Base class for block storage errors."""


class BlockCorruptionError(StorageError):
    """Raised when a block fails its checksum on read."""


class DiskFailureError(StorageError):
    """Raised when a simulated disk has failed and cannot serve IO."""


class DiskMediaError(StorageError):
    """Raised for a transient per-IO media error (a bad sector read/write
    that succeeds on retry or is served from a replica)."""

    def __init__(self, disk_id: str, op: str = "io"):
        super().__init__(f"media error during {op} on disk {disk_id}")
        self.disk_id = disk_id
        self.op = op


class DurabilityLossError(StorageError):
    """Raised when no surviving replica of a block exists anywhere."""


# --------------------------------------------------------------------------
# Cloud substrate
# --------------------------------------------------------------------------

class CloudError(ReproError):
    """Base class for simulated AWS service errors."""


class NoSuchKeyError(CloudError):
    """Raised by the simulated S3 when an object does not exist."""

    def __init__(self, bucket: str, key: str):
        super().__init__(f"no such key: s3://{bucket}/{key}")
        self.bucket = bucket
        self.key = key


class NoSuchBucketError(CloudError):
    def __init__(self, bucket: str):
        super().__init__(f"no such bucket: {bucket}")
        self.bucket = bucket


class ServiceUnavailableError(CloudError):
    """Raised when a simulated service is in an injected outage.

    An outage is *persistent*: it lasts until the injected window ends, so
    retrying inside it is pointless and clients surface the error instead.
    """


class TransientServiceError(CloudError):
    """Base class for per-request errors that a backed-off retry may clear."""


class S3TransientError(TransientServiceError):
    """A single S3 request failed (HTTP 503 SlowDown analogue)."""

    def __init__(self, region: str, detail: str = ""):
        suffix = f": {detail}" if detail else ""
        super().__init__(f"S3 {region} transient request failure{suffix}")
        self.region = region


class InsufficientCapacityError(CloudError):
    """Raised by simulated EC2 when no instance capacity is available."""


class KmsError(CloudError):
    """Raised by the simulated key management service."""


# --------------------------------------------------------------------------
# Concurrent server frontend
# --------------------------------------------------------------------------

class ServerError(ReproError):
    """Base class for concurrent-session server errors."""


class SessionClosedError(ServerError):
    """Raised when work is submitted to a closed or draining session."""

    def __init__(self, session_id: int, detail: str = ""):
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"session {session_id} is closed{suffix}")
        self.session_id = session_id


class ServerOverloadError(ServerError):
    """Raised when a session's bounded submission queue is full.

    Backpressure at the connection, before WLM: the client must slow
    down or the work is refused outright (never buffered without bound).
    """

    def __init__(self, session_id: int, depth: int):
        super().__init__(
            f"session {session_id} submission queue is full ({depth} pending)"
        )
        self.session_id = session_id
        self.depth = depth


class AdmissionError(ExecutionError):
    """Base class for live WLM admission failures (shed / timeout)."""


class AdmissionShedError(AdmissionError):
    """Raised when a queue at max depth sheds an arriving query."""

    def __init__(self, queue: str, waiting: int):
        super().__init__(
            f"WLM queue {queue!r} shed the query ({waiting} already waiting)"
        )
        self.queue = queue
        self.waiting = waiting


class AdmissionTimeoutError(AdmissionError):
    """Raised when a query waits longer than the queue's admission timeout."""

    def __init__(self, queue: str, timeout_s: float):
        super().__init__(
            f"WLM queue {queue!r} admission timed out after {timeout_s}s"
        )
        self.queue = queue
        self.timeout_s = timeout_s


class ReplayError(ReproError):
    """Raised for workload capture/replay protocol problems."""


# --------------------------------------------------------------------------
# Control plane
# --------------------------------------------------------------------------

class ControlPlaneError(ReproError):
    """Base class for control-plane errors."""


class ClusterNotFoundError(ControlPlaneError):
    def __init__(self, cluster_id: str):
        super().__init__(f"cluster {cluster_id!r} does not exist")
        self.cluster_id = cluster_id


class InvalidClusterStateError(ControlPlaneError):
    """Raised when an operation is not legal in the cluster's current state."""


class ClusterReadOnlyError(InvalidClusterStateError):
    """Raised when a write reaches a cluster degraded to read-only mode."""

    def __init__(self, reason: str):
        super().__init__(f"cluster is read-only: {reason}")
        self.reason = reason


class WorkflowError(ControlPlaneError):
    """Raised when a control-plane workflow fails after exhausting retries."""


class SnapshotNotFoundError(ControlPlaneError):
    def __init__(self, snapshot_id: str):
        super().__init__(f"snapshot {snapshot_id!r} does not exist")
        self.snapshot_id = snapshot_id


#: Faults a recovery handler can repair (node failover, scrub-and-repair,
#: transient media IO) so that the unit that met them runs again.
QUERY_RECOVERABLE_ERRORS = (NodeFailureError, BlockCorruptionError, DiskMediaError)
