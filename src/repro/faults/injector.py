"""The fault injector every simulated dependency consults.

One :class:`FaultInjector` binds a :class:`~repro.faults.plan.FaultPlan`
to a clock. Dependencies ask it before serving work — S3 per request, EC2
per cold provision, disks per IO, query execution per node — and it
answers deterministically: window membership comes from the clock, and
rate-driven draws come from named child RNG streams of the plan seed, so
the same plan over the same call sequence fires the same faults.

Everything that fires is appended to :attr:`FaultInjector.log`, and
recovery code appends its actions to the same log via :meth:`record`, so
one ordered event list is both the fault timeline and the recovery log.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (
    DiskMediaError,
    NodeFailureError,
    S3TransientError,
    ServiceUnavailableError,
)
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.util.rng import DeterministicRng


@dataclass(frozen=True)
class FaultEvent:
    """One entry of the combined fault/recovery log."""

    at_s: float
    kind: str  # FaultKind value for injected faults, "recovery:*" for repairs
    target: str
    detail: str = ""

    def key(self) -> tuple:
        """The identity compared across runs for reproducibility checks."""
        return (self.at_s, self.kind, self.target, self.detail)


class FaultInjector:
    """Schedules faults onto dependencies; collects the event log."""

    def __init__(
        self,
        plan: FaultPlan | None = None,
        clock=None,
        rng: DeterministicRng | None = None,
    ):
        self.plan = plan or FaultPlan()
        self._clock = clock
        root = rng or DeterministicRng(f"faults/{self.plan.seed}")
        self._streams: dict[str, DeterministicRng] = {}
        self._root_rng = root
        self._specs: list[FaultSpec] = list(self.plan.faults)
        self._fired: set[int] = set()  # id() of one-shot specs already fired
        self._recovered_nodes: set[str] = set()
        self.log: list[FaultEvent] = []

    # ---- plumbing ----------------------------------------------------------

    @property
    def now(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    def bind_clock(self, clock) -> None:
        self._clock = clock

    def _stream(self, name: str) -> DeterministicRng:
        stream = self._streams.get(name)
        if stream is None:
            stream = self._root_rng.child(name)
            self._streams[name] = stream
        return stream

    def add(self, spec: FaultSpec) -> FaultSpec:
        """Dynamically add a fault (compat wrappers and tests use this)."""
        self._specs.append(spec)
        return spec

    def cancel(self, spec: FaultSpec) -> None:
        """Remove a previously added fault spec."""
        self._specs = [s for s in self._specs if s is not spec]

    def _active(self, kind: FaultKind, target: str = "") -> list[FaultSpec]:
        now = self.now
        return [
            s
            for s in self._specs
            if s.kind is kind and s.active_at(now) and s.matches(target)
        ]

    def specs_of(self, kind: FaultKind) -> list[FaultSpec]:
        return [s for s in self._specs if s.kind is kind]

    def record(self, kind: str, target: str = "", detail: str = "") -> FaultEvent:
        """Append an event (recovery code logs its actions through this)."""
        event = FaultEvent(self.now, kind, target, detail)
        self.log.append(event)
        return event

    def timeline(self) -> list[tuple]:
        """The comparable identity of the full fault/recovery history."""
        return [event.key() for event in self.log]

    # ---- S3 ----------------------------------------------------------------

    def s3_request(self, region: str, op: str = "request") -> None:
        """Consulted once per S3 request; raises if the request fails."""
        if self._active(FaultKind.S3_OUTAGE, region):
            self.record(FaultKind.S3_OUTAGE.value, region, op)
            raise ServiceUnavailableError(f"S3 {region} is unavailable")
        for spec in self._active(FaultKind.S3_ERROR_WINDOW, region):
            if self._stream("s3").random() < spec.rate:
                self.record(FaultKind.S3_ERROR_WINDOW.value, region, op)
                raise S3TransientError(region, f"injected 503 during {op}")

    def s3_slow_factor(self, region: str) -> float:
        """Transfer-time multiplier from any active slow-request windows."""
        factor = 1.0
        for spec in self._active(FaultKind.S3_SLOW_WINDOW, region):
            factor *= spec.slow_factor
        return factor

    # ---- EC2 ---------------------------------------------------------------

    def ec2_capacity_interrupted(self) -> bool:
        return bool(self._active(FaultKind.EC2_CAPACITY_WINDOW))

    # ---- disks -------------------------------------------------------------

    def disk_io(self, disk_id: str, op: str) -> None:
        """Consulted once per disk IO; raises on an injected media error."""
        for spec in self._active(FaultKind.DISK_MEDIA_WINDOW, disk_id):
            if self._stream(f"disk/{disk_id}").random() < spec.rate:
                self.record(FaultKind.DISK_MEDIA_WINDOW.value, disk_id, op)
                raise DiskMediaError(disk_id, op)

    def disk_full(self, disk_id: str, needed: int = 0) -> bool:
        """Consulted before each spill write; True while a DISK_FULL
        window covers *disk_id* — the write must fail with a typed
        ``SpillCapacityError`` instead of consuming temp space."""
        if self._active(FaultKind.DISK_FULL, disk_id):
            self.record(
                FaultKind.DISK_FULL.value, disk_id, f"spill denied {needed}B"
            )
            return True
        return False

    # ---- nodes -------------------------------------------------------------

    def check_node(self, node_id: str) -> None:
        """Consulted at query fault checkpoints; fires a pending crash once.

        A crash spec whose time has come fires on the first execution that
        touches the node, then stays consumed; after the recovery side calls
        :meth:`mark_node_recovered`, the node serves work again.
        """
        now = self.now
        for spec in self._specs:
            if (
                spec.kind is FaultKind.NODE_CRASH
                and spec.target == node_id
                and spec.at_s <= now
                and id(spec) not in self._fired
            ):
                self._fired.add(id(spec))
                self._recovered_nodes.discard(node_id)
                self.record(FaultKind.NODE_CRASH.value, node_id)
                raise NodeFailureError(node_id, "injected crash")

    def crashed_nodes(self) -> list[str]:
        """Nodes with a fired crash that has not been recovered."""
        out = []
        for spec in self._specs:
            if (
                spec.kind is FaultKind.NODE_CRASH
                and id(spec) in self._fired
                and spec.target not in self._recovered_nodes
            ):
                out.append(spec.target)
        return sorted(set(out))

    def mark_node_recovered(self, node_id: str) -> None:
        self._recovered_nodes.add(node_id)

    # ---- parallel workers --------------------------------------------------

    def worker_crash(self, slice_id: str) -> bool:
        """Consulted by the parallel executor's leader once per dispatched
        morsel; True means that morsel's worker must die. The draw happens
        on the leader (one shared "worker" stream, in dispatch order) so
        the fault sequence is deterministic regardless of how the OS
        schedules the actual worker processes. The crash itself is logged
        by the executor when the worker's death is observed."""
        for spec in self._active(FaultKind.WORKER_CRASH, slice_id):
            if self._stream("worker").random() < spec.rate:
                return True
        return False

    # ---- one-shot firing for scheduled point faults ------------------------

    def fire_once(self, spec: FaultSpec, detail: str = "") -> bool:
        """Mark a point fault fired and log it; False if already fired."""
        if id(spec) in self._fired:
            return False
        self._fired.add(id(spec))
        self.record(spec.kind.value, spec.target, detail)
        return True
