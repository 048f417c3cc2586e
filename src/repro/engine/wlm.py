"""Workload management: queues, slots, and admission control.

§4: declarative SQL matters most "when computation needs to be distributed
and parallelized across many nodes, and resources distributed across many
concurrent queries." WLM is how Redshift distributes those resources: each
queue owns a number of concurrency slots and a memory share; queries wait
for a slot, run, and release it.

The engine executes one statement at a time, so WLM here is a
discrete-event admission simulator over a trace of query arrivals — the
tool for answering the sizing questions WLM exists for (how much does a
separate short-query queue cut p95 wait?), exercised by the tests.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field

from repro.util.stats import mean


class AdmissionStatus(enum.Enum):
    """How one query left the admission system."""

    COMPLETED = "completed"
    #: Waited longer than the queue's admission timeout and gave up.
    TIMED_OUT = "timed_out"
    #: Rejected on arrival because the queue was already at max depth.
    SHED = "shed"


@dataclass(frozen=True)
class QueueConfig:
    """One WLM queue: concurrency slots and a memory share."""

    name: str
    slots: int
    memory_fraction: float
    #: Arrivals beyond this many waiting queries are shed (None: unbounded).
    max_queue_depth: int | None = None
    #: Queries abandon the queue after waiting this long (None: wait forever).
    admission_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError(f"queue {self.name!r} needs at least 1 slot")
        if not 0.0 < self.memory_fraction <= 1.0:
            raise ValueError(
                f"queue {self.name!r} memory fraction must be in (0, 1]"
            )
        if self.max_queue_depth is not None and self.max_queue_depth < 0:
            raise ValueError(
                f"queue {self.name!r} max_queue_depth must be non-negative"
            )
        if self.admission_timeout_s is not None and self.admission_timeout_s < 0:
            raise ValueError(
                f"queue {self.name!r} admission timeout must be non-negative"
            )


@dataclass(frozen=True)
class QueryArrival:
    """One query in the trace."""

    queue: str
    arrival_s: float
    duration_s: float
    label: str = ""


@dataclass(frozen=True)
class QueryOutcome:
    arrival: QueryArrival
    started_s: float
    finished_s: float
    status: AdmissionStatus = AdmissionStatus.COMPLETED

    @property
    def wait_s(self) -> float:
        return self.started_s - self.arrival.arrival_s


@dataclass
class QueueReport:
    """Per-queue simulation results."""

    name: str
    outcomes: list[QueryOutcome] = field(default_factory=list)

    @property
    def completed(self) -> list[QueryOutcome]:
        return [
            o for o in self.outcomes if o.status is AdmissionStatus.COMPLETED
        ]

    @property
    def timed_out_count(self) -> int:
        return sum(
            1 for o in self.outcomes if o.status is AdmissionStatus.TIMED_OUT
        )

    @property
    def shed_count(self) -> int:
        return sum(1 for o in self.outcomes if o.status is AdmissionStatus.SHED)

    @property
    def mean_wait_s(self) -> float:
        completed = self.completed
        return mean([o.wait_s for o in completed]) if completed else 0.0

    @property
    def max_queue_depth(self) -> int:
        """Peak number of queries waiting simultaneously."""
        events: list[tuple[float, int]] = []
        for o in self.outcomes:
            if o.wait_s > 0:
                events.append((o.arrival.arrival_s, +1))
                events.append((o.started_s, -1))
        events.sort()
        depth = peak = 0
        for _, delta in events:
            depth += delta
            peak = max(peak, depth)
        return peak


class WorkloadManager:
    """Simulates queue admission over a query trace.

    The default configuration mirrors Redshift's out-of-the-box single
    queue; callers define more queues to isolate workloads.
    """

    def __init__(
        self,
        queues: list[QueueConfig] | None = None,
        systables=None,
    ):
        self.queues = queues or [QueueConfig("default", slots=5, memory_fraction=1.0)]
        names = [q.name for q in self.queues]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate queue names: {names}")
        total = sum(q.memory_fraction for q in self.queues)
        if total > 1.0 + 1e-9:
            raise ValueError(
                f"queue memory fractions sum to {total:.2f} (> 1.0)"
            )
        self._by_name = {q.name: q for q in self.queues}
        #: Optional repro.systables.SystemTables sink: each simulation
        #: refreshes stv_wlm_query_state and appends stl_wlm_rule_action.
        self._systables = systables

    def queue(self, name: str) -> QueueConfig:
        config = self._by_name.get(name)
        if config is None:
            raise KeyError(
                f"no WLM queue {name!r}; defined: {sorted(self._by_name)}"
            )
        return config

    def simulate(self, trace: list[QueryArrival]) -> dict[str, QueueReport]:
        """Run the admission simulation; returns per-queue reports.

        Within a queue, queries start in arrival order as slots free up
        (FIFO); queues are independent.
        """
        reports = {q.name: QueueReport(q.name) for q in self.queues}
        by_queue: dict[str, list[QueryArrival]] = {q.name: [] for q in self.queues}
        for arrival in trace:
            self.queue(arrival.queue)  # validates
            by_queue[arrival.queue].append(arrival)

        for name, arrivals in by_queue.items():
            config = self.queue(name)
            slots = config.slots
            arrivals.sort(key=lambda a: a.arrival_s)
            # Min-heap of slot-free times, one entry per slot.
            free_at: list[float] = [0.0] * slots
            heapq.heapify(free_at)
            admitted: list[QueryOutcome] = []
            for arrival in arrivals:
                now = arrival.arrival_s
                if config.max_queue_depth is not None:
                    waiting = sum(1 for o in admitted if o.started_s > now)
                    if waiting >= config.max_queue_depth:
                        # Overload shedding: fail fast at the door instead
                        # of letting the backlog grow without bound.
                        reports[name].outcomes.append(
                            QueryOutcome(
                                arrival=arrival,
                                started_s=now,
                                finished_s=now,
                                status=AdmissionStatus.SHED,
                            )
                        )
                        continue
                slot_free = free_at[0]
                wait = max(0.0, slot_free - now)
                if (
                    config.admission_timeout_s is not None
                    and wait > config.admission_timeout_s
                ):
                    # The query abandons without ever taking a slot.
                    gave_up = now + config.admission_timeout_s
                    outcome = QueryOutcome(
                        arrival=arrival,
                        started_s=gave_up,
                        finished_s=gave_up,
                        status=AdmissionStatus.TIMED_OUT,
                    )
                    reports[name].outcomes.append(outcome)
                    admitted.append(outcome)
                    continue
                heapq.heappop(free_at)
                start = max(now, slot_free)
                finish = start + arrival.duration_s
                heapq.heappush(free_at, finish)
                outcome = QueryOutcome(
                    arrival=arrival, started_s=start, finished_s=finish
                )
                reports[name].outcomes.append(outcome)
                admitted.append(outcome)
        if self._systables is not None:
            self._systables.record_wlm(reports)
        return reports

    def memory_per_slot_fraction(self, queue_name: str) -> float:
        """The memory share one running query in this queue gets."""
        config = self.queue(queue_name)
        return config.memory_fraction / config.slots


class AdmissionGate:
    """Inline admission hook on the session's query execution path.

    The :class:`WorkloadManager` above answers sizing questions over
    traces; this gate is the live seam the leader consults before it
    actually *executes* a SELECT. Its load-bearing property is what it
    is **not** asked to do: a result-cache hit returns rows without ever
    reaching the gate (``record_bypass`` fires instead), so cached
    queries consume no admission slot — the WLM-bypass behaviour real
    Redshift gives result-cache hits.

    ``on_admit`` lets tests and control planes attach queueing logic or
    accounting; the gate itself only counts.
    """

    def __init__(self, queue: str = "default", on_admit=None):
        self.queue = queue
        self._on_admit = on_admit
        #: Queries that reached execution and took an admission slot.
        self.admissions = 0
        #: Queries answered from the result cache without admission.
        self.bypasses = 0

    def admit(self, label: str = "") -> None:
        """One query is about to execute (result-cache miss or uncached)."""
        self.admissions += 1
        if self._on_admit is not None:
            self._on_admit(label)

    def record_bypass(self, label: str = "") -> None:
        """One query was served from the result cache without admission."""
        self.bypasses += 1
