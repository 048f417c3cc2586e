"""Simulated Amazon Simple Workflow: retried, audited step execution.

Control-plane actions (provision, patch, backup, restore, resize, node
replacement) run as workflows: ordered steps with per-step retry policies
and a full execution history. The history is what the operations
simulation mines for failure statistics.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.cloud.simclock import SimClock
from repro.errors import WorkflowError
from repro.util.rng import DeterministicRng


class StepStatus(enum.Enum):
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    RETRIED = "retried"


@dataclass
class WorkflowStep:
    """One step: an action returning the simulated duration it consumed.

    ``action`` may raise to signal failure; the engine retries up to
    ``max_attempts`` with ``retry_delay_s`` between attempts.
    """

    name: str
    action: Callable[[], float]
    max_attempts: int = 3
    retry_delay_s: float = 30.0
    #: Exponential backoff multiplier between attempts; 1.0 keeps the
    #: classic fixed-delay retry schedule.
    backoff_factor: float = 1.0
    max_delay_s: float = float("inf")
    #: Fraction of extra random delay (0 disables jitter).
    jitter_fraction: float = 0.0

    def delay_before(self, attempt: int, rng: DeterministicRng | None) -> float:
        """Backoff after failed attempt number *attempt* (1-based)."""
        delay = min(
            self.max_delay_s,
            self.retry_delay_s * self.backoff_factor ** (attempt - 1),
        )
        if rng is not None and self.jitter_fraction > 0.0:
            delay *= 1.0 + self.jitter_fraction * rng.random()
        return delay


@dataclass
class StepResult:
    step_name: str
    status: StepStatus
    attempts: int
    started_at: float
    finished_at: float
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


@dataclass
class Workflow:
    """A named step sequence."""

    name: str
    steps: list[WorkflowStep] = field(default_factory=list)

    def step(
        self,
        name: str,
        action: Callable[[], float],
        max_attempts: int = 3,
        retry_delay_s: float = 30.0,
        backoff_factor: float = 1.0,
        max_delay_s: float = float("inf"),
        jitter_fraction: float = 0.0,
    ) -> "Workflow":
        """Append a step (builder style)."""
        self.steps.append(
            WorkflowStep(
                name,
                action,
                max_attempts,
                retry_delay_s,
                backoff_factor,
                max_delay_s,
                jitter_fraction,
            )
        )
        return self


@dataclass
class WorkflowExecution:
    execution_id: str
    workflow_name: str
    started_at: float
    finished_at: float = 0.0
    succeeded: bool = False
    results: list[StepResult] = field(default_factory=list)
    #: Every attempt, including the RETRIED ones that preceded a step's
    #: final result (``results`` keeps its one-entry-per-step shape).
    attempt_history: list[StepResult] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


class SimWorkflowService:
    """Runs workflows on the simulation clock, keeping full history."""

    def __init__(self, clock: SimClock, rng: DeterministicRng | None = None):
        self._clock = clock
        self._rng = rng
        self._ids = itertools.count(1)
        self.history: list[WorkflowExecution] = []

    def run(self, workflow: Workflow) -> WorkflowExecution:
        """Execute all steps; raises WorkflowError if any step exhausts its
        retries (the execution is still recorded in history)."""
        execution = WorkflowExecution(
            execution_id=f"wf-{next(self._ids):06d}",
            workflow_name=workflow.name,
            started_at=self._clock.now,
        )
        self.history.append(execution)
        for step in workflow.steps:
            result = self._run_step(step, execution)
            execution.results.append(result)
            if result.status is StepStatus.FAILED:
                execution.finished_at = self._clock.now
                raise WorkflowError(
                    f"workflow {workflow.name!r} failed at step "
                    f"{step.name!r}: {result.error}"
                )
        execution.finished_at = self._clock.now
        execution.succeeded = True
        return execution

    def _run_step(
        self, step: WorkflowStep, execution: WorkflowExecution
    ) -> StepResult:
        started = self._clock.now
        error: str | None = None
        for attempt in range(1, step.max_attempts + 1):
            attempt_started = self._clock.now
            try:
                duration = step.action()
            except WorkflowError:
                raise
            except Exception as exc:  # noqa: BLE001 - retries need breadth
                error = str(exc)
                if attempt < step.max_attempts:
                    execution.attempt_history.append(
                        StepResult(
                            step_name=step.name,
                            status=StepStatus.RETRIED,
                            attempts=attempt,
                            started_at=attempt_started,
                            finished_at=self._clock.now,
                            error=error,
                        )
                    )
                    self._clock.advance(step.delay_before(attempt, self._rng))
                continue
            self._clock.advance(max(0.0, duration))
            result = StepResult(
                step_name=step.name,
                status=StepStatus.SUCCEEDED,
                attempts=attempt,
                started_at=started,
                finished_at=self._clock.now,
            )
            execution.attempt_history.append(result)
            return result
        result = StepResult(
            step_name=step.name,
            status=StepStatus.FAILED,
            attempts=step.max_attempts,
            started_at=started,
            finished_at=self._clock.now,
            error=error,
        )
        execution.attempt_history.append(result)
        return result
