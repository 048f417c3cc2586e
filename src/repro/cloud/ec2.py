"""Simulated Amazon EC2: instance provisioning with warm pools.

Models the two provisioning regimes the paper contrasts (§3.1): cold
provisioning ("cluster creation times averaged 15 minutes") and the
preconfigured warm pool introduced later ("reduced provisioning time to
3 minutes, and meaningfully reduced abandonment"). Also supports the
capacity-interruption failure mode §5 discusses ("we support the ability
to preconfigure nodes in each data center, allowing us to continue to
provision and replace nodes ... if there is an Amazon EC2 provisioning
interruption").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import InsufficientCapacityError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultSpec
from repro.util.rng import DeterministicRng
from repro.util.units import MINUTE


@dataclass
class Ec2Config:
    """Provisioning-time model."""

    #: Cold boot: launch + image install + engine configuration.
    cold_mean_s: float = 12 * MINUTE
    cold_sigma_s: float = 2 * MINUTE
    #: Claiming a preconfigured node: attach + handshake.
    warm_mean_s: float = 90.0
    warm_sigma_s: float = 20.0
    #: Background rate at which the warm pool is replenished.
    warm_pool_target: int = 8


@dataclass
class Instance:
    instance_id: str
    instance_type: str
    launched_at: float
    from_warm_pool: bool
    healthy: bool = True


class SimEC2:
    """One region's instance provider."""

    def __init__(
        self,
        config: Ec2Config | None = None,
        clock=None,
        rng: DeterministicRng | None = None,
        injector: FaultInjector | None = None,
    ):
        self.config = config or Ec2Config()
        self._clock = clock
        self._rng = rng or DeterministicRng("ec2")
        self._injector = injector or FaultInjector(
            clock=clock, rng=self._rng.child("faults")
        )
        self._interruption_spec: FaultSpec | None = None
        self._ids = itertools.count(1)
        self._warm_pool: dict[str, int] = {}
        self.instances: dict[str, Instance] = {}

    # ---- warm pool --------------------------------------------------------

    def preconfigure(self, instance_type: str, count: int) -> None:
        """Stock the warm pool with ready-to-claim nodes of a type."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._warm_pool[instance_type] = (
            self._warm_pool.get(instance_type, 0) + count
        )

    def warm_pool_size(self, instance_type: str) -> int:
        return self._warm_pool.get(instance_type, 0)

    # ---- failure injection --------------------------------------------------

    def attach_injector(self, injector: FaultInjector) -> None:
        """Route capacity decisions through a shared fault injector."""
        self._injector = injector
        self._interruption_spec = None

    @property
    def injector(self) -> FaultInjector:
        return self._injector

    def start_capacity_interruption(self) -> None:
        """Cold provisioning fails until the interruption ends; warm-pool
        claims keep working — the paper's escalator-not-elevator example."""
        if self._interruption_spec is None:
            self._interruption_spec = self._injector.add(
                FaultSpec(
                    FaultKind.EC2_CAPACITY_WINDOW, at_s=self._injector.now
                )
            )

    def end_capacity_interruption(self) -> None:
        if self._interruption_spec is not None:
            self._injector.cancel(self._interruption_spec)
            self._interruption_spec = None

    @property
    def _interruption(self) -> bool:
        return self._injector.ec2_capacity_interrupted()

    # ---- provisioning ----------------------------------------------------------

    def provision(
        self, instance_type: str, count: int = 1, allow_cold: bool = True
    ) -> tuple[list[Instance], float]:
        """Acquire *count* instances.

        Warm-pool nodes are claimed first; the remainder cold-boots (in
        parallel, so duration is the max of the slowest instance). Returns
        (instances, simulated duration). Raises
        :class:`InsufficientCapacityError` when cold capacity is needed
        but interrupted.
        """
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        warm_available = self._warm_pool.get(instance_type, 0)
        from_warm = min(count, warm_available)
        cold = count - from_warm
        if cold > 0 and (self._interruption or not allow_cold):
            raise InsufficientCapacityError(
                f"cannot cold-provision {cold} x {instance_type}: "
                + ("capacity interruption" if self._interruption else "cold boot disabled")
            )
        self._warm_pool[instance_type] = warm_available - from_warm
        now = self._clock.now if self._clock is not None else 0.0
        instances: list[Instance] = []
        duration = 0.0
        for i in range(count):
            is_warm = i < from_warm
            cfg = self.config
            if is_warm:
                boot = self._rng.bounded_normal(
                    cfg.warm_mean_s, cfg.warm_sigma_s, 20.0, 10 * MINUTE
                )
            else:
                boot = self._rng.bounded_normal(
                    cfg.cold_mean_s, cfg.cold_sigma_s, 3 * MINUTE, 60 * MINUTE
                )
            duration = max(duration, boot)
            instance = Instance(
                instance_id=f"i-{next(self._ids):08x}",
                instance_type=instance_type,
                launched_at=now,
                from_warm_pool=is_warm,
            )
            self.instances[instance.instance_id] = instance
            instances.append(instance)
        return instances, duration

    def terminate(self, instance_id: str) -> None:
        self.instances.pop(instance_id, None)
