"""CloudEnvironment: one region's worth of simulated AWS services sharing
a clock, plus optional remote regions for disaster recovery."""

from __future__ import annotations

from repro.cloud.cloudtrail import SimCloudTrail
from repro.cloud.cloudwatch import SimCloudWatch
from repro.cloud.dynamodb import SimDynamoDB
from repro.cloud.ec2 import Ec2Config, SimEC2
from repro.cloud.kms import SimKMS
from repro.cloud.s3 import S3Config, SimS3
from repro.cloud.simclock import SimClock
from repro.cloud.sns import SimSNS
from repro.cloud.swf import SimWorkflowService
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.util.rng import DeterministicRng


class CloudEnvironment:
    """The service bundle a control plane runs against."""

    def __init__(
        self,
        region: str = "us-east-1",
        seed: int | str = 0,
        s3_config: S3Config | None = None,
        ec2_config: Ec2Config | None = None,
        clock: SimClock | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        self.region = region
        self.rng = DeterministicRng(seed)
        self.clock = clock or SimClock()
        #: One injector shared by every service in the region, so a single
        #: FaultPlan drives (and a single log records) the whole timeline.
        self.faults = FaultInjector(
            fault_plan, self.clock, rng=self.rng.child("faults")
        )
        self.s3 = SimS3(
            region, s3_config, self.clock, self.rng.child("s3"),
            injector=self.faults,
        )
        self.ec2 = SimEC2(
            ec2_config, self.clock, self.rng.child("ec2"),
            injector=self.faults,
        )
        self.swf = SimWorkflowService(self.clock, rng=self.rng.child("swf"))
        self.cloudwatch = SimCloudWatch(self.clock)
        self.sns = SimSNS(self.clock)
        self.kms = SimKMS(self.rng.child("kms"))
        self.cloudtrail = SimCloudTrail(self.clock)
        self.dynamodb = SimDynamoDB()
        self._remote_regions: dict[str, "CloudEnvironment"] = {}

    def add_remote_region(self, region: str) -> "CloudEnvironment":
        """Attach a DR region sharing this environment's clock."""
        if region == self.region:
            raise ValueError("remote region must differ from the home region")
        if region not in self._remote_regions:
            remote = CloudEnvironment(
                region=region,
                seed=f"{self.rng._seed_value}/{region}",
                clock=self.clock,
            )
            self._remote_regions[region] = remote
        return self._remote_regions[region]

    def remote_region(self, region: str) -> "CloudEnvironment":
        remote = self._remote_regions.get(region)
        if remote is None:
            raise KeyError(f"remote region {region!r} is not attached")
        return remote
