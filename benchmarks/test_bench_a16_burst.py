"""Ablation a16 — concurrency-scaling burst clusters under fleet load.

The paper's elasticity argument: when a warehouse saturates, the
managed service should attach more compute transparently rather than
shed queries at the WLM gate. This ablation replays the same
64-session read fleet twice against a deliberately undersized WLM
queue (1 slot, shallow shed depth) — once plain, once with
concurrency scaling enabled — and compares what the gate did.

The acceptance bar is the tentpole's: with burst routing on, the fleet
suffers at most **half** the WLM sheds of the burst-off run, and every
comparable query pair returns bit-identical results (burst clusters
serve from a snapshot whose table versions still match the live
tables, so routed reads cannot observe different data).

The fleet is read-only (dashboards + ad-hoc, no ETL): versions never
move, so every routed query passes the freshness check, and both
replays are deterministic enough to diff fingerprint-by-fingerprint.
"""

from __future__ import annotations

from repro.cloud.environment import CloudEnvironment
from repro.controlplane.service import RedshiftService
from repro.engine.wlm import QueueConfig
from repro.replay import FleetProfile, TableSpec, diff_reports, replay, synthesize
from repro.server import BurstConfig, ServerConfig

ROWS = 8_000
#: 64 concurrent sessions: 52 dashboards cycling aggregate templates,
#: 12 ad-hoc analysts with varying range predicates.
PROFILE = FleetProfile(
    dashboards=52,
    adhoc=12,
    etl=0,
    duration_s=0.5,
    dashboard_think_s=0.02,
    adhoc_think_s=0.04,
)
TABLE = TableSpec(
    name="burst_bench", key_column="a", numeric_column="b", key_high=997
)
#: The undersized queue both replays run against: one slot, and any
#: arrival finding 2 queries already waiting is shed.
TIGHT = ServerConfig(
    queues=(
        QueueConfig(
            "default", slots=1, memory_fraction=1.0, max_queue_depth=2
        ),
    )
)


def build():
    env = CloudEnvironment(seed=1606)
    env.ec2.preconfigure("dw2.large", 8)
    svc = RedshiftService(env)
    managed, _ = svc.create_cluster("a16-main", node_count=2,
                                    block_capacity=1024)
    session = managed.connect()
    session.execute(
        f"CREATE TABLE {TABLE.name} (a int, b int) DISTSTYLE EVEN"
    )
    managed.engine.register_inline_source(
        "bench://burst", [f"{i % 997}|{i}" for i in range(ROWS)]
    )
    session.execute(f"COPY {TABLE.name} FROM 'bench://burst'")
    # The snapshot the burst cluster will restore from; taken after the
    # load so its captured table versions match the live ones for the
    # whole (read-only) replay.
    svc.snapshot_cluster("a16-main", kind="system")
    return env, svc, managed


def test_a16_burst_halves_wlm_sheds(reporter, bench_record):
    env, svc, managed = build()
    workload = synthesize(PROFILE, [TABLE], seed="bench-a16")

    off = replay(workload, managed.engine, config=TIGHT)

    def attach_burst(server):
        svc.enable_concurrency_scaling(
            "a16-main",
            server,
            BurstConfig(
                burst_queue_depth_threshold=1,
                burst_idle_timeout_s=10_000.0,
            ),
        )

    on = replay(
        workload, managed.engine, config=TIGHT, on_server=attach_burst
    )

    sheds_off = sum(off.metrics.sheds.values())
    sheds_on = sum(on.metrics.sheds.values())
    burst = on.metrics.burst
    diff = diff_reports(off, on)

    lines = [
        f"fleet: {PROFILE.sessions} sessions, {len(workload)} queries "
        f"({ROWS} rows, 1 slot, shed depth 2)",
        f"burst off: {sheds_off} sheds, {off.error_count} errors, "
        f"wall {off.wall_s:.2f}s",
        f"burst on:  {sheds_on} sheds, {on.error_count} errors, "
        f"wall {on.wall_s:.2f}s",
        f"routed to burst: {burst.get('routed', 0)} "
        f"(provisions={burst.get('provisions', 0)}, "
        f"fallbacks={burst.get('fallbacks', 0)}, "
        f"stale_rejects={burst.get('stale_rejects', 0)})",
        f"result diff: {diff.compared} compared, "
        f"{len(diff.mismatches)} mismatches, {len(diff.missing)} missing",
    ]
    reporter("a16: WLM sheds with concurrency scaling off vs on", lines)
    bench_record(
        queries=len(workload),
        sheds_off=sheds_off,
        sheds_on=sheds_on,
        routed=burst.get("routed", 0),
        provisions=burst.get("provisions", 0),
        fallbacks=burst.get("fallbacks", 0),
        stale_rejects=burst.get("stale_rejects", 0),
        compared=diff.compared,
        mismatches=len(diff.mismatches),
    )

    # The undersized queue must really have been saturated...
    assert sheds_off > 0, "burst-off run never shed; tighten the config"
    # ...the burst cluster must have actually taken load...
    assert burst.get("provisions", 0) >= 1
    assert burst.get("routed", 0) > 0
    # ...the CI bar: at least 2x fewer sheds with burst routing on...
    assert 2 * sheds_on <= sheds_off, (
        f"burst on shed {sheds_on}, off shed {sheds_off}: "
        "expected at least a 2x reduction"
    )
    # ...and not at the cost of correctness: every comparable pair is
    # bit-identical and nothing vanished.
    assert diff.compared > 0
    assert not diff.mismatches, diff.mismatches[:3]
    assert not diff.missing
