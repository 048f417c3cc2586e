"""A seeded chaos drill: inject faults, watch the escalators run.

§5's design lesson is "escalators, not elevators" — systems should degrade
under dependency failure, not stop. This drill schedules a deterministic
fault plan against a running managed cluster:

* a 30%-error-rate window on every S3 request,
* a node crash armed to fire mid-query,
* a silent bit-flip in one replicated block,

then runs a query straight through it. The query executes once: the
recovery coordinator rebuilds the dead node from mirrors at the fault
checkpoint that found it, and scrub-and-repair fixes the corrupt block
from its replica before the scan reads that block again — the query
still returns the right answer, and re-running the drill with the same
seed reproduces the identical fault/recovery timeline.

Run:  python examples/chaos_drill.py
"""

from repro.cloud import CloudEnvironment
from repro.controlplane import RedshiftService
from repro.faults import ChaosOrchestrator, FaultPlan

SEED = 2015
ROWS = 4000


def main() -> None:
    env = CloudEnvironment(seed=SEED)
    env.ec2.preconfigure("dw2.large", 12)  # warm pool for replacements
    service = RedshiftService(env)
    managed, _ = service.create_cluster(
        cluster_id="prod", node_count=4, block_capacity=64
    )

    session = managed.connect()
    session.execute("CREATE TABLE t (k int, v int) DISTKEY(k)")
    session.execute(
        "INSERT INTO t VALUES " + ",".join(f"({i},{i})" for i in range(ROWS))
    )
    managed.replication.sync_from_cluster()
    service.snapshot_cluster(managed.cluster_id, label="pre-chaos")
    expected = (ROWS, sum(range(ROWS)))
    print(f"cluster up: {ROWS} rows loaded, mirrored, and backed up to S3")

    # Pick a victim block of the column the query scans, placed off the
    # crashing node so both faults fire independently.
    replicas = managed.replication.replicas
    victim = next(
        block_id
        for block_id in sorted(replicas)
        if replicas[block_id].primary_slice.startswith("node-0-")
        and replicas[block_id].column == "v"
    )

    now = env.clock.now
    plan = (
        FaultPlan(seed=SEED)
        .s3_errors(now, now + 3600.0, rate=0.3)
        .node_crash(now, "node-1")
        .block_bitflip(now, victim)
    )
    chaos = ChaosOrchestrator(env, managed, plan)
    injector = chaos.install()
    env.clock.advance(1.0)  # the scheduled bit-flip fires
    print(
        f"chaos armed (seed {SEED}): S3 30% error window, node-1 crash, "
        f"bit-flip in {victim}"
    )

    result = session.execute("SELECT count(*), sum(v) FROM t")
    got = result.rows[0]
    print(
        f"\nquery under chaos: count={got[0]}, sum={got[1]} "
        f"({'CORRECT' if got == expected else 'WRONG'}) after "
        f"{result.stats.recoveries} recoveries"
    )

    print("\nfault & recovery timeline:")
    for event in injector.log:
        print(f"  t={event.at_s:9.2f}s  {event.kind:28s} "
              f"{event.target:18s} {event.detail}")

    # Zero data loss: a fresh scrub finds every copy intact again.
    report = managed.replication.scrub(managed.backups.s3_block_reader)
    print(
        f"\npost-drill scrub: {report.blocks_checked} blocks checked, "
        f"{len(report.repaired)} repairs needed, "
        f"{len(report.unrepairable)} unrepairable"
    )
    print(
        f"cluster state: {managed.state.value} "
        f"(writes {'blocked' if managed.engine.read_only else 'flowing'})"
    )


if __name__ == "__main__":
    main()
