"""Ablation a11 — slice-parallel morsel execution.

The paper's compute model gives every slice of every compute node its own
core and runs each query segment on all slices at once (§2.1). The serial
executors simulate that layout but drain the slices one after another on
a single core; the parallel engine actually fans scan→filter→aggregate
pipelines out to per-slice worker processes and merges partial states on
the leader. This ablation measures that fan-out on a scan-heavy partial
aggregation at parallelism 1, 2 and 4, and against the same query on a
serial ``vectorized`` session — the engine a morsel's pipeline is, and so
the baseline that says what the fan-out itself buys
(``speedup_vs_vectorized``; reported, no bar yet).

The JSON entry records ``cpu_count`` so a trajectory diff can tell a
genuine regression from a smaller runner; the 1.5x acceptance bar only
applies on machines with at least 4 cores — on smaller runners the test
records its timings and then *skips* the bar (visible in the report, not
silently passed). Local runners: ``pytest benchmarks/test_bench_a11_parallel.py
--parallel-bench`` enforces the bar regardless of what ``os.cpu_count()``
claims, for containers that under-report their cores.
"""

import os
import time

import pytest

from repro import Cluster

ROWS = 240_000
QUERY = (
    "SELECT a, count(*), sum(b), min(b), max(b) FROM f "
    "WHERE b % 3 <> 1 GROUP BY a"
)


def build(rows: int = ROWS) -> Cluster:
    cluster = Cluster(node_count=2, slices_per_node=2, block_capacity=4096)
    session = cluster.connect()
    session.execute("CREATE TABLE f (a int, b int, c float) DISTSTYLE EVEN")
    cluster.register_inline_source(
        "bench://f", [f"{i % 97}|{i}|{(i % 31) * 1.5}" for i in range(rows)]
    )
    session.execute("COPY f FROM 'bench://f'")
    return cluster


def run_timed(cluster, repeats: int = 3, **session_kwargs):
    session = cluster.connect(**session_kwargs)
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = session.execute(QUERY)
        best = min(best, time.perf_counter() - start)
    return best, result


def test_a11_parallel_scaling(benchmark, reporter, bench_record, request):
    cluster = build()
    try:
        timings = {}
        results = {}
        for degree in (1, 2, 4):
            timings[degree], results[degree] = run_timed(
                cluster, executor="parallel", parallelism=degree
            )
        vectorized_s, vectorized_r = run_timed(cluster, executor="vectorized")
        benchmark.pedantic(
            lambda: cluster.connect(
                executor="parallel", parallelism=4
            ).execute(QUERY),
            iterations=1, rounds=1,
        )
        # Bit-identical merge across degrees (integer aggregates).
        assert (
            sorted(results[1].rows)
            == sorted(results[2].rows)
            == sorted(results[4].rows)
        )
        serial_r = cluster.connect(executor="volcano").execute(QUERY)
        assert sorted(serial_r.rows) == sorted(results[4].rows)
        assert sorted(vectorized_r.rows) == sorted(results[4].rows)

        cores = os.cpu_count() or 1
        reporter(
            "a11 — slice-parallel partial aggregation, 240k rows "
            f"({cores} cores)",
            [
                "parallelism | best of 3 | speedup vs parallelism 1 "
                "| vs vectorized serial",
                *(
                    f"{degree:11d} | {timings[degree] * 1000:7.1f} ms | "
                    f"{timings[1] / timings[degree]:.2f}x | "
                    f"{vectorized_s / timings[degree]:.2f}x"
                    for degree in (1, 2, 4)
                ),
                f" vectorized | {vectorized_s * 1000:7.1f} ms |",
            ],
        )
        bench_record(
            stats=results[4].stats,
            cpu_count=cores,
            parallel1_ms=round(timings[1] * 1000, 3),
            parallel2_ms=round(timings[2] * 1000, 3),
            parallel4_ms=round(timings[4] * 1000, 3),
            speedup_p4=round(timings[1] / timings[4], 3),
            vectorized_ms=round(vectorized_s * 1000, 3),
            speedup_vs_vectorized=round(vectorized_s / timings[4], 3),
        )
        # Acceptance bar: 4 workers must beat the inline run by 1.5x on a
        # machine that actually has the cores; smaller runners skip it
        # (their timings and cpu_count are already in BENCH_a11.json).
        if cores < 4 and not request.config.getoption("--parallel-bench"):
            pytest.skip(
                f"parallel speedup bar needs >= 4 cores, runner has {cores} "
                "(timings recorded; pass --parallel-bench on a local "
                "multi-core machine to enforce the bar)"
            )
        assert timings[4] < timings[1] / 1.5
    finally:
        cluster.close()


def test_a11_worker_telemetry(reporter, bench_record):
    """The fan-out is observable: every slice reports morsels and the
    per-step summary carries the degree of parallelism."""
    cluster = build(60_000)
    try:
        session = cluster.connect(executor="parallel", parallelism=4)
        result = session.execute(QUERY)
        slices = session.execute(
            "SELECT slice, morsels, scanned_rows FROM stv_slice_exec "
            "ORDER BY slice"
        ).rows
        assert len(slices) == cluster.slice_count
        assert sum(r[2] for r in slices) == 60_000
        workers = session.execute(
            "SELECT max(workers) FROM svl_query_summary"
        ).scalar()
        assert workers == 4
        reporter(
            "a11 — per-slice worker accounting (60k rows, parallelism 4)",
            [
                "slice | morsels | rows scanned",
                *(f"{r[0]} | {r[1]:7d} | {r[2]:12d}" for r in slices),
            ],
        )
        bench_record(
            stats=result.stats,
            slices=len(slices),
            morsels=sum(r[1] for r in slices),
        )
    finally:
        cluster.close()
