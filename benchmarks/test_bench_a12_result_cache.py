"""Ablation a12 — the leader-side query result cache.

Redshift serves repeated queries straight from a leader-side result
cache: same SQL, same plan, unchanged inputs — the stored rows come back
without touching the compute fleet (§2.1's "sub-second dashboard"
behaviour). This ablation measures the three states across all four
executors: cold (first execution, result stored), warm (version-validated
hit, execution skipped), and invalidated (a write moved the scanned
table's version, so the next read recomputes).

The acceptance bar is a >= 10x warm-over-cold speedup per executor —
a hit is a dictionary lookup plus version comparisons, so anything less
means the cache is doing real work it shouldn't.
"""

import time

from repro import Cluster

ROWS = 120_000
QUERY = (
    "SELECT a, count(*), sum(b), avg(c) FROM f "
    "WHERE b > 10000 AND c < 40.0 GROUP BY a ORDER BY a"
)
EXECUTORS = ("volcano", "compiled", "vectorized", "parallel")


def build(rows: int = ROWS) -> Cluster:
    cluster = Cluster(node_count=2, slices_per_node=2, block_capacity=4096)
    session = cluster.connect()
    session.execute("CREATE TABLE f (a int, b int, c float) DISTSTYLE EVEN")
    cluster.register_inline_source(
        "bench://f", [f"{i % 97}|{i}|{(i % 31) * 1.5}" for i in range(rows)]
    )
    session.execute("COPY f FROM 'bench://f'")
    return cluster


def _connect(cluster, executor: str):
    if executor == "parallel":
        # Explicit degree: the default collapses to serial on 1-core
        # machines and this ablation wants the real dispatch path.
        session = cluster.connect(executor="parallel", parallelism=2)
    else:
        session = cluster.connect(executor)
    # The bench conftest defaults the result cache off; this ablation is
    # the one place that measures the cache itself.
    session.execute("SET enable_result_cache = on")
    return session


def test_a12_cold_warm_invalidated(benchmark, reporter, bench_record):
    cluster = build()
    lines = [
        "executor   |    cold |     warm | invalidated | warm speedup",
    ]
    metrics = {}
    session = None
    for executor in EXECUTORS:
        session = _connect(cluster, executor)
        # One untimed query first: worker pools fork and codegen caches
        # fill, so the timed runs isolate the result cache itself.
        session.execute("SELECT count(*) FROM f")

        t0 = time.perf_counter()
        cold = session.execute(QUERY)
        cold_s = time.perf_counter() - t0
        assert not cold.stats.result_cache_hit

        warm_s = float("inf")
        warm = None
        for _ in range(5):
            t0 = time.perf_counter()
            warm = session.execute(QUERY)
            warm_s = min(warm_s, time.perf_counter() - t0)
        assert warm.stats.result_cache_hit
        assert warm.rows == cold.rows  # bit-identical, not re-derived

        session.execute("INSERT INTO f VALUES (0, 99999, 0.0)")
        t0 = time.perf_counter()
        invalidated = session.execute(QUERY)
        invalidated_s = time.perf_counter() - t0
        assert not invalidated.stats.result_cache_hit
        assert invalidated.rows != cold.rows  # the insert is visible

        speedup = cold_s / warm_s
        lines.append(
            f"{executor:10} | {cold_s * 1000:5.1f} ms | "
            f"{warm_s * 1000:6.3f} ms | {invalidated_s * 1000:8.1f} ms | "
            f"{speedup:7.0f}x"
        )
        metrics[f"{executor}_cold_ms"] = round(cold_s * 1000, 3)
        metrics[f"{executor}_warm_ms"] = round(warm_s * 1000, 3)
        metrics[f"{executor}_invalidated_ms"] = round(invalidated_s * 1000, 3)
        metrics[f"{executor}_speedup"] = round(speedup, 1)
        # The acceptance bar: a warm hit skips execution entirely.
        assert speedup >= 10

    benchmark.pedantic(
        lambda: session.execute(QUERY), iterations=1, rounds=1
    )
    reporter("a12 — result cache: cold vs warm vs invalidated (120k rows)", lines)
    rc = cluster.result_cache
    bench_record(
        **metrics,
        cache_hits=rc.hits,
        cache_misses=rc.misses,
        cache_stores=rc.stores,
        cache_invalidations=rc.invalidations,
    )


def test_a12_per_table_invalidation_precision(reporter, bench_record):
    """The tentpole's precision win: a write to one table leaves other
    tables' warm entries (and their latency) untouched."""
    cluster = Cluster(node_count=2, slices_per_node=2, block_capacity=4096)
    session = cluster.connect()
    session.execute("SET enable_result_cache = on")
    for name in ("f", "g"):
        session.execute(
            f"CREATE TABLE {name} (a int, b int, c float) DISTSTYLE EVEN"
        )
        cluster.register_inline_source(
            f"bench://{name}",
            [f"{i % 97}|{i}|{(i % 31) * 1.5}" for i in range(40_000)],
        )
        session.execute(f"COPY {name} FROM 'bench://{name}'")

    sql = {
        name: QUERY.replace("FROM f", f"FROM {name}") for name in ("f", "g")
    }
    for name in ("f", "g"):
        session.execute(sql[name])  # prime both entries

    session.execute("INSERT INTO g VALUES (0, 99999, 0.0)")

    t0 = time.perf_counter()
    kept = session.execute(sql["f"])
    kept_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    recomputed = session.execute(sql["g"])
    recomputed_s = time.perf_counter() - t0

    assert kept.stats.result_cache_hit  # f's entry survived g's write
    assert not recomputed.stats.result_cache_hit
    reporter(
        "a12 — per-table invalidation precision (write to g only)",
        [
            f"untouched f: {kept_s * 1000:7.3f} ms (cache hit)",
            f"mutated   g: {recomputed_s * 1000:7.1f} ms (recomputed)",
        ],
    )
    bench_record(
        kept_ms=round(kept_s * 1000, 3),
        recomputed_ms=round(recomputed_s * 1000, 3),
    )
