"""The traced run: per-layer metrics, measured from outside each layer.

A traced run replays the first half of the workload's list on a fresh
system with ``tracing.Tracer`` hooked into the window, turn by turn with
the same rounds untraced on a second fresh system (the two rates give
``trace.overhead_ratio``), then times calls into the layers' public
functions on the traced system (the probes below). Names are
``<module>.<metric>``; a metric whose layer the workload never enters
(write metrics on a read-only list, hit latency on a list that never
repeats) reports 0.

README.md lists which end-to-end metric each of these should move.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import closing
from pathlib import Path

from repro.compression.analyzer import CompressionAnalyzer
from repro.compression.codecs import codec_by_name

import harness
import tracing
import workloads

EXECUTORS = ("volcano", "compiled", "vectorized", "parallel")

#: codec -> the ``facts`` column COPY picks it for today. The probe always
#: times these three on these columns, so the metric names stay fixed
#: even if a later change makes COPY choose differently.
CODEC_COLUMNS = {"delta": "seq", "mostly8": "qty", "zstd": "amt"}

FACTS_COLUMNS = ("seq", "day", "region", "dim_id", "qty", "amt")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---- probes: timed calls into one layer -------------------------------------


def probe_dispatch(system, repeats: int) -> float:
    """server.dispatch_us_p50: a result-cache hit through the server
    session minus the same hit straight on its engine session."""
    sql = workloads.scan_sql("count", None)
    handle = system.handle
    handle.execute(sql)  # cached for this session's executor from here on
    via_server, direct = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        handle.execute(sql)
        t1 = time.perf_counter()
        handle.session.execute(sql)
        t2 = time.perf_counter()
        via_server.append(t1 - t0)
        direct.append(t2 - t1)
    return (statistics.median(via_server) - statistics.median(direct)) * 1e6


def probe_executors(system, seed: int, repeats: int) -> dict[str, float]:
    """exec.ms_per_stmt.<executor> and workers.*: the five scan templates
    on each executor, same cluster, each text new to the result cache.

    The parallel leg (parallelism 2, fork pool) is also where the worker
    metrics come from: no gated workload uses the parallel executor (its
    wall times do not repeat on two cores, README.md), so this probe is
    its place in every traced run.
    """
    literal = 900_000_000 + (seed % 10_000) * 10_000
    out = {}
    for executor in EXECUTORS:
        kwargs = {"parallelism": 2} if executor == "parallel" else {}
        handle = system.server.open_session(
            user_name=f"probe-{executor}", executor=executor, **kwargs
        )
        pools = system.cluster.pool_manager
        forks, reforks = pools.forks, pools.reforks
        workers_cpu = harness.cpu_seconds()[1]
        stats = []
        try:
            t0 = time.perf_counter()
            for _ in range(repeats):
                for template in workloads.SCAN_TEMPLATES:
                    literal += 1
                    result = handle.execute(workloads.scan_sql(template, literal))
                    stats.append(result.stats)
            out[f"exec.ms_per_stmt.{executor}"] = (
                (time.perf_counter() - t0) * 1e3 / len(stats)
            )
            if executor != "parallel":
                continue
            slice_us = [sum(e.elapsed_us for e in st.slice_exec) for st in stats]
            execute_s = sum(st.execute_seconds for st in stats)
            out.update({
                "workers.morsels_per_stmt": sum(
                    e.morsels for st in stats for e in st.slice_exec
                ) / len(stats),
                "workers.forks": pools.forks - forks,
                "workers.reforks": pools.reforks - reforks,
                # Two workers: perfectly packed they are busy 2x the wall.
                "workers.busy_share": sum(slice_us) / 1e6 / (2 * execute_s),
                # What the leader spends outside perfectly packed worker
                # time: dispatch, shipping results back, the ordered merge.
                "workers.leader_merge_us_p50": _median(
                    st.execute_seconds * 1e6 - busy / 2
                    for st, busy in zip(stats, slice_us)
                ),
                "workers.cpu_ms_per_stmt": (
                    (harness.cpu_seconds()[1] - workers_cpu) * 1e3 / len(stats)
                ),
            })
        finally:
            handle.close()
    return out


def _facts_chains(cluster, column: str):
    return [
        store.shard("facts").chain(column) for store in cluster.slice_stores
    ]


def probe_decode(cluster) -> float:
    """storage.decode_us_per_block: Block.read_vector over every sealed
    ``facts`` block."""
    blocks = [
        block
        for column in FACTS_COLUMNS
        for chain in _facts_chains(cluster, column)
        for block in chain.blocks
    ]
    t0 = time.perf_counter()
    for block in blocks:
        block.read_vector()
    return (time.perf_counter() - t0) * 1e6 / len(blocks)


def probe_compression(cluster) -> dict[str, float]:
    """compression.*: codec throughput on the column COPY chose it for,
    per-column ratios from stv_blocklist, and the analyzer's own cost."""
    out = {}
    table = cluster.catalog.table("facts")
    for codec_name, column in CODEC_COLUMNS.items():
        codec = codec_by_name(codec_name)
        chain = _facts_chains(cluster, column)[0]
        values = chain.read_all()
        capacity = chain.block_capacity
        chunks = [
            values[i:i + capacity] for i in range(0, len(values), capacity)
        ]
        raw_mb = len(values) * chain.sql_type.byte_width / 1e6
        t0 = time.perf_counter()
        vectors = [codec.encode(chunk, chain.sql_type) for chunk in chunks]
        t1 = time.perf_counter()
        for vector in vectors:
            codec.decode(vector)
        t2 = time.perf_counter()
        out[f"compression.encode_mb_per_s.{codec_name}"] = raw_mb / (t1 - t0)
        out[f"compression.decode_mb_per_s.{codec_name}"] = raw_mb / (t2 - t1)

    name_col, col_col, values_col, size_col = 1, 2, 4, 6
    raw = dict.fromkeys(FACTS_COLUMNS, 0)
    stored = dict.fromkeys(FACTS_COLUMNS, 0)
    for row in cluster.systables.rows("stv_blocklist"):
        if row[name_col] == "facts":
            width = table.column(row[col_col]).sql_type.byte_width
            raw[row[col_col]] += row[values_col] * width
            stored[row[col_col]] += row[size_col]
    for column in FACTS_COLUMNS:
        out[f"compression.ratio.{column}"] = _ratio(raw[column], stored[column])

    vectors = [
        [v for chain in _facts_chains(cluster, column) for v in chain.read_all()]
        for column in FACTS_COLUMNS
    ]
    t0 = time.perf_counter()
    CompressionAnalyzer().analyze(table.column_specs, vectors)
    out["compression.analyze_ms"] = (time.perf_counter() - t0) * 1e3
    return out


# ---- counters read around the traced window ---------------------------------


def _counters(system) -> dict[str, float]:
    cluster = system.cluster
    served = system.server.metrics()
    return {
        "admitted": sum(served.admissions.values()),
        "bypassed": sum(served.bypasses.values()),
        "invalidations": cluster.result_cache.invalidations,
        "disk_written": sum(
            store.disk.stats.bytes_written for store in cluster.slice_stores
        ),
    }


def _stl_query_rows_per_statement(cluster, statements: int) -> float:
    """systables.rows_per_stmt over the newest statements (stl_query is a
    bounded ring): query ids are dense, so one row per statement means
    the newest k ids hold exactly k rows."""
    ids = [row[0] for row in cluster.systables.rows("stl_query")]
    k = min(statements, 1000)
    newest = max(ids)
    return sum(1 for i in ids if i > newest - k) / k


# ---- derivation -------------------------------------------------------------


def window_metrics(system, window, tracer, before, after) -> dict[str, float]:
    """Everything that comes from the traced window's own statements."""
    samples = window.samples
    n = len(samples)
    ok = [s for s in samples if s.error is None]
    reads = [s for s in ok if s.statement.kind == "read"]
    hits = [s for s in reads if s.result.stats.result_cache_hit]
    misses = [s for s in reads if not s.result.stats.result_cache_hit]
    writes = [s for s in ok if s.statement.kind != "read"]
    stats = [s.result.stats for s in misses]
    delta = {key: after[key] - before[key] for key in before}

    def by_kind_ms(kind: str) -> float:
        return _median(
            s.latency_s * 1e3 for s in writes if s.statement.kind == kind
        )

    scans = [
        op
        for st in stats
        for op in st.operators
        if op.operator.startswith("Seq Scan")
    ]
    execute_s = sum(st.execute_seconds for st in stats)
    cpu_s = window.cpu_own_s + window.cpu_workers_s
    segment_hits = sum(st.segment_cache_hits for st in stats)
    segment_misses = sum(st.segment_cache_misses for st in stats)
    decode_hits = sum(st.scan.cache_hits for st in stats)
    decode_misses = sum(st.scan.cache_misses for st in stats)
    compile_first = [
        result.stats.compile_seconds * 1e6
        for template, (_, result) in system.setup_results.items()
        if template.startswith("warm_") and template[5:] in workloads.SCAN_TEMPLATES
    ]
    copy_facts_s = system.setup_results["copy_facts"][0]
    facts_rows = len(system.setup[1].rows)

    blocklist = system.cluster.systables.rows("stv_blocklist")
    facts_blocks = [row for row in blocklist if row[1] == "facts"]
    facts_values = sum(row[4] for row in facts_blocks if row[2] == "seq")
    out = {
        "server.admitted_per_stmt": delta["admitted"] / n,
        "server.bypassed_per_stmt": delta["bypassed"] / n,
        "sql.parse_us_p50": tracer.median_us("sql.parse"),
        "plan.bind_us_p50": tracer.median_us("plan.bind"),
        "plan.optimize_us_p50": tracer.median_us("plan.optimize"),
        "engine.cache_key_us_p50": tracer.median_us("engine.cache_key"),
        "engine.result_cache_hit_ratio": _ratio(len(hits), len(reads)),
        "engine.hit_us_p50": _median(s.latency_s * 1e6 for s in hits),
        "engine.miss_overhead_us_p50": _median(
            (
                s.latency_s
                - s.result.stats.compile_seconds
                - s.result.stats.execute_seconds
            )
            * 1e6
            for s in misses
        ),
        "engine.copy_rows_per_s": facts_rows / copy_facts_s,
        "engine.copy_batch_ms_p50": by_kind_ms("copy"),
        "engine.insert_ms_p50": by_kind_ms("insert"),
        "engine.delete_ms_p50": by_kind_ms("delete"),
        "engine.cache_invalidations_per_write": _ratio(
            delta["invalidations"], len(writes)
        ),
        "exec.execute_us_p50": _median(st.execute_seconds * 1e6 for st in stats),
        "exec.scan_share": _ratio(
            sum(op.elapsed_us for op in scans) / 1e6, execute_s
        ),
        "exec.rows_scanned_per_cpu_s": _ratio(sum(op.rows for op in scans), cpu_s),
        "exec.rows_examined_per_row_returned": _ratio(
            sum(op.rows for op in scans), sum(st.rows_returned for st in stats)
        ),
        "exec.compile_us_first": _median(compile_first),
        "exec.segment_cache_hit_ratio": _ratio(
            segment_hits, segment_hits + segment_misses
        ),
        "storage.blocks_read_per_stmt": _ratio(
            sum(st.scan.blocks_read for st in stats), len(stats)
        ),
        "storage.blocks_skipped_ratio": _ratio(
            sum(st.scan.blocks_skipped for st in stats),
            sum(st.scan.blocks_total for st in stats),
        ),
        "storage.bytes_read_per_stmt": _ratio(
            sum(st.scan.bytes_read for st in stats), len(stats)
        ),
        "storage.decode_cache_hit_ratio": _ratio(
            decode_hits, decode_hits + decode_misses
        ),
        "storage.blocks_per_1k_rows_end": _ratio(
            len(facts_blocks), facts_values / 1000.0
        ),
        "storage.disk_bytes_written_per_user_byte": _ratio(
            after["disk_written"], window.user_bytes
        ),
        "systables.rows_per_stmt": _stl_query_rows_per_statement(
            system.cluster, n
        ),
    }
    for name, share in tracer.self_shares().items():
        out[f"trace.self_share.{name}"] = share
    return out


def _table(unit: str, better: str, *names: str) -> dict[str, tuple[str, str]]:
    return {name: (unit, better) for name in names}


#: name -> (unit, better): every per-layer metric a traced run reports.
#: BENCHMARK.json's ``per_layer`` list repeats this table (test_smoke.py
#: checks the two agree).
PER_LAYER = {
    **_table(
        "us", "lower",
        "server.dispatch_us_p50", "sql.parse_us_p50", "plan.bind_us_p50",
        "plan.optimize_us_p50", "engine.cache_key_us_p50", "engine.hit_us_p50",
        "engine.miss_overhead_us_p50", "exec.execute_us_p50",
        "exec.compile_us_first", "workers.leader_merge_us_p50",
        "storage.decode_us_per_block",
    ),
    **_table(
        "ms", "lower",
        "engine.copy_batch_ms_p50", "engine.insert_ms_p50",
        "engine.delete_ms_p50", "workers.cpu_ms_per_stmt",
        "compression.analyze_ms",
        *(f"exec.ms_per_stmt.{e}" for e in EXECUTORS),
    ),
    **_table(
        "1/s", "higher",
        "engine.copy_rows_per_s", "exec.rows_scanned_per_cpu_s",
    ),
    **_table(
        "MB/s", "higher",
        *(f"compression.{d}_mb_per_s.{c}"
          for d in ("encode", "decode") for c in CODEC_COLUMNS),
    ),
    **_table(
        "ratio", "higher",
        "server.bypassed_per_stmt", "engine.result_cache_hit_ratio",
        "exec.segment_cache_hit_ratio", "workers.busy_share",
        "storage.blocks_skipped_ratio", "storage.decode_cache_hit_ratio",
        "trace.overhead_ratio",
        *(f"compression.ratio.{c}" for c in FACTS_COLUMNS),
    ),
    **_table(
        "ratio", "lower",
        "server.admitted_per_stmt", "engine.cache_invalidations_per_write",
        "exec.scan_share", "exec.rows_examined_per_row_returned",
        "storage.blocks_per_1k_rows_end",
        "storage.disk_bytes_written_per_user_byte", "systables.rows_per_stmt",
        *(f"trace.self_share.{n}" for n in tracing.SPAN_NAMES),
    ),
    **_table(
        "count", "lower",
        "workers.morsels_per_stmt", "workers.forks", "workers.reforks",
        "storage.blocks_read_per_stmt",
    ),
    **_table("B", "lower", "storage.bytes_read_per_stmt"),
}


def run_traced(args, sizes, out_dir: Path):
    """The ``--trace 1`` run; same return shape as ``run.run_untraced``.

    Two fresh systems replay the same rounds turn by turn, one traced and
    one not, so both see the same minutes of the machine and the ratio of
    their rates is the tracing overhead.
    """
    # Two systems take turns, so each gets half of one system's share.
    rounds = workloads.rounds(
        args.workload, args.seed, sizes, args.window_seconds / 2
    )
    repeats = 1 if args.quick else 2

    setup = workloads.setup_statements(args.seed, sizes)
    # Table mutation epochs are process-global and keyed by table name, so
    # a set-up's COPYs invalidate the other system's warmed cache entries.
    # The twin goes first: the traced system is the one left fully warm.
    with closing(harness.set_up(setup)) as twin, \
            closing(harness.set_up(setup)) as system:
        tracer = tracing.Tracer(system)
        traced = harness.Drive(system, tracer.on_statement)
        plain = harness.Drive(twin)
        before = _counters(system)
        for statements in rounds:
            traced.run_round(statements)
            plain.run_round(statements)
            if traced.window.wall_s + plain.window.wall_s > args.cap_s:
                break  # the run's time limit; see run.CAP_FACTOR
        after = _counters(system)
        window, untraced = traced.window, plain.window
        values = window_metrics(system, window, tracer, before, after)
        values["trace.overhead_ratio"] = untraced.wall_s / window.wall_s
        _, detail = harness.end_to_end(
            window, [system.setup_s], harness.stored_bytes(system.cluster)
        )
        attempted, failures = harness.verify(
            setup, [(window, harness.final_tables(system))]
        )
        values["server.dispatch_us_p50"] = probe_dispatch(
            system, 50 if args.quick else 300
        )
        values["storage.decode_us_per_block"] = probe_decode(system.cluster)
        values.update(probe_compression(system.cluster))
        # The parallel leg's two workers need a CPU each: sessions opened
        # from here on, and the pool they fork, are free to use them all.
        os.sched_setaffinity(0, args.cpus)
        values.update(probe_executors(system, args.seed, repeats))

    span_file = out_dir / f"trace_{args.workload}.json"
    tracer.write(
        span_file,
        {"workload": args.workload, "seed": args.seed, "unit": "us",
         "statements": tracer.statements},
    )
    detail["span_file"] = str(span_file)
    detail["spans"] = len(tracer.spans)
    detail["untraced_window_s"] = untraced.wall_s
    if set(values) != set(PER_LAYER):
        raise AssertionError(
            f"per-layer names drifted: {set(values) ^ set(PER_LAYER)}"
        )
    metrics = {name: (values[name], PER_LAYER[name][0]) for name in PER_LAYER}
    return metrics, detail, attempted, failures
