"""Workload synthesis: Redbench-style mixed fleets from trace statistics.

Captured workloads are the gold standard but you rarely have one for
the scenario you want to size. The synthesizer manufactures a
:class:`~repro.replay.capture.CapturedWorkload` with the statistical
shape of a real fleet — three canonical client populations, mirroring
the paper's workload mix:

- **Dashboard readers**: a small pool of repeated aggregate queries
  with short think times; high repeat rate makes them result-cache
  friendly, exactly the traffic that motivated the leader-side cache.
- **Ad-hoc analysts**: parameterized range scans whose literals vary
  per query, so almost every one is a cache miss.
- **ETL writers**: batched INSERTs with occasional DELETEs, sparse in
  time, constantly moving table versions under the readers.

All randomness flows from one :class:`~repro.util.rng.DeterministicRng`
through per-session child streams, so a (profile, tables, seed) triple
always yields the identical workload — and adding a session never
perturbs the others' query streams.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReplayError
from repro.replay.capture import CapturedQuery, CapturedWorkload
from repro.util.rng import DeterministicRng


@dataclass(frozen=True)
class TableSpec:
    """The table surface synthetic queries run against.

    ``key_column`` filters and groups (integer-valued in
    [key_low, key_high)); ``numeric_column`` aggregates. ETL INSERTs
    name exactly these two columns, so the real table may have more —
    unnamed columns load NULL.
    """

    name: str
    key_column: str
    numeric_column: str
    key_low: int = 0
    key_high: int = 1000


@dataclass(frozen=True)
class FleetProfile:
    """How many of each client population, and how fast they think."""

    dashboards: int = 4
    adhoc: int = 2
    etl: int = 1
    #: Synthetic trace length (offsets never exceed it).
    duration_s: float = 1.0
    #: Mean think time between a population's queries, seconds.
    dashboard_think_s: float = 0.01
    adhoc_think_s: float = 0.03
    etl_think_s: float = 0.08
    #: Rows per ETL INSERT batch.
    etl_batch_rows: int = 20

    @property
    def sessions(self) -> int:
        return self.dashboards + self.adhoc + self.etl


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of a trace, for synthesize-alike workloads."""

    queries: int
    sessions: int
    duration_s: float
    read_fraction: float
    mean_gap_s: float

    @classmethod
    def from_workload(cls, workload: CapturedWorkload) -> "TraceStats":
        streams = workload.sessions()
        gaps: list[float] = []
        for stream in streams.values():
            offsets = sorted(q.offset_s for q in stream)
            gaps.extend(
                b - a for a, b in zip(offsets, offsets[1:])
            )
        return cls(
            queries=len(workload),
            sessions=len(streams),
            duration_s=workload.duration_s,
            read_fraction=workload.read_fraction,
            mean_gap_s=(sum(gaps) / len(gaps)) if gaps else 0.0,
        )


def _dashboard_queries(table: TableSpec) -> list[str]:
    """The repeated-template pool one dashboard cycles through."""
    return [
        f"SELECT count(*) FROM {table.name}",
        f"SELECT sum({table.numeric_column}) FROM {table.name}",
        (
            f"SELECT min({table.key_column}), max({table.key_column}) "
            f"FROM {table.name}"
        ),
        (
            f"SELECT count(*), sum({table.numeric_column}) "
            f"FROM {table.name} WHERE {table.key_column} >= "
            f"{(table.key_low + table.key_high) // 2}"
        ),
    ]


def _adhoc_query(table: TableSpec, rng: DeterministicRng) -> str:
    low = rng.randint(table.key_low, max(table.key_low, table.key_high - 2))
    high = rng.randint(low + 1, table.key_high)
    return (
        f"SELECT count(*), sum({table.numeric_column}) FROM {table.name} "
        f"WHERE {table.key_column} >= {low} AND {table.key_column} < {high}"
    )


def _etl_statement(table: TableSpec, rng: DeterministicRng, batch: int) -> str:
    if rng.random() < 0.15:
        victim = rng.randint(table.key_low, table.key_high - 1)
        return f"DELETE FROM {table.name} WHERE {table.key_column} = {victim}"
    values = ", ".join(
        f"({rng.randint(table.key_low, table.key_high - 1)}, "
        f"{rng.randint(1, 1000)})"
        for _ in range(batch)
    )
    return (
        f"INSERT INTO {table.name} "
        f"({table.key_column}, {table.numeric_column}) VALUES {values}"
    )


def synthesize(
    profile: FleetProfile,
    tables: list[TableSpec],
    seed: int | str = 0,
    executor: str = "compiled",
) -> CapturedWorkload:
    """A deterministic mixed-fleet workload over *tables*.

    The result replays like any captured workload; its fingerprints are
    empty (nothing has executed yet), so the usual pattern is replay
    once to baseline, then :func:`~repro.replay.replay.diff_reports`
    against replays on other configurations.
    """
    if not tables:
        raise ReplayError("synthesize needs at least one TableSpec")
    root = DeterministicRng(seed)
    queries: list[CapturedQuery] = []
    session_id = 0

    def add_session(kind: str, index: int, think_s: float, make) -> None:
        nonlocal session_id
        session_id += 1
        rng = root.child(f"{kind}-{index}")
        offset = rng.exponential(1.0 / think_s)
        position = 0
        while offset < profile.duration_s:
            queries.append(
                CapturedQuery(
                    query_id=0,  # assigned after the global sort
                    session_id=session_id,
                    user_name=f"{kind}-{index}",
                    queue="default",
                    text=make(rng, position),
                    offset_s=offset,
                    elapsed_us=0,
                    state="success",
                    executor=executor,
                    rows=0,
                    result_fingerprint="",
                )
            )
            position += 1
            offset += rng.exponential(1.0 / think_s)

    for i in range(profile.dashboards):
        table = tables[i % len(tables)]
        pool = _dashboard_queries(table)
        add_session(
            "dashboard",
            i,
            profile.dashboard_think_s,
            lambda rng, pos, pool=pool: pool[pos % len(pool)],
        )
    for i in range(profile.adhoc):
        table = tables[i % len(tables)]
        add_session(
            "adhoc",
            i,
            profile.adhoc_think_s,
            lambda rng, pos, table=table: _adhoc_query(table, rng),
        )
    for i in range(profile.etl):
        table = tables[i % len(tables)]
        add_session(
            "etl",
            i,
            profile.etl_think_s,
            lambda rng, pos, table=table: _etl_statement(
                table, rng, profile.etl_batch_rows
            ),
        )

    queries.sort(key=lambda q: (q.offset_s, q.session_id))
    numbered = [
        CapturedQuery(
            query_id=index + 1,
            session_id=q.session_id,
            user_name=q.user_name,
            queue=q.queue,
            text=q.text,
            offset_s=q.offset_s,
            elapsed_us=q.elapsed_us,
            state=q.state,
            executor=q.executor,
            rows=q.rows,
            result_fingerprint=q.result_fingerprint,
        )
        for index, q in enumerate(queries)
    ]
    return CapturedWorkload(queries=numbered)


def synthesize_like(
    stats: TraceStats,
    tables: list[TableSpec],
    seed: int | str = 0,
) -> CapturedWorkload:
    """A synthetic fleet matching a real trace's summary statistics.

    Session count, duration, read/write mix, and think-time scale come
    from *stats*; the query text comes from the synthesizer's canonical
    populations. Useful for scaling experiments: capture a small real
    workload, then synthesize a like-shaped one at 10x the sessions.
    """
    sessions = max(1, stats.sessions)
    readers = max(1, round(sessions * stats.read_fraction)) if (
        stats.read_fraction > 0
    ) else 0
    writers = max(0, sessions - readers)
    if readers == 0 and writers == 0:
        readers = 1
    # Readers split dashboards vs ad-hoc 2:1, the typical fleet shape.
    dashboards = max(1, (readers * 2) // 3) if readers else 0
    adhoc = readers - dashboards
    think = stats.mean_gap_s if stats.mean_gap_s > 0 else 0.02
    profile = FleetProfile(
        dashboards=dashboards,
        adhoc=adhoc,
        etl=writers,
        duration_s=stats.duration_s if stats.duration_s > 0 else 1.0,
        dashboard_think_s=think,
        adhoc_think_s=think * 2,
        etl_think_s=think * 4,
    )
    return synthesize(profile, tables, seed=seed)
