"""Seeded inputs for the end-to-end benchmark: table rows, the shared
set-up script, and the three statement lists.

Everything here is a pure function of ``(seed, sizes, seconds)``. The
system under test only ever sees the SQL text and the COPY source lines
produced here; the sqlite oracle (``oracle.py``) is fed the same rows as
Python tuples.

Every workload is a fixed list of statements: a strict rotation of
statement templates, cut into *rounds* of equal content. ``--seconds``
sizes the list (``ROUNDS_PER_SECOND``), the clock does not, so the same
arguments always give the same statements, the same counts and the same
mix of statement classes (see README.md, "Rules that make the numbers
repeat"); a slow minute only makes the run take longer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from repro.replay import FleetProfile, TableSpec, synthesize

WORKLOADS = {
    "scan_heavy": (
        "five never-repeating full-scan templates: every statement misses "
        "the result cache, so decode, scan and kernels do >95% of the work"
    ),
    "dashboard_repeat": (
        "short statements, 80% result-cache hits and 20% literal-varying "
        "misses: the fixed per-statement pipeline dominates and scanning "
        "almost vanishes"
    ),
    "mixed_etl": (
        "INSERT, DELETE and COPY between repeated reads: epoch "
        "invalidation, tail blocks and stats refresh, so a caching gain "
        "that taxes writes shows"
    ),
}

#: Cycles per round. A round is the unit of the list: it holds the
#: workload's full statement mix (mixed_etl rotates its write over three
#: cycles), so a list of any length, or one cut at a round boundary by
#: the time cap, has the same mix of statement classes. Wall and CPU time
#: are read once per round; 0.2 s (1 s on mixed_etl) keeps a cut prompt.
ROUND_CYCLES = {"scan_heavy": 1, "dashboard_repeat": 50, "mixed_etl": 3}

#: Rounds the 2-core reference box completes per second at FULL sizes on
#: a quiet stretch; seconds times this is the length of the list.
ROUNDS_PER_SECOND = {"scan_heavy": 4.6, "dashboard_repeat": 5.8, "mixed_etl": 1.08}


@dataclass(frozen=True)
class Sizes:
    """Table and batch sizes. ``FULL`` is what the committed numbers use;
    ``QUICK`` keeps the smoke test to a few seconds."""

    facts_rows: int
    daily_rows: int = 800
    dim_rows: int = 97
    copy_batch_rows: int = 1000
    insert_rows: int = 40
    delete_span: int = 25


FULL = Sizes(facts_rows=24_000)
QUICK = Sizes(facts_rows=6_000, copy_batch_rows=200)

REGIONS = (
    "north", "south", "east", "west", "centre", "coast", "island", "valley",
)

TABLES = {
    "facts": (
        "seq int, day int, region varchar(16), dim_id int, qty int, "
        "amt double precision",
        "DISTSTYLE EVEN",
    ),
    "dim": ("dim_id int, label varchar(16), weight int", "DISTSTYLE ALL"),
    "daily": ("day int, visits int, revenue int", "DISTSTYLE EVEN"),
}


@dataclass
class Statement:
    """One statement of a stream.

    ``template`` names the rotation slot; the harness appends ``.hit`` /
    ``.miss`` to reads from what the result cache actually did, and that
    is the statement's class for percentile attribution. ``rows`` carries
    the tuples a COPY or INSERT adds, for the oracle and for the
    user-bytes denominator; ``source`` is the COPY URI they are served at.
    """

    template: str
    sql: str
    kind: str = "read"  # read | insert | delete | copy | ddl
    rows: list[tuple] | None = None
    source: str | None = None


def line(row: tuple) -> str:
    """The COPY text form of one row ('|'-delimited)."""
    return "|".join(str(v) for v in row)


def user_bytes(rows: list[tuple]) -> int:
    """Raw bytes of *rows* as the client ships them (line + newline)."""
    return sum(len(line(row)) + 1 for row in rows)


# ---- rows ------------------------------------------------------------------


def facts_row(rng: random.Random, seq: int, sizes: Sizes) -> tuple:
    # amt is a multiple of 0.5, so float sums are exact in any order and
    # the oracle can compare with ==.
    per_day = max(1, sizes.facts_rows // sizes.daily_rows)
    return (
        seq,
        (seq // per_day) % sizes.daily_rows,
        rng.choice(REGIONS),
        rng.randrange(sizes.dim_rows),
        rng.randrange(1, 100),
        rng.randrange(0, 2000) * 0.5,
    )


def table_rows(seed: int, sizes: Sizes) -> dict[str, list[tuple]]:
    rng = random.Random(f"e2e-tables-{seed}")
    facts = [facts_row(rng, seq, sizes) for seq in range(sizes.facts_rows)]
    dim = [(i, f"label{i % 7}", i % 5 + 1) for i in range(sizes.dim_rows)]
    daily = [
        (day, rng.randrange(1000), rng.randrange(10_000))
        for day in range(sizes.daily_rows)
    ]
    return {"facts": facts, "dim": dim, "daily": daily}


# ---- read templates ---------------------------------------------------------

#: Full-scan templates over ``facts``, cheapest first. ``{uniq}`` is a
#: conjunct that is always true and never repeats, so the text (and the
#: result-cache key) is new every time while the rows are not. The costs
#: are spread on purpose: p50 lands in the middle template and p90 in the
#: join (README.md, "Percentiles sit inside one statement class").
SCAN_TEMPLATES = {
    "count": "SELECT count(*) FROM facts WHERE {uniq}",
    "range": (
        "SELECT min(amt), max(amt), sum(qty) FROM facts "
        "WHERE day >= 200 AND day < 420 AND {uniq}"
    ),
    "region": (
        "SELECT region, count(*) FROM facts WHERE {uniq} "
        "GROUP BY region ORDER BY region"
    ),
    "daily_rollup": (
        "SELECT day, count(*), sum(qty) FROM facts WHERE {uniq} "
        "GROUP BY day ORDER BY day"
    ),
    "join": (
        "SELECT d.label, count(*), sum(f.amt), sum(f.qty * d.weight), "
        "max(f.qty) FROM facts f JOIN dim d ON f.dim_id = d.dim_id "
        "WHERE {uniq} GROUP BY d.label ORDER BY d.label"
    ),
}

#: mixed_etl reads: fixed texts, so the repeats inside a cycle hit.
ETL_READ_TEMPLATES = ("count", "region", "join")


def scan_sql(template: str, literal: int | None) -> str:
    column = "f.seq" if template == "join" else "seq"
    uniq = f"{column} <> {literal}" if literal is not None else f"{column} >= 0"
    return SCAN_TEMPLATES[template].format(uniq=uniq)


def _literal_base(seed: int) -> int:
    # Far above any seq the run can create; distinct per seed.
    return 100_000_000 + (seed % 10_000) * 1_000_000


def _dashboard_texts(seed: int, sizes: Sizes, adhoc: int):
    """(dashboard texts, >= *adhoc* distinct ad-hoc texts) from the
    Redbench-shaped synthesizer, over a TableSpec for ``daily``."""
    spec = TableSpec(
        name="daily",
        key_column="day",
        numeric_column="revenue",
        key_low=0,
        key_high=sizes.daily_rows,
    )
    think_s = 0.01
    sessions = 4
    # ~1.3x the request: duplicate ad-hoc texts are dropped below.
    duration_s = 1.3 * adhoc * think_s / sessions + 1.0
    workload = synthesize(
        FleetProfile(
            dashboards=1,
            adhoc=sessions,
            etl=0,
            duration_s=duration_s,
            # One dashboard session, ~50 queries: enough to walk its pool.
            dashboard_think_s=duration_s / 50,
            adhoc_think_s=think_s,
        ),
        [spec],
        seed=f"e2e-dashboard-{seed}",
    )
    dashboards: list[str] = []
    adhocs: dict[str, None] = {}
    for query in workload.queries:
        if query.user_name.startswith("dashboard"):
            if query.text not in dashboards:
                dashboards.append(query.text)
        else:
            # A repeated ad-hoc text could hit the cache by chance;
            # dropping repeats keeps the hit share exact.
            adhocs.setdefault(query.text)
    return dashboards, list(adhocs)


# ---- set-up -----------------------------------------------------------------


def setup_statements(seed: int, sizes: Sizes) -> list[Statement]:
    """The set-up every workload performs: create and COPY the three
    tables, then run each read template once (compiles its pipelines)."""
    rows = table_rows(seed, sizes)
    out: list[Statement] = []
    for name, (columns, dist) in TABLES.items():
        out.append(
            Statement("create", f"CREATE TABLE {name} ({columns}) {dist}", "ddl")
        )
        uri = f"bench://{name}/initial"
        out.append(
            Statement(
                f"copy_{name}",
                f"COPY {name} FROM '{uri}'",
                "copy",
                rows=rows[name],
                source=uri,
            )
        )
    base = _literal_base(seed) - 100
    for i, template in enumerate(SCAN_TEMPLATES):
        out.append(Statement(f"warm_{template}", scan_sql(template, base + i)))
    dashboards, adhocs = _dashboard_texts(seed, sizes, 1)
    for i, text in enumerate(dashboards):
        out.append(Statement(f"warm_dash{i}", text))
    out.append(Statement("warm_adhoc", adhocs[0]))
    for template in ETL_READ_TEMPLATES:
        out.append(Statement(f"warm_etl_{template}", scan_sql(template, None)))
    return out


# ---- statement lists --------------------------------------------------------


def _scan_cycles(seed: int) -> Iterator[list[Statement]]:
    literal = _literal_base(seed)
    while True:
        cycle = []
        for template in SCAN_TEMPLATES:
            cycle.append(Statement(template, scan_sql(template, literal)))
            literal += 1
        yield cycle


def _dashboard_cycles(
    seed: int, sizes: Sizes, count: int
) -> Iterator[list[Statement]]:
    # One more than needed: the set-up's warm-up ran adhocs[0] of a
    # 1-statement synthesis; any text equal to it is skipped so the
    # first cycle's ad-hoc is a miss too.
    dashboards, adhocs = _dashboard_texts(seed, sizes, count + 1)
    warm = _dashboard_texts(seed, sizes, 1)[1][0]
    hot = [Statement(f"dash{i}", dash) for i, dash in enumerate(dashboards)]
    for text in adhocs:
        if text != warm:
            yield hot + [Statement("adhoc", text)]


def _etl_cycles(seed: int, sizes: Sizes) -> Iterator[list[Statement]]:
    rng = random.Random(f"e2e-etl-{seed}")
    next_seq = sizes.facts_rows
    batch = 0
    reads = [
        Statement(template, scan_sql(template, None))
        for template in ETL_READ_TEMPLATES
    ]
    while True:
        for kind in ("insert", "delete", "copy"):
            if kind == "insert":
                rows = [
                    facts_row(rng, next_seq + i, sizes)
                    for i in range(sizes.insert_rows)
                ]
                next_seq += len(rows)
                values = ", ".join(
                    f"({r[0]}, {r[1]}, '{r[2]}', {r[3]}, {r[4]}, {r[5]})"
                    for r in rows
                )
                write = Statement(
                    "insert", f"INSERT INTO facts VALUES {values}", "insert",
                    rows=rows,
                )
            elif kind == "delete":
                low = rng.randrange(sizes.facts_rows - sizes.delete_span)
                write = Statement(
                    "delete",
                    f"DELETE FROM facts WHERE seq >= {low} "
                    f"AND seq < {low + sizes.delete_span}",
                    "delete",
                )
            else:
                rows = [
                    facts_row(rng, next_seq + i, sizes)
                    for i in range(sizes.copy_batch_rows)
                ]
                next_seq += len(rows)
                uri = f"bench://facts/batch-{batch:06d}"
                batch += 1
                write = Statement(
                    "copy", f"COPY facts FROM '{uri}'", "copy",
                    rows=rows, source=uri,
                )
            # First occurrence after the write misses, the repeats hit.
            yield [write] + reads * 3


def rounds(
    workload: str, seed: int, sizes: Sizes, seconds: float
) -> list[list[Statement]]:
    """The statement list of *workload*, one round per entry.

    Its length depends on *seconds* alone: ``ROUNDS_PER_SECOND`` rounds
    for each, at least four.
    """
    count = max(4, round(seconds * ROUNDS_PER_SECOND[workload]))
    per_round = ROUND_CYCLES[workload]
    if workload == "scan_heavy":
        cycles = _scan_cycles(seed)
    elif workload == "dashboard_repeat":
        cycles = _dashboard_cycles(seed, sizes, count * per_round)
    else:
        cycles = _etl_cycles(seed, sizes)
    out = [
        [s for cycle in islice(cycles, per_round) for s in cycle]
        for _ in range(count)
    ]
    if len(out[-1]) != len(out[0]):
        raise RuntimeError(f"{workload}: the statement source ran dry")
    return out
