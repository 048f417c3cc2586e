"""Set-up, the closed-loop measurement window, and the end-to-end metrics.

One client drives one ``ClusterServer`` session: the next statement is
sent when the previous reply arrives, with zero think time. No engine
knob is touched — default ``compiled`` executor, result cache on.

An untraced run sets up three fresh systems and drives the same list on
each; every statement counts once, by the quietest of its three
executions (``quietest``), and the metrics are computed over those.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

from repro import Cluster
from repro.errors import ReproError
from repro.server import ClusterServer

from oracle import Oracle
import workloads
from workloads import Statement

#: A percentile must sit at least this many percentage points inside one
#: statement class (README.md, "Percentiles sit inside one class").
CLASS_MARGIN_POINTS = 3.0


# ---- process accounting -----------------------------------------------------

_TICKS = os.sysconf("SC_CLK_TCK")


def pin_to_one_cpu() -> set[int]:
    """Confine this thread, and every thread and process started from it
    later, to one CPU; returns the CPUs it was allowed before.

    A statement is a hand-over from the client thread to the session
    thread and back, and the interpreter lock lets only one of them run
    anyway. Left to the scheduler the two sit on different virtual CPUs,
    every hand-over has to wake an idle one, and how long the shared host
    takes over that moved ``dashboard_repeat`` by 20-70% for tens of
    minutes at a time; on one CPU it is a plain context switch
    (README.md, "One CPU").
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


def _worker_pids() -> list[int]:
    """Live worker processes (the parallel executor's fork pool)."""
    return [child.pid for child in multiprocessing.active_children()]


def cpu_seconds() -> tuple[float, float]:
    """(this process, its worker processes) CPU seconds so far.

    Live workers are read from ``/proc/<pid>/stat``: RUSAGE_CHILDREN only
    counts children that were already waited for, and a fork pool stays
    alive for the whole run.
    """
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    workers = reaped.ru_utime + reaped.ru_stime
    for pid in _worker_pids():
        try:
            with open(f"/proc/{pid}/stat") as handle:
                # "pid (comm) state ppid ..."; comm may contain spaces.
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        workers += (int(fields[11]) + int(fields[12])) / _TICKS
    return time.process_time(), workers


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its live workers', in MB."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in _worker_pids():
        try:
            with open(f"/proc/{pid}/status") as handle:
                for text in handle:
                    if text.startswith("VmHWM:"):
                        total_kb += int(text.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


# ---- set-up -----------------------------------------------------------------


@dataclass
class System:
    """One freshly set-up system and what its set-up measured."""

    cluster: Cluster
    server: ClusterServer
    handle: object
    setup: list[Statement]
    setup_s: float
    #: template -> (latency seconds, QueryResult) of each set-up statement.
    setup_results: dict[str, tuple[float, object]]

    def close(self) -> None:
        self.server.shutdown()
        self.cluster.close()


def set_up(setup: list[Statement]) -> System:
    """Create a default cluster and load it the way a client does.
    *setup* is ``workloads.setup_statements(seed, sizes)``."""
    # Formatting the COPY text is the client's work, not the system's.
    sources = {
        s.source: [workloads.line(r) for r in s.rows]
        for s in setup
        if s.source is not None
    }
    t0 = time.perf_counter()
    cluster = Cluster(node_count=2, slices_per_node=2)
    server = ClusterServer(cluster)
    handle = server.open_session(user_name="bench")
    results = {}
    for statement in setup:
        if statement.source is not None:
            cluster.register_inline_source(
                statement.source, sources[statement.source]
            )
        t_stmt = time.perf_counter()
        result = handle.execute(statement.sql)
        results[statement.template] = (time.perf_counter() - t_stmt, result)
    setup_s = time.perf_counter() - t0
    return System(cluster, server, handle, setup, setup_s, results)


# ---- the window -------------------------------------------------------------


@dataclass(slots=True)
class Sample:
    statement: Statement
    cls: str
    latency_s: float
    #: What the oracle compares: result rows, row count, or the error.
    rows: tuple[tuple, ...] | None
    rowcount: int
    error: BaseException | None
    #: The full QueryResult; kept only by traced runs (its QueryStats
    #: would otherwise make peak RSS grow with the statement count).
    result: object = None


@dataclass
class Round:
    """One execution of one round of the list."""

    samples: list[Sample]
    wall_s: float
    cpu_own_s: float
    cpu_workers_s: float


@dataclass
class Window:
    rounds: list[Round] = field(default_factory=list)
    #: User bytes loaded so far: the set-up's rows plus the window's.
    user_bytes: int = 0

    @property
    def samples(self) -> list[Sample]:
        return [s for r in self.rounds for s in r.samples]

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.rounds)

    @property
    def cpu_own_s(self) -> float:
        return sum(r.cpu_own_s for r in self.rounds)

    @property
    def cpu_workers_s(self) -> float:
        return sum(r.cpu_workers_s for r in self.rounds)


def stored_bytes(cluster) -> int:
    """``sum(size_bytes)`` of ``stv_blocklist``."""
    size_col = 6
    return sum(row[size_col] for row in cluster.systables.rows("stv_blocklist"))


def statement_class(statement: Statement, result) -> str:
    if statement.kind != "read" or isinstance(result, BaseException):
        return statement.template
    hit = result.stats.result_cache_hit
    return f"{statement.template}.{'hit' if hit else 'miss'}"


class Drive:
    """Runs rounds on one system and accumulates its window.

    Wall and CPU time are kept round by round, so two drives can take
    turns (the traced run alternates a traced and an untraced system)
    without charging each other. ``on_statement(sample, t0, t1)`` is the
    traced run's hook; it runs outside the statement's own timer but
    inside the round's wall time, so tracing overhead shows in
    ``stmt_per_s`` and nowhere else.
    """

    def __init__(self, system: System, on_statement=None):
        self._system = system
        self._on_statement = on_statement
        #: Equal results share one tuple: a list that repeats its
        #: texts must not make peak RSS grow with the statement count.
        self._interned: dict[tuple, tuple] = {}
        self.window = Window(
            user_bytes=sum(
                workloads.user_bytes(s.rows) for s in system.setup if s.rows
            )
        )

    def run_round(self, statements: list[Statement]) -> None:
        cluster, handle = self._system.cluster, self._system.handle
        window = self.window
        samples = []
        for statement in statements:
            if statement.source is not None:
                cluster.register_inline_source(
                    statement.source,
                    [workloads.line(r) for r in statement.rows],
                )
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        for statement in statements:
            t0 = time.perf_counter()
            try:
                result = handle.execute(statement.sql)
            except ReproError as exc:
                result = exc
            t1 = time.perf_counter()
            if statement.rows:
                window.user_bytes += workloads.user_bytes(statement.rows)
            failed = isinstance(result, BaseException)
            rows = None
            if not failed:
                rows = tuple(result.rows)
                rows = self._interned.setdefault(rows, rows)
            sample = Sample(
                statement,
                statement_class(statement, result),
                t1 - t0,
                rows=rows,
                rowcount=0 if failed else result.rowcount,
                error=result if failed else None,
            )
            samples.append(sample)
            if self._on_statement is not None:
                sample.result = result
                self._on_statement(sample, t0, t1)
        wall = time.perf_counter() - start
        cpu1 = cpu_seconds()
        window.rounds.append(
            Round(samples, wall, cpu1[0] - cpu0[0], cpu1[1] - cpu0[1])
        )


def drive(system: System, rounds: list[list[Statement]], cap_s: float) -> Window:
    """Run *rounds* to the end. *cap_s* only guards the run's time limit:
    a window that has taken that long stops at the round boundary, and
    its counts then no longer match other runs'."""
    driver = Drive(system)
    wall_s = 0.0
    for statements in rounds:
        driver.run_round(statements)
        wall_s += driver.window.rounds[-1].wall_s
        if wall_s > cap_s:
            break
    return driver.window


# ---- percentiles inside one class -------------------------------------------


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted list: always one of
    the samples, so it belongs to one statement class (the interpolating
    ``repro.util.stats.percentile`` would blend two)."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def class_of_percentile(
    by_class: dict[str, list[float]], pct: float
) -> tuple[str, float]:
    """Which statement class (class -> latencies) the *pct*-th percentile
    falls in, and how many percentage points it sits from that class's
    nearer edge.

    Classes are ranked by median latency and laid side by side by their
    share of the window, so the answer does not flip on one outlier.
    """
    total = sum(len(v) for v in by_class.values())
    ranked = sorted(by_class, key=lambda c: statistics.median(by_class[c]))
    low = 0.0
    for cls in ranked:
        high = low + 100.0 * len(by_class[cls]) / total
        if pct <= high or cls == ranked[-1]:
            return cls, min(pct - low, high - pct)
        low = high
    raise AssertionError("unreachable")


# ---- verification -----------------------------------------------------------


def final_tables(system: System) -> dict[str, object]:
    """table -> its rows as the engine returns them now (or the error)."""
    out = {}
    for table in workloads.TABLES:
        try:
            out[table] = system.handle.execute(f"SELECT * FROM {table}").rows
        except ReproError as exc:
            out[table] = exc
    return out


def verify(
    setup: list[Statement], executions: list[tuple[Window, dict]]
) -> tuple[int, list[str]]:
    """Check every execution of the list against one oracle replay;
    returns (attempted, failure messages).

    *executions* holds, for each system that ran the list, its window and
    its ``final_tables``. Every system started from the same set-up, so
    the oracle replays the list once and each statement's expected answer
    is compared with every system's; a system's tables are checked when
    the replay reaches the end of its window (a cut window is shorter).
    """
    oracle = Oracle(setup)
    streams = [(window.samples, tables) for window, tables in executions]
    failures: list[str] = []
    attempted = 0
    try:
        longest = max((samples for samples, _ in streams), key=len)
        for position, reference in enumerate(longest):
            expected = oracle.expect(reference.statement)
            for samples, tables in streams:
                if position >= len(samples):
                    continue
                attempted += 1
                problem = oracle.mismatch(samples[position], expected)
                if problem is not None:
                    failures.append(f"{reference.statement.sql[:120]}: {problem}")
                if position + 1 < len(samples):
                    continue
                for table, rows in tables.items():
                    attempted += 1
                    problem = (
                        f"raised {rows}"
                        if isinstance(rows, BaseException)
                        else oracle.check_table(table, rows)
                    )
                    if problem is not None:
                        failures.append(f"final {table}: {problem}")
    finally:
        oracle.close()
    return attempted, failures


# ---- end-to-end metrics -----------------------------------------------------


def quietest(windows: list[Window]) -> tuple[Window, list[int]]:
    """The list with every statement counted once, by the execution that
    answered it soonest; and how many statements each window contributed.

    Every window ran the same list on a system in the same state, so the
    executions of a statement differ only in what the machine was doing
    at the time, and the machine only ever adds time (README.md, "The
    quietest of three"). A round's CPU cost is likewise the least of its
    executions'; its wall time is the sum of the chosen latencies: one
    connection with zero think time spends its whole time waiting for
    replies. A window cut short has no execution to offer for its
    missing rounds.
    """
    chosen, source = [], [0] * len(windows)
    for position in range(max(len(w.rounds) for w in windows)):
        executions = [
            (i, w.rounds[position])
            for i, w in enumerate(windows)
            if position < len(w.rounds)
        ]
        samples = []
        for tries in zip(*(r.samples for _, r in executions)):
            best = min(range(len(tries)), key=lambda k: tries[k].latency_s)
            samples.append(tries[best])
            source[executions[best][0]] += 1
        _, cheapest = min(
            executions, key=lambda e: e[1].cpu_own_s + e[1].cpu_workers_s
        )
        chosen.append(
            Round(
                samples,
                sum(s.latency_s for s in samples),
                cheapest.cpu_own_s,
                cheapest.cpu_workers_s,
            )
        )
    return Window(chosen, windows[-1].user_bytes), source


def end_to_end(
    window: Window, setup_seconds: list[float], stored: int
) -> tuple[dict, dict]:
    """The seven gated metrics, and the detail printed beside them.

    *window* is what ``quietest`` returned: the percentiles, the rate,
    the CPU cost and the class check below all read the same samples.
    *stored* is ``stored_bytes`` of a cluster at the end of the list.
    """
    samples = window.samples
    latencies = sorted(s.latency_s for s in samples)
    n = len(latencies)
    cpu_s = window.cpu_own_s + window.cpu_workers_s
    metrics = {
        "setup_s": (min(setup_seconds), "s"),
        "stmt_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "stmt_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "stmt_per_s": (n / window.wall_s, "1/s"),
        "cpu_ms_per_stmt": (cpu_s * 1e3 / n, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "stored_bytes_per_user_byte": (stored / window.user_bytes, "ratio"),
    }
    by_class: dict[str, list[float]] = {}
    for sample in samples:
        by_class.setdefault(sample.cls, []).append(sample.latency_s * 1e3)
    p50_class, p50_margin = class_of_percentile(by_class, 50)
    p90_class, p90_margin = class_of_percentile(by_class, 90)
    detail = {
        "statements": n,
        "rounds": len(window.rounds),
        "window_s": window.wall_s,
        "setup_runs_s": setup_seconds,
        "latency_ms_quartiles": list(quartiles([v * 1e3 for v in latencies])),
        "samples_beyond_p90": n - math.ceil(0.9 * n),
        "p50_class": p50_class,
        "p50_margin_points": p50_margin,
        "p90_class": p90_class,
        "p90_margin_points": p90_margin,
        "class_counts": {c: len(v) for c, v in by_class.items()},
        "class_median_ms": {
            c: round(statistics.median(v), 4) for c, v in by_class.items()
        },
        "cpu_workers_share": window.cpu_workers_s / max(1e-9, cpu_s),
        "stored_bytes": stored,
        "user_bytes": window.user_bytes,
    }
    return metrics, detail
