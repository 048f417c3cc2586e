"""Span trees for the traced run, recorded from the benchmark's side.

Nothing inside the engine is instrumented. Each statement gets one tree:

    client.stmt                      timed around handle.execute()
      server.execute                 the session thread's own latency
        sql.parse                    } shadow spans: the same text replayed
        plan.bind                    } through the public calls Session
        plan.optimize                } makes, timed here, right after the
        engine.cache_key             } real statement
        exec.compile                 } derived from the QueryStats the
        exec.execute                 } statement returned
          exec.scan / exec.operator  } one per OperatorStat, nested by plan

Shadow and derived spans carry measured durations but not measured start
times, so children are laid end to end from their parent's start and
clipped to it. Self time = duration - child cover.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from repro.engine.resultcache import result_cache_key
from repro.plan.binder import Binder
from repro.plan.physical import PhysicalPlanner, explain
from repro.sql import ast
from repro.sql.parser import parse_statement

SPAN_NAMES = (
    "client.stmt",
    "server.execute",
    "sql.parse",
    "plan.bind",
    "plan.optimize",
    "engine.cache_key",
    "exec.compile",
    "exec.execute",
    "exec.scan",
    "exec.operator",
)


@dataclass
class Span:
    span_id: int
    parent: int | None
    trace: int  # statement ordinal: the spans of one statement share it
    name: str
    start_us: float
    dur_us: float
    attrs: dict | None = None


class Tracer:
    """Collects spans in memory; ``write`` dumps them when the run ends."""

    def __init__(self, system):
        cluster = system.cluster
        self._handle = system.handle
        self._binder = Binder(cluster.catalog)
        self._planner = PhysicalPlanner(cluster.catalog, cluster.slice_count)
        self._served = self._handle.queries
        self.spans: list[Span] = []
        self.statements = 0

    # ---- building -----------------------------------------------------------

    def _add(self, parent: Span | None, name, start_us, dur_us, attrs=None) -> Span:
        if parent is not None:
            end = min(start_us + dur_us, parent.start_us + parent.dur_us)
            start_us = min(start_us, end)
            dur_us = end - start_us
        span = Span(
            len(self.spans),
            parent.span_id if parent is not None else None,
            self.statements,
            name,
            start_us,
            dur_us,
            attrs,
        )
        self.spans.append(span)
        return span

    def _lay_out(self, parent: Span, children) -> list[Span]:
        """Children end to end from the parent's start, clipped to it."""
        cursor = parent.start_us
        out = []
        for name, dur_us, attrs in children:
            span = self._add(parent, name, cursor, dur_us, attrs)
            cursor = span.start_us + span.dur_us
            out.append(span)
        return out

    def _shadow(self, sql: str, executor: str):
        """Replay *sql* through the leader's public planning calls."""
        t0 = time.perf_counter()
        statement = parse_statement(sql)
        t1 = time.perf_counter()
        stages = [("sql.parse", t1 - t0)]
        if isinstance(statement, ast.SelectStatement):
            logical = self._binder.bind_select(statement.query)
            t2 = time.perf_counter()
            physical = self._planner.plan(logical)
            t3 = time.perf_counter()
            result_cache_key(
                statement.query.to_sql(), explain(physical), executor
            )
            t4 = time.perf_counter()
            stages += [
                ("plan.bind", t2 - t1),
                ("plan.optimize", t3 - t2),
                ("engine.cache_key", t4 - t3),
            ]
        return stages

    def _server_latency_us(self) -> float:
        # The session thread appends its latency just after it resolves
        # the future the client waits on; let it finish.
        self._served += 1
        while self._handle.queries < self._served:
            time.sleep(0)
        return float(self._handle.latencies_us[-1])

    def on_statement(self, sample, t0: float, t1: float) -> None:
        """The ``harness.drive`` hook: one span tree per statement."""
        client_us = (t1 - t0) * 1e6
        server_us = min(self._server_latency_us(), client_us)
        root = self._add(
            None, "client.stmt", t0 * 1e6, client_us,
            {"class": sample.cls, "sql": sample.statement.sql[:200]},
        )
        # Where the server span sits inside the client span is not
        # observable from outside; centre it.
        server = self._add(
            root, "server.execute",
            root.start_us + (client_us - server_us) / 2, server_us,
        )
        result = sample.result
        stats = getattr(result, "stats", None)
        executor = stats.executor if stats is not None else "compiled"
        children = [
            (name, seconds * 1e6, {"shadow": True})
            for name, seconds in self._shadow(sample.statement.sql, executor)
        ]
        executed = stats is not None and not stats.result_cache_hit
        if executed and stats.compile_seconds:
            children.append(("exec.compile", stats.compile_seconds * 1e6, None))
        if executed and stats.execute_seconds:
            children.append(("exec.execute", stats.execute_seconds * 1e6, None))
        placed = self._lay_out(server, children)
        if executed and stats.execute_seconds and stats.operators:
            self._operator_spans(placed[-1], stats)
        self.statements += 1

    def _operator_spans(self, execute: Span, stats) -> None:
        """Nest one span per OperatorStat by its depth in the plan text
        (the k-th "XN" line is plan step k, indented two spaces a level)."""
        depth = {}
        step = 0
        for text in stats.plan_text.splitlines():
            stripped = text.lstrip()
            if stripped.startswith("XN "):
                depth[step] = (len(text) - len(stripped)) // 2
                step += 1
        operators = sorted(
            (op for op in stats.operators if op.step in depth),
            key=lambda op: op.step,
        )
        # children[i]: operators whose nearest reported ancestor is i.
        children: dict[int | None, list] = {None: []}
        stack: list = []
        for op in operators:
            while stack and depth[stack[-1].step] >= depth[op.step]:
                stack.pop()
            children.setdefault(stack[-1].step if stack else None, []).append(op)
            stack.append(op)

        def place(parent: Span, key) -> None:
            ops = children.get(key, [])
            spans = self._lay_out(
                parent,
                [
                    (
                        "exec.scan"
                        if op.operator.startswith("Seq Scan")
                        else "exec.operator",
                        float(op.elapsed_us),
                        {"op": op.operator, "rows": op.rows},
                    )
                    for op in ops
                ],
            )
            for op, span in zip(ops, spans):
                place(span, op.step)

        place(execute, None)

    # ---- reading ------------------------------------------------------------

    def median_us(self, name: str) -> float:
        values = [s.dur_us for s in self.spans if s.name == name]
        return statistics.median(values) if values else 0.0

    def self_shares(self) -> dict[str, float]:
        """Self time by span name as a share of all client.stmt time."""
        self_us = [s.dur_us for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                self_us[span.parent] -= span.dur_us
        total = sum(s.dur_us for s in self.spans if s.parent is None)
        shares = dict.fromkeys(SPAN_NAMES, 0.0)
        for span, own in zip(self.spans, self_us):
            shares[span.name] += own / total
        return shares

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        document = dict(header)
        document["columns"] = [
            "id", "parent", "trace", "name", "start_us", "dur_us", "attrs",
        ]
        document["spans"] = [
            [
                s.span_id, s.parent, s.trace, s.name,
                round(s.start_us, 1), round(s.dur_us, 1), s.attrs,
            ]
            for s in self.spans
        ]
        path.write_text(json.dumps(document, separators=(",", ":")) + "\n")
