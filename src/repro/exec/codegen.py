"""The compiled executor: per-query Python code generation.

"Query processing within Amazon Redshift begins with query plan generation
and compilation to C++ and machine code at the leader node. The use of
query compilation adds a fixed overhead per query that ... is generally
amortized by the tighter execution at compute nodes vs. the overhead of
execution in a general-purpose set of executor functions" (paper §2.1).

This executor reproduces that design point in Python: each pipeline
(scan → filters → joins' probe sides → projection → aggregation) is fused
into one generated function, compiled with ``compile()`` — replacing the
Volcano executor's per-row generator and closure dispatch with straight
loops over local variables. The fixed compile cost and the per-row win are
both real and measured (experiment a2).

Blocking operators (hash-table builds, exchanges, sorts, limits) run in
the driver, like the Volcano executor, so the two executors move identical
bytes over the interconnect and read identical blocks.

Operate-on-compressed scans (DESIGN.md §13) are a vectorized-engine
concept: this executor's generated loops are row-at-a-time, so its scans
take the decoded path — the universal fallback of the encoded-kernel
contract — and ``SET enable_encoded_scan`` does not change what compiled
queries read or return. That asymmetry is exactly what the four-way
parity suites pin down.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.errors import ExecutionError
from repro.exec import exchange
from repro.exec.context import ExecutionContext
from repro.exec.volcano import VolcanoExecutor, sort_rows
from repro.plan.physical import (
    PhysicalAggregate,
    PhysicalFilter,
    PhysicalHashJoin,
    PhysicalNode,
    PhysicalProject,
    PhysicalScan,
    JoinDistribution,
)
from repro.sql import ast
from repro.sql.expressions import (
    cast_value,
    literal_value,
    sql_add,
    sql_and,
    sql_concat,
    sql_div,
    sql_eq,
    sql_ge,
    sql_gt,
    sql_in,
    sql_le,
    sql_like,
    sql_lt,
    sql_mod,
    sql_mul,
    sql_ne,
    sql_neg,
    sql_not,
    sql_or,
    sql_sub,
)
from repro.sql.functions import scalar_function

_BINARY_HELPERS = {
    "=": "sql_eq", "<>": "sql_ne", "<": "sql_lt", "<=": "sql_le",
    ">": "sql_gt", ">=": "sql_ge",
    "+": "sql_add", "-": "sql_sub", "*": "sql_mul", "/": "sql_div",
    "%": "sql_mod", "||": "sql_concat",
    "AND": "sql_and", "OR": "sql_or",
}

_RUNTIME = {
    "sql_eq": sql_eq, "sql_ne": sql_ne, "sql_lt": sql_lt, "sql_le": sql_le,
    "sql_gt": sql_gt, "sql_ge": sql_ge, "sql_add": sql_add,
    "sql_sub": sql_sub, "sql_mul": sql_mul, "sql_div": sql_div,
    "sql_mod": sql_mod, "sql_concat": sql_concat, "sql_and": sql_and,
    "sql_or": sql_or, "sql_not": sql_not, "sql_neg": sql_neg,
    "sql_like": sql_like, "sql_in": sql_in, "cast_value": cast_value,
}


import re as _re

_IS_INDEXED = _re.compile(r"_\w+\[\d+\]")

_COMPARISON_OPS = frozenset(["=", "<>", "<", "<=", ">", ">="])
_ARITH_INLINE_OPS = frozenset(["+", "-", "*"])


def _is_literal(code: str) -> bool:
    return code in ("None", "True", "False") or code[:1].isdigit() or (
        code[:1] == "-" and code[1:2].isdigit()
    ) or code[:1] in ("'", '"')


def _static_type(expr: ast.Expression):
    from repro.plan.binder import infer_type

    try:
        return infer_type(expr)
    except Exception:
        return None


def _inlinable(expr: ast.BinaryOp) -> bool:
    """Operators whose Python form matches SQL semantics for the operands'
    static types (so codegen may skip the runtime helper)."""
    if expr.op not in _COMPARISON_OPS and expr.op not in _ARITH_INLINE_OPS:
        return False
    left = _static_type(expr.left)
    right = _static_type(expr.right)
    if left is None or right is None:
        return False
    from repro.datatypes.types import TypeKind

    plain_numeric = (
        (left.is_integer or left.is_float)
        and (right.is_integer or right.is_float)
    )
    if expr.op in _ARITH_INLINE_OPS:
        return plain_numeric
    if plain_numeric:
        return True
    if left.is_character and right.is_character:
        return True
    if left.kind == right.kind and left.kind in (
        TypeKind.DATE, TypeKind.TIMESTAMP, TypeKind.BOOLEAN,
    ):
        return True
    return False


class _ExprGen:
    """Generates Python source for bound expressions.

    Values that cannot be safely spelled inline (dates, decimals, function
    objects, cast targets) are hoisted into the environment dict and bound
    to fresh names at function entry.
    """

    def __init__(self) -> None:
        self.env: dict[str, object] = dict(_RUNTIME)
        self._temp = 0
        self._const = 0

    def fresh(self, prefix: str = "_t") -> str:
        self._temp += 1
        return f"{prefix}{self._temp}"

    def hoist(self, value: object, prefix: str = "_c") -> str:
        self._const += 1
        name = f"{prefix}{self._const}"
        self.env[name] = value
        return name

    def _ensure_simple(self, lines: list[str], code: str) -> str:
        """Bind *code* to a temp unless it is already a cheap atom, so
        inlined operators never evaluate an operand twice."""
        if code.isidentifier() or _IS_INDEXED.fullmatch(code) or _is_literal(code):
            return code
        name = self.fresh("_v")
        lines.append(f"{name} = {code}")
        return name

    def gen_predicate(self, expr: ast.Expression, row: str) -> tuple[list[str], str]:
        """Generate a plain-bool condition for filter position: SQL TRUE
        maps to Python True, FALSE and NULL both to False."""
        if isinstance(expr, ast.BinaryOp) and _inlinable(expr):
            l_lines, l_expr = self.gen(expr.left, row)
            r_lines, r_expr = self.gen(expr.right, row)
            lines = l_lines + r_lines
            a = self._ensure_simple(lines, l_expr)
            b = self._ensure_simple(lines, r_expr)
            op = {"=": "==", "<>": "!="}.get(expr.op, expr.op)
            checks = [
                f"{operand} is not None"
                for operand in (a, b)
                if not _is_literal(operand)
            ]
            guarded = " and ".join(checks + [f"{a} {op} {b}"])
            return lines, f"({guarded})"
        lines, code = self.gen(expr, row)
        return lines, f"(({code}) is True)"

    def gen(self, expr: ast.Expression, row: str) -> tuple[list[str], str]:
        """Return (setup lines, expression string) for *expr* over *row*."""
        if isinstance(expr, ast.Literal):
            value = literal_value(expr)
            if value is None or isinstance(value, (bool, int, str)):
                return [], repr(value)
            return [], self.hoist(value)
        if isinstance(expr, ast.BoundRef):
            return [], f"{row}[{expr.index}]"
        if isinstance(expr, ast.BinaryOp):
            helper = _BINARY_HELPERS.get(expr.op)
            if helper is None:
                raise ExecutionError(f"unsupported operator {expr.op!r}")
            l_lines, l_expr = self.gen(expr.left, row)
            r_lines, r_expr = self.gen(expr.right, row)
            # Type-aware inlining: when static types guarantee Python's
            # operator agrees with SQL semantics (no Decimal/float mixing,
            # no temporal arithmetic, no division), emit the operator
            # directly with an explicit NULL check instead of a helper call.
            if _inlinable(expr):
                lines = l_lines + r_lines
                a = self._ensure_simple(lines, l_expr)
                b = self._ensure_simple(lines, r_expr)
                op = {"=": "==", "<>": "!="}.get(expr.op, expr.op)
                checks = [
                    f"{operand} is None"
                    for operand in (a, b)
                    if not _is_literal(operand)
                ]
                if not checks:
                    return lines, f"({a} {op} {b})"
                return lines, (
                    f"(None if {' or '.join(checks)} else ({a} {op} {b}))"
                )
            return l_lines + r_lines, f"{helper}({l_expr}, {r_expr})"
        if isinstance(expr, ast.UnaryOp):
            lines, inner = self.gen(expr.operand, row)
            helper = "sql_not" if expr.op == "NOT" else "sql_neg"
            return lines, f"{helper}({inner})"
        if isinstance(expr, ast.FunctionCall):
            fn = scalar_function(expr.name)
            name = self.hoist(fn, "_fn")
            lines: list[str] = []
            args: list[str] = []
            for arg in expr.args:
                a_lines, a_expr = self.gen(arg, row)
                lines.extend(a_lines)
                args.append(a_expr)
            return lines, f"{name}({', '.join(args)})"
        if isinstance(expr, ast.CastExpr):
            from repro.datatypes.types import type_from_name

            target = self.hoist(
                type_from_name(expr.type_name, *expr.type_params), "_ty"
            )
            lines, inner = self.gen(expr.operand, row)
            return lines, f"cast_value({inner}, {target})"
        if isinstance(expr, ast.CaseExpr):
            # CASE needs statement-level control flow: emit an assignment.
            out = self.fresh("_case")
            lines: list[str] = [f"{out} = None"]
            depth = ""
            for cond, value in expr.whens:
                c_lines, c_expr = self.gen(cond, row)
                for cl in c_lines:
                    lines.append(depth + cl)
                lines.append(f"{depth}if ({c_expr}) is True:")
                v_lines, v_expr = self.gen(value, row)
                for vl in v_lines:
                    lines.append(depth + "    " + vl)
                lines.append(f"{depth}    {out} = {v_expr}")
                lines.append(f"{depth}else:")
                depth += "    "
            if expr.default is not None:
                d_lines, d_expr = self.gen(expr.default, row)
                for dl in d_lines:
                    lines.append(depth + dl)
                lines.append(f"{depth}{out} = {d_expr}")
            else:
                lines.append(f"{depth}pass")
            return lines, out
        if isinstance(expr, ast.InExpr):
            lines, operand = self.gen(expr.operand, row)
            item_exprs: list[str] = []
            for item in expr.items:
                i_lines, i_expr = self.gen(item, row)
                lines.extend(i_lines)
                item_exprs.append(i_expr)
            items = "(" + ", ".join(item_exprs) + ("," if len(item_exprs) == 1 else "") + ")"
            inner = f"sql_in({operand}, {items})"
            if expr.negated:
                inner = f"sql_not({inner})"
            return lines, inner
        if isinstance(expr, ast.BetweenExpr):
            lines, operand = self.gen(expr.operand, row)
            var = self.fresh("_btw")
            lines.append(f"{var} = {operand}")
            lo_lines, lo = self.gen(expr.low, row)
            hi_lines, hi = self.gen(expr.high, row)
            lines.extend(lo_lines)
            lines.extend(hi_lines)
            inner = f"sql_and(sql_ge({var}, {lo}), sql_le({var}, {hi}))"
            if expr.negated:
                inner = f"sql_not({inner})"
            return lines, inner
        if isinstance(expr, ast.IsNullExpr):
            lines, operand = self.gen(expr.operand, row)
            op = "is not None" if expr.negated else "is None"
            return lines, f"(({operand}) {op})"
        if isinstance(expr, ast.LikeExpr):
            lines, operand = self.gen(expr.operand, row)
            p_lines, pattern = self.gen(expr.pattern, row)
            lines.extend(p_lines)
            inner = f"sql_like({operand}, {pattern}, {expr.case_insensitive})"
            if expr.negated:
                inner = f"sql_not({inner})"
            return lines, inner
        raise ExecutionError(
            f"cannot generate code for {type(expr).__name__}"
        )


class _PipelineCompiler:
    """Fuses a pipeline of Scan/Filter/Project/HashJoin-probe operators,
    terminated by a collect or aggregate consumer, into one function.

    The generated function has the signature ``f(_src, _env)`` where
    ``_src`` is the iterable feeding the pipeline's source node and
    ``_env`` holds hoisted constants, helpers, prebuilt join hash tables
    and output accumulators.
    """

    def __init__(self) -> None:
        self.expr = _ExprGen()
        self.lines: list[str] = []
        self.indent = 1
        self._joins: list[PhysicalHashJoin] = []

    def add(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    # ---- pipeline assembly ---------------------------------------------------

    def compile_collect(self, node: PhysicalNode) -> Callable:
        """Pipeline whose consumer appends output tuples to ``_env['_out']``."""
        self.expr.env["_out_append"] = None  # placeholder, rebound per run

        def consume(row_var: str) -> None:
            self.add(f"_out.append({row_var})")

        return self._finish(node, consume, header_extra=["_out = _env['_out']"])

    def compile_aggregate(
        self, node: PhysicalNode, aggregate: PhysicalAggregate
    ) -> Callable:
        """Pipeline terminated by partial aggregation into ``_env['_states']``."""
        group_setups: list[tuple[list[str], str]] = []

        def consume(row_var: str) -> None:
            key_parts = []
            for expr in aggregate.group_exprs:
                lines, code = self.expr.gen(expr, row_var)
                for line in lines:
                    self.add(line)
                key_parts.append(code)
            key = "(" + ", ".join(key_parts) + ("," if len(key_parts) == 1 else "") + ")"
            self.add(f"_key = {key}")
            self.add("_st = _states.get(_key)")
            self.add("if _st is None:")
            self.add("    _st = [_agg_create[_i]() for _i in range(_nagg)]")
            self.add("    _states[_key] = _st")
            for i, call in enumerate(aggregate.aggregates):
                if call.argument is None:
                    value = "1"
                else:
                    lines, value = self.expr.gen(call.argument, row_var)
                    for line in lines:
                        self.add(line)
                self.add(f"_st[{i}] = _agg_acc[{i}](_st[{i}], {value})")

        header = [
            "_states = _env['_states']",
            "_agg_create = _env['_agg_create']",
            "_agg_acc = _env['_agg_acc']",
            f"_nagg = {len(aggregate.aggregates)}",
        ]
        return self._finish(node, consume, header_extra=header)

    def _finish(
        self,
        node: PhysicalNode,
        consume: Callable[[str], None],
        header_extra: list[str],
    ) -> Callable:
        self._emit(node, consume)
        body = self.lines
        header = ["def _pipeline(_src, _env):"]
        helper_names = sorted(set(_RUNTIME) | {
            name for name in self.expr.env if name.startswith(("_c", "_fn", "_ty"))
        })
        helper_names += [f"_ht{k}" for k in range(len(self._joins))]
        binds = [
            f"    {name} = _env[{name!r}]" for name in helper_names
        ]
        source = "\n".join(header + binds
                           + ["    " + h for h in header_extra] + body)
        code = compile(source, "<query-pipeline>", "exec")
        namespace: dict = {}
        exec(code, namespace)
        fn = namespace["_pipeline"]
        fn.generated_source = source  # for EXPLAIN-style debugging
        fn.env_template = self.expr.env
        return fn

    # ---- produce/consume recursion -----------------------------------------------

    def _emit(self, node: PhysicalNode, consume: Callable[[str], None]) -> None:
        if isinstance(node, PhysicalScan):
            row = self.expr.fresh("_row")
            self.add(f"for {row} in _src:")
            self.indent += 1
            for conjunct in node.filters:
                lines, code = self.expr.gen_predicate(conjunct, row)
                for line in lines:
                    self.add(line)
                self.add(f"if not {code}:")
                self.add("    continue")
            consume(row)
            self.indent -= 1
            return
        if isinstance(node, PhysicalFilter):
            def filtered_consume(row_var: str) -> None:
                for conjunct in _conjuncts(node.condition):
                    lines, code = self.expr.gen_predicate(conjunct, row_var)
                    for line in lines:
                        self.add(line)
                    self.add(f"if not {code}:")
                    self.add("    continue")
                consume(row_var)

            self._emit(node.child, filtered_consume)
            return
        if isinstance(node, PhysicalProject):
            def project_consume(row_var: str) -> None:
                parts: list[str] = []
                for expr in node.expressions:
                    lines, code = self.expr.gen(expr, row_var)
                    for line in lines:
                        self.add(line)
                    parts.append(code)
                out = self.expr.fresh("_prj")
                tup = "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
                self.add(f"{out} = {tup}")
                consume(out)

            self._emit(node.child, project_consume)
            return
        if isinstance(node, PhysicalHashJoin):
            self._emit_join_probe(node, consume)
            return
        raise ExecutionError(
            f"node {type(node).__name__} cannot be fused into a pipeline"
        )

    def _emit_join_probe(
        self, node: PhysicalHashJoin, consume: Callable[[str], None]
    ) -> None:
        """Probe side stays in the pipeline; the hash table arrives prebuilt
        in the environment as ``_ht{k}`` (plus outer-join support vars)."""
        k = len(self._joins)
        self._joins.append(node)
        build_right = node.build_right
        probe_child = node.left if build_right else node.right
        probe_keys = (
            [l for l, _ in node.keys] if build_right else [r for _, r in node.keys]
        )
        null_width = len(
            node.right.output if build_right else node.left.output
        )
        preserve = (
            (node.kind is ast.JoinKind.LEFT and build_right)
            or (node.kind is ast.JoinKind.RIGHT and not build_right)
            or node.kind is ast.JoinKind.FULL
        )
        track = node.kind is ast.JoinKind.FULL

        def probe_consume(row_var: str) -> None:
            key_parts = [f"{row_var}[{i}]" for i in probe_keys]
            key = "(" + ", ".join(key_parts) + ("," if len(key_parts) == 1 else "") + ")"
            matches = self.expr.fresh("_m")
            if preserve:
                hit = self.expr.fresh("_hit")
                self.add(f"{hit} = False")
            self.add(f"{matches} = _ht{k}.get({key})")
            self.add(f"if {matches} is not None:")
            self.indent += 1
            build_row = self.expr.fresh("_b")
            self.add(f"for {build_row} in {matches}:")
            self.indent += 1
            combined = self.expr.fresh("_j")
            if build_right:
                self.add(f"{combined} = {row_var} + {build_row}")
            else:
                self.add(f"{combined} = {build_row} + {row_var}")
            if node.residual is not None:
                lines, code = self.expr.gen_predicate(node.residual, combined)
                for line in lines:
                    self.add(line)
                self.add(f"if not {code}:")
                self.add("    continue")
            if preserve:
                self.add(f"{hit} = True")
            if track:
                self.add(f"_matched{k}.add(id({build_row}))")
            consume(combined)
            self.indent -= 2
            if preserve:
                self.add(f"if not {hit}:")
                self.indent += 1
                padded = self.expr.fresh("_p")
                nulls = "(" + "None, " * null_width + ")"
                if build_right:
                    self.add(f"{padded} = {row_var} + {nulls}")
                else:
                    self.add(f"{padded} = {nulls} + {row_var}")
                consume(padded)
                self.indent -= 1

        self._emit(probe_child, probe_consume)

    @property
    def joins(self) -> list[PhysicalHashJoin]:
        return self._joins


def _conjuncts(condition: ast.Expression) -> list[ast.Expression]:
    if isinstance(condition, ast.BinaryOp) and condition.op == "AND":
        return _conjuncts(condition.left) + _conjuncts(condition.right)
    return [condition]


class CompiledExecutor(VolcanoExecutor):
    """Executes plans with generated-code pipelines.

    Inherits the Volcano driver for blocking operators (exchanges, hash
    builds, merges, sorts) and overrides pipeline execution. Time spent
    generating and ``compile()``-ing code accumulates in
    ``ctx.stats.compile_seconds`` — the fixed overhead the paper says
    amortises on large scans.
    """

    name = "compiled"

    # Pipelines are fused across these node types.
    _FUSABLE = (PhysicalScan, PhysicalFilter, PhysicalProject, PhysicalHashJoin)

    def _run_node(self, node: PhysicalNode) -> list:
        if isinstance(node, PhysicalAggregate) and isinstance(
            node.child, self._FUSABLE
        ) and self._pipeline_ok(node.child):
            return self._run_compiled_aggregate(node)
        if isinstance(node, self._FUSABLE) and self._pipeline_ok(node):
            return self._run_compiled_pipeline(node)
        return super()._run_node(node)

    # ---- eligibility ------------------------------------------------------

    def _pipeline_ok(self, node: PhysicalNode) -> bool:
        """A pipeline is compilable when its spine reaches a scan through
        fusable operators and no fused join needs to *move* its probe side
        (probe-moving strategies re-partition mid-pipeline, which the fused
        loop cannot express — those plans run on the inherited driver)."""
        if isinstance(node, PhysicalScan):
            return True
        if isinstance(node, (PhysicalFilter, PhysicalProject)):
            return self._pipeline_ok(node.child)
        if isinstance(node, PhysicalHashJoin):
            if node.kind is ast.JoinKind.FULL:
                return False
            if node.strategy in (
                JoinDistribution.DS_DIST_BOTH,
                JoinDistribution.DS_DIST_OUTER,
            ):
                return False
            probe = node.left if node.build_right else node.right
            return self._pipeline_ok(probe)
        return False

    # ---- compiled pipelines ------------------------------------------------

    def _prepare_pipeline(
        self, node: PhysicalNode, mode: str, aggregate: PhysicalAggregate | None
    ) -> tuple[Callable, list[PhysicalHashJoin], dict]:
        from repro.exec.segmentcache import fragment_signature, pipeline_joins

        cache = self._ctx.segment_cache
        start = time.perf_counter()
        signature = None
        if cache is not None:
            signature = fragment_signature(node, mode, aggregate)
            entry = cache.lookup(signature)
            if entry is not None:
                # Reuse the compiled function; the join *nodes* must come
                # from the current plan (build sides run per query).
                joins = pipeline_joins(node)
                self._ctx.stats.segment_cache_hits += 1
                self._ctx.stats.compile_seconds += time.perf_counter() - start
                return entry.fn, joins, dict(entry.env_template)
            self._ctx.stats.segment_cache_misses += 1
        compiler = _PipelineCompiler()
        if mode == "aggregate":
            fn = compiler.compile_aggregate(node, aggregate)
        else:
            fn = compiler.compile_collect(node)
        if cache is not None:
            cache.store(signature, mode, fn, fn.env_template)
        self._ctx.stats.compile_seconds += time.perf_counter() - start
        return fn, compiler.joins, dict(fn.env_template)

    def _pipeline_source(self, node: PhysicalNode) -> PhysicalScan:
        if isinstance(node, PhysicalScan):
            return node
        if isinstance(node, (PhysicalFilter, PhysicalProject)):
            return self._pipeline_source(node.child)
        if isinstance(node, PhysicalHashJoin):
            probe = node.left if node.build_right else node.right
            return self._pipeline_source(probe)
        raise ExecutionError(f"no pipeline source under {type(node).__name__}")

    def _build_join_tables(self, joins: list[PhysicalHashJoin]) -> list[list[dict]]:
        """Materialize, move and hash every fused join's build side.

        Build sides execute through the normal driver (possibly compiled
        themselves if they contain fusable pipelines), then move per the
        join strategy: broadcast for DS_BCAST_INNER, hash-redistribution
        for DS_DIST_INNER, nothing for DS_DIST_NONE.
        """
        per_join_tables: list[list[dict]] = []
        for join in joins:
            build_node = join.right if join.build_right else join.left
            build_data = self._materialize(build_node, self._run(build_node))
            width = exchange.row_width(build_node.output)
            keys = (
                [r for _, r in join.keys]
                if join.build_right
                else [l for l, _ in join.keys]
            )
            if join.strategy is JoinDistribution.DS_BCAST_INNER:
                build_data = exchange.broadcast(
                    self._one_copy(build_node, build_data), self._ctx, width
                )
            elif join.strategy is JoinDistribution.DS_DIST_INNER:
                key0 = keys[0]
                build_data = exchange.shuffle(
                    self._one_copy(build_node, build_data),
                    lambda row: row[key0],
                    self._ctx,
                    width,
                )
            tables: list[dict] = []
            for s, rows in enumerate(build_data):
                table, spill_table = self._build_hash_table(join, rows, keys, s)
                if spill_table is not None:
                    spill_table.done()
                tables.append(table)
            per_join_tables.append(tables)
        return per_join_tables

    def _probe_source_rows(
        self, joins: list[PhysicalHashJoin], scan: PhysicalScan
    ) -> list:
        """Scan-side input per slice.

        An ALL-distributed scan feeding a join must collapse to one copy
        when the join expects each probe row exactly once: under
        DS_BCAST_INNER (planner's outer-join fix), or DS_DIST_NONE against
        a build side that is itself replicated. ``joins[-1]`` is the join
        adjacent to the scan (codegen appends outer joins first).
        """
        # Raw per-slice iterables come from the shared _scan_slices
        # (zone-map pruning, scan accounting, system-table branch); the
        # per-row filters are fused into the generated code instead.
        per_slice = self._scan_slices(scan)
        if scan.partitioning.kind == "all" and joins:
            innermost = joins[-1]
            build_node = (
                innermost.right if innermost.build_right else innermost.left
            )
            collapse = (
                innermost.strategy is JoinDistribution.DS_BCAST_INNER
                or (
                    innermost.strategy is JoinDistribution.DS_DIST_NONE
                    and build_node.partitioning.kind == "all"
                )
            )
            if collapse:
                materialized = [list(rows) for rows in per_slice]
                return self._one_copy(scan, materialized)
        return per_slice

    def _run_compiled_pipeline(self, node: PhysicalNode) -> list:
        fn, joins, env = self._prepare_pipeline(node, "collect", None)
        tables = self._build_join_tables(joins)
        scan = self._pipeline_source(node)
        source_rows = self._probe_source_rows(joins, scan)
        out: list = []
        for s in range(self._ctx.slice_count):
            slice_env = dict(env)
            slice_out: list = []
            slice_env["_out"] = slice_out
            for k in range(len(joins)):
                slice_env[f"_ht{k}"] = tables[k][s]
            fn(source_rows[s], slice_env)
            out.append(slice_out)
        return out

    def _run_compiled_aggregate(self, node: PhysicalAggregate) -> list:
        fn, joins, env = self._prepare_pipeline(node.child, "aggregate", node)
        tables = self._build_join_tables(joins)
        scan = self._pipeline_source(node.child)
        source_rows = self._probe_source_rows(joins, scan)
        aggregates = [call.aggregate for call in node.aggregates]
        env["_agg_create"] = [agg.create for agg in aggregates]
        env["_agg_acc"] = [agg.accumulate for agg in aggregates]

        # When the aggregate input is replicated (child 'all'), one slice's
        # copy carries every row; running the others would multiply counts.
        child_all = node.child.partitioning.kind == "all"
        partials: list[dict] = []
        for s in range(self._ctx.slice_count):
            if child_all and s > 0:
                partials.append({})
                continue
            slice_env = dict(env)
            # A SpillableAggregateStates when governed: the generated
            # code only uses _states.get / _states[_key] = _st, so a
            # flushed key simply opens a fresh generation.
            states = self._agg_states(node, s, aggregates)
            slice_env["_states"] = states
            for k in range(len(joins)):
                slice_env[f"_ht{k}"] = tables[k][s]
            fn(source_rows[s], slice_env)
            partials.append(self._finish_agg_states(node, s, states))

        width = exchange.row_width(node.output) if node.output else 8
        if node.local_only:
            return [
                [
                    key
                    + tuple(
                        agg.finalize(state)
                        for agg, state in zip(aggregates, entry)
                    )
                    for key, entry in states.items()
                ]
                for states in partials
            ]
        merged = self._agg_states(node, 0, aggregates, tag="-merge")
        transferred = 0
        for states in partials:
            transferred += len(states)
            for key, entry in states.items():
                target = merged.get(key)
                if target is None:
                    merged[key] = entry
                else:
                    for i, agg in enumerate(aggregates):
                        target[i] = agg.merge(target[i], entry[i])
        self._ctx.interconnect.record_gather(transferred * width)
        merged = self._finish_agg_states(node, 0, merged)
        if not node.group_exprs and not merged:
            merged[()] = [agg.create() for agg in aggregates]
        leader_rows = [
            key + tuple(agg.finalize(st) for agg, st in zip(aggregates, entry))
            for key, entry in merged.items()
        ]
        return [leader_rows] + [[] for _ in range(self._ctx.slice_count - 1)]
