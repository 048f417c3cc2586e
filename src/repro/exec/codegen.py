"""The compiled executor: per-query Python code generation.

"Query processing within Amazon Redshift begins with query plan generation
and compilation to C++ and machine code at the leader node. The use of
query compilation adds a fixed overhead per query that ... is generally
amortized by the tighter execution at compute nodes vs. the overhead of
execution in a general-purpose set of executor functions" (paper §2.1).

This executor reproduces that design point in Python: each pipeline
(scan → filters → joins' probe sides → projection → aggregation) is fused
into one generated function, compiled with ``compile()``, that loops over
each block's column vectors: one loop variable per column it reads, whole
rows zipped only for a collect or a join probe, COUNT / SUM / MIN / MAX
folded inline. The fixed compile cost and the per-row win are both real
and measured (experiment a2).

Every run emits its pipelines' source; the source is the key of the
cluster's code cache (:mod:`repro.exec.segmentcache`), so only source
never seen before pays ``compile()``, and two plans share code exactly
when they generate the same code. Run-specific values — every literal,
join hash tables, accumulators — enter through ``_env``.

Blocking operators (hash-table builds, exchanges, sorts, limits, the
leader merge of partial aggregates) are inherited from the Volcano executor,
so every executor moves identical bytes over the interconnect and reads
identical blocks; this one overrides only per-slice evaluation.

Operate-on-compressed scans (DESIGN.md §13) are a batch-kernel concept:
the generated loops read decoded vectors — the universal fallback of the
encoded-kernel contract.
"""

from __future__ import annotations

import time
from itertools import repeat
from typing import Callable

from repro.errors import ExecutionError
from repro.exec.volcano import (
    VolcanoExecutor, join_sides, probe_moves, scan_column_names,
)
from repro.plan.physical import (
    PhysicalAggregate,
    PhysicalFilter,
    PhysicalHashJoin,
    PhysicalNode,
    PhysicalProject,
    PhysicalScan,
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
from repro.sql.functions import (
    CountAggregate, MaxAggregate, MinAggregate, SumAggregate, scalar_function,
)

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
    # A block's whole rows, zipped at C speed, NULL in dead slots.
    "_block_rows": lambda batch: (
        zip(*[repeat(None, batch.count) if c is None else c for c in batch.columns])
        if batch.columns else repeat((), batch.count)
    ),
}

#: Loop-variable prefix of a scan column read column by column: ``_x3`` is
#: column 3. No ``_ExprGen.fresh`` or ``hoist`` prefix starts with it.
_COLUMNS = "_x"

#: ``accumulate`` inline, by exact class, on a state ``{s}`` and a
#: non-NULL value ``{v}``: min / max replace only on a strict ``<`` / ``>``,
#: so a tie keeps the incumbent (``-0.0`` vs ``0.0``).
_INLINE_ACCUMULATE = {
    CountAggregate: "{s} += 1",
    SumAggregate: "{s} = {v} if {s} is None else {s} + {v}",
    MinAggregate: "if {s} is None or {v} < {s}: {s} = {v}",
    MaxAggregate: "if {s} is None or {v} > {s}: {s} = {v}",
}


import re as _re

_IS_INDEXED = _re.compile(r"_\w+\[\d+\]")

_COMPARISON_OPS = frozenset(["=", "<>", "<", "<=", ">", ">="])
_ARITH_INLINE_OPS = frozenset(["+", "-", "*"])


#: The only operands spelled inline: NULL, the booleans and COUNT(*)'s 1.
_INLINE_LITERALS = frozenset(["None", "True", "False", "1"])


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

    Literals (but NULL and the booleans), function objects and cast
    targets are hoisted into the environment dict and bound to fresh
    names at function entry, so the source is the statement's template.
    """

    def __init__(self) -> None:
        self.env: dict[str, object] = dict(_RUNTIME)
        self._temp = 0
        self._const = 0
        #: Hoisted literals: names that never hold NULL.
        self._non_null: set[str] = set()
        #: Scan columns read through their loop variables.
        self.columns: set[int] = set()

    def fresh(self, prefix: str = "_t") -> str:
        self._temp += 1
        return f"{prefix}{self._temp}"

    def hoist(self, value: object, prefix: str = "_c") -> str:
        self._const += 1
        name = f"{prefix}{self._const}"
        self.env[name] = value
        return name

    def nullable(self, code: str) -> bool:
        """Whether *code* may be NULL: anything but a non-NULL literal."""
        return code == "None" or not (
            code in _INLINE_LITERALS or code in self._non_null
        )

    def _ensure_simple(self, lines: list[str], code: str) -> str:
        """Bind *code* to a temp unless it is already a cheap atom, so
        inlined operators never evaluate an operand twice."""
        if code.isidentifier() or _IS_INDEXED.fullmatch(code) or code in _INLINE_LITERALS:
            return code
        name = self.fresh("_v")
        lines.append(f"{name} = {code}")
        return name

    def gen_predicate(self, expr: ast.Expression, row: str) -> tuple[list[str], str]:
        """Generate a plain-bool condition for filter position: SQL TRUE
        maps to Python True, FALSE and NULL both to False."""
        if isinstance(expr, ast.BinaryOp) and _inlinable(expr):
            lines, code, nullable = self._inline(expr, row)
            checks = [f"{operand} is not None" for operand in nullable]
            return lines, f"({' and '.join(checks + [code])})"
        lines, code = self.gen(expr, row)
        return lines, f"(({code}) is True)"

    def _inline(self, expr: ast.BinaryOp, row: str) -> tuple[list[str], str, list]:
        """Type-aware inlining: when static types guarantee Python's
        operator agrees with SQL semantics (no Decimal/float mixing, no
        temporal arithmetic, no division), the operator is emitted
        directly. Returns (setup lines, ``a op b``, the operands that may
        be NULL, which the caller checks)."""
        l_lines, a = self.gen(expr.left, row)
        r_lines, b = self.gen(expr.right, row)
        lines = l_lines + r_lines
        a = self._ensure_simple(lines, a)
        b = self._ensure_simple(lines, b)
        op = {"=": "==", "<>": "!="}.get(expr.op, expr.op)
        return lines, f"{a} {op} {b}", [x for x in (a, b) if self.nullable(x)]

    def gen(self, expr: ast.Expression, row: str) -> tuple[list[str], str]:
        """Return (setup lines, expression string) for *expr* over *row*."""
        if isinstance(expr, ast.Literal):
            value = literal_value(expr)
            if value is None or isinstance(value, bool):
                return [], repr(value)
            name = self.hoist(value)
            self._non_null.add(name)
            return [], name
        if isinstance(expr, ast.BoundRef):
            if row == _COLUMNS:
                self.columns.add(expr.index)
                return [], f"{_COLUMNS}{expr.index}"
            return [], f"{row}[{expr.index}]"
        if isinstance(expr, ast.BinaryOp):
            helper = _BINARY_HELPERS.get(expr.op)
            if helper is None:
                raise ExecutionError(f"unsupported operator {expr.op!r}")
            if _inlinable(expr):
                lines, code, nullable = self._inline(expr, row)
                if not nullable:
                    return lines, f"({code})"
                checks = " or ".join(f"{operand} is None" for operand in nullable)
                return lines, f"(None if {checks} else ({code}))"
            l_lines, l_expr = self.gen(expr.left, row)
            r_lines, r_expr = self.gen(expr.right, row)
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
    terminated by a collect or aggregate consumer, into the source of one
    function; ``self.expr.env`` is the environment that source reads.

    The generated function has the signature ``_pipeline(_src, _env)`` where
    ``_src`` holds the scan's batches (one per surviving block) and
    ``_env`` holds hoisted constants, helpers, prebuilt join hash tables
    and output accumulators.
    """

    def __init__(self) -> None:
        self.expr = _ExprGen()
        self.lines: list[str] = []
        self.indent = 1
        self.joins: list[PhysicalHashJoin] = []
        #: The pipeline's source, and whether its row reaches a consumer
        #: that takes it whole.
        self.scan: PhysicalScan | None = None
        self._whole_rows = False

    def add(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    # ---- pipeline assembly ---------------------------------------------------

    def collect_source(self, node: PhysicalNode) -> str:
        """Pipeline whose consumer appends output tuples to ``_env['_out']``."""

        def consume(row_var: str) -> None:
            self.add(f"_out.append({row_var})")

        return self._finish(
            node, consume, ["_out = _env['_out']"], whole_rows=True
        )

    def aggregate_source(
        self, node: PhysicalNode, aggregate: PhysicalAggregate, governed: bool
    ) -> str:
        """Pipeline terminated by partial aggregation into ``_env['_states']``.
        A single group key is looked up by value first (no tuple per row),
        unless *governed*: a spilled group must open a new generation."""

        def consume(row_var: str) -> None:
            key_parts = []
            for expr in aggregate.group_exprs:
                lines, code = self.expr.gen(expr, row_var)
                for line in lines:
                    self.add(line)
                key_parts.append(code)
            by_value = len(key_parts) == 1 and not governed
            if by_value:
                setup: list[str] = []
                value = key_parts[0] = self.expr._ensure_simple(setup, key_parts[0])
                for line in setup + [f"_st = _groups.get({value})"]:
                    self.add(line)
                self.add("if _st is None:")
                self.indent += 1
            key = "(" + ", ".join(key_parts) + ("," if len(key_parts) == 1 else "") + ")"
            self.add(f"_key = {key}")
            self.add("_st = _states.get(_key)")
            self.add("if _st is None:")
            self.add("    _st = [_agg_create[_i]() for _i in range(_nagg)]")
            self.add("    _states[_key] = _st")
            if by_value:
                self.add(f"_groups[{value}] = _st")
                self.indent -= 1
            for i, call in enumerate(aggregate.aggregates):
                lines: list[str] = []
                value = "1"
                if call.argument is not None:
                    lines, value = self.expr.gen(call.argument, row_var)
                step = _INLINE_ACCUMULATE.get(type(call.aggregate))
                if step is None:
                    lines.append(f"_st[{i}] = _agg_acc[{i}](_st[{i}], {value})")
                else:
                    value = self.expr._ensure_simple(lines, value)
                    step = step.format(s=f"_st[{i}]", v=value)
                    if self.expr.nullable(value):
                        lines.append(f"if {value} is not None:")
                        step = "    " + step
                    lines.append(step)
                for line in lines:
                    self.add(line)

        header = [
            "_groups = {}",
            "_states = _env['_states']",
            "_agg_create = _env['_agg_create']",
            "_agg_acc = _env['_agg_acc']",
            f"_nagg = {len(aggregate.aggregates)}",
        ]
        return self._finish(node, consume, header, whole_rows=False)

    def _finish(
        self,
        node: PhysicalNode,
        consume: Callable[[str], None],
        header_extra: list[str],
        whole_rows: bool,
    ) -> str:
        self._whole_rows = _takes_whole_rows(node, whole_rows)
        self._emit(node, consume)
        body = self.lines
        header = ["def _pipeline(_src, _env):"]
        helper_names = sorted(set(_RUNTIME) | {
            name for name in self.expr.env if name.startswith(("_c", "_fn", "_ty"))
        })
        helper_names += [f"_ht{k}" for k in range(len(self.joins))]
        binds = [
            f"    {name} = _env[{name!r}]" for name in helper_names
        ]
        return "\n".join(header + binds
                         + ["    " + h for h in header_extra] + body)

    # ---- produce/consume recursion -----------------------------------------------

    def _emit(self, node: PhysicalNode, consume: Callable[[str], None]) -> None:
        if isinstance(node, PhysicalScan):
            self.scan = node
            self.add("for _blk in _src:")
            self.indent += 1
            loop_at = len(self.lines)
            row = self.expr.fresh("_row") if self._whole_rows else _COLUMNS
            # A column loop is rewritten once the body has named its columns.
            self.add(f"for {row} in _block_rows(_blk):")
            self.indent += 1
            for conjunct in node.filters:
                lines, code = self.expr.gen_predicate(conjunct, row)
                for line in lines:
                    self.add(line)
                self.add(f"if not {code}:")
                self.add("    continue")
            consume(row)
            self.indent -= 1
            if row == _COLUMNS:
                self.lines[loop_at : loop_at + 1] = self._column_loop(node)
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
        k = len(self.joins)
        self.joins.append(node)
        build_right = node.build_right
        build_child, _, probe_child, probe_keys = join_sides(node)
        null_width = len(build_child.output)
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

    def _column_loop(self, scan: PhysicalScan) -> list[str]:
        """A block's row loop over the scan columns the body reads: one
        vector iterated directly, several zipped, none a count. A dead
        column it reads is the constant NULL, as in a row scan."""
        pad = "    " * self.indent
        used = sorted(self.expr.columns)
        dead = [i for i, name in enumerate(scan_column_names(scan)) if name is None]
        live = [i for i in used if i not in dead]
        vectors = ", ".join(f"_blk.columns[{i}]" for i in live)
        if len(live) > 1:
            vectors = f"zip({vectors})"
        names = ", ".join(f"{_COLUMNS}{i}" for i in live) or "_"
        loop = f"for {names} in {vectors or 'range(_blk.count)'}:"
        nulls = [f"{pad}{_COLUMNS}{i} = None" for i in used if i in dead]
        return nulls + [pad + loop]


def _takes_whole_rows(node: PhysicalNode, whole: bool) -> bool:
    """Whether a pipeline's scan row reaches a consumer that takes it
    whole (the collect, per *whole*, or a join probe), not column-wise."""
    if isinstance(node, PhysicalFilter):
        return _takes_whole_rows(node.child, whole)
    if isinstance(node, PhysicalProject):
        return _takes_whole_rows(node.child, False)
    if isinstance(node, PhysicalHashJoin):
        return _takes_whole_rows(join_sides(node)[2], True)
    return whole


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
            if node.kind is ast.JoinKind.FULL or probe_moves(node):
                return False
            return self._pipeline_ok(join_sides(node)[2])
        return False

    # ---- compiled pipelines ------------------------------------------------

    def _prepare_pipeline(
        self, node: PhysicalNode, aggregate: PhysicalAggregate | None = None
    ) -> tuple[Callable, list[dict], list]:
        """Emit the pipeline's source and bind its code, which the
        cluster's code cache serves when the same source ran before; then
        build its joins' hash tables and read its scan. Returns the
        function, each slice's environment and each slice's batches."""
        start = time.perf_counter()
        compiler = _PipelineCompiler()
        if aggregate is None:
            mode, source = "collect", compiler.collect_source(node)
        else:
            governed = self._spill_state() is not None
            mode, source = "aggregate", compiler.aggregate_source(node, aggregate, governed)
        code, hit = self._ctx.segment_cache.compile(source, mode)
        if hit:
            self._ctx.stats.segment_cache_hits += 1
        else:
            self._ctx.stats.segment_cache_misses += 1
        namespace: dict = {}
        exec(code, namespace)  # noqa: S102
        self._ctx.stats.compile_seconds += time.perf_counter() - start
        env = compiler.expr.env
        if aggregate is not None:
            aggregates = [call.aggregate for call in aggregate.aggregates]
            env["_agg_create"] = [agg.create for agg in aggregates]
            env["_agg_acc"] = [agg.accumulate for agg in aggregates]
        tables = self._build_join_tables(compiler.joins)
        envs = [
            dict(env, **{f"_ht{k}": table[s] for k, table in enumerate(tables)})
            for s in range(self._ctx.slice_count)
        ]
        # Every replica of a replicated scan is read, as in every engine;
        # the scan probes joins[-1] (codegen appends outer joins first).
        batches = self._batch_slices(compiler.scan, encoded=False)
        if compiler.joins:
            batches = self._move_join_input(compiler.joins[-1], batches, build=False)
        return namespace["_pipeline"], envs, batches

    def _build_join_tables(self, joins: list[PhysicalHashJoin]) -> list[list[dict]]:
        """Materialize, move and hash every fused join's build side.
        Build sides run like any subtree (compiled themselves when they
        hold fusable pipelines) and move through :meth:`_move_join_input`."""
        per_join_tables: list[list[dict]] = []
        for join in joins:
            build_node, keys, _, _ = join_sides(join)
            build = self._materialize(build_node, self._run(build_node))
            build = self._move_join_input(join, build, build=True)
            tables: list[dict] = []
            for s, rows in enumerate(build):
                table, spill_table = self._build_hash_table(join, rows, keys, s)
                if spill_table is not None:
                    spill_table.done()
                tables.append(table)
            per_join_tables.append(tables)
        return per_join_tables

    def _run_compiled_pipeline(self, node: PhysicalNode) -> list:
        fn, envs, batches = self._prepare_pipeline(node)
        out: list = []
        for env, slice_batches in zip(envs, batches):
            env["_out"] = slice_out = []
            fn(slice_batches, env)
            out.append(slice_out)
        return out

    def _run_compiled_aggregate(self, node: PhysicalAggregate) -> list:
        fn, envs, batches = self._prepare_pipeline(node.child, node)
        aggregates = [call.aggregate for call in node.aggregates]
        # When the aggregate input is replicated (child 'all'), one slice's
        # copy carries every row; running the others would multiply counts.
        child_all = node.child.partitioning.kind == "all"
        partials: list[dict] = []
        for s, env in enumerate(envs):
            if child_all and s > 0:
                partials.append({})
                continue
            # A SpillableAggregateStates when governed: the generated
            # code only uses _states.get / _states[_key] = _st, so a
            # flushed key simply opens a fresh generation.
            env["_states"] = states = self._agg_states(node, s, aggregates)
            fn(batches[s], env)
            partials.append(self._finish_agg_states(node, s, states))
        return self._merge_partials(node, partials, aggregates)
