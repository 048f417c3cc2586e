"""Abstract syntax tree for the supported SQL dialect.

Nodes are plain frozen-ish dataclasses with no behaviour beyond rendering;
semantic analysis happens in :mod:`repro.plan.binder`. Every node knows how
to render itself back to SQL (``to_sql``), which the tests use for
parse/render round-trips.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence


class Node:
    """Base class for AST nodes."""

    def to_sql(self) -> str:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expression(Node):
    pass


@dataclass
class Literal(Expression):
    """A constant: number, string, boolean, NULL, or typed (DATE '...')."""

    value: object
    type_name: str | None = None  # for DATE '...' / TIMESTAMP '...' literals
    #: Index of the NUMBER or STRING token the parser built it from: the
    #: slot a template's next text fills (repro.sql.parser).
    param: int | None = field(default=None, compare=False, repr=False)

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            prefix = f"{self.type_name.upper()} " if self.type_name else ""
            return f"{prefix}'{escaped}'"
        return str(self.value)


@dataclass
class ColumnRef(Expression):
    """A possibly qualified column reference (``t.col`` or ``col``)."""

    name: str
    table: str | None = None

    def to_sql(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass
class BoundRef(Expression):
    """A resolved input-column reference produced by the binder.

    ``index`` addresses the flattened input row of the operator the
    expression runs in; ``sql_type``/``name`` carry schema information
    forward. Never produced by the parser.
    """

    index: int
    sql_type: object = None  # SqlType; typed loosely to avoid an import cycle
    name: str = ""

    def to_sql(self) -> str:
        # Index-qualified so structural comparison of bound expressions via
        # to_sql() is exact even when column names repeat across relations.
        return f"${self.index}:{self.name}" if self.name else f"${self.index}"


@dataclass
class Star(Expression):
    """``*`` or ``t.*`` in a select list or COUNT(*)."""

    table: str | None = None

    def to_sql(self) -> str:
        return f"{self.table}.*" if self.table else "*"


@dataclass
class BinaryOp(Expression):
    """Infix operator application."""

    op: str
    left: Expression
    right: Expression

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


@dataclass
class UnaryOp(Expression):
    """Prefix operator: ``-x`` or ``NOT x``."""

    op: str
    operand: Expression

    def to_sql(self) -> str:
        return f"({self.op} {self.operand.to_sql()})"


@dataclass
class FunctionCall(Expression):
    """Function or aggregate invocation.

    ``approximate`` marks Redshift's APPROXIMATE COUNT(DISTINCT x).
    """

    name: str
    args: list[Expression] = field(default_factory=list)
    distinct: bool = False
    approximate: bool = False

    def to_sql(self) -> str:
        inner = ", ".join(a.to_sql() for a in self.args)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        prefix = "APPROXIMATE " if self.approximate else ""
        return f"{prefix}{self.name.upper()}({inner})"


@dataclass
class CastExpr(Expression):
    """``CAST(x AS type)`` or ``x::type``."""

    operand: Expression
    type_name: str
    type_params: tuple[int, ...] = ()

    def to_sql(self) -> str:
        params = (
            "(" + ", ".join(str(p) for p in self.type_params) + ")"
            if self.type_params
            else ""
        )
        return f"CAST({self.operand.to_sql()} AS {self.type_name}{params})"


@dataclass
class CaseExpr(Expression):
    """Searched CASE: WHEN cond THEN value ... [ELSE default] END."""

    whens: list[tuple[Expression, Expression]]
    default: Expression | None = None

    def to_sql(self) -> str:
        parts = ["CASE"]
        for cond, value in self.whens:
            parts.append(f"WHEN {cond.to_sql()} THEN {value.to_sql()}")
        if self.default is not None:
            parts.append(f"ELSE {self.default.to_sql()}")
        parts.append("END")
        return " ".join(parts)


@dataclass
class ScalarSubquery(Expression):
    """``(SELECT ...)`` used as a scalar value.

    Only uncorrelated subqueries are supported; the session pre-executes
    them and substitutes the resulting literal before planning.
    """

    query: "SelectQuery | SetOperation"

    def to_sql(self) -> str:
        return f"({self.query.to_sql()})"


@dataclass
class InExpr(Expression):
    """``x [NOT] IN (v1, v2, ...)`` or ``x [NOT] IN (SELECT ...)``.

    ``subquery`` and ``items`` are mutually exclusive; the session expands
    an uncorrelated subquery into literal items before planning.
    """

    operand: Expression
    items: list[Expression]
    negated: bool = False
    subquery: "SelectQuery | SetOperation | None" = None

    def to_sql(self) -> str:
        op = "NOT IN" if self.negated else "IN"
        if self.subquery is not None:
            return f"({self.operand.to_sql()} {op} ({self.subquery.to_sql()}))"
        items = ", ".join(i.to_sql() for i in self.items)
        return f"({self.operand.to_sql()} {op} ({items}))"


@dataclass
class BetweenExpr(Expression):
    """``x [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def to_sql(self) -> str:
        op = "NOT BETWEEN" if self.negated else "BETWEEN"
        return (
            f"({self.operand.to_sql()} {op} "
            f"{self.low.to_sql()} AND {self.high.to_sql()})"
        )


@dataclass
class IsNullExpr(Expression):
    """``x IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def to_sql(self) -> str:
        op = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_sql()} {op})"


@dataclass
class LikeExpr(Expression):
    """``x [NOT] LIKE pattern`` (and case-insensitive ILIKE)."""

    operand: Expression
    pattern: Expression
    negated: bool = False
    case_insensitive: bool = False

    def to_sql(self) -> str:
        op = "ILIKE" if self.case_insensitive else "LIKE"
        if self.negated:
            op = f"NOT {op}"
        return f"({self.operand.to_sql()} {op} {self.pattern.to_sql()})"


# ---------------------------------------------------------------------------
# SELECT structure
# ---------------------------------------------------------------------------

@dataclass
class SelectItem(Node):
    """One select-list entry: expression plus optional alias."""

    expression: Expression
    alias: str | None = None

    def to_sql(self) -> str:
        if self.alias:
            return f"{self.expression.to_sql()} AS {self.alias}"
        return self.expression.to_sql()


class JoinKind(enum.Enum):
    INNER = "INNER"
    LEFT = "LEFT"
    RIGHT = "RIGHT"
    FULL = "FULL"
    CROSS = "CROSS"


class FromItem(Node):
    """Base for things that can appear in FROM."""

    alias: str | None


@dataclass
class TableRef(FromItem):
    """A named table, optionally aliased."""

    name: str
    alias: str | None = None

    def to_sql(self) -> str:
        return f"{self.name} AS {self.alias}" if self.alias else self.name

    @property
    def binding_name(self) -> str:
        return self.alias or self.name


@dataclass
class SubqueryRef(FromItem):
    """A derived table: ``(SELECT ...) AS alias``."""

    query: "SelectQuery"
    alias: str

    def to_sql(self) -> str:
        return f"({self.query.to_sql()}) AS {self.alias}"

    @property
    def binding_name(self) -> str:
        return self.alias


@dataclass
class Join(FromItem):
    """A join tree node."""

    kind: JoinKind
    left: FromItem
    right: FromItem
    condition: Expression | None = None  # None only for CROSS
    alias: str | None = None

    def to_sql(self) -> str:
        if self.kind is JoinKind.CROSS:
            return f"{self.left.to_sql()} CROSS JOIN {self.right.to_sql()}"
        return (
            f"{self.left.to_sql()} {self.kind.value} JOIN "
            f"{self.right.to_sql()} ON {self.condition.to_sql()}"
        )


@dataclass
class OrderItem(Node):
    """One ORDER BY entry."""

    expression: Expression
    descending: bool = False

    def to_sql(self) -> str:
        return f"{self.expression.to_sql()}{' DESC' if self.descending else ''}"


@dataclass
class CommonTableExpr(Node):
    """One WITH entry: name AS (query)."""

    name: str
    query: "SelectQuery"

    def to_sql(self) -> str:
        return f"{self.name} AS ({self.query.to_sql()})"


@dataclass
class SelectQuery(Node):
    """A full query expression (one WITH/SELECT block)."""

    items: list[SelectItem]
    from_item: FromItem | None = None
    where: Expression | None = None
    group_by: list[Expression] = field(default_factory=list)
    having: Expression | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False
    ctes: list[CommonTableExpr] = field(default_factory=list)

    def to_sql(self) -> str:
        parts: list[str] = []
        if self.ctes:
            parts.append(
                "WITH " + ", ".join(cte.to_sql() for cte in self.ctes)
            )
        sel = "SELECT DISTINCT" if self.distinct else "SELECT"
        parts.append(f"{sel} " + ", ".join(i.to_sql() for i in self.items))
        if self.from_item is not None:
            parts.append(f"FROM {self.from_item.to_sql()}")
        if self.where is not None:
            parts.append(f"WHERE {self.where.to_sql()}")
        if self.group_by:
            parts.append(
                "GROUP BY " + ", ".join(g.to_sql() for g in self.group_by)
            )
        if self.having is not None:
            parts.append(f"HAVING {self.having.to_sql()}")
        if self.order_by:
            parts.append(
                "ORDER BY " + ", ".join(o.to_sql() for o in self.order_by)
            )
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        if self.offset is not None:
            parts.append(f"OFFSET {self.offset}")
        return " ".join(parts)


@dataclass
class SetOperation(Node):
    """UNION / INTERSECT / EXCEPT over two query expressions.

    ``all`` keeps duplicates (UNION ALL); INTERSECT/EXCEPT follow
    PostgreSQL's default DISTINCT semantics when ``all`` is False.
    ORDER BY / LIMIT apply to the combined result.
    """

    op: str  # "union" | "intersect" | "except"
    all: bool
    left: "SelectQuery | SetOperation"
    right: "SelectQuery | SetOperation"
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    offset: int | None = None

    def to_sql(self) -> str:
        keyword = self.op.upper() + (" ALL" if self.all else "")
        out = f"{self.left.to_sql()} {keyword} {self.right.to_sql()}"
        if self.order_by:
            out += " ORDER BY " + ", ".join(o.to_sql() for o in self.order_by)
        if self.limit is not None:
            out += f" LIMIT {self.limit}"
        if self.offset is not None:
            out += f" OFFSET {self.offset}"
        return out


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Statement(Node):
    pass


@dataclass
class SelectStatement(Statement):
    query: SelectQuery

    def to_sql(self) -> str:
        return self.query.to_sql()


@dataclass
class ColumnDef(Node):
    """One column in CREATE TABLE."""

    name: str
    type_name: str
    type_params: tuple[int, ...] = ()
    encode: str | None = None
    not_null: bool = False

    def to_sql(self) -> str:
        params = (
            "(" + ", ".join(str(p) for p in self.type_params) + ")"
            if self.type_params
            else ""
        )
        out = f"{self.name} {self.type_name}{params}"
        if self.not_null:
            out += " NOT NULL"
        if self.encode:
            out += f" ENCODE {self.encode}"
        return out


@dataclass
class CreateTableStatement(Statement):
    name: str
    columns: list[ColumnDef]
    diststyle: str = "even"  # even | key | all
    distkey: str | None = None
    sortkey: list[str] = field(default_factory=list)
    sortkey_interleaved: bool = False
    if_not_exists: bool = False

    def to_sql(self) -> str:
        cols = ", ".join(c.to_sql() for c in self.columns)
        out = "CREATE TABLE "
        if self.if_not_exists:
            out += "IF NOT EXISTS "
        out += f"{self.name} ({cols})"
        if self.diststyle == "key":
            out += f" DISTSTYLE KEY DISTKEY({self.distkey})"
        elif self.diststyle != "even":
            out += f" DISTSTYLE {self.diststyle.upper()}"
        if self.sortkey:
            prefix = "INTERLEAVED " if self.sortkey_interleaved else ""
            out += f" {prefix}SORTKEY({', '.join(self.sortkey)})"
        return out


@dataclass
class CreateTableAsStatement(Statement):
    """CTAS: CREATE TABLE name [DISTSTYLE...] AS select."""

    name: str
    query: SelectQuery
    diststyle: str = "even"
    distkey: str | None = None
    sortkey: list[str] = field(default_factory=list)

    def to_sql(self) -> str:
        out = f"CREATE TABLE {self.name}"
        if self.diststyle == "key":
            out += f" DISTSTYLE KEY DISTKEY({self.distkey})"
        elif self.diststyle != "even":
            out += f" DISTSTYLE {self.diststyle.upper()}"
        if self.sortkey:
            out += f" SORTKEY({', '.join(self.sortkey)})"
        return f"{out} AS {self.query.to_sql()}"


@dataclass
class DropTableStatement(Statement):
    name: str
    if_exists: bool = False

    def to_sql(self) -> str:
        mid = "IF EXISTS " if self.if_exists else ""
        return f"DROP TABLE {mid}{self.name}"


@dataclass
class InsertStatement(Statement):
    """INSERT INTO t [(cols)] VALUES (...), ... or INSERT INTO t SELECT ..."""

    table: str
    columns: list[str] = field(default_factory=list)
    rows: list[list[Expression]] = field(default_factory=list)
    query: SelectQuery | None = None

    def to_sql(self) -> str:
        cols = f" ({', '.join(self.columns)})" if self.columns else ""
        if self.query is not None:
            return f"INSERT INTO {self.table}{cols} {self.query.to_sql()}"
        rows = ", ".join(
            "(" + ", ".join(v.to_sql() for v in row) + ")" for row in self.rows
        )
        return f"INSERT INTO {self.table}{cols} VALUES {rows}"


@dataclass
class DeleteStatement(Statement):
    table: str
    where: Expression | None = None

    def to_sql(self) -> str:
        out = f"DELETE FROM {self.table}"
        if self.where is not None:
            out += f" WHERE {self.where.to_sql()}"
        return out


@dataclass
class UpdateStatement(Statement):
    table: str
    assignments: list[tuple[str, Expression]] = field(default_factory=list)
    where: Expression | None = None

    def to_sql(self) -> str:
        sets = ", ".join(f"{c} = {e.to_sql()}" for c, e in self.assignments)
        out = f"UPDATE {self.table} SET {sets}"
        if self.where is not None:
            out += f" WHERE {self.where.to_sql()}"
        return out


@dataclass
class CopyStatement(Statement):
    """COPY table FROM 'source' [WITH options].

    Options mirror the Redshift COPY knobs the paper mentions: DELIMITER,
    NULL AS, GZIP, JSON, COMPUPDATE ON/OFF, STATUPDATE ON/OFF.
    """

    table: str
    source: str
    columns: list[str] = field(default_factory=list)
    options: dict[str, object] = field(default_factory=dict)

    def to_sql(self) -> str:
        cols = f" ({', '.join(self.columns)})" if self.columns else ""
        out = f"COPY {self.table}{cols} FROM '{self.source}'"
        for key, value in self.options.items():
            if key in ("compupdate", "statupdate"):
                out += f" {key.upper()} {'ON' if value else 'OFF'}"
            elif value is True:
                out += f" {key.upper()}"
            else:
                out += f" {key.upper()} '{value}'"
        return out


@dataclass
class AnalyzeStatement(Statement):
    """ANALYZE [table] — refresh optimizer statistics.

    ``compression=True`` is ANALYZE COMPRESSION (report codec choices).
    """

    table: str | None = None
    compression: bool = False

    def to_sql(self) -> str:
        out = "ANALYZE"
        if self.compression:
            out += " COMPRESSION"
        if self.table:
            out += f" {self.table}"
        return out


@dataclass
class VacuumStatement(Statement):
    """VACUUM [table] — reclaim deleted rows and restore sort order."""

    table: str | None = None
    reindex: bool = False

    def to_sql(self) -> str:
        out = "VACUUM"
        if self.reindex:
            out += " REINDEX"
        if self.table:
            out += f" {self.table}"
        return out


@dataclass
class ExplainStatement(Statement):
    statement: Statement
    #: EXPLAIN ANALYZE: run the statement and report per-step actuals.
    analyze: bool = False

    def to_sql(self) -> str:
        keyword = "EXPLAIN ANALYZE" if self.analyze else "EXPLAIN"
        return f"{keyword} {self.statement.to_sql()}"


@dataclass
class BeginStatement(Statement):
    def to_sql(self) -> str:
        return "BEGIN"


@dataclass
class CommitStatement(Statement):
    def to_sql(self) -> str:
        return "COMMIT"


@dataclass
class RollbackStatement(Statement):
    def to_sql(self) -> str:
        return "ROLLBACK"


@dataclass
class SetStatement(Statement):
    """``SET name = value`` / ``SET name TO value``: session parameters
    (e.g. ``SET executor = vectorized``)."""

    name: str
    value: str

    def to_sql(self) -> str:
        return f"SET {self.name} = {self.value}"


def walk_expressions(expr: Expression):
    """Yield *expr* and every expression nested inside it, depth first.

    ``BoundRef`` and ``Literal`` are leaves.
    """
    yield expr
    children: Sequence[Expression] = ()
    if isinstance(expr, BinaryOp):
        children = (expr.left, expr.right)
    elif isinstance(expr, UnaryOp):
        children = (expr.operand,)
    elif isinstance(expr, FunctionCall):
        children = tuple(expr.args)
    elif isinstance(expr, CastExpr):
        children = (expr.operand,)
    elif isinstance(expr, CaseExpr):
        children = tuple(
            e for pair in expr.whens for e in pair
        ) + ((expr.default,) if expr.default is not None else ())
    elif isinstance(expr, InExpr):
        children = (expr.operand, *expr.items)
    elif isinstance(expr, BetweenExpr):
        children = (expr.operand, expr.low, expr.high)
    elif isinstance(expr, IsNullExpr):
        children = (expr.operand,)
    elif isinstance(expr, LikeExpr):
        children = (expr.operand, expr.pattern)
    for child in children:
        yield from walk_expressions(child)
