"""Recursive-descent SQL parser.

Grammar follows the PostgreSQL subset Redshift supports (see
:mod:`repro.sql.ast` for the node inventory). Expressions use precedence
climbing: OR < AND < NOT < comparison/predicates < additive < multiplicative
< unary < postfix cast.

:func:`parse_statement` parses once per template (see
:func:`repro.sql.lexer.template`) and hands each later text of that
template a copy of the AST with its own constants.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import ParseError
from repro.sql import ast
from repro.sql.lexer import Token, TokenType, template, tokenize

_COMPARISON_OPS = {"=", "<>", "!=", "<", "<=", ">", ">="}
_ADDITIVE_OPS = {"+", "-", "||"}
_MULTIPLICATIVE_OPS = {"*", "/", "%"}

#: Keywords that are also callable as functions (aggregates).
_KEYWORD_FUNCTIONS = {"count", "sum", "avg", "min", "max", "left", "right"}

#: Identifiers recognised as typed-literal prefixes: DATE '2015-01-01'.
_TYPED_LITERALS = {"date", "timestamp"}

_WORDS = (TokenType.IDENT, TokenType.KEYWORD)

_TRANSACTION_STATEMENTS = {
    "begin": ast.BeginStatement,
    "commit": ast.CommitStatement,
    "rollback": ast.RollbackStatement,
}


class Parser:
    """Parses one or more SQL statements from a token stream."""

    def __init__(self, text: str):
        self._tokens = tokenize(text)
        self._pos = 0

    # ---- token helpers ----------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        idx = min(self._pos + ahead, len(self._tokens) - 1)
        return self._tokens[idx]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _at_keyword(self, *words: str) -> bool:
        token = self._peek()
        return token.type is TokenType.KEYWORD and token.text in words

    def _at_operator(self, *ops: str) -> bool:
        token = self._peek()
        return token.type is TokenType.OPERATOR and token.text in ops

    def _accept_keyword(self, *words: str) -> Token | None:
        if self._at_keyword(*words):
            return self._advance()
        return None

    def _accept_operator(self, *ops: str) -> Token | None:
        if self._at_operator(*ops):
            return self._advance()
        return None

    def _expect_keyword(self, word: str) -> Token:
        token = self._accept_keyword(word)
        if token is None:
            raise ParseError(
                f"expected {word.upper()}, found {self._peek()!r}"
            )
        return token

    def _expect_operator(self, op: str) -> Token:
        token = self._accept_operator(op)
        if token is None:
            raise ParseError(f"expected {op!r}, found {self._peek()!r}")
        return token

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.type is TokenType.IDENT:
            self._advance()
            return token.text
        raise ParseError(f"expected identifier, found {token!r}")

    def _expect_name(self) -> str:
        """Identifier or non-reserved keyword usable as a name."""
        token = self._peek()
        if token.type in _WORDS:
            self._advance()
            return token.text
        raise ParseError(f"expected name, found {token!r}")

    def _expect_integer(self) -> int:
        token = self._peek()
        if token.type is TokenType.NUMBER and "." not in token.text:
            self._advance()
            return int(token.text)
        raise ParseError(f"expected integer, found {token!r}")

    # ---- entry points -------------------------------------------------------

    def parse_statements(self) -> list[ast.Statement]:
        """Parse a semicolon-separated script."""
        statements: list[ast.Statement] = []
        while True:
            while self._accept_operator(";"):
                pass
            if self._peek().type is TokenType.EOF:
                return statements
            statements.append(self.parse_statement())

    def parse_statement(self) -> ast.Statement:
        token = self._peek()
        if token.type is not TokenType.KEYWORD:
            raise ParseError(f"expected a statement, found {token!r}")
        word = token.text
        if word in ("select", "with"):
            return ast.SelectStatement(self._parse_select_query())
        handlers = {
            "create": self._parse_create,
            "drop": self._parse_drop,
            "insert": self._parse_insert,
            "delete": self._parse_delete,
            "update": self._parse_update,
            "copy": self._parse_copy,
            "analyze": self._parse_analyze,
            "vacuum": self._parse_vacuum,
            "explain": self._parse_explain,
            "begin": self._parse_transaction,
            "commit": self._parse_transaction,
            "rollback": self._parse_transaction,
            "set": self._parse_set,
        }
        handler = handlers.get(word)
        if handler is None:
            raise ParseError(f"unsupported statement starting with {word.upper()}")
        return handler()

    # ---- SELECT ---------------------------------------------------------------

    def _parse_select_query(self) -> "ast.SelectQuery | ast.SetOperation":
        """A full query expression: select core, set operations, then
        ORDER BY / LIMIT / OFFSET applying to the combined result."""
        query: ast.SelectQuery | ast.SetOperation = self._parse_select_core()
        while self._at_keyword("union", "intersect", "except"):
            op = self._advance().text
            use_all = bool(self._accept_keyword("all"))
            if not use_all:
                self._accept_keyword("distinct")
            if self._at_operator("("):
                self._advance()
                right: ast.SelectQuery | ast.SetOperation = (
                    self._parse_select_query()
                )
                self._expect_operator(")")
            else:
                right = self._parse_select_core()
            query = ast.SetOperation(op=op, all=use_all, left=query, right=right)

        order_by: list[ast.OrderItem] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by.append(self._parse_order_item())
            while self._accept_operator(","):
                order_by.append(self._parse_order_item())
        limit = None
        if self._accept_keyword("limit"):
            limit = self._expect_integer()
        offset = None
        if self._accept_keyword("offset"):
            offset = self._expect_integer()

        query.order_by = order_by or query.order_by
        if limit is not None:
            query.limit = limit
        if offset is not None:
            query.offset = offset
        return query

    def _parse_select_core(self) -> ast.SelectQuery:
        ctes: list[ast.CommonTableExpr] = []
        if self._accept_keyword("with"):
            while True:
                name = self._expect_ident()
                self._expect_keyword("as")
                self._expect_operator("(")
                query = self._parse_select_query()
                self._expect_operator(")")
                ctes.append(ast.CommonTableExpr(name, query))
                if not self._accept_operator(","):
                    break
        self._expect_keyword("select")
        distinct = False
        if self._accept_keyword("distinct"):
            distinct = True
        else:
            self._accept_keyword("all")

        items = [self._parse_select_item()]
        while self._accept_operator(","):
            items.append(self._parse_select_item())

        from_item: ast.FromItem | None = None
        if self._accept_keyword("from"):
            from_item = self._parse_from()

        where = None
        if self._accept_keyword("where"):
            where = self.parse_expression()

        group_by: list[ast.Expression] = []
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by.append(self.parse_expression())
            while self._accept_operator(","):
                group_by.append(self.parse_expression())

        having = None
        if self._accept_keyword("having"):
            having = self.parse_expression()

        # ORDER BY / LIMIT / OFFSET belong to the full query expression
        # (including any set operations) and are parsed by the caller.
        return ast.SelectQuery(
            items=items,
            from_item=from_item,
            where=where,
            group_by=group_by,
            having=having,
            distinct=distinct,
            ctes=ctes,
        )

    def _parse_select_item(self) -> ast.SelectItem:
        if self._at_operator("*"):
            self._advance()
            return ast.SelectItem(ast.Star())
        expr = self.parse_expression()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_name()
        elif self._peek().type is TokenType.IDENT:
            alias = self._advance().text
        return ast.SelectItem(expr, alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expression()
        descending = False
        if self._accept_keyword("desc"):
            descending = True
        else:
            self._accept_keyword("asc")
        return ast.OrderItem(expr, descending)

    def _parse_from(self) -> ast.FromItem:
        item = self._parse_from_primary()
        while True:
            kind: ast.JoinKind | None = None
            if self._accept_keyword("cross"):
                self._expect_keyword("join")
                kind = ast.JoinKind.CROSS
            elif self._at_keyword("inner", "join"):
                self._accept_keyword("inner")
                self._expect_keyword("join")
                kind = ast.JoinKind.INNER
            elif self._at_keyword("left", "right", "full"):
                # Only a join keyword if followed by [OUTER] JOIN; otherwise
                # it's LEFT(...)/RIGHT(...) the function — not valid here,
                # but be conservative and check.
                side = self._peek().text
                nxt = self._peek(1)
                if nxt.matches_keyword("join") or nxt.matches_keyword("outer"):
                    self._advance()
                    self._accept_keyword("outer")
                    self._expect_keyword("join")
                    kind = ast.JoinKind[side.upper()]
            if kind is None:
                if self._accept_operator(","):
                    right = self._parse_from_primary()
                    item = ast.Join(ast.JoinKind.CROSS, item, right, None)
                    continue
                return item
            right = self._parse_from_primary()
            condition = None
            if kind is not ast.JoinKind.CROSS:
                self._expect_keyword("on")
                condition = self.parse_expression()
            item = ast.Join(kind, item, right, condition)

    def _parse_from_primary(self) -> ast.FromItem:
        if self._accept_operator("("):
            query = self._parse_select_query()
            self._expect_operator(")")
            self._accept_keyword("as")
            alias = self._expect_ident()
            return ast.SubqueryRef(query, alias)
        name = self._expect_ident()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._peek().type is TokenType.IDENT:
            alias = self._advance().text
        return ast.TableRef(name, alias)

    # ---- expressions -----------------------------------------------------------

    def parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self._accept_keyword("or"):
            left = ast.BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self._accept_keyword("and"):
            left = ast.BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expression:
        if self._accept_keyword("not"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expression:
        left = self._parse_additive()
        while True:
            if self._at_operator(*_COMPARISON_OPS):
                op = self._advance().text
                if op == "!=":
                    op = "<>"
                right = self._parse_additive()
                left = ast.BinaryOp(op, left, right)
                continue
            if self._at_keyword("is"):
                self._advance()
                negated = bool(self._accept_keyword("not"))
                self._expect_keyword("null")
                left = ast.IsNullExpr(left, negated)
                continue
            negated = False
            if self._at_keyword("not") and self._peek(1).type is TokenType.KEYWORD \
                    and self._peek(1).text in ("in", "between", "like", "ilike"):
                self._advance()
                negated = True
            if self._accept_keyword("in"):
                self._expect_operator("(")
                if self._at_keyword("select", "with"):
                    subquery = self._parse_select_query()
                    self._expect_operator(")")
                    left = ast.InExpr(left, [], negated, subquery=subquery)
                    continue
                items = [self.parse_expression()]
                while self._accept_operator(","):
                    items.append(self.parse_expression())
                self._expect_operator(")")
                left = ast.InExpr(left, items, negated)
                continue
            if self._accept_keyword("between"):
                low = self._parse_additive()
                self._expect_keyword("and")
                high = self._parse_additive()
                left = ast.BetweenExpr(left, low, high, negated)
                continue
            if self._at_keyword("like", "ilike"):
                ci = self._advance().text == "ilike"
                pattern = self._parse_additive()
                left = ast.LikeExpr(left, pattern, negated, ci)
                continue
            if negated:
                raise ParseError(
                    f"expected IN, BETWEEN or LIKE after NOT, found {self._peek()!r}"
                )
            return left

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while self._at_operator(*_ADDITIVE_OPS):
            op = self._advance().text
            left = ast.BinaryOp(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while self._at_operator(*_MULTIPLICATIVE_OPS):
            op = self._advance().text
            left = ast.BinaryOp(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> ast.Expression:
        if self._accept_operator("-"):
            return ast.UnaryOp("-", self._parse_unary())
        if self._accept_operator("+"):
            return self._parse_unary()
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expression:
        expr = self._parse_primary()
        while self._accept_operator("::"):
            type_name, params = self._parse_type_name()
            expr = ast.CastExpr(expr, type_name, params)
        return expr

    def _parse_type_name(self) -> tuple[str, tuple[int, ...]]:
        name = self._expect_name()
        if name == "double":
            # DOUBLE PRECISION is two words
            if self._peek().type is TokenType.IDENT and self._peek().text == "precision":
                self._advance()
                name = "double precision"
        if name == "character" and self._peek().type is TokenType.IDENT \
                and self._peek().text == "varying":
            self._advance()
            name = "character varying"
        params: tuple[int, ...] = ()
        if self._accept_operator("("):
            values = [self._expect_integer()]
            while self._accept_operator(","):
                values.append(self._expect_integer())
            self._expect_operator(")")
            params = tuple(values)
        return name, params

    def _parse_primary(self) -> ast.Expression:
        token = self._peek()

        if token.type is TokenType.NUMBER or token.type is TokenType.STRING:
            param = self._pos
            self._advance()
            if token.type is TokenType.STRING:
                return ast.Literal(token.text, param=param)
            return ast.Literal(number_value(token.text), param=param)

        if token.matches_keyword("null"):
            self._advance()
            return ast.Literal(None)
        if token.matches_keyword("true"):
            self._advance()
            return ast.Literal(True)
        if token.matches_keyword("false"):
            self._advance()
            return ast.Literal(False)

        if token.matches_keyword("case"):
            return self._parse_case()

        if token.matches_keyword("cast"):
            self._advance()
            self._expect_operator("(")
            operand = self.parse_expression()
            self._expect_keyword("as")
            type_name, params = self._parse_type_name()
            self._expect_operator(")")
            return ast.CastExpr(operand, type_name, params)

        if token.matches_keyword("approximate"):
            self._advance()
            call = self._parse_primary()
            if not isinstance(call, ast.FunctionCall):
                raise ParseError("APPROXIMATE must precede a function call")
            call.approximate = True
            return call

        if token.type is TokenType.KEYWORD and token.text in _KEYWORD_FUNCTIONS:
            if self._peek(1).type is TokenType.OPERATOR and self._peek(1).text == "(":
                self._advance()
                return self._parse_call(token.text)

        if self._accept_operator("("):
            if self._at_keyword("select", "with"):
                query = self._parse_select_query()
                self._expect_operator(")")
                return ast.ScalarSubquery(query)
            expr = self.parse_expression()
            self._expect_operator(")")
            return expr

        if token.type is TokenType.IDENT:
            # Typed literal: DATE '2015-01-01'
            if token.text in _TYPED_LITERALS and self._peek(1).type is TokenType.STRING:
                self._advance()
                param = self._pos
                value = self._advance().text
                return ast.Literal(value, type_name=token.text, param=param)
            self._advance()
            # Function call?
            if self._at_operator("(") :
                return self._parse_call(token.text)
            # Qualified reference: t.col or t.*
            if self._at_operator("."):
                self._advance()
                if self._accept_operator("*"):
                    return ast.Star(table=token.text)
                column = self._expect_name()
                return ast.ColumnRef(column, table=token.text)
            return ast.ColumnRef(token.text)

        raise ParseError(f"unexpected token {token!r} in expression")

    def _parse_call(self, name: str) -> ast.Expression:
        self._expect_operator("(")
        distinct = bool(self._accept_keyword("distinct"))
        args: list[ast.Expression] = []
        if self._accept_operator("*"):
            args.append(ast.Star())
        elif not self._at_operator(")"):
            args.append(self.parse_expression())
            while self._accept_operator(","):
                args.append(self.parse_expression())
        self._expect_operator(")")
        return ast.FunctionCall(name.lower(), args, distinct=distinct)

    def _parse_case(self) -> ast.Expression:
        self._expect_keyword("case")
        whens: list[tuple[ast.Expression, ast.Expression]] = []
        # Simple CASE (CASE expr WHEN v THEN ...) is desugared to searched.
        subject: ast.Expression | None = None
        if not self._at_keyword("when"):
            subject = self.parse_expression()
        while self._accept_keyword("when"):
            cond = self.parse_expression()
            if subject is not None:
                cond = ast.BinaryOp("=", subject, cond)
            self._expect_keyword("then")
            value = self.parse_expression()
            whens.append((cond, value))
        if not whens:
            raise ParseError("CASE requires at least one WHEN branch")
        default = None
        if self._accept_keyword("else"):
            default = self.parse_expression()
        self._expect_keyword("end")
        return ast.CaseExpr(whens, default)

    # ---- DDL / DML ------------------------------------------------------------

    def _parse_create(self) -> ast.Statement:
        self._expect_keyword("create")
        self._expect_keyword("table")
        if_not_exists = False
        if self._accept_keyword("if"):
            self._expect_keyword("not")
            self._expect_keyword("exists")
            if_not_exists = True
        name = self._expect_ident()

        if self._at_operator("("):
            return self._parse_create_columns(name, if_not_exists)
        return self._parse_ctas(name)

    def _parse_create_columns(
        self, name: str, if_not_exists: bool
    ) -> ast.CreateTableStatement:
        self._expect_operator("(")
        columns: list[ast.ColumnDef] = []
        while True:
            columns.append(self._parse_column_def())
            if not self._accept_operator(","):
                break
        self._expect_operator(")")
        diststyle, distkey, sortkey, interleaved = self._parse_table_attrs()
        return ast.CreateTableStatement(
            name=name,
            columns=columns,
            diststyle=diststyle,
            distkey=distkey,
            sortkey=sortkey,
            sortkey_interleaved=interleaved,
            if_not_exists=if_not_exists,
        )

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self._expect_ident()
        type_name, params = self._parse_type_name()
        encode = None
        not_null = False
        while True:
            if self._accept_keyword("encode"):
                encode = self._expect_name()
            elif self._at_keyword("not") and self._peek(1).matches_keyword("null"):
                self._advance()
                self._advance()
                not_null = True
            elif self._accept_keyword("null"):
                pass  # explicit NULLable, the default
            elif self._at_keyword("primary", "unique", "references"):
                # Accept and ignore constraint syntax: Redshift treats these
                # as planner hints, not enforced constraints.
                self._skip_constraint()
            else:
                break
        return ast.ColumnDef(name, type_name, params, encode, not_null)

    def _skip_constraint(self) -> None:
        if self._accept_keyword("primary"):
            self._expect_keyword("key")
        elif self._accept_keyword("unique"):
            pass
        elif self._accept_keyword("references"):
            self._expect_ident()
            if self._accept_operator("("):
                self._expect_name()
                self._expect_operator(")")

    def _parse_table_attrs(
        self,
    ) -> tuple[str, str | None, list[str], bool]:
        diststyle = "even"
        distkey: str | None = None
        sortkey: list[str] = []
        interleaved = False
        while True:
            if self._accept_keyword("diststyle"):
                token = self._peek()
                if token.matches_keyword("all"):
                    self._advance()
                    diststyle = "all"
                elif token.matches_keyword("key"):
                    self._advance()
                    diststyle = "key"
                elif token.type is TokenType.IDENT and token.text == "even":
                    self._advance()
                    diststyle = "even"
                else:
                    raise ParseError(
                        f"expected EVEN, KEY or ALL after DISTSTYLE, found {token!r}"
                    )
            elif self._accept_keyword("distkey"):
                self._expect_operator("(")
                distkey = self._expect_ident()
                self._expect_operator(")")
                diststyle = "key"
            elif self._at_keyword("interleaved"):
                self._advance()
                interleaved = True
                self._expect_keyword("sortkey")
                sortkey = self._parse_name_list()
            elif self._accept_keyword("sortkey"):
                sortkey = self._parse_name_list()
            else:
                break
        return diststyle, distkey, sortkey, interleaved

    def _parse_name_list(self) -> list[str]:
        self._expect_operator("(")
        names = [self._expect_ident()]
        while self._accept_operator(","):
            names.append(self._expect_ident())
        self._expect_operator(")")
        return names

    def _parse_ctas(self, name: str) -> ast.CreateTableAsStatement:
        diststyle, distkey, sortkey, _ = self._parse_table_attrs()
        self._expect_keyword("as")
        query = self._parse_select_query()
        return ast.CreateTableAsStatement(
            name=name,
            query=query,
            diststyle=diststyle,
            distkey=distkey,
            sortkey=sortkey,
        )

    def _parse_drop(self) -> ast.DropTableStatement:
        self._expect_keyword("drop")
        self._expect_keyword("table")
        if_exists = False
        if self._accept_keyword("if"):
            self._expect_keyword("exists")
            if_exists = True
        return ast.DropTableStatement(self._expect_ident(), if_exists)

    def _parse_insert(self) -> ast.InsertStatement:
        self._expect_keyword("insert")
        self._expect_keyword("into")
        table = self._expect_ident()
        columns: list[str] = []
        if self._at_operator("("):
            columns = self._parse_name_list()
        if self._accept_keyword("values"):
            rows: list[list[ast.Expression]] = []
            while True:
                self._expect_operator("(")
                row = [self.parse_expression()]
                while self._accept_operator(","):
                    row.append(self.parse_expression())
                self._expect_operator(")")
                rows.append(row)
                if not self._accept_operator(","):
                    break
            return ast.InsertStatement(table, columns, rows=rows)
        query = self._parse_select_query()
        return ast.InsertStatement(table, columns, query=query)

    def _parse_delete(self) -> ast.DeleteStatement:
        self._expect_keyword("delete")
        self._expect_keyword("from")
        table = self._expect_ident()
        where = None
        if self._accept_keyword("where"):
            where = self.parse_expression()
        return ast.DeleteStatement(table, where)

    def _parse_update(self) -> ast.UpdateStatement:
        self._expect_keyword("update")
        table = self._expect_ident()
        self._expect_keyword("set")
        assignments: list[tuple[str, ast.Expression]] = []
        while True:
            column = self._expect_ident()
            self._expect_operator("=")
            assignments.append((column, self.parse_expression()))
            if not self._accept_operator(","):
                break
        where = None
        if self._accept_keyword("where"):
            where = self.parse_expression()
        return ast.UpdateStatement(table, assignments, where)

    def _parse_copy(self) -> ast.CopyStatement:
        self._expect_keyword("copy")
        table = self._expect_ident()
        columns: list[str] = []
        if self._at_operator("("):
            columns = self._parse_name_list()
        self._expect_keyword("from")
        source_token = self._peek()
        if source_token.type is not TokenType.STRING:
            raise ParseError(
                f"COPY source must be a quoted string, found {source_token!r}"
            )
        self._advance()
        options: dict[str, object] = {}
        while True:
            token = self._peek()
            if token.type not in _WORDS:
                break
            if token.text in ("null",):
                self._advance()
                self._accept_keyword("as")
                options["null"] = self._expect_string()
            elif token.text in ("delimiter", "region", "format", "credentials"):
                self._advance()
                self._accept_keyword("as")
                options[token.text] = self._expect_string()
            elif token.text in ("gzip", "json", "encrypted", "ssh"):
                self._advance()
                options[token.text] = True
            elif token.text in ("compupdate", "statupdate"):
                self._advance()
                options[token.text] = self._parse_on_off()
            else:
                break
        return ast.CopyStatement(table, source_token.text, columns, options)

    def _expect_string(self) -> str:
        token = self._peek()
        if token.type is not TokenType.STRING:
            raise ParseError(f"expected string literal, found {token!r}")
        self._advance()
        return token.text

    def _parse_on_off(self) -> bool:
        token = self._peek()
        if token.type in _WORDS and token.text in ("on", "off", "true", "false"):
            self._advance()
            return token.text in ("on", "true")
        raise ParseError(f"expected ON or OFF, found {token!r}")

    def _parse_analyze(self) -> ast.AnalyzeStatement:
        self._expect_keyword("analyze")
        compression = bool(self._accept_keyword("compression"))
        table = None
        if self._peek().type is TokenType.IDENT:
            table = self._advance().text
        return ast.AnalyzeStatement(table, compression)

    def _parse_vacuum(self) -> ast.VacuumStatement:
        self._expect_keyword("vacuum")
        reindex = bool(self._accept_keyword("reindex"))
        table = None
        if self._peek().type is TokenType.IDENT:
            table = self._advance().text
        return ast.VacuumStatement(table, reindex)

    def _parse_explain(self) -> ast.ExplainStatement:
        self._expect_keyword("explain")
        analyze = bool(self._accept_keyword("analyze"))
        return ast.ExplainStatement(self.parse_statement(), analyze=analyze)

    def _parse_transaction(self) -> ast.Statement:
        """BEGIN / COMMIT / ROLLBACK [TRANSACTION | WORK]."""
        word = self._advance().text
        self._accept_keyword("transaction", "work")
        return _TRANSACTION_STATEMENTS[word]()

    def _parse_set(self) -> ast.SetStatement:
        """``SET <name> = <value>`` / ``SET <name> TO <value>``."""
        self._expect_keyword("set")
        name = self._expect_name()
        if not self._accept_operator("="):
            token = self._peek()
            if token.type not in _WORDS or token.text.lower() != "to":
                raise ParseError(f"expected = or TO, found {token!r}")
            self._advance()
        token = self._peek()
        if token.type in _WORDS or token.type in (TokenType.STRING, TokenType.NUMBER):
            self._advance()
            return ast.SetStatement(name=name, value=token.text)
        raise ParseError(f"expected a value, found {token!r}")

    def expect_eof(self) -> None:
        self._accept_operator(";")
        token = self._peek()
        if token.type is not TokenType.EOF:
            raise ParseError(f"unexpected trailing input: {token!r}")


def number_value(text: str) -> int | float:
    """A NUMBER token's value: a float if it has a point or an exponent."""
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)


#: Templates :func:`parse_statement` keeps, least recently used out first.
#: An entry is a pure function of the text, so nothing invalidates it.
TEMPLATE_CACHE_CAPACITY = 512
_templates: OrderedDict[str, tuple[tuple, ast.Statement]] = OrderedDict()
_templates_lock = threading.Lock()


def parse_statement(text: str) -> ast.Statement:
    """Parse exactly one statement (trailing semicolon allowed).

    A text whose template was parsed before gets a copy of that AST with
    its own constants in the literal slots. A constant that became no
    Literal of its own (LIMIT, a type length, a COPY source) is *pinned*:
    a text with another value there parses cold. Only successful parses
    are kept; ``Parser(text).parse_statement()`` is the uncached reference.
    """
    key, constants = template(text)
    with _templates_lock:
        entry = _templates.get(key)
        if entry is not None:
            _templates.move_to_end(key)
    if entry is not None:
        pinned, cached = entry
        if all(constants[i] == value for i, value in pinned):
            return _copy(cached, constants, {})
    parser = Parser(text)
    statement = parser.parse_statement()
    parser.expect_eof()
    copies: dict[int, object] = {}
    cached = _copy(statement, constants, copies)
    slots = {node.param for node in copies.values() if type(node) is ast.Literal}
    pinned = tuple((i, v) for i, v in constants.items() if i not in slots)
    with _templates_lock:
        _templates[key] = (pinned, cached)
        if len(_templates) > TEMPLATE_CACHE_CAPACITY:
            _templates.popitem(last=False)
    return statement


_ATOMS = frozenset({str, int, float, bool, type(None)})


def _copy(value, constants: dict[int, str], copies: dict[int, object]):
    """A structural copy of an AST value whose literal slots read
    *constants*. *copies* maps each copied node's id to its copy, so a
    node the tree shares (a simple CASE's subject) stays shared."""
    kind = type(value)
    if kind in _ATOMS:
        return value
    if kind is list:
        return [_copy(item, constants, copies) for item in value]
    if kind is tuple:
        return tuple([_copy(item, constants, copies) for item in value])
    if kind is dict:
        return {k: _copy(item, constants, copies) for k, item in value.items()}
    if not isinstance(value, ast.Node):
        return value  # an enum member
    copied = copies.get(id(value))
    if copied is None:
        copied = copies[id(value)] = object.__new__(kind)
        fields = copied.__dict__
        for name, item in value.__dict__.items():
            fields[name] = (
                item if type(item) in _ATOMS else _copy(item, constants, copies)
            )
        if kind is ast.Literal and value.param is not None:
            text = constants[value.param]
            fields["value"] = text if type(value.value) is str else number_value(text)
    return copied


def parse_statements(text: str) -> list[ast.Statement]:
    """Parse a semicolon-separated script into a statement list."""
    return Parser(text).parse_statements()


def parse_expression(text: str) -> ast.Expression:
    """Parse a standalone expression (used by tests and the REPL helper)."""
    parser = Parser(text)
    expr = parser.parse_expression()
    parser.expect_eof()
    return expr
