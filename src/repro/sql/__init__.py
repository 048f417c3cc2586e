"""SQL front end: lexer, parser, AST, expression semantics, functions.

The engine speaks the PostgreSQL-flavoured subset Redshift documents:
SELECT with joins/CTEs/grouping/ordering, INSERT, UPDATE, DELETE,
CREATE TABLE (with DISTSTYLE/DISTKEY/SORTKEY/ENCODE), CTAS, DROP, COPY,
ANALYZE, VACUUM, EXPLAIN and transaction control.
"""

from repro.sql.lexer import Token, TokenType, tokenize
from repro.sql.parser import Parser, parse_statement, parse_statements, parse_expression
from repro.sql import ast

__all__ = [
    "Token", "TokenType", "tokenize",
    "Parser", "parse_statement", "parse_statements", "parse_expression",
    "ast",
]
