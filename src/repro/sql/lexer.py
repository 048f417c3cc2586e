"""SQL lexer.

One compiled master pattern turns a statement into a flat token stream
with line/column positions for error messages. Identifiers are
case-folded to lower case unless double-quoted; keywords are recognised
case-insensitively. Comments (``--`` to end of line and ``/* ... */``)
are skipped.

A second pass over the same pattern, :func:`template`, yields the
statement's *template*: every token's text, with each NUMBER replaced by
``?`` and each STRING by ``'?'``, and its *constants*, the texts those
markers stand for. The parser keeps one AST per template
(:func:`repro.sql.parser.parse_statement`).
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.errors import LexError


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    EOF = "eof"


#: Reserved words. Anything else alphabetic lexes as IDENT.
KEYWORDS = frozenset(
    """
    select from where group by having order limit offset distinct all
    as on inner left right full outer cross join and or not in is null
    like ilike between case when then else end cast true false
    create table drop insert into values delete update set copy
    analyze vacuum explain begin commit rollback transaction work
    diststyle distkey sortkey interleaved encode if exists
    with compression reindex union intersect except
    asc desc primary key unique references foreign
    approximate count sum avg min max
    """.split()
)

#: One alternative per token class, in the order a match is tried. A
#: number's exponent needs a digit before it (``1.e5`` is ``1.`` then
#: ``e5``); a quote closes only where it is not a doubled escape. The
#: error alternatives catch an unclosed comment, string or quoted
#: identifier, and any character no token starts with.
_TOKEN = re.compile(
    r"""
      ([ \t\r\n]+|--[^\n]*|/\*.*?\*/)
    | ((?:\d+(?:\.\d*)?|\.\d+)(?:(?<=\d)[eE][+-]?\d+)?)
    | ([^\W\d]\w*)
    | '([^']*(?:''[^']*)*)'(?!')
    | "([^"]*(?:""[^"]*)*)"(?!")
    | (/\*)
    | (<>|!=|<=|>=|\|\||::|[(),.;=<>+\-*/%])
    | (') | (") | (.)
    """,
    re.VERBOSE | re.DOTALL,
)
(_TRIVIA, _NUMBER, _WORD, _STRING, _QUOTED, _OPEN_COMMENT, _OPERATOR,
 _OPEN_STRING, _OPEN_QUOTED) = range(1, 10)
_ERRORS = {
    _OPEN_COMMENT: "unterminated block comment",
    _OPEN_STRING: "unterminated string literal",
    _OPEN_QUOTED: "unterminated quoted identifier",
}


class Token(NamedTuple):
    type: TokenType
    text: str
    line: int
    column: int

    def matches_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.text == word.lower()

    def __repr__(self) -> str:  # compact for parser error messages
        return f"{self.type.value}:{self.text!r}@{self.line}:{self.column}"


_TYPES = {
    _NUMBER: TokenType.NUMBER,
    _STRING: TokenType.STRING,
    _QUOTED: TokenType.IDENT,
    _OPERATOR: TokenType.OPERATOR,
}


def tokenize(text: str) -> list[Token]:
    """Tokenize a SQL string (terminated by an EOF token)."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind = match.lastindex
        start = match.start()
        raw = match.group()
        column = start - line_start + 1
        if kind == _WORD:
            word = raw.lower()
            token_type = TokenType.KEYWORD if word in KEYWORDS else TokenType.IDENT
            tokens.append(Token(token_type, word, line, column))
        elif kind == _NUMBER or kind == _OPERATOR:
            tokens.append(Token(_TYPES[kind], raw, line, column))
        elif kind == _STRING or kind == _QUOTED:
            value = match.group(kind).replace(raw[0] * 2, raw[0])
            tokens.append(Token(_TYPES[kind], value, line, column))
        elif kind != _TRIVIA:
            if kind in _ERRORS:  # unclosed: reported at its start
                raise LexError(_ERRORS[kind], len(text), line, column)
            raise LexError(f"unexpected character {raw!r}", start, line, column)
        if "\n" in raw:
            line += raw.count("\n")
            line_start = start + raw.rfind("\n") + 1
    tokens.append(Token(TokenType.EOF, "", line, len(text) - line_start + 1))
    return tokens


def template(text: str) -> tuple[str, dict[int, str]]:
    """The statement's template and its constants, keyed by the index of
    the token each one is. Builds no tokens, so a text whose template the
    parser has seen costs one match per token."""
    parts: list[str] = []
    constants: dict[int, str] = {}
    for match in _TOKEN.finditer(text):
        kind = match.lastindex
        if kind == _WORD:
            parts.append(match.group().lower())
        elif kind == _OPERATOR or kind == _QUOTED:
            parts.append(match.group())
        elif kind == _NUMBER:
            constants[len(parts)] = match.group()
            parts.append("?")
        elif kind == _STRING:
            constants[len(parts)] = match.group(kind).replace("''", "'")
            parts.append("'?'")
        elif kind != _TRIVIA:
            tokenize(text)  # raises the lexer's error for this text
    return " ".join(parts), constants
