"""Property: a statement served from its template's cached AST is
indistinguishable from a cold parse.

``repro.sql.parser.parse_statement`` parses each template once; a later
text of the template gets a copy of that AST with its own constants in
the literal slots, and a constant that is no Literal of its own (LIMIT,
a varchar length, a COPY source) is pinned. Each family below varies the
constants of one template. For its second and later texts:

- the AST equals ``Parser(text).parse_statement()`` field for field, and
  its ``repr`` too (so ``1`` never comes back as ``1.0``), with no parse
  when no pinned constant changed and one parse when it did;
- mutating a returned AST leaves the next hit unchanged;
- an invalid pinned constant raises exactly what a cold parse raises;
- on every executor, a session's rows, ``stats.plan_text`` and
  ``stl_query`` text match a twin cluster driven by ``execute_script``,
  which always parses cold.
"""

from __future__ import annotations

import datetime
from typing import Callable, NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import Cluster
from repro.sql import ast
from repro.sql.parser import Parser, parse_statement

EXECUTORS = ("volcano", "compiled", "vectorized", "parallel")
URIS = [f"mem://t/{n}" for n in range(4)]


def q(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


nat = st.integers(0, 40)
words = st.text(alphabet="ab'c x", max_size=5)
dates = st.dates(datetime.date(2014, 1, 1), datetime.date(2016, 12, 31)).map(
    datetime.date.isoformat
)
bounds = st.sampled_from(
    [2**31 - 1, 2**31, 2**31 + 1, 2**32, 2**63 - 1, 2**63]
)
exponents = st.sampled_from(["1.5e3", "2E-2", "0.5", "3.25e+1", ".5", "7.", "1e2"])


class Family(NamedTuple):
    name: str
    render: Callable[..., str]
    args: st.SearchStrategy
    #: Argument positions whose constant is pinned.
    pinned: tuple[int, ...] = ()
    #: A text of the template with an invalid pinned constant.
    invalid: str | None = None


FAMILIES = (
    Family(
        "compare",
        lambda a, s: f"SELECT a, b FROM t WHERE a > {a} AND b <> {q(s)} ORDER BY a, b",
        st.tuples(nat, words),
    ),
    Family(
        "between",
        lambda lo, hi: f"SELECT count(*), sum(a) FROM t WHERE a BETWEEN {lo} AND {hi}",
        st.tuples(nat, nat),
    ),
    Family(
        "in_list",
        lambda x, y, z: f"SELECT a FROM t WHERE a IN ({x}, {y}, {z}) ORDER BY a",
        st.tuples(nat, nat, nat),
    ),
    Family(
        "like",
        lambda s: f"SELECT a, b FROM t WHERE b LIKE {q(s + '%')} ORDER BY a, b",
        st.tuples(words),
    ),
    Family(
        "ordinals",
        lambda m, o, n: (
            f"SELECT a % {m}, count(*) FROM t GROUP BY 1 "
            f"ORDER BY {o} DESC, 1 LIMIT {n}"
        ),
        st.tuples(st.integers(1, 9), st.integers(1, 2), st.integers(0, 3)),
        pinned=(2,),
        invalid="SELECT a % 3, count(*) FROM t GROUP BY 1 ORDER BY 1 DESC, 1 LIMIT 2.5",
    ),
    Family(
        "negative",
        lambda a, e: f"SELECT a - {a}, a * -{e} FROM t WHERE a > -{a} ORDER BY 1, 2",
        st.tuples(nat, exponents),
    ),
    Family(
        "date",
        lambda d, s: f"SELECT count(*) FROM t WHERE d >= DATE '{d}' OR b = {q(s)}",
        st.tuples(dates, words),
    ),
    Family(
        "quoted",
        lambda s, r: f"SELECT count(*) FROM t WHERE b = {q(s)} OR b < {q(r)}",
        st.tuples(words, words),
    ),
    Family(
        "bounds",
        lambda big: f"SELECT a + {big}, {big} FROM t WHERE a < 3 ORDER BY 1",
        st.tuples(bounds),
    ),
    Family(
        "exponent",
        lambda e: f"SELECT a * {e} FROM t WHERE f < {e} ORDER BY 1",
        st.tuples(exponents),
    ),
    Family(
        "cast",
        lambda a, n: (
            f"SELECT CAST(a + {a} AS varchar({n})), CAST({q(str(a))} AS int) "
            "FROM t ORDER BY 1"
        ),
        st.tuples(nat, st.integers(1, 5)),
        pinned=(1,),
        invalid="SELECT CAST(a + 1 AS varchar(2.5)), CAST('1' AS int) FROM t ORDER BY 1",
    ),
    Family(
        "insert",
        lambda *rows: "INSERT INTO t VALUES " + ", ".join(
            f"({a}, {q(s)}, DATE '{d}', {e})" for a, s, d, e in rows
        ),
        st.tuples(*[st.tuples(nat, words, dates, exponents)] * 3),
    ),
    Family(
        "delete",
        lambda lo, span: f"DELETE FROM t WHERE a >= {lo} AND a < {lo + span}",
        st.tuples(nat, st.integers(0, 3)),
    ),
    Family(
        "copy",
        lambda n: f"COPY t FROM '{URIS[n]}'",
        st.tuples(st.integers(0, len(URIS) - 1)),
        pinned=(0,),
    ),
)

RUNS = st.sampled_from(FAMILIES).flatmap(
    lambda family: st.tuples(
        st.just(family), st.lists(family.args, min_size=2, max_size=4)
    )
)


def cold(text: str) -> ast.Statement:
    parser = Parser(text)
    statement = parser.parse_statement()
    parser.expect_eof()
    return statement


def outcome(parse: Callable[[str], object], text: str):
    try:
        return parse(text)
    except Exception as exc:  # noqa: BLE001 — both sides must fail alike
        return type(exc).__name__, str(exc)


def scramble(node) -> None:
    """Overwrite every literal and empty every list reachable from *node*."""
    if isinstance(node, ast.Literal):
        node.value = object()
    if isinstance(node, ast.Node):
        for value in list(vars(node).values()):
            scramble(value)
    elif isinstance(node, (list, tuple)):
        for item in node:
            scramble(item)
        if isinstance(node, list):
            node.clear()


@given(st.lists(RUNS, min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_template_hits_equal_a_cold_parse(runs):
    parses = []
    real = Parser.parse_statement

    def counting(parser):
        parses.append(parser)
        return real(parser)

    with mock.patch.object(Parser, "parse_statement", counting):
        for family, arg_lists in runs:
            previous = None
            for args in arg_lists:
                text = family.render(*args)
                del parses[:]
                got = parse_statement(text)
                if previous is not None:
                    pins = [args[i] for i in family.pinned]
                    expected = 0 if pins == [previous[i] for i in family.pinned] else 1
                    assert len(parses) == expected, (text, previous)
                previous = args
                reference = real(Parser(text))
                assert got == reference, text
                assert repr(got) == repr(reference), text
                assert got.to_sql() == reference.to_sql()
                scramble(got)
                assert parse_statement(text) == reference, text
            if family.invalid is not None:
                assert outcome(parse_statement, family.invalid) == outcome(
                    cold, family.invalid
                )
                assert isinstance(outcome(cold, family.invalid), tuple)


def _cluster() -> Cluster:
    cluster = Cluster(node_count=1, slices_per_node=2, block_capacity=8)
    for n, uri in enumerate(URIS):
        cluster.register_inline_source(
            uri, [f"{n + i}|c{i}|2015-0{n + 1}-1{i}|{i}.5" for i in range(3)]
        )
    setup = cluster.connect()
    setup.execute(
        "CREATE TABLE t (a int, b varchar(16), d date, f double precision)"
    )
    setup.execute(
        "INSERT INTO t VALUES "
        + ", ".join(
            f"({i}, {q('abc x'[i % 5:])}, DATE '2015-0{i % 9 + 1}-01', {i * 0.75})"
            for i in range(24)
        )
    )
    return cluster


def _result(session, text: str, script: bool):
    try:
        result = session.execute_script(text)[0] if script else session.execute(text)
    except Exception as exc:  # noqa: BLE001 — both sides must fail alike
        return type(exc).__name__, str(exc)
    return result.columns, result.rows, result.rowcount, result.stats.plan_text


@pytest.mark.parametrize("executor", EXECUTORS)
@given(runs=st.lists(RUNS, min_size=1, max_size=4))
@settings(max_examples=20, deadline=None)
def test_template_hits_execute_like_a_cold_parse(executor, runs):
    warm_cluster, cold_cluster = _cluster(), _cluster()
    try:
        warm = warm_cluster.connect(executor=executor, parallelism=1)
        cold_session = cold_cluster.connect(executor=executor, parallelism=1)
        for family, arg_lists in runs:
            for args in arg_lists:
                text = family.render(*args)
                assert _result(warm, text, script=False) == _result(
                    cold_session, text, script=True
                ), text
        check = "SELECT a, b, d, f FROM t ORDER BY a, b, d, f"
        assert warm.execute(check).rows == cold_session.execute(check).rows
        log = "SELECT querytxt, state, rows FROM stl_query ORDER BY query"
        assert warm.execute(log).rows == cold_session.execute(log).rows
    finally:
        warm_cluster.close()
        cold_cluster.close()
