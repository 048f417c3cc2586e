"""Property: DELETE and UPDATE match exactly the rows SELECT counts.

DML finds its rows through the block cursor with the planner's zone
predicates and the batch mask kernels; ``SELECT count(*) WHERE p`` on the
same session is the oracle. The table mixes sealed blocks, an open tail,
rows an earlier transaction deleted and the session's own uncommitted
inserts, and the predicates include shapes that prune blocks (ranges,
equality, IN) and shapes that yield NULL.
"""

from hypothesis import given, settings, strategies as st

from repro import Cluster

values = st.one_of(st.none(), st.integers(-40, 40))
rows_strategy = st.lists(st.tuples(st.integers(0, 30), values), max_size=90)

PREDICATES = [
    "k >= {a} AND k < {a} + 6",
    "k BETWEEN {a} AND {b}",
    "k = {a}",
    "k IN ({a}, {b}, 7)",
    "k = {a} OR v > {b}",
    "v < {b}",
    "NOT (v > {b})",
    "v IS NULL",
    "v + k > {a}",
    "tag = 'own' OR k <> {a}",
]


def build(sealed, tail, own, dist, executor):
    """A session inside a transaction over: *sealed* rows in 8-row blocks
    (k = 3 deleted and committed), *tail* rows still unsealed, and *own*
    rows inserted by the open transaction itself."""
    cluster = Cluster(node_count=2, slices_per_node=2, block_capacity=8)
    session = cluster.connect(executor)
    session.execute(f"CREATE TABLE t (k int, v int, tag varchar(8)) {dist}")
    for tag, rows in (("sealed", sealed), ("tail", tail), ("own", own)):
        if tag == "own":
            session.execute("BEGIN")
        if rows:
            session.execute(
                "INSERT INTO t VALUES "
                + ",".join(
                    f"({k}, {'NULL' if v is None else v}, '{tag}')"
                    for k, v in rows
                )
            )
        if tag == "sealed":
            cluster.seal_table("t")
            session.execute("DELETE FROM t WHERE k = 3")
    return session


def count(session, where="TRUE"):
    return session.execute(f"SELECT count(*) FROM t WHERE {where}").scalar()


scenario = (
    rows_strategy,
    rows_strategy,
    rows_strategy,
    st.sampled_from(["DISTKEY(k)", "DISTSTYLE EVEN", "DISTSTYLE ALL"]),
    st.sampled_from(["volcano", "compiled", "vectorized"]),
    st.sampled_from(PREDICATES),
    st.integers(0, 30),
    st.integers(-40, 40),
)


@given(*scenario)
@settings(max_examples=60, deadline=None)
def test_delete_rowcount_is_the_select_count(
    sealed, tail, own, dist, executor, template, a, b
):
    session = build(sealed, tail, own, dist, executor)
    where = template.format(a=a, b=b)
    total, matching = count(session), count(session, where)
    assert session.execute(f"DELETE FROM t WHERE {where}").rowcount == matching
    assert count(session, where) == 0
    assert count(session) == total - matching


@given(*scenario)
@settings(max_examples=60, deadline=None)
def test_update_rowcount_is_the_select_count(
    sealed, tail, own, dist, executor, template, a, b
):
    session = build(sealed, tail, own, dist, executor)
    where = template.format(a=a, b=b)
    total, matching = count(session), count(session, where)
    updated = session.execute(f"UPDATE t SET tag = 'hit' WHERE {where}")
    assert updated.rowcount == matching
    assert count(session, "tag = 'hit'") == matching
    assert count(session) == total
