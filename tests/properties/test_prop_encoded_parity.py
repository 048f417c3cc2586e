"""Property: operate-on-compressed execution is bit-identical to decoded.

A table is loaded with every encoded-capable codec pinned explicitly
(ENCODE is authoritative, so auto-compression cannot reshuffle the
layout), including the shapes most likely to break a pushdown kernel:

- a NULL-heavy column (masks must splice FALSE at null positions exactly
  like the decoded kernels);
- a bytedict column that overflows its 255-entry dictionary within a
  block (escape codes + exception values);
- a degenerate runlength column where every run has length 1;
- a mostly8 column with out-of-range exception values (stored full-width
  behind the escape flag, compared by integer image like the rest).

Hypothesis then generates filter/aggregate/projection queries and runs
each through all four executors. Batch scans (vectorized, and the
parallel morsels) read encoded; row scans (volcano, compiled) decode, so
volcano is the decoded reference. Across executors the usual normalized
comparison applies (row order and float summation order legitimately
differ).

A second property drives ``Block.corrupt`` bit-flips into the *encoded*
payloads of every operate-on-compressed codec and checks the payload
checksum still catches them on both scan paths — the encoded path
verifies before handing the compressed vector to the kernels, so a flip
can never leak into a mask or fold.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Cluster
from repro.errors import BlockCorruptionError, ExecutionError

EXECUTORS = ("volcano", "compiled", "vectorized", "parallel")
ROWS = 1600


def _build():
    # block_capacity 512 so one block holds >255 distinct values — the
    # only way to force bytedict escapes.
    cluster = Cluster(node_count=2, slices_per_node=2, block_capacity=512)
    s = cluster.connect()
    s.execute(
        "CREATE TABLE e ("
        "db int encode bytedict, "     # small dictionary
        "ov int encode bytedict, "     # dictionary overflow (escapes)
        "rl int encode runlength, "    # genuine runs
        "rd int encode runlength, "    # degenerate: every run length 1
        "m8 int encode mostly8, "      # narrow images + exceptions
        "m16 int encode mostly16, "
        "nn int encode runlength, "    # NULL-heavy
        "f float)"
    )
    rows = []
    for i in range(ROWS):
        nn = "NULL" if i % 3 else str(i // 100)
        m8 = str(10_000 + i) if i % 97 == 0 else str(i % 100 - 50)
        f = "NULL" if i % 13 == 0 else str(round((i % 37) * 0.75, 2))
        rows.append(
            f"({i % 19}, {i % 400}, {i // 25}, {i}, {m8}, "
            f"{i % 20000 - 5000}, {nn}, {f})"
        )
    s.execute(f"INSERT INTO e VALUES {','.join(rows)}")
    # INSERT leaves rows in the open tail buffers; sealing turns them
    # into encoded blocks — the thing this suite is actually testing.
    cluster.seal_table("e")
    return cluster


_CLUSTER = _build()
_SESSIONS = {name: _CLUSTER.connect(executor=name) for name in EXECUTORS}
for _s in _SESSIONS.values():
    _s.execute("SET enable_result_cache = off")


def normalize(rows):
    return sorted(
        (
            tuple(round(v, 9) if isinstance(v, float) else v for v in row)
            for row in rows
        ),
        key=repr,
    )


COLUMNS = ("db", "ov", "rl", "rd", "m8", "m16", "nn")

comparisons = st.one_of(
    st.tuples(
        st.sampled_from(COLUMNS),
        st.sampled_from(["<", "<=", "=", "<>", ">=", ">"]),
        st.integers(-60, 450),
    ).map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
    st.tuples(
        st.sampled_from(COLUMNS), st.integers(-20, 400), st.integers(0, 80)
    ).map(lambda t: f"{t[0]} BETWEEN {t[1]} AND {t[1] + t[2]}"),
    st.tuples(
        st.sampled_from(COLUMNS), st.sampled_from(["IS NULL", "IS NOT NULL"])
    ).map(lambda t: f"{t[0]} {t[1]}"),
    # Column-vs-column comparisons cannot push down (no literal): they
    # must late-materialize through gather and still agree.
    st.sampled_from(["db < rl", "m8 < m16", "ov <> rd"]),
)


@st.composite
def predicates(draw):
    parts = draw(st.lists(comparisons, min_size=1, max_size=3))
    glue = draw(st.sampled_from([" AND ", " OR "]))
    return glue.join(parts)


@st.composite
def queries(draw):
    pred = draw(predicates())
    shape = draw(st.integers(0, 4))
    if shape == 0:
        limit = draw(st.integers(1, 60))
        return (
            f"SELECT db, ov, m8, nn FROM e WHERE {pred} "
            f"ORDER BY ov, rd LIMIT {limit}"
        )
    if shape == 1:
        return (
            f"SELECT count(*), count(nn), sum(rl), min(rd), max(ov), "
            f"sum(m16) FROM e WHERE {pred}"
        )
    if shape == 2:
        # Whole-column aggregates: the RLE fold path (no selection).
        return "SELECT count(*), sum(rl), min(rl), max(rl), sum(rd) FROM e"
    if shape == 3:
        return (
            f"SELECT db, count(*), sum(rd), avg(f) FROM e WHERE {pred} "
            f"GROUP BY db"
        )
    return f"SELECT DISTINCT rl FROM e WHERE {pred} ORDER BY rl"


@given(queries())
@settings(max_examples=60, deadline=None)
def test_encoded_matches_decoded_per_executor(sql):
    reference = normalize(_SESSIONS["volcano"].execute(sql).rows)
    for name in EXECUTORS:
        rows = _SESSIONS[name].execute(sql).rows
        assert normalize(rows) == reference, (name, sql)


@given(predicates())
@settings(max_examples=30, deadline=None)
def test_scan_accounting_matches_across_paths(pred):
    sql = f"SELECT count(*) FROM e WHERE {pred}"
    results = [s.execute(sql) for s in _SESSIONS.values()]
    assert len({r.rows[0][0] for r in results}) == 1, pred
    assert len({r.stats.scan.blocks_read for r in results}) == 1, pred
    assert len({r.stats.scan.blocks_skipped for r in results}) == 1, pred


def test_encoded_path_actually_engages():
    """Guard against the suite silently passing because everything fell
    back to decode: the vectorized encoded session must report encoded
    batches and per-codec pushdown work on a known-friendly query."""
    # Earlier (decoded) runs warmed the shared cache, and the encoded
    # path rightly prefers an already-resident decoded vector; start
    # cold so the compressed path is what actually runs.
    _CLUSTER.block_cache.clear()
    r = _SESSIONS["vectorized"].execute(
        "SELECT count(*), sum(rl) FROM e WHERE db = 7"
    )
    scan = r.stats.scan
    assert scan.encoded_batches > 0
    assert scan.decode_bytes_avoided > 0
    assert "bytedict" in scan.encoding and "runlength" in scan.encoding
    # And the decoded control (row scans) never touches the encoded
    # machinery.
    off = _SESSIONS["volcano"].execute(
        "SELECT count(*), sum(rl) FROM e WHERE db = 7"
    )
    assert off.stats.scan.encoded_batches == 0
    assert off.stats.scan.encoding == {}


# ---------------------------------------------------------------------------
# Corruption: payload bit-flips stay detectable on every scan path
# ---------------------------------------------------------------------------

_CORRUPTIBLE = (
    ("bytedict", lambda i: i % 19),
    ("runlength", lambda i: i // 25),
    ("mostly8", lambda i: i % 100 - 50),
    ("mostly16", lambda i: i % 20000 - 5000),
    ("mostly32", lambda i: i * 1000),
    ("delta", lambda i: i),     # decode-path control
    ("raw", lambda i: i * 7),   # decode-path control
)


#: Whether the encoded scan path is on -> the executor whose scans take
#: it: batch scans read encoded, row scans decode.
SCAN_PATHS = {"on": "vectorized", "off": "volcano"}


@pytest.mark.parametrize("codec,value", _CORRUPTIBLE, ids=lambda c: c[0] if isinstance(c, str) else "")
@pytest.mark.parametrize("encoded_scan", SCAN_PATHS)
def test_corrupt_payload_caught_by_checksum(codec, value, encoded_scan):
    cluster = Cluster(node_count=1, slices_per_node=1, block_capacity=256)
    s = cluster.connect(executor=SCAN_PATHS[encoded_scan])
    # bigint so every mostly width actually narrows (mostly32 refuses a
    # 4-byte int — nothing to narrow).
    s.execute(f"CREATE TABLE c (v bigint encode {codec})")
    s.execute(
        "INSERT INTO c VALUES "
        + ",".join(f"({value(i)})" for i in range(600))
    )
    cluster.seal_table("c")
    total = s.execute("SELECT count(*), sum(v) FROM c").rows
    assert total == [(600, sum(value(i) for i in range(600)))]
    block = cluster.slice_stores[0].shard("c").chain("v").blocks[0]
    block.corrupt()
    with pytest.raises((BlockCorruptionError, ExecutionError)):
        s.execute("SELECT count(*), sum(v) FROM c")
