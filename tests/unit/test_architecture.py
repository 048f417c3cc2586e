"""Architecture guards: one reader for shard storage, one statement path.

Everything above ``storage/`` reaches column values and row visibility
through the block cursor (``repro.exec.scan``). The leader-side packages
must not materialize chains or index the per-row xid lists themselves,
and every executor scan on the leader reads through the decode cache.
Generated code is compiled in one place, keyed by its source. Parallel
workers ship partial aggregates only: no row-shipping or join-partitioning
path comes back, and neither does worker-side spill: a governed aggregate
spills on the leader. A recoverable fault is repaired at the read that met
it, through one helper; no statement-level retry comes back, and spill IO
keeps no private retry loop. The Volcano executor alone moves join inputs
and merges partial aggregates: the other executors override per-slice
evaluation only. Compiled pipelines loop over the cursor's blocks, not
its rows, and fold COUNT / SUM / MIN / MAX inline.

Everything around the engine session — server, burst router, replay —
goes through ``Session.execute``, the one statement envelope: none of
them reads a session's private state, parses SQL, writes ``stl_query``
or fingerprints a result on its own.

Versions live with the data: a shard publishes its own versions, so no
process-global epoch, no suppression of it, and no hand-written xid
arrays outside ``storage/slicestore.py`` come back; blocks point at
their shard, not at a table name.
"""

import ast
import dataclasses
import re
from pathlib import Path

import repro
from repro.storage import Block

PAST_THE_CURSOR = re.compile(r"\.read_all\(|\b(?:insert|delete)_xids\[")
PAST_THE_ENVELOPE = re.compile(
    r"session\._[a-z]|\._executor_kind|\._parallelism|\._pool_mode"
    r"|handle\._gate|parse_statement|record_query\(|result_fingerprint\("
)
WORKERS_SHIP_ROWS = re.compile(
    r"row_ship_limit|partition_slices|_prebucketed|_assemble_buckets|\.overflow"
)
STATEMENT_RETRY = re.compile(
    r"segment_retries|MAX_SEGMENT_RETRIES|QueryRetryExhaustedError"
)
WORKER_SPILL = re.compile(
    r"SpillLog|LogSpillFile|spill_log|_accounted|spill_retry|morsel_blocks"
)
PROCESS_EPOCHS = re.compile(r"storage import epoch|epoch\.|suppressed\(")
XID_ASSIGNMENT = re.compile(
    r"\.(?:insert|delete)_xids\s*=[^=]|\b(?:insert|delete)_xids\[[^\]]*\]\s*=[^=]"
)
BLOCK_TABLE_NAME = re.compile(r"\bblock\w*\.table_name\s*=[^=]")
#: Join-input movement and the merge of two partial states (not the
#: COUNT(*) fold ``agg.merge(entry[i], count)``, which merges a row count).
DISTRIBUTION_MECHANICS = re.compile(
    r"exchange\.broadcast\(|exchange\.shuffle\(|JoinDistribution\."
    r"|\.merge\(\w+\[i\], entry\[i\]\)"
)


def offenders(packages, forbidden):
    root = Path(repro.__file__).parent
    return [
        f"{path.relative_to(root)}:{number}: {line.strip()}"
        for package in packages
        for path in sorted((root / package).rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if forbidden.search(line)
    ]


def test_engine_and_controlplane_read_storage_through_the_cursor():
    assert offenders(("engine", "controlplane"), PAST_THE_CURSOR) == []


def test_server_and_replay_go_through_the_statement_envelope():
    assert offenders(("server", "replay"), PAST_THE_ENVELOPE) == []


def test_leader_scans_read_through_the_decode_cache():
    """Every scan_rows / scan_batches call in exec/ passes block_cache=,
    except the workers' (DESIGN.md §8: forked workers get no cache)."""
    root = Path(repro.__file__).parent / "exec"
    calls = [
        (path.name, node)
        for path in sorted(root.rglob("*.py"))
        if path.name != "workers.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("scan_rows", "scan_batches")
    ]
    assert len(calls) >= 2
    uncached = [
        f"{name}:{node.lineno}"
        for name, node in calls
        if "block_cache" not in {kw.arg for kw in node.keywords}
    ]
    assert uncached == []


def test_compiled_pipelines_loop_over_blocks_and_fold_inline():
    """The compiled executor reads the cursor's batches, never the row
    adapter or the per-row counting generator, and its generated code
    folds COUNT / SUM / MIN / MAX inline instead of calling accumulate."""
    source = (Path(repro.__file__).parent / "exec" / "codegen.py").read_text()
    assert "scan_rows" not in source
    assert "_counted_iter" not in source
    cluster = repro.Cluster(node_count=1, slices_per_node=2, block_capacity=4)
    s = cluster.connect(executor="compiled")
    s.execute("CREATE TABLE f (region varchar(8), qty int, amt float)")
    s.execute(
        "INSERT INTO f VALUES ('a', 1, 1.5), ('b', 2, NULL), ('a', NULL, -0.5)"
    )
    s.execute(
        "SELECT region, count(*), sum(qty), min(amt), max(amt) FROM f "
        "GROUP BY region"
    )
    generated = [
        text
        for text, (_, mode, _) in cluster.segment_cache._entries.items()
        if mode == "aggregate"
    ]
    assert generated and all("_agg_acc[" not in text for text in generated)


def test_exec_compiles_only_through_the_code_cache():
    """The builtin ``compile(`` is called only in ``exec/segmentcache.py``:
    generated source is the one cache key, so no second private compile
    cache (or hand-kept key for one) can come back."""
    root = Path(repro.__file__).parent / "exec"
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "compile"
    ]
    assert calls and all(c.startswith("segmentcache.py:") for c in calls)


def test_workers_ship_partial_aggregates_only():
    """The parallel executor's row-shipping and join-partitioning worker
    paths stay deleted (DESIGN.md §8: neither beat the serial engine)."""
    assert offenders(("",), WORKERS_SHIP_ROWS) == []


def test_no_statement_retry_comes_back():
    """Recovery happens at the read that met the fault (DESIGN.md §5):
    the statement-level retry loop, its budget and its error stay
    deleted from the library and the examples."""
    examples = Path(repro.__file__).parents[2] / "examples"
    assert offenders(("",), STATEMENT_RETRY) == []
    assert [
        f"{path.name}:{number}"
        for path in sorted(examples.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if STATEMENT_RETRY.search(line)
    ] == []


def test_spill_runs_on_the_leader_and_recovers_like_every_read():
    """The worker spill log, its leader replay, spill's private retry
    loop and the morsel-size knob stay deleted (DESIGN.md §5, §8)."""
    assert offenders(("",), WORKER_SPILL) == []


def test_recoverable_faults_are_caught_in_one_place():
    """``QUERY_RECOVERABLE_ERRORS`` is defined in ``errors.py`` and used
    only inside ``exec/context.py``'s ``recovered`` — the one helper every
    recoverable unit (block read and charge, spill read and write, fault
    checkpoint, morsel) runs through."""
    root = Path(repro.__file__).parent
    uses = [
        (path.relative_to(root).as_posix(), node.lineno)
        for path in sorted(root.rglob("*.py"))
        if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id == "QUERY_RECOVERABLE_ERRORS"
    ]
    helper = next(
        node
        for node in ast.parse((root / "exec" / "context.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "recovered"
    )
    assert len(uses) == 1
    path, line = uses[0]
    assert path == "exec/context.py"
    assert helper.lineno <= line <= helper.end_lineno


def test_only_volcano_moves_join_inputs_and_merges_partials():
    """Only ``exec/volcano.py`` moves join inputs, names a join strategy
    or merges partial states (DESIGN.md §8), and the leader collect has
    one name, ``_leader_rows``."""
    found = offenders(("exec",), DISTRIBUTION_MECHANICS)
    assert found and all(line.startswith("exec/volcano.py:") for line in found)
    assert offenders(("",), re.compile(r"_collect_at_leader")) == []


def test_versions_live_with_the_data():
    """The process-global epoch module and its suppression stay deleted;
    only ``storage/slicestore.py`` assigns the per-row xid arrays (every
    other writer goes through a ``TableShard`` method that publishes);
    and a block names its owning shard, never a table."""
    assert offenders(("",), PROCESS_EPOCHS) == []
    assigned = offenders(("",), XID_ASSIGNMENT)
    assert all(line.startswith("storage/slicestore.py:") for line in assigned)
    assert offenders(("",), BLOCK_TABLE_NAME) == []
    assert "table_name" not in {field.name for field in dataclasses.fields(Block)}
