"""Architecture guards: one reader for shard storage, one statement path.

Everything above ``storage/`` reaches column values and row visibility
through the block cursor (``repro.exec.scan``). The leader-side packages
must not materialize chains or index the per-row xid lists themselves,
and every executor scan on the leader reads through the decode cache.

Everything around the engine session — server, burst router, replay —
goes through ``Session.execute``, the one statement envelope: none of
them reads a session's private state, parses SQL, writes ``stl_query``
or fingerprints a result on its own.
"""

import ast
import re
from pathlib import Path

import repro

PAST_THE_CURSOR = re.compile(r"\.read_all\(|\b(?:insert|delete)_xids\[")
PAST_THE_ENVELOPE = re.compile(
    r"session\._[a-z]|\._executor_kind|\._parallelism|\._pool_mode"
    r"|handle\._gate|parse_statement|record_query\(|result_fingerprint\("
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
