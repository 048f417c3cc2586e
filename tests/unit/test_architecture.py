"""Architecture guards: one reader for shard storage, one statement path.

Everything above ``storage/`` reaches column values and row visibility
through the block cursor (``repro.exec.scan``). The leader-side packages
must not materialize chains or index the per-row xid lists themselves.

Everything around the engine session — server, burst router, replay —
goes through ``Session.execute``, the one statement envelope: none of
them reads a session's private state, parses SQL, writes ``stl_query``
or fingerprints a result on its own.
"""

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
