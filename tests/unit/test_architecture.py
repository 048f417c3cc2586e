"""Architecture guard: shard storage has one reader.

Everything above ``storage/`` reaches column values and row visibility
through the block cursor (``repro.exec.scan``). The leader-side packages
must not materialize chains or index the per-row xid lists themselves.
"""

import re
from pathlib import Path

import repro

FORBIDDEN = re.compile(r"\.read_all\(|\b(?:insert|delete)_xids\[")


def test_engine_and_controlplane_read_storage_through_the_cursor():
    root = Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(root)}:{number}: {line.strip()}"
        for package in ("engine", "controlplane")
        for path in sorted((root / package).rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if FORBIDDEN.search(line)
    ]
    assert offenders == []
