"""Source-line budget for ``src/repro`` (ROADMAP item 5).

    python tools/loc_budget.py            # check; exit 1 when a package outgrew its budget
    python tools/loc_budget.py --update   # rewrite the budget from the tree

Lines are counted per top-level package (``wc -l`` over its ``*.py``
files) against ``tools/loc_budget.json``. A package may shrink freely;
growing one — or adding one — takes a budget edit in the same PR, which
is where the reviewer asks what the new lines made unnecessary.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
BUDGET = Path(__file__).with_name("loc_budget.json")


def count_lines() -> dict[str, int]:
    counts: dict[str, int] = {}
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC).parts
        package = parts[0] if len(parts) > 1 else "(top level)"
        with path.open("rb") as source:
            counts[package] = counts.get(package, 0) + sum(1 for _ in source)
    return counts


def main(argv: list[str]) -> int:
    counts = count_lines()
    if argv == ["--update"]:
        BUDGET.write_text(json.dumps(counts, indent=2, sort_keys=True) + "\n")
        return 0
    if argv:
        print(__doc__)
        return 2
    budget = json.loads(BUDGET.read_text())
    over = {
        package: (lines, budget.get(package, 0))
        for package, lines in counts.items()
        if lines > budget.get(package, 0)
    }
    for package in sorted(counts):
        print(f"{package:16} {counts[package]:6} / {budget.get(package, 0):6}")
    print(f"{'total':16} {sum(counts.values()):6} / {sum(budget.values()):6}")
    for package, (lines, allowed) in sorted(over.items()):
        print(
            f"over budget: {package} has {lines} lines, budget {allowed} "
            "(shrink it, or edit tools/loc_budget.json and say why)"
        )
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
