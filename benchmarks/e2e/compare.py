#!/usr/bin/env python3
"""Diff two result files written by ``suite.py``.

    python3 benchmarks/e2e/compare.py BASE.json CHANGE.json

One row per workload x end-to-end metric with both medians and quartiles
and a verdict, using each metric's direction and bound from
``BENCHMARK.json``:

- ``worse``      the change's median is worse than the base's by more
                 than the bound;
- ``better``     it is better by more than the bound;
- ``unresolved`` either side's quartile spread is wider than the bound,
                 so "no change" cannot be told from noise;
- ``same``       otherwise.

Exits non-zero on any ``worse``, or when the change failed a larger
share of its statements than the base.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def summarize(runs: list[dict], metric: str):
    """(median, q1, q3) of one metric over a workload's runs."""
    values = [run["metrics"][metric]["value"] for run in runs]
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / max(1, attempted)


def verdict(base, change, better: str, bound: float) -> tuple[str, float]:
    """(verdict, signed worsening as a share of the base median)."""
    (b_med, b_q1, b_q3), (c_med, c_q1, c_q3) = base, change
    worsening = (c_med - b_med) / b_med
    if better == "higher":
        worsening = -worsening
    spread = max((b_q3 - b_q1) / b_med, (c_q3 - c_q1) / c_med)
    if worsening > bound:
        return "worse", worsening
    if spread > bound:
        return "unresolved", worsening
    if worsening < -bound:
        return "better", worsening
    return "same", worsening


def compare(base: dict, change: dict, spec: dict) -> tuple[list[str], bool]:
    lines = [
        f"base   {base['stamp']}",
        f"change {change['stamp']}",
        f"{'workload':18}{'metric':28}{'base median [q1, q3]':>36}"
        f"{'change median [q1, q3]':>36}{'worsening':>11}  verdict",
    ]
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        b_runs = base["runs"].get(workload)
        c_runs = change["runs"].get(workload)
        if not b_runs or not c_runs:
            lines.append(f"{workload:18}missing on one side")
            failed = True
            continue
        for metric in spec["end_to_end"]:
            b = summarize(b_runs, metric["name"])
            c = summarize(c_runs, metric["name"])
            word, worsening = verdict(b, c, metric["better"], metric["bound"])
            failed |= word == "worse"
            lines.append(
                f"{workload:18}{metric['name']:28}"
                f"{b[0]:14.5g} [{b[1]:.5g}, {b[2]:.5g}]".ljust(82)
                + f"{c[0]:14.5g} [{c[1]:.5g}, {c[2]:.5g}]".ljust(36)
                + f"{worsening:+10.2%}  {word}"
            )
        b_fail, c_fail = failed_share(b_runs), failed_share(c_runs)
        if c_fail > b_fail:
            failed = True
            lines.append(
                f"{workload:18}failed share rose {b_fail:.4%} -> {c_fail:.4%}"
            )
    return lines, failed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, change = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads(BENCHMARK.read_text())
    lines, failed = compare(base, change, spec)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
