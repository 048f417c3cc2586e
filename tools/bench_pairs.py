"""One trajectory point: alternating parent/change runs of the repo benchmark.

    python tools/bench_pairs.py --parent /root/scratch/parent \\
        --change /root/scratch/change --pairs 10 --out BENCH_16.json

Both arguments are checkouts; each run is that checkout's own
``benchmarks/e2e/run.py`` in a fresh subprocess (read-only use: nothing
under ``benchmarks/e2e/`` is imported or edited). A pair runs every
``BENCHMARK.json`` workload on both sides back to back, and the side
that goes first alternates, so a slow minute on the machine lands on
both. The output is the compact ``BENCH_<pr>.json`` of ROADMAP item 6:
machine stamp, seed, and per workload and end-to-end metric the runs,
median and quartiles of each side; plus the ``LAYERS`` metrics from one
traced run per side of each workload named there. Run length is
``BENCHMARK.json``'s.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Per-layer metrics no end-to-end metric isolates, by the traced workload
#: that measures them: the write path, and the per-statement envelope.
LAYERS = {
    "mixed_etl": (
        "engine.delete_ms_p50",
        "engine.copy_batch_ms_p50",
        "engine.insert_ms_p50",
        "storage.blocks_skipped_ratio",
    ),
    "dashboard_repeat": (
        "engine.hit_us_p50",
        "engine.miss_overhead_us_p50",
        "server.dispatch_us_p50",
        "sql.parse_us_p50",
    ),
}


def run(checkout: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One ``run.py`` subprocess in *checkout*; its ``--out`` JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run.json"
        done = subprocess.run(
            [
                sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", str(CONTRACT["run_seconds"]),
                "--trace", str(trace), "--out", str(out),
            ],
            cwd=checkout, capture_output=True, text=True,
        )
        if not out.exists():
            raise SystemExit(f"{checkout} {workload}:\n{done.stdout}{done.stderr}")
        return json.loads(out.read_text())


def commit_of(checkout: Path) -> str:
    head = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True
    ).stdout.strip() or "unknown"
    dirty = subprocess.run(
        ["git", "status", "--porcelain"], cwd=checkout, capture_output=True, text=True
    ).stdout.strip()
    return head + ("+worktree" if dirty else "")


def summary(values: list[float]) -> dict:
    q1, median, q3 = (sig5(v) for v in statistics.quantiles(values, n=4))
    return {"median": median, "q1": q1, "q3": q3, "runs": [sig5(v) for v in values]}


def sig5(value: float) -> float:
    """Five significant digits: more than any run-to-run spread leaves."""
    return float(f"{value:.5g}")


def dump(point: dict) -> str:
    """Indented JSON with each list of runs on one line (a few KB)."""
    return re.sub(
        r"\[[^\[\]{}]*\]",
        lambda runs: " ".join(runs.group().split()),
        json.dumps(point, indent=1),
    ) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in CONTRACT["workloads"]]
    metrics = {m["name"]: m for m in CONTRACT["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    runs = {w: {side: [] for side in sides} for w in workloads}
    for pair in range(args.pairs):
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        for workload in workloads:
            for side in order:
                runs[workload][side].append(run(sides[side], workload, args.seed))
        print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)

    point = {
        "stamp": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "parent": commit_of(args.parent),
            "change": commit_of(args.change),
            "taken_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "seed": args.seed,
        "seconds": CONTRACT["run_seconds"],
        "pairs": args.pairs,
        "workloads": {},
        "per_layer": {},
    }
    for side, path in sides.items():
        layers = point["per_layer"][side] = {}
        for workload, names in LAYERS.items():
            traced = run(path, workload, args.seed, trace=1)["metrics"]
            layers.update({name: sig5(traced[name]["value"]) for name in names})
    for workload, by_side in runs.items():
        entry = point["workloads"][workload] = {
            "failed": {
                side: sum(r["failed"] for r in results)
                for side, results in by_side.items()
            }
        }
        for name, metric in metrics.items():
            values = {
                side: [r["metrics"][name]["value"] for r in results]
                for side, results in by_side.items()
            }
            sign = 1 if metric["better"] == "higher" else -1
            entry[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": summary(values["parent"]),
                "change": summary(values["change"]),
                "pairs_better": sum(
                    sign * (c - p) > 0
                    for p, c in zip(values["parent"], values["change"])
                ),
            }
    args.out.write_text(dump(point))
    return 0


if __name__ == "__main__":
    sys.exit(main())
