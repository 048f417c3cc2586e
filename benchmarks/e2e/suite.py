#!/usr/bin/env python3
"""Run every workload several times and write one machine-stamped result
file that ``compare.py`` can diff against another.

    python3 benchmarks/e2e/suite.py --runs 5 --out benchmarks/e2e/out/mine.json

Each run is a fresh ``run.py`` subprocess (own RSS, own caches, own fork
pool); every run of a set gets the same seed, so all of them execute the
same statements. Workloads are interleaved round-robin so a slow minute
on the machine spreads over all of them instead of one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def machine_stamp() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": commit,
        "taken_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def one_run(workload: str, seed: int, seconds: float, quick: bool) -> dict:
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        out = Path(tmp) / "run.json"
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
            "--out", str(out),
        ]
        if quick:
            command.append("--quick")
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if not out.exists():
            raise SystemExit(
                f"{workload} seed {seed} produced no result "
                f"(exit {done.returncode}):\n{done.stdout}\n{done.stderr}"
            )
        result = json.loads(out.read_text())
        result["exit_code"] = done.returncode
        return result


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--workloads", nargs="*", default=list(workloads.WORKLOADS))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    (HERE / "out").mkdir(exist_ok=True)
    runs: dict[str, list[dict]] = {name: [] for name in args.workloads}
    bad = 0
    for i in range(args.runs):
        for name in args.workloads:
            result = one_run(name, args.seed, args.seconds, args.quick)
            runs[name].append(result)
            bad += result["exit_code"] != 0
            shown = "  ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            )
            print(f"{name} run {i + 1}: {shown}", flush=True)
    document = {
        "stamp": machine_stamp(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "statement_counts": {
            name: [r["detail"]["statements"] for r in results]
            for name, results in runs.items()
        },
        "runs": runs,
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
