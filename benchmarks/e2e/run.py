#!/usr/bin/env python3
"""One benchmark run: set up, drive one workload, verify, print metrics.

    python3 benchmarks/e2e/run.py --workload scan_heavy --seed 12 \\
        --seconds 12 --trace 0

An untraced run sets up three fresh systems one after the other, drives
the workload's list on each and checks every execution against the
oracle; every statement counts once, by the quietest of its three
executions.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exit code is non-zero when any statement failed or returned wrong rows,
or when a percentile does not sit inside one statement class.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
from contextlib import closing
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"run.py: no engine source at {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import workloads  # noqa: E402

#: Fresh systems an untraced run sets up and drives. ``setup_s`` is the
#: quickest set-up; each statement counts once, by its quietest execution.
REPLICAS = 3

#: A window stops early once it has taken this many times its share of
#: ``--seconds``. The driver allows one run 180 s and a campaign of 70
#: runs 3420 s, and on a bad minute the shared host runs this program
#: 3-20x slower than on a quiet one (README.md, "Time budget").
CAP_FACTOR = 1.5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=None,
                        help="sizes the statement list: the three windows "
                             "together take about this long on the reference "
                             "box (default 12, or 2 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small tables, one system, short list (smoke test)")
    parser.add_argument("--out", default=None,
                        help="also write the full result as JSON to this file")
    return parser.parse_args(argv)


def run_untraced(args, sizes):
    rounds = workloads.rounds(args.workload, args.seed, sizes, args.window_seconds)
    setup = workloads.setup_statements(args.seed, sizes)
    executions, setup_seconds = [], []
    for _ in range(args.replicas):
        with closing(harness.set_up(setup)) as system:
            setup_seconds.append(system.setup_s)
            window = harness.drive(system, rounds, args.cap_s)
            executions.append((window, harness.final_tables(system)))
            stored = harness.stored_bytes(system.cluster)
        gc.collect()
    attempted, failures = harness.verify(setup, executions)
    windows = [window for window, _ in executions]
    window, source = harness.quietest(windows)
    metrics, detail = harness.end_to_end(window, setup_seconds, stored)
    detail["executed"] = sum(len(w.samples) for w in windows)
    detail["quietest_from"] = source
    detail["round_wall_ms"] = [
        [round(r.wall_s * 1e3, 3) for r in w.rounds] for w in windows
    ]
    cut = [len(w.rounds) for w in windows if len(w.rounds) < len(rounds)]
    if cut:
        detail["cut_short"] = f"{cut} of {len(rounds)} rounds"
    return metrics, detail, attempted, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    args.cpus = harness.pin_to_one_cpu()
    if args.seconds is None:
        args.seconds = 2.0 if args.quick else 12.0
    sizes = workloads.QUICK if args.quick else workloads.FULL
    # Every system of an untraced run is driven with the same list: one
    # replica's share of --seconds. A traced run's two take half each.
    args.replicas = 1 if args.quick else REPLICAS
    args.window_seconds = args.seconds / args.replicas
    args.cap_s = CAP_FACTOR * args.window_seconds
    if args.trace:
        import layers

        metrics, detail, attempted, failures = layers.run_traced(
            args, sizes, HERE / "out"
        )
    else:
        metrics, detail, attempted, failures = run_untraced(args, sizes)
    failed = len(failures)

    straddles = [
        f"{p} sits {detail[f'{p}_margin_points']:.1f} points from the edge of "
        f"class {detail[f'{p}_class']!r} (< {harness.CLASS_MARGIN_POINTS})"
        for p in ("p50", "p90")
        if detail[f"{p}_margin_points"] < harness.CLASS_MARGIN_POINTS
    ]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  window {detail['window_s']:.2f} s  statements {detail['statements']}"
          f"  rounds {detail['rounds']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44} {value:14.4f} {unit}")
    for key, value in detail.items():
        print(f"  # {key}: {value}")
    for message in failures[:20] + straddles:
        print(f"  ! {message}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    if args.out:
        full = dict(result)
        full.update(
            workload=args.workload, seed=args.seed, seconds=args.seconds,
            trace=args.trace, quick=args.quick, detail=detail,
            python=platform.python_version(),
        )
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(result))
    return 1 if failed or straddles else 0


if __name__ == "__main__":
    sys.exit(main())
