"""Smoke test of the end-to-end benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q

Every workload runs with ``--quick`` (small tables, a list sized for at
most ~2 s, one set-up) as a *subprocess*: in-process it would inherit
``benchmarks/conftest.py``'s autouse ``_result_cache_off`` fixture, which
would turn ``dashboard_repeat`` into all misses.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, tmp_path: Path) -> tuple[dict, dict]:
    out = tmp_path / "run.json"
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--quick", "--trace", str(trace), "--out", str(out),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    return last, json.loads(out.read_text())


def check_metrics(last: dict, expected: list[dict], nonzero: bool) -> None:
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = last["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(got["value"]), metric["name"]
        if nonzero:
            assert got["value"] > 0, metric["name"]


def test_spec_names_every_workload_and_layer_metric():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import layers
    import workloads

    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WORKLOADS
    assert {
        m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]
    } == layers.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload, tmp_path):
    last, full = run(workload, 0, tmp_path)
    check_metrics(last, SPEC["end_to_end"], nonzero=True)
    detail = full["detail"]
    assert "cut_short" not in detail
    # Fixed work: the list's length depends on the arguments alone.
    assert detail["statements"] == {
        "scan_heavy": 45, "dashboard_repeat": 3000, "mixed_etl": 120,
    }[workload]
    # Percentiles sit inside one statement class.
    assert detail["p50_margin_points"] >= 3.0, detail
    assert detail["p90_margin_points"] >= 3.0, detail
    counts = detail["class_counts"]
    hits = sum(n for cls, n in counts.items() if cls.endswith(".hit"))
    misses = sum(n for cls, n in counts.items() if cls.endswith(".miss"))
    if workload == "scan_heavy":
        assert hits == 0
    elif workload == "dashboard_repeat":
        assert hits == 4 * misses  # 0.80 by construction
    else:
        assert hits == 2 * misses  # each read misses once, then hits twice


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload, tmp_path):
    last, full = run(workload, 1, tmp_path)
    check_metrics(last, SPEC["per_layer"], nonzero=False)
    values = {k: v["value"] for k, v in last["metrics"].items()}
    assert values["systables.rows_per_stmt"] == 1.0
    assert values["trace.overhead_ratio"] > 0
    shares = sum(v for k, v in values.items() if k.startswith("trace.self_share."))
    assert abs(shares - 1.0) <= 0.05
    expected_hit_ratio = {
        "scan_heavy": 0.0, "dashboard_repeat": 0.8, "mixed_etl": 2 / 3,
    }[workload]
    assert abs(values["engine.result_cache_hit_ratio"] - expected_hit_ratio) < 1e-9
    assert values["workers.morsels_per_stmt"] > 0  # the parallel probe ran
    spans = json.loads(Path(full["detail"]["span_file"]).read_text())
    names = {span[3] for span in spans["spans"]}
    assert {"client.stmt", "server.execute", "sql.parse"} <= names
