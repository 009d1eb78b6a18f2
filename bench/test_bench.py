"""Self-test of the benchmark at a tiny fleet size.

Kept out of the tier-1 suite (pytest collects only ``tests/``). Run it with

    python -m pytest bench -q

Each case runs ``bench/run.py`` on a 1,000-bucket fleet for one batch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]

# Metrics printed on the "#" lines of each workload, beyond the declared ones.
RAW = {"error_rate": "ratio", "buckets_per_s": "buckets/s", "batch_s": "s", "reference_s": "s",
       "setup_wall_s": "s"}
EXTRA_END_TO_END = {
    "paper-evaluate": {**RAW, "evaluate_s": "s"},
    "adversarial-scan-state": {**RAW, "scan_s": "s", "rescan_s": "s"},
    "paper-unified-dsl": {**RAW, "scan_s": "s", "rules_run_s": "s", "explain_s": "s"},
}
EXTRA_PER_LAYER = {
    "paper-evaluate": {
        "defaults.evaluate_default.us_per_call": "us",
        "defaults.alerts_per_bucket": "alerts/bucket",
        "fleetgen.load_truth.s": "s",
        "evaluation.compute_metrics.ms": "ms",
        "evaluation.render_report.ms": "ms",
    },
    "adversarial-scan-state": {
        "defaults.evaluate_default.us_per_call": "us",
        "defaults.alerts_per_bucket": "alerts/bucket",
        "evaluation.alert_to_dict.us_per_call": "us",
        "evaluation.alert_fingerprint.calls_per_alert": "calls/alert",
        "evaluation.diff_alerts.s": "s",
        "evaluation.load_state.s": "s",
        "evaluation.save_state.s": "s",
        "evaluation.state_bytes": "bytes",
    },
    "paper-unified-dsl": {
        "dsl.parse_rule.ms": "ms",
        "dsl.bind_record.us_per_call": "us",
        "dsl.eval_rule.us_per_call": "us",
        "dsl.eval_rule.match_ratio": "ratio",
        "evaluation.alert_to_dict.us_per_call": "us",
        "evaluation.alert_fingerprint.calls_per_alert": "calls/alert",
    },
}


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny_run(workload: str, trace: int) -> tuple[dict, dict]:
    """Run one tiny batch; return the printed "#" metrics and the result line."""
    proc = run_bench("--workload", workload, "--seed", "42", "--seconds", "0",
                     "--trace", str(trace), "--buckets", "1000")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "#":
            printed[parts[1]] = (float(parts[2]), parts[3])
    printed["_notes"] = lines
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload: str, trace: int) -> None:
    printed, result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {spec["name"] for spec in declared}
    for spec in declared:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
        assert printed[spec["name"]][1] == spec["unit"]
    extra = (EXTRA_PER_LAYER if trace else EXTRA_END_TO_END)[workload]
    for name, unit in extra.items():
        assert printed[name][1] == unit, name
    if not trace:
        assert printed["error_rate"][0] == 0.0


def test_paper_table_at_1k() -> None:
    printed, _ = tiny_run("paper-evaluate", 0)
    assert "# paper table: default 2385 alerts, unified 40 alerts, reduction 0.9832" in printed["_notes"]


def test_redundant_work_counters() -> None:
    evaluate, _ = tiny_run("paper-evaluate", 1)
    assert evaluate["policy.derive.calls_per_bucket"][0] == 2.0
    stateful, _ = tiny_run("adversarial-scan-state", 1)
    assert stateful["evaluation.alert_fingerprint.calls_per_alert"][0] == 2.0


def test_idle_catalog_reads_zero() -> None:
    """On paper-unified-dsl only explain calls the default catalog, on one bucket."""
    dsl, _ = tiny_run("paper-unified-dsl", 1)
    assert dsl["defaults.alerts_per_bucket"][0] == 0.0
    assert "defaults.evaluate_default.us_per_call" not in dsl


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
