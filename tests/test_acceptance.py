"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria 1-2 drive the real CLI over a 1,000-bucket generated fleet;
the rest exercise the library surfaces directly.
"""

from __future__ import annotations

import json
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bucketlens.cli import main
from bucketlens.defaults import evaluate_default
from bucketlens.dsl import bind_record, eval_rule, like_match, parse_rule, render_rule
from bucketlens.evaluation import compute_metrics, scan_fleet
from bucketlens.fleetgen import MixSpec, PAPER_MIX, generate_fleet, load_truth, scenario_catalog
from bucketlens.model import (
    BucketConfig,
    PublicAccessBlock,
    import_aws_artifacts,
    load_fleet,
    parse_snapshot_line,
    serialize_snapshot_line,
)
from bucketlens.policy import Exposure, derive, effective_anonymous_access
from bucketlens.unified import evaluate_unified, unified_dsl_source

from conftest import FIXTURES, random_bucket_config
from test_dsl import HAND_RULES, _random_ast

REPO_ROOT = Path(__file__).resolve().parent.parent


def _ok(number: int, label: str) -> None:
    print(f"[acceptance] criterion {number} ({label}): PASS")


@pytest.fixture(scope="module")
def paper_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("paper-run")
    fleet_path = base / "fleet.jsonl"
    truth_path = base / "fleet.truth.jsonl"
    report_path = base / "report.json"

    started = time.perf_counter()
    assert main(["generate", "--total", "1000", "--mix", "paper", "--seed", "42", "--out", str(fleet_path)]) == 0
    assert (
        main(
            [
                "evaluate",
                "--input", str(fleet_path),
                "--truth", str(truth_path),
                "--report", str(report_path),
                "--format", "table",
            ]
        )
        == 0
    )
    elapsed = time.perf_counter() - started

    buckets = load_fleet(fleet_path)
    truth = load_truth(truth_path)
    return {
        "fleet_path": fleet_path,
        "truth_path": truth_path,
        "report": json.loads(report_path.read_text()),
        "elapsed": elapsed,
        "buckets": buckets,
        "truth": truth,
    }


def test_criterion_1_table_shape(paper_run):
    report = paper_run["report"]
    default = report["rulesets"]["default"]
    unified = report["rulesets"]["unified"]

    assert default["total_alerts"] >= 1200
    assert default["false_positive_rate"] > 0.80
    assert default["precision"] < 0.25

    assert unified["total_alerts"] == 40
    assert unified["precision"] == 1.0

    # recall against business-risk labels: every risky bucket is alerted
    unified_alerts = scan_fleet(paper_run["buckets"], rules="unified")
    alerted = {a.bucket_name for a in unified_alerts}
    risky = {name for name, t in paper_run["truth"].items() if t.business_risk}
    assert risky, "calibrated fleet must contain risky buckets"
    assert alerted == risky  # recall = 1.0 and no spurious alerted buckets
    assert len(risky) == 40

    assert paper_run["elapsed"] < 10.0, f"pipeline took {paper_run['elapsed']:.2f}s"
    _ok(1, "table-shape reproduction")


def test_criterion_2_reduction_rate(paper_run):
    report = paper_run["report"]
    assert report["reduction_rate"] is not None
    assert report["reduction_rate"] >= 0.95
    # the rendered report prints the computed value, not just a threshold claim
    buckets, truth = paper_run["buckets"], paper_run["truth"]
    live = compute_metrics(scan_fleet(buckets, "default"), scan_fleet(buckets, "unified"), truth)
    from bucketlens.evaluation import render_report

    table = render_report(live, "table")
    assert f"{float(live.reduction_rate):.4f}" in table
    _ok(2, "alert-volume reduction")


def test_criterion_3_dsl_builtin_equivalence(paper_run):
    ast = parse_rule(unified_dsl_source())
    mismatches = 0

    for config in paper_run["buckets"]:
        derived = derive(config)
        if (evaluate_unified(config, derived) is not None) != eval_rule(ast, bind_record(config, derived)):
            mismatches += 1

    rng = random.Random(424242)
    for _ in range(10_000):
        config = random_bucket_config(rng)
        derived = derive(config)
        if (evaluate_unified(config, derived) is not None) != eval_rule(ast, bind_record(config, derived)):
            mismatches += 1

    assert mismatches == 0
    _ok(3, "DSL/built-in equivalence")


def _with_bpa(config: BucketConfig, **flags) -> BucketConfig:
    return config.replace(public_access_block=config.public_access_block.replace(**flags))


def _with_restriction(config: BucketConfig) -> BucketConfig:
    if config.policy is None:
        return config
    return config.replace(
        policy=tuple(
            s.replace(condition={**(s.condition or {}), "aws:SourceIp": ("198.51.100.0/24",)})
            for s in config.policy
        )
    )


def test_criterion_4_oracle_property_suite():
    rng = random.Random(515151)
    counterexamples = 0
    for _ in range(10_000):
        config = random_bucket_config(rng)
        oracle = effective_anonymous_access(config)
        derived = derive(config)

        # BPA neutralization
        neutral = _with_bpa(config, ignore_public_acls=True, restrict_public_buckets=True)
        if effective_anonymous_access(neutral):
            counterexamples += 1

        # restrictive-condition monotonicity
        stricter = _with_restriction(config)
        strict_oracle = effective_anonymous_access(stricter)
        for capability in ("read", "write", "acl_read", "acl_write"):
            if getattr(strict_oracle, capability) and not getattr(oracle, capability):
                counterexamples += 1
        if (
            derived.exposure is Exposure.INTERNAL
            and derive(stricter).exposure is Exposure.PUBLIC_FACING
        ):
            counterexamples += 1

        # heuristic dominance
        if oracle and derived.exposure is not Exposure.PUBLIC_FACING:
            counterexamples += 1

        # default-superset coverage
        if evaluate_unified(config, derived) is not None and not evaluate_default(config, derived):
            counterexamples += 1

    assert counterexamples == 0
    _ok(4, "oracle property suite")


def test_criterion_5_scenario_expectations():
    for scenario in scenario_catalog():
        mix = MixSpec(proportions={scenario.id: 1.0}, total=100, seed=5150)
        for config, truth in generate_fleet(mix):
            derived = derive(config)
            alert = evaluate_unified(config, derived)
            fired = alert.fired_conditions if alert else ()
            assert fired == scenario.expected_unified_conditions, scenario.id
            assert len(evaluate_default(config, derived)) >= scenario.expected_default_rule_count_min
            assert truth.exploitable == scenario.expected_exploitable
            assert truth.business_risk == scenario.expected_business_risk
    _ok(5, "scenario expectation table")


def test_criterion_6_stateful_alerting(tmp_path, capsys):
    fleet_path = tmp_path / "fleet.jsonl"
    state_path = tmp_path / "state.json"
    assert main(["generate", "--total", "200", "--mix", "paper", "--seed", "6", "--out", str(fleet_path)]) == 0
    capsys.readouterr()

    assert main(["scan", "--input", str(fleet_path), "--rules", "unified", "--state", str(state_path), "--scan-id", "s1"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["total_alerts"] > 0
    assert len(first["diff"]["new"]) == first["total_alerts"]

    assert main(["scan", "--input", str(fleet_path), "--rules", "unified", "--state", str(state_path), "--scan-id", "s2"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["diff"]["new"] == []
    assert second["diff"]["resolved"] == []
    assert len(second["diff"]["unchanged"]) == first["total_alerts"]

    # remediate one alerted bucket: strip its grants/policy and lock BPA
    remediated_name = first["alerts"][0]["bucket_name"]
    lines = fleet_path.read_text().splitlines()
    fixed = []
    for line in lines:
        config = parse_snapshot_line(line)
        if config.name == remediated_name:
            config = BucketConfig(
                name=config.name,
                region=config.region,
                public_access_block=PublicAccessBlock(True, True, True, True),
            )
        fixed.append(serialize_snapshot_line(config))
    fleet_path.write_text("".join(l + "\n" for l in fixed))

    assert main(["scan", "--input", str(fleet_path), "--rules", "unified", "--state", str(state_path), "--scan-id", "s3"]) == 0
    third = json.loads(capsys.readouterr().out)
    assert len(third["diff"]["resolved"]) == 1
    assert third["diff"]["new"] == []
    assert len(third["diff"]["unchanged"]) == first["total_alerts"] - 1
    _ok(6, "stateful alerting")


def test_criterion_7_ingestion_fidelity():
    golden_lines = (FIXTURES / "golden" / "aws_import.jsonl").read_text().splitlines()
    directories = sorted((FIXTURES / "aws").iterdir())
    assert len(golden_lines) == len(directories) == 3
    for directory, golden in zip(directories, golden_lines):
        config = import_aws_artifacts(directory)
        assert serialize_snapshot_line(config) == golden
        assert parse_snapshot_line(golden) == config
    # the corpus covers both the embedded-policy-string case and missing-BPA
    names = [json.loads(l)["name"] for l in golden_lines]
    assert "fixture-embedded-policy" in names
    assert any(
        json.loads(l)["public_access_block"]["block_public_acls"] is False for l in golden_lines
    )
    _ok(7, "ingestion fidelity")


def test_criterion_8_metric_unit_checks():
    from bucketlens.fleetgen import GroundTruth
    from bucketlens.model import Alert, Severity

    def truth_map(tp_count, fp_count):
        truths = {}
        for i in range(tp_count):
            truths[f"tp-{i}"] = GroundTruth(True, True, "x")
        for i in range(fp_count):
            truths[f"fp-{i}"] = GroundTruth(False, False, "x")
        return truths

    def mk_alerts(truths):
        return [Alert(name, "R", Severity.HIGH, (), "") for name in truths]

    truths = truth_map(8, 32)
    report = compute_metrics(mk_alerts(truths), [], truths)
    assert report.default.precision == Fraction(1, 5)

    empty = compute_metrics([], [], {})
    assert empty.default.precision is None and empty.unified.precision is None

    truths = truth_map(1200, 0)
    default_alerts = mk_alerts(truths)
    unified_alerts = default_alerts[:40]
    timed = compute_metrics(default_alerts, unified_alerts, truths)
    assert timed.default.modeled_triage_minutes == 1200 * 8
    assert timed.unified.modeled_triage_minutes == 40 * 1
    _ok(8, "metrics unit checks")


def test_criterion_9_round_trip_and_like_oracle():
    corpus = list(HAND_RULES)
    corpus.append((REPO_ROOT / "rules" / "unified.rule").read_text(encoding="utf-8"))
    rng = random.Random(616161)
    while len(corpus) < 50:
        from bucketlens.dsl import RuleAst
        from bucketlens.model import Severity

        corpus.append(render_rule(RuleAst(f"gen-{len(corpus)}", Severity.LOW, _random_ast(rng))))
    for source in corpus:
        ast = parse_rule(source)
        assert parse_rule(render_rule(ast)) == ast

    def like_oracle(pattern: str, text: str) -> bool:
        regex = ".*".join(re.escape(part) for part in pattern.split("%"))
        return re.fullmatch(regex, text, re.DOTALL) is not None

    alphabet = "ab%*/:U3_ \n"
    mismatches = 0
    for _ in range(100_000):
        pattern = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        if like_match(pattern, text) != like_oracle(pattern, text):
            mismatches += 1
    assert mismatches == 0
    _ok(9, "DSL round-trip and LIKE oracle")
