"""bucketlens: S3 bucket misconfiguration detection and alert-quality metrics.

A noisy 24-rule default catalog and a single unified context-aware rule are
evaluated over bucket configurations (ingested from snapshots or AWS-CLI
artifacts, or synthesized as labeled fleets), then scored against an
exploitability oracle to compare precision, alert volume and modeled triage
workload.

Each exported name is imported from its layer module on first access
(PEP 562), so importing the package, or one command's modules, does not
import every layer.
"""

import importlib

# Layer module -> the names the package exports from it.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "defaults": (
        "DefaultRule", "default_catalog", "evaluate_default",
    ),
    "dsl": (
        "RuleAst", "Token", "TokenKind", "bind_record", "eval_rule", "like_match",
        "parse_rule", "render_rule", "tokenize",
    ),
    "errors": (
        "BucketlensError", "DuplicateNameError", "FrozenInstanceError", "LexError", "MissingArtifactError",
        "MixError", "ParseError", "SchemaError", "StateCorruptionError",
        "StateLockError", "UnknownBucketError", "UnknownScenarioError",
    ),
    "evaluation": (
        "AlertDiff", "EvaluationReport", "RulesetMetrics", "alert_fingerprint",
        "classify_alerts", "compute_metrics", "diff_alerts", "load_state",
        "render_report", "report_to_dict", "save_state", "scan_fleet", "state_lock",
    ),
    "fleetgen": (
        "ADVERSARIAL_MIX", "PAPER_MIX", "GroundTruth", "MixSpec", "Scenario",
        "generate_fleet", "get_scenario", "ground_truth_for", "load_mix_file",
        "load_truth", "scenario_catalog", "serialize_truth_line", "write_truth",
    ),
    "model": (
        "ALL_USERS_URI", "AUTHENTICATED_USERS_URI", "LOG_DELIVERY_URI", "AclGrant",
        "Alert", "BucketConfig", "Effect", "GranteeType", "Permission", "PolicyStatement",
        "PublicAccessBlock", "Severity", "import_aws_artifacts", "iter_fleet",
        "load_fleet", "parse_snapshot_line", "serialize_snapshot_line", "to_snapshot_dict",
        "write_fleet",
    ),
    "policy": (
        "RESTRICTIVE_CONDITION_KEYS", "SENSITIVE_TAG_KEY", "AccessSet",
        "DerivedProperties", "Exposure", "action_matches", "derive", "effective_anonymous_access",
        "has_restrictive_condition", "is_policy_public", "is_sensitive",
    ),
    "unified": (
        "RISKY_ACTION_MARKERS", "UNIFIED_RULE_ID", "UNIFIED_RULE_TITLE",
        "ConditionVerdict", "condition_verdicts", "evaluate_unified",
        "unified_dsl_source",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
