"""Command-line entry point.

Subcommands: generate, import, scan, evaluate, explain, rules. Machine output
goes to stdout, diagnostics to stderr. Exit codes: 0 success, 1 findings
present (``scan --fail-on-findings``), 2 usage error, 3 input/schema/state
error. All bucket-keyed output is sorted by bucket name.

The environment variable ``BUCKETLENS_RESTRICTIVE_KEYS`` may point at a JSON
file (array of strings) overriding the built-in restrictive condition-key
set.

A command runs with CPython's cyclic garbage collector off: what it leaves in
reference cycles does not grow with the fleet, so the collector's passes
would only rescan live buckets. ``main`` turns it back on afterwards only if
it was on. A command imports only the layers it calls: the rule engines and
the fleet generator are imported inside the commands that run them, and
``scan_fleet`` imports each ruleset only when it runs it.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import stat
import sys
from collections import Counter
from pathlib import Path

from . import evaluation
from .errors import BucketlensError, LexError, ParseError, SchemaError, UnknownBucketError
from .evaluation import (
    alert_to_dict,
    compute_metrics,
    diff_alerts,
    render_report,
    scan_fleet,
    write_json,
)
from .model import (
    BPA_FLAGS, Alert, import_aws_artifacts, iter_fleet, load_fleet, new_alert, read_utf8, serialize_snapshot_line,
    write_fleet,
)
from .policy import derive, load_restrictive_keys

RESTRICTIVE_KEYS_ENV = "BUCKETLENS_RESTRICTIVE_KEYS"


def _restrictive_keys() -> frozenset[str] | None:
    override = os.environ.get(RESTRICTIVE_KEYS_ENV)
    if not override:
        return None
    return load_restrictive_keys(override)


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_generate(args: argparse.Namespace) -> int:
    from .fleetgen import (
        ADVERSARIAL_MIX,
        PAPER_MIX,
        MixSpec,
        generate_fleet,
        load_mix_file,
        write_truth,
    )

    if args.mix == "paper":
        proportions = dict(PAPER_MIX)
    elif args.mix == "adversarial":
        proportions = dict(ADVERSARIAL_MIX)
    else:
        proportions = load_mix_file(args.mix)
    mix = MixSpec(proportions=proportions, total=args.total, seed=args.seed)
    pairs = sorted(generate_fleet(mix), key=lambda pair: pair[0].name)

    out = Path(args.out)
    truth_path = (
        out.with_name(out.name[: -len(".jsonl")] + ".truth.jsonl")
        if out.name.endswith(".jsonl")
        else Path(str(out) + ".truth.jsonl")
    )
    write_fleet((config for config, _ in pairs), out)
    write_truth(pairs, truth_path)
    risky = sum(1 for _, truth in pairs if truth.business_risk)
    print(
        f"wrote {len(pairs)} buckets to {out} ({risky} with business risk); truth in {truth_path}",
        file=sys.stderr,
    )
    return 0


def cmd_import(args: argparse.Namespace) -> int:
    configs = [import_aws_artifacts(directory) for directory in args.directories]
    counts = Counter(c.name for c in configs)
    duplicates = sorted(directory for directory, config in zip(args.directories, configs) if counts[config.name] > 1)
    if duplicates:
        raise SchemaError(f"duplicate bucket directories: {', '.join(duplicates)}")
    configs.sort(key=lambda c: c.name)
    if args.out:
        write_fleet(configs, args.out)
        print(f"imported {len(configs)} bucket(s) to {args.out}", file=sys.stderr)
    else:
        for config in configs:
            _emit(serialize_snapshot_line(config))
    return 0


def _default_scan_id(path: str | Path) -> str:
    """``scan-`` and the first 12 hex digits of the SHA-256 of the file's bytes.

    The file is read in 1 MiB chunks, so its bytes are never held whole.
    The fleet is then read from it a second time, so it must be a regular
    file: hashing a pipe would drain it and leave the scan an empty fleet.
    The hash is the one the alert fingerprints use (see ``evaluation``).
    """
    digest = evaluation._sha256()
    with open(path, "rb") as handle:
        if not stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            raise BucketlensError(f"--input {path} is not a regular file and cannot be read twice; give --scan-id")
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
    return f"scan-{digest.hexdigest()[:12]}"


def cmd_scan(args: argparse.Namespace) -> int:
    keys = _restrictive_keys()
    scan_id = args.scan_id or _default_scan_id(args.input)  # an empty --scan-id is a usage error
    buckets = load_fleet(args.input)
    alerts = scan_fleet(buckets, rules=args.rules, restrictive_keys=keys)
    del buckets  # freed before the diff and the document are built

    diff = None
    if args.state:
        state_path = Path(args.state)
        with evaluation.state_lock(state_path):
            previous = evaluation.load_state(state_path) if state_path.exists() else {}
            diff = diff_alerts(previous, alerts, scan_id)
            del previous  # diff.state holds what the new state keeps of it
            evaluation.save_state(diff.state, state_path)

    document = {
        "schema_version": 1,
        "rules": args.rules,
        "scan_id": scan_id,
        "total_alerts": len(alerts),
        "alerts": map(alert_to_dict, alerts),
        "diff": diff,
    }
    write_json(sys.stdout, document)
    if args.fail_on_findings and alerts:
        return 1
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .fleetgen import load_truth

    keys = _restrictive_keys()
    buckets = load_fleet(args.input)  # read first, so its errors win
    truth = load_truth(args.truth)
    default_alerts = scan_fleet(buckets, rules="default", restrictive_keys=keys)
    unified_alerts = scan_fleet(buckets, rules="unified", restrictive_keys=keys)
    report = compute_metrics(
        default_alerts,
        unified_alerts,
        truth,
        minutes_per_alert_default=args.minutes_default,
        minutes_per_alert_unified=args.minutes_unified,
    )
    if args.report:
        Path(args.report).write_text(render_report(report, "json"), encoding="utf-8")
    _emit(render_report(report, args.format))
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from .defaults import evaluate_default
    from .unified import UNIFIED_RULE_ID, condition_verdicts

    keys = _restrictive_keys()
    config = None
    # every line is parsed and checked, so a malformed line or a repeated
    # name anywhere in the file wins over a missing bucket
    for bucket in iter_fleet(args.input):
        if bucket.name == args.bucket:
            config = bucket
    if config is None:
        raise UnknownBucketError(f"bucket {args.bucket!r} not found in {args.input}")
    derived = derive(config, keys)
    verdicts = condition_verdicts(config, derived, keys)
    default_alerts = evaluate_default(config, derived)

    bpa = config.public_access_block
    lines = [
        f"bucket: {config.name} (region {config.region})",
        "derived properties:",
        f"  policy_status_public: {str(derived.policy_status_public).lower()}",
        f"  exposure: {derived.exposure.value}",
        f"  sensitive_data: {str(derived.sensitive_data).lower()}",
        "block public access: "
        + " ".join(f"{name}={str(getattr(bpa, name)).lower()}" for name, _ in BPA_FLAGS),
    ]
    fired = [v.number for v in verdicts if v.fired]
    if fired:
        lines.append("unified conditions fired: " + ", ".join(str(n) for n in fired))
    else:
        lines.append("unified conditions: no conditions fired")
    for verdict in verdicts:
        marker = "YES" if verdict.fired else "no"
        lines.append(f"  C{verdict.number} [{marker}] {verdict.detail}")
    # the unified rule's one alert is High and lists the fired conditions
    lines.append(f"unified alert: {UNIFIED_RULE_ID} [High] conditions {fired}" if fired else "unified alert: none")
    lines.append(f"default alerts ({len(default_alerts)}):")
    for alert in default_alerts:
        lines.append(f"  {alert.rule_id} [{alert.severity.value}] {alert.explanation}")
    _emit("\n".join(lines))
    return 0


def cmd_rules_list(args: argparse.Namespace) -> int:
    if args.set == "default":
        from .defaults import default_catalog

        lines = [f"{'ID':35} {'SEVERITY':8} TITLE", f"{'-' * 35} {'-' * 8} {'-' * 40}"]
        for rule in default_catalog():
            lines.append(f"{rule.id:35} {rule.severity.value:8} {rule.title}")
        _emit("\n".join(lines))
    else:
        from .unified import _CONDITION_SUMMARIES, UNIFIED_RULE_ID, UNIFIED_RULE_TITLE

        lines = [
            f"{UNIFIED_RULE_ID} [High] {UNIFIED_RULE_TITLE}",
            "fires when any condition holds; one alert per bucket:",
        ]
        for number in sorted(_CONDITION_SUMMARIES):
            lines.append(f"  C{number}: {_CONDITION_SUMMARIES[number]}")
        _emit("\n".join(lines))
    return 0


def cmd_rules_run(args: argparse.Namespace) -> int:
    from .dsl import bind_record, eval_rule, parse_rule

    keys = _restrictive_keys()
    source = read_utf8(args.file, lambda reason: SchemaError(f"rule file {args.file} is {reason}"))
    try:
        ast = parse_rule(source)
    except (LexError, ParseError, SchemaError) as exc:  # each carries the offending token's offset
        raise BucketlensError(f"{args.file}:{exc.offset}: {exc.message}") from exc
    explanation = f"rule {ast.name!r} matched"
    alerts: list[Alert] = []
    for config in iter_fleet(args.input):
        derived = derive(config, keys)
        if eval_rule(ast, bind_record(config, derived, keys)):
            alerts.append(new_alert(config.name, ast.name, ast.severity, (), explanation))
    alerts.sort(key=lambda alert: alert.bucket_name)  # names are unique
    document = {
        "schema_version": 1,
        "rule": ast.name,
        "severity": ast.severity.value,
        "total_alerts": len(alerts),
        "alerts": map(alert_to_dict, alerts),
    }
    write_json(sys.stdout, document)
    return 0


def _minutes(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number of minutes >= 0, got {text!r}")
    return value or 0.0  # -0 renders as 0


def _scan_id(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("expected a non-empty scan id")
    # an argument that is not UTF-8 arrives with surrogate escapes, which no later scan could read back
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError(f"expected a UTF-8 scan id, got {text!r}") from None
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bucketlens",
        description="Evaluate S3 bucket configurations against the default "
        "rule catalog and the unified public-access rule.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a labeled synthetic fleet")
    p.add_argument("--total", type=int, required=True, help="number of buckets to generate")
    p.add_argument(
        "--mix",
        default="paper",
        help="scenario mix: 'paper', 'adversarial', or a path to a JSON mix file",
    )
    p.add_argument("--seed", type=int, default=42, help="RNG seed (64-bit integer)")
    p.add_argument("--out", required=True, help="output fleet snapshot (JSONL)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("import", help="import AWS-CLI-shaped per-bucket artifact directories")
    p.add_argument(
        "directories",
        nargs="+",
        help="bucket directories (the directory name is the bucket name)",
    )
    p.add_argument("--out", help="output fleet snapshot; stdout when omitted")
    p.set_defaults(func=cmd_import)

    p = sub.add_parser("scan", help="scan a fleet and emit alerts as JSON")
    p.add_argument("--input", required=True, help="fleet snapshot (JSONL)")
    p.add_argument(
        "--rules",
        choices=("unified", "default", "both"),
        default="both",
        help="which ruleset(s) to evaluate",
    )
    p.add_argument("--state", help="alert-state file for stateful new/unchanged/resolved diffing")
    p.add_argument("--scan-id", type=_scan_id, help="scan identifier recorded as first_seen for new alerts")
    p.add_argument(
        "--fail-on-findings",
        action="store_true",
        help="exit with code 1 when any alert fires",
    )
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("evaluate", help="score both rulesets against ground truth")
    p.add_argument("--input", required=True, help="fleet snapshot (JSONL)")
    p.add_argument("--truth", required=True, help="ground-truth JSONL")
    p.add_argument("--report", help="write the JSON report to this path")
    p.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default="table",
        help="stdout rendering",
    )
    for ruleset, noun in (("default", "default-ruleset"), ("unified", "unified-rule")):
        p.add_argument(
            f"--minutes-{ruleset}",
            type=_minutes,
            default=evaluation._MINUTES_PER_ALERT[ruleset],
            help=f"modeled triage minutes per {noun} alert",
        )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("explain", help="explain every unified condition for one bucket")
    p.add_argument("bucket", help="bucket name")
    p.add_argument("--input", required=True, help="fleet snapshot (JSONL)")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("rules", help="inspect rulesets or run a custom DSL rule")
    rules_sub = p.add_subparsers(dest="rules_command", required=True)
    lp = rules_sub.add_parser("list", help="print a ruleset catalog")
    lp.add_argument("--set", choices=("default", "unified"), required=True)
    lp.set_defaults(func=cmd_rules_list)
    rp = rules_sub.add_parser("run", help="evaluate a .rule file over a fleet")
    rp.add_argument("--file", required=True, help="rule source file")
    rp.add_argument("--input", required=True, help="fleet snapshot (JSONL)")
    rp.set_defaults(func=cmd_rules_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # no command builds a reference cycle per bucket (tests/test_cli.py checks
    # that), so the collector would only rescan the fleet; an in-process
    # caller gets it back as it was
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except BucketlensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if collecting:
            gc.enable()


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
