"""Scoring, metrics, report rendering and stateful alert diffing.

An alert counts as a true positive iff ground truth marks its bucket as
carrying business risk (exploitable, or publicly exposed sensitive data), so
sensitive-exposure alerts score as intended. Precision and the reduction rate
are kept as exact rationals on the report object and rendered to four decimal
places. ``fractions`` is imported by the functions that score, so a scan
never loads it.

``scan_fleet`` takes any iterable of buckets and keeps none of them: the
``scan`` and ``evaluate`` commands still read the fleet with ``load_fleet``,
which the benchmark's per-layer metrics time, but hand their last pass a
generator that drains that list, so each bucket is freed once its alerts
are made, and ``evaluate`` reads the truth only after both passes.

An alert's fingerprint is the SHA-256 of its bucket name, rule id and fired
conditions. The constructor, ``_sha256``, is picked once at import:
CPython's built-in SHA-256 (``_sha2`` from 3.12, ``_sha256`` before), which
costs about 0.1 MB to load, and ``hashlib.sha256`` only on an interpreter
built without it, since hashlib loads OpenSSL (about 3.5 MB resident). The
default scan id in ``cli`` uses the same constructor.

Alert state is the ``first_seen`` map, fingerprint -> id of the scan that
first produced it. It persists as a single JSON document with a
schema-version field, replaced atomically on every save. Scans that update
state hold an exclusive ``flock`` on a sidecar ``<state>.lock`` file, which
the kernel releases when the scan exits, however it exits. ``diff_alerts``
builds no set: it walks the current fingerprints in one sorted list, repeats
skipped, and tests each previous key against the new state.

The scan and rules-run documents and the alert state are written by
``write_json``, byte for byte as ``json.dumps(document, indent=2)`` lays
them out, from one template per part: a head scalar by ``json.dumps``, an
alert dict by one six-key template, and the alert array, the diff's three
fingerprint arrays and the state's ``first_seen`` map ``_BATCH`` (256)
members at a time. Strings are escaped by ``encode_basestring_ascii``, the
escaper ``json.dumps`` uses by default. So ``map(alert_to_dict, alerts)`` has
at most one alert dict out at a time, and no whole array's text is held.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

from .errors import BucketlensError, StateCorruptionError, StateLockError, UnknownBucketError
from .model import Alert, BucketConfig, read_json
from .policy import derive

if TYPE_CHECKING:
    from fractions import Fraction

    from .fleetgen import GroundTruth

# the one SHA-256 of the package; hashlib, which loads OpenSSL, only as a fallback
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

STATE_SCHEMA_VERSION = 1


@dataclass(frozen=True, slots=True)
class RulesetMetrics:
    total_alerts: int
    alerted_buckets: int
    tp: int
    fp: int
    precision: Fraction | None  # None when tp + fp == 0
    modeled_triage_minutes: float


@dataclass(frozen=True, slots=True)
class EvaluationReport:
    default: RulesetMetrics
    unified: RulesetMetrics
    reduction_rate: Fraction | None  # None when the default ruleset is silent


# ---------------------------------------------------------------------------
# Scanning
# ---------------------------------------------------------------------------

def scan_fleet(
    buckets: Iterable[BucketConfig],
    rules: str = "both",
    restrictive_keys: frozenset[str] | None = None,
) -> list[Alert]:
    """Evaluate the chosen ruleset(s) over a fleet; alerts sorted by (bucket, rule id)."""
    if rules not in ("default", "unified", "both"):
        raise ValueError(f"rules must be default, unified or both, got {rules!r}")

    run_default = rules in ("default", "both")
    run_unified = rules in ("unified", "both")
    # a ruleset's module is imported only when it runs, and read from the
    # module at call time, so a wrapper put there sees every call
    if run_default:
        from .defaults import evaluate_default
    if run_unified:
        from .unified import evaluate_unified
    alerts: list[Alert] = []
    for config in buckets:
        derived = derive(config, restrictive_keys)
        if run_default:
            alerts += evaluate_default(config, derived)
        if run_unified:
            alert = evaluate_unified(config, derived, restrictive_keys)
            if alert is not None:
                alerts.append(alert)
    alerts.sort(key=attrgetter("bucket_name", "rule_id"))
    return alerts


# ---------------------------------------------------------------------------
# Classification and metrics
# ---------------------------------------------------------------------------

def classify_alerts(
    alerts: Iterable[Alert], truth: Mapping[str, GroundTruth]
) -> tuple[int, int]:
    """Split alerts into (tp, fp) against business-risk ground truth."""
    tp = fp = 0
    for alert in alerts:
        if alert.bucket_name not in truth:
            raise UnknownBucketError(f"alert references unknown bucket {alert.bucket_name!r}")
        if truth[alert.bucket_name].business_risk:
            tp += 1
        else:
            fp += 1
    return tp, fp


def _ruleset_metrics(
    alerts: Sequence[Alert], truth: Mapping[str, GroundTruth], minutes_per_alert: float
) -> RulesetMetrics:
    from fractions import Fraction

    tp, fp = classify_alerts(alerts, truth)
    total = len(alerts)
    return RulesetMetrics(
        total_alerts=total,
        alerted_buckets=len({a.bucket_name for a in alerts}),
        tp=tp,
        fp=fp,
        precision=Fraction(tp, tp + fp) if tp + fp else None,
        modeled_triage_minutes=total * minutes_per_alert,
    )


# modeled triage minutes per alert of each ruleset, unless the caller gives others
_MINUTES_PER_ALERT = {"default": 8.0, "unified": 1.0}


def compute_metrics(
    default_alerts: Sequence[Alert],
    unified_alerts: Sequence[Alert],
    truth: Mapping[str, GroundTruth],
    minutes_per_alert_default: float = _MINUTES_PER_ALERT["default"],
    minutes_per_alert_unified: float = _MINUTES_PER_ALERT["unified"],
) -> EvaluationReport:
    """Score both rulesets against one truth set and fill every report field.

    Raises ``BucketlensError`` when a modeled triage total is not finite.
    """
    from fractions import Fraction

    default = _ruleset_metrics(default_alerts, truth, minutes_per_alert_default)
    unified = _ruleset_metrics(unified_alerts, truth, minutes_per_alert_unified)
    for name, metrics in (("default", default), ("unified", unified)):
        if not math.isfinite(metrics.modeled_triage_minutes):
            raise BucketlensError(f"{name} ruleset: modeled triage minutes not finite ({metrics.total_alerts} alerts)")
    reduction = (
        1 - Fraction(unified.total_alerts, default.total_alerts)
        if default.total_alerts
        else None
    )
    return EvaluationReport(default=default, unified=unified, reduction_rate=reduction)


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def _round4(value: Fraction | None) -> float | None:
    return None if value is None else round(float(value), 4)


def _fp_rate(metrics: RulesetMetrics) -> Fraction | None:
    from fractions import Fraction

    return Fraction(metrics.fp, metrics.total_alerts) if metrics.total_alerts else None


def _metrics_dict(metrics: RulesetMetrics) -> dict:
    return {
        "total_alerts": metrics.total_alerts,
        "alerted_buckets": metrics.alerted_buckets,
        "true_positives": metrics.tp,
        "false_positives": metrics.fp,
        "false_positive_rate": _round4(_fp_rate(metrics)),
        "precision": _round4(metrics.precision),
        "modeled_triage_minutes": metrics.modeled_triage_minutes,
    }


def report_to_dict(report: EvaluationReport) -> dict:
    """Schema-stable JSON form of a report."""
    return {
        "schema_version": 1,
        "rulesets": {
            "default": _metrics_dict(report.default),
            "unified": _metrics_dict(report.unified),
        },
        "reduction_rate": _round4(report.reduction_rate),
    }


CSV_HEADER = (
    "ruleset,total_alerts,alerted_buckets,true_positives,false_positives,"
    "false_positive_rate,precision,modeled_triage_minutes"
)


def _fmt_rate(value: Fraction | None) -> str:
    return "" if value is None else f"{float(value):.4f}"


def _fmt_minutes(value: float) -> str:
    """The JSON report's digits, with no exponent and no trailing ``.0``."""
    text = repr(value)
    if "e" in text:  # below 1e-4, or from 1e16 up
        from decimal import Decimal
        text = format(Decimal(text), "f")
    return text.removesuffix(".0")


def _render_csv(report: EvaluationReport) -> str:
    lines = [CSV_HEADER]
    for name, m in (("default", report.default), ("unified", report.unified)):
        lines.append(
            f"{name},{m.total_alerts},{m.alerted_buckets},{m.tp},{m.fp},"
            f"{_fmt_rate(_fp_rate(m))},{_fmt_rate(m.precision)},{_fmt_minutes(m.modeled_triage_minutes)}"
        )
    return "\n".join(lines) + "\n"


def _fmt_pct(value: Fraction | None) -> str:
    return "n/a" if value is None else f"{float(value) * 100:.2f}%"


def _render_table(report: EvaluationReport) -> str:
    rows = [
        ("Metric", "Default Ruleset", "Unified Custom Rule"),
        ("Total Alerts", str(report.default.total_alerts), str(report.unified.total_alerts)),
        ("True Positives", str(report.default.tp), str(report.unified.tp)),
        ("False Positive Rate", _fmt_pct(_fp_rate(report.default)), _fmt_pct(_fp_rate(report.unified))),
        (
            "Precision",
            "n/a" if report.default.precision is None else f"{float(report.default.precision):.4f}",
            "n/a" if report.unified.precision is None else f"{float(report.unified.precision):.4f}",
        ),
        (
            "Investigation Time (modeled)",
            f"{_fmt_minutes(report.default.modeled_triage_minutes)} min",
            f"{_fmt_minutes(report.unified.modeled_triage_minutes)} min",
        ),
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = []
    for idx, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * widths[i] for i in range(3)))
    if report.reduction_rate is None:
        lines.append("\nAlert reduction vs default: n/a")
    else:
        exact = report.reduction_rate
        lines.append(
            f"\nAlert reduction vs default: {float(exact):.4f} ({float(exact) * 100:.2f}% fewer alerts)"
        )
    return "\n".join(lines) + "\n"


def render_report(report: EvaluationReport, format: str = "table") -> str:
    """Render a report as ``table``, ``json`` or ``csv`` text."""
    if format == "table":
        return _render_table(report)
    if format == "json":
        return json.dumps(report_to_dict(report), indent=2) + "\n"
    if format == "csv":
        return _render_csv(report)
    raise ValueError(f"unknown report format {format!r}")


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

# Members of an array or map joined into one write. A whole array as one
# string would hold the text of the diff's fingerprint lists at once, and peak
# memory would grow with them.
_BATCH = 256


def write_json(out: TextIO, document: Mapping[str, object]) -> None:
    """Write ``json.dumps(document, indent=2) + "\\n"`` for a scan, rules-run or state document.

    Each value of ``document`` is one of:

    - a str, int, bool or None, written by ``json.dumps``;
    - a list, tuple or iterator of ``alert_to_dict`` dicts, such as
      ``map(alert_to_dict, alerts)``;
    - an ``AlertDiff``, written as its ``new``, ``unchanged`` and ``resolved``
      arrays;
    - a mapping of str to str, the ``first_seen`` map, written in sorted key
      order.

    Any other value raises ``TypeError``. Arrays and the map are written
    ``_BATCH`` members at a time, and each alert dict becomes its text as it
    is drawn, so the alert iterator never has more than one dict out.
    """
    opening = "{"
    for key, value in document.items():
        out.write(f"{opening}\n  {_quote(key)}: ")
        opening = ","
        if value is None or isinstance(value, (str, int)):
            out.write(json.dumps(value))
        elif isinstance(value, (list, tuple, Iterator)):
            _write_members(out, "[]", "\n    ", map(_alert_text, value))
        elif isinstance(value, AlertDiff):
            for head, name in (("{", "new"), (",", "unchanged"), (",", "resolved")):
                out.write(f'{head}\n    "{name}": ')
                _write_members(out, "[]", "\n      ", map(_quote, getattr(value, name)))
            out.write("\n  }")
        elif isinstance(value, Mapping):
            keys = sorted(value)
            entries = map(": ".join, zip(map(_quote, keys), map(_quote, map(value.__getitem__, keys))))
            _write_members(out, "{}", "\n    ", entries)
        else:
            raise TypeError(f"cannot write a {type(value).__name__} in a document")
    out.write("{}\n" if opening == "{" else "\n}\n")


def _write_members(out: TextIO, brackets: str, indent: str, texts: Iterator[str]) -> None:
    """Write an array or object of the member ``texts``, each at ``indent``, ``_BATCH`` at a time.

    No member's text is empty, so an empty join means no member is left.
    """
    opening = brackets[0]
    while batch := f",{indent}".join(islice(texts, _BATCH)):
        out.write(opening + indent + batch)
        opening = ","
    out.write(brackets if opening != "," else indent[:-2] + brackets[1])


def _alert_text(alert: dict) -> str:
    """An ``alert_to_dict`` dict as json.dumps(indent=2) writes it as a member of the alerts array."""
    fired = alert["fired_conditions"]
    fired_text = "[\n        " + ",\n        ".join(map(int.__repr__, fired)) + "\n      ]" if fired else "[]"
    return (
        f'{{\n      "bucket_name": {_quote(alert["bucket_name"])},'
        f'\n      "rule_id": {_quote(alert["rule_id"])},'
        f'\n      "severity": {_quote(alert["severity"])},'
        f'\n      "fired_conditions": {fired_text},'
        f'\n      "explanation": {_quote(alert["explanation"])},'
        f'\n      "fingerprint": {_quote(alert["fingerprint"])}\n    }}'
    )


# ---------------------------------------------------------------------------
# Stateful alerting
# ---------------------------------------------------------------------------

def alert_fingerprint(alert: Alert) -> str:
    """Stable identity of a finding across scans of unchanged configurations."""
    fired = alert.fired_conditions
    conditions = ",".join(map(str, fired)) if fired else ""  # most alerts have none: skip the join
    payload = f"{alert.bucket_name}\n{alert.rule_id}\n{conditions}"
    return _sha256(payload.encode("utf-8")).hexdigest()


def alert_to_dict(alert: Alert) -> dict:
    return {
        "bucket_name": alert.bucket_name,
        "rule_id": alert.rule_id,
        "severity": alert.severity._value_,  # an instance attribute; .value is a property
        "fired_conditions": list(alert.fired_conditions),
        "explanation": alert.explanation,
        "fingerprint": alert_fingerprint(alert),
    }


@dataclass(frozen=True, slots=True)
class AlertDiff:
    new: tuple[str, ...]
    unchanged: tuple[str, ...]
    resolved: tuple[str, ...]
    state: dict[str, str]  # the new first_seen map


def diff_alerts(previous: Mapping[str, str], current: Sequence[Alert], scan_id: str) -> AlertDiff:
    """Partition current alerts against the previous first_seen map.

    Conservation: new + unchanged covers every current fingerprint and
    unchanged + resolved covers every previous one. The returned state holds
    exactly the current fingerprints, preserving first_seen for unchanged.

    The current fingerprints are sorted once, repeats included, and one pass
    over them, skipping a fingerprint equal to the one before it, fills
    ``new``, ``unchanged`` and the state. ``resolved`` is the previous keys
    the state lacks. No set is built: besides the result, only the sorted
    list, a pointer per alert, is held.
    """
    new: list[str] = []
    unchanged: list[str] = []
    first_seen: dict[str, str] = {}
    last = None
    for fp in sorted(map(alert_fingerprint, current)):
        if fp == last:
            continue
        last = fp
        seen = previous.get(fp)
        if seen is None:
            new.append(fp)
            first_seen[fp] = scan_id
        else:
            unchanged.append(fp)
            first_seen[fp] = seen
    resolved = sorted([fp for fp in previous if fp not in first_seen])
    return AlertDiff(new=tuple(new), unchanged=tuple(unchanged), resolved=tuple(resolved), state=first_seen)


def load_state(path: str | Path) -> dict[str, str]:
    """The first_seen map of a state file; equal scan ids share one string.

    Every key must be a fingerprint, 64 lowercase hex digits, and every
    value a string; anything else raises ``StateCorruptionError``.
    """
    try:
        raw = read_json(path, lambda reason: StateCorruptionError(f"cannot read alert state {path}: {reason}"))
    except OSError as exc:
        raise StateCorruptionError(f"cannot read alert state {path}: {exc}") from None
    version = raw.get("schema_version") if isinstance(raw, dict) else None
    if type(version) is not int or version != STATE_SCHEMA_VERSION:  # not True, not 1.0
        raise StateCorruptionError(
            f"alert state {path} has missing or unsupported schema_version"
        )
    first_seen = raw.get("first_seen")
    if not isinstance(first_seen, dict):
        raise StateCorruptionError(f"alert state {path} has a malformed first_seen map")
    # keys are what alert_fingerprint gives, or a later scan would report them resolved;
    # compiled here, not at import, since only a stateful scan reads a state
    if not all(map(re.compile("[0-9a-f]{64}").fullmatch, first_seen)):
        raise StateCorruptionError(f"alert state {path} has a first_seen key that is not an alert fingerprint")
    # json gives every value its own string; a state names only a few scans
    scan_ids: dict[str, str] = {}
    for fp, scan_id in first_seen.items():
        if not isinstance(scan_id, str):
            raise StateCorruptionError(f"alert state {path} has a malformed first_seen map")
        first_seen[fp] = scan_ids.setdefault(scan_id, scan_id)
    return first_seen


def save_state(first_seen: Mapping[str, str], path: str | Path) -> None:
    """Replace the state file atomically: a crash leaves the old or the new state, whole.

    The document goes to a temp file beside ``path``, is flushed and fsynced,
    then renamed over ``path``; on any error the temp file is removed.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            write_json(handle, {"schema_version": STATE_SCHEMA_VERSION, "first_seen": first_seen})
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


@contextmanager
def state_lock(path: str | Path) -> Iterator[None]:
    """Advisory single-writer lock: ``flock`` on the sidecar ``<state>.lock``.

    The kernel drops the lock when its holder exits, killed or not, so a
    crashed scan never locks out later ones. The sidecar is never removed: a
    writer that unlinked it could let the next two writers lock two
    different files.
    """
    lock_path = Path(str(path) + ".lock")
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    except OSError as exc:  # the sidecar is ours; name the state file the user gave
        raise StateLockError(f"cannot lock alert state {path}: {exc.strerror or exc}") from None
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise StateLockError(f"alert state {path} is locked by another scan") from None
        yield
    finally:
        os.close(fd)
