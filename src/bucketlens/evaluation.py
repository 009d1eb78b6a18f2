"""Scoring, metrics, report rendering and stateful alert diffing.

An alert counts as a true positive iff ground truth marks its bucket as
carrying business risk (exploitable, or publicly exposed sensitive data), so
sensitive-exposure alerts score as intended. Precision and the reduction rate
are kept as exact rationals on the report object and rendered to four decimal
places.

Alert state persists as a single JSON document with a schema-version field,
replaced atomically on every save. Scans that update state hold an exclusive
``flock`` on a sidecar ``<state>.lock`` file, which the kernel releases when
the scan exits, however it exits.

Indented JSON documents (scan and rules-run output, alert state) are written
row by row by ``write_json``, so no whole document is held in memory. A row is
a short container of scalars, such as one alert dict, rendered as one string;
long scalar arrays and dicts, such as the diff's fingerprint lists and the
state's ``first_seen`` map, are rendered in slices of ``_SLICE`` members. The
text is written in batches of about ``_WRITE_BUDGET`` bytes.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

from .defaults import evaluate_default
from .errors import StateCorruptionError, StateLockError, UnknownBucketError
from .model import BucketConfig, Severity, read_json
from .policy import derive
from .unified import Alert, evaluate_unified

if TYPE_CHECKING:
    from .fleetgen import GroundTruth

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
    buckets: Sequence[BucketConfig],
    rules: str = "both",
    restrictive_keys: frozenset[str] | None = None,
) -> list[Alert]:
    """Evaluate the chosen ruleset(s) over a fleet; alerts sorted by (bucket, rule id)."""
    if rules not in ("default", "unified", "both"):
        raise ValueError(f"rules must be default, unified or both, got {rules!r}")

    def scan_one(config: BucketConfig) -> list[Alert]:
        derived = derive(config, restrictive_keys)
        alerts: list[Alert] = []
        if rules in ("default", "both"):
            alerts.extend(evaluate_default(config, derived))
        if rules in ("unified", "both"):
            alert = evaluate_unified(config, derived, restrictive_keys)
            if alert is not None:
                alerts.append(alert)
        return alerts

    per_bucket = [scan_one(config) for config in buckets]
    alerts = [alert for bucket_alerts in per_bucket for alert in bucket_alerts]
    alerts.sort(key=lambda a: (a.bucket_name, a.rule_id))
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


def compute_metrics(
    default_alerts: Sequence[Alert],
    unified_alerts: Sequence[Alert],
    truth: Mapping[str, GroundTruth],
    minutes_per_alert_default: float = 8.0,
    minutes_per_alert_unified: float = 1.0,
) -> EvaluationReport:
    """Score both rulesets against one truth set and fill every report field."""
    default = _ruleset_metrics(default_alerts, truth, minutes_per_alert_default)
    unified = _ruleset_metrics(unified_alerts, truth, minutes_per_alert_unified)
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


def _render_csv(report: EvaluationReport) -> str:
    lines = [CSV_HEADER]
    for name, m in (("default", report.default), ("unified", report.unified)):
        lines.append(
            f"{name},{m.total_alerts},{m.alerted_buckets},{m.tp},{m.fp},"
            f"{_fmt_rate(_fp_rate(m))},{_fmt_rate(m.precision)},{m.modeled_triage_minutes:g}"
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
            f"{report.default.modeled_triage_minutes:g} min",
            f"{report.unified.modeled_triage_minutes:g} min",
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
# Streamed JSON output
# ---------------------------------------------------------------------------

# Members per piece. A dict, list or tuple of at most this many members,
# each a scalar or a short container of scalars, is one row, rendered as one
# string; longer containers and iterators are rendered in pieces of this many
# rows. A whole long array as one string would hold the text of the diff's
# fingerprint lists at once, and peak memory would grow with them.
_SLICE = 256

# Characters gathered before one write; the output is ASCII, so they are
# bytes. An unbuffered stdout (``python -u``, PYTHONUNBUFFERED) makes every
# write a system call, which costs more than the writer's own work when each
# piece is written on its own.
_WRITE_BUDGET = 64 * 1024

_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def write_json(out: TextIO, document: object) -> None:
    """Write ``json.dumps(document, indent=2) + "\\n"`` to ``out``, row by row.

    Supported values are str (dict keys too), int, bool, None, and dicts,
    lists and tuples of them. An iterator is written as an array, taking one
    element at a time, so ``map(alert_to_dict, alerts)`` holds one alert dict
    at a time instead of all of them. Any other type (floats included)
    raises ``TypeError``.

    A dict, list or tuple of at most ``_SLICE`` members, each a scalar or
    such a container of scalars, is rendered as one string, a row: each
    alert dict is one row. Longer containers and iterators are rendered in
    pieces of up to ``_SLICE`` rows. Pieces are gathered until they reach
    ``_WRITE_BUDGET`` characters and then written at once, so a write
    exceeds the budget by less than its last piece.
    """
    # Dict row templates by key tuple and depth, for this document only.
    templates: dict[tuple[tuple[str, ...], str], str] = {}
    text = _row_text(document, "\n", templates)
    pieces = (text,) if text is not None else _container_pieces(document, "\n", templates)
    pending: list[str] = []
    size = 0
    for piece in pieces:
        pending.append(piece)
        size += len(piece)
        if size >= _WRITE_BUDGET:
            out.write("".join(pending))
            pending.clear()
            size = 0
    pending.append("\n")
    out.write("".join(pending))


def _json_scalar(value: object) -> str | None:
    """The JSON text of a str, int, bool or None; None for any other value."""
    render = _SCALAR_TEXT.get(type(value))
    if render is not None:
        return render(value)
    # subclasses, such as str and int enum members
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    return None


def _key_heads(keys: Iterable[object], inner: str) -> Iterator[str]:
    """The text before each member of a dict with ``keys``: separator, indent, key and colon."""
    separator = "{" + inner
    for key in keys:
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        yield separator + encode_basestring_ascii(key) + ": "
        separator = "," + inner


def _row_text(value: object, newline: str, templates: dict, nested: bool = True) -> str | None:
    """The whole text of ``value`` at the depth ``newline`` ends at, if it is one row.

    A row is a scalar, or a dict, list or tuple of at most ``_SLICE`` members
    that are scalars or (when ``nested``) rows of scalars. Anything else
    gives None. A dict row is filled into a ``%s`` template of its key heads,
    built once per key tuple and depth and kept in ``templates``.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        if len(value) > _SLICE:
            return None
        members = value.values()
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if len(value) > _SLICE:
            return None
        members = value
    else:
        return _json_scalar(value)
    inner = newline + "  "
    texts = []
    scalar_text = _SCALAR_TEXT.get
    for item in members:
        render = scalar_text(type(item))
        if render is not None:
            text = render(item)
        elif nested:
            text = _row_text(item, inner, templates, False)
        else:
            text = _json_scalar(item)
        if text is None:
            return None
        texts.append(text)
    if not isinstance(value, dict):
        return "[" + inner + ("," + inner).join(texts) + newline + "]"
    key = (tuple(value), newline)
    template = templates.get(key)
    if template is None:
        heads = "%s".join(head.replace("%", "%%") for head in _key_heads(value, inner))
        template = templates[key] = heads + "%s" + newline + "}"
    return template % tuple(texts)


def _container_pieces(value: object, newline: str, templates: dict) -> Iterator[str]:
    """The text of a container that is not one row, as json.dumps(indent=2) lays it out.

    Members that are rows are joined, up to ``_SLICE`` of them per piece;
    any other member is recursed into.
    """
    inner = newline + "  "
    if isinstance(value, dict):
        members = zip(_key_heads(value, inner), value.values())
        brackets = "{}"
    elif isinstance(value, (list, tuple, Iterator)):
        members = zip(chain(("[" + inner,), repeat("," + inner)), value)
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    row: list[str] = []
    head = None
    scalar_text = _SCALAR_TEXT.get
    for head, item in members:
        render = scalar_text(type(item))
        text = render(item) if render is not None else _row_text(item, inner, templates)
        if text is None:
            row.append(head)
            yield "".join(row)
            row.clear()
            yield from _container_pieces(item, inner, templates)
        else:
            row += (head, text)
            if len(row) >= 2 * _SLICE:
                yield "".join(row)
                row.clear()
    if head is None:
        yield brackets
        return
    row += (newline, brackets[1])
    yield "".join(row)


# ---------------------------------------------------------------------------
# Stateful alerting
# ---------------------------------------------------------------------------

# Keyed by identity: Severity.__hash__ is Python code, and members are singletons.
_SEVERITY_TEXT = {id(severity): severity.value for severity in Severity}


def alert_fingerprint(alert: Alert) -> str:
    """Stable identity of a finding across scans of unchanged configurations."""
    fired = alert.fired_conditions
    conditions = ",".join(map(str, sorted(fired))) if fired else ""
    payload = f"{alert.bucket_name}\n{alert.rule_id}\n{conditions}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def alert_to_dict(alert: Alert) -> dict:
    fired = alert.fired_conditions
    return {
        "bucket_name": alert.bucket_name,
        "rule_id": alert.rule_id,
        "severity": _SEVERITY_TEXT[id(alert.severity)],
        "fired_conditions": sorted(fired) if fired else [],
        "explanation": alert.explanation,
        "fingerprint": alert_fingerprint(alert),
    }


@dataclass(frozen=True, slots=True)
class AlertState:
    """Fingerprint -> scan id of the scan that first produced it."""

    first_seen: Mapping[str, str]


@dataclass(frozen=True, slots=True)
class AlertDiff:
    new: tuple[str, ...]
    unchanged: tuple[str, ...]
    resolved: tuple[str, ...]
    state: AlertState


def empty_state() -> AlertState:
    return AlertState(first_seen={})


def diff_alerts(previous: AlertState, current: Sequence[Alert], scan_id: str) -> AlertDiff:
    """Partition current alerts against the previous state.

    Conservation: new + unchanged covers every current fingerprint and
    unchanged + resolved covers every previous one. The returned state holds
    exactly the current fingerprints, preserving first_seen for unchanged.
    """
    current_fps = {alert_fingerprint(alert) for alert in current}
    previous_fps = set(previous.first_seen)
    new = sorted(current_fps - previous_fps)
    unchanged = sorted(current_fps & previous_fps)
    resolved = sorted(previous_fps - current_fps)
    first_seen = {fp: scan_id for fp in new}
    first_seen.update({fp: previous.first_seen[fp] for fp in unchanged})
    return AlertDiff(
        new=tuple(new),
        unchanged=tuple(unchanged),
        resolved=tuple(resolved),
        state=AlertState(first_seen=first_seen),
    )


def load_state(path: str | Path) -> AlertState:
    try:
        raw = read_json(path, lambda reason: StateCorruptionError(f"cannot read alert state {path}: {reason}"))
    except OSError as exc:
        raise StateCorruptionError(f"cannot read alert state {path}: {exc}") from None
    if not isinstance(raw, dict) or raw.get("schema_version") != STATE_SCHEMA_VERSION:
        raise StateCorruptionError(
            f"alert state {path} has missing or unsupported schema_version"
        )
    first_seen = raw.get("first_seen")
    if not isinstance(first_seen, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in first_seen.items()
    ):
        raise StateCorruptionError(f"alert state {path} has a malformed first_seen map")
    return AlertState(first_seen=first_seen)


def save_state(state: AlertState, path: str | Path) -> None:
    """Replace the state file atomically: a crash leaves the old or the new state, whole.

    The document goes to a temp file beside ``path``, is flushed and fsynced,
    then renamed over ``path``; on any error the temp file is removed.
    """
    path = Path(path)
    payload = {
        "schema_version": STATE_SCHEMA_VERSION,
        "first_seen": {fp: state.first_seen[fp] for fp in sorted(state.first_seen)},
    }
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            write_json(handle, payload)
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
    fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise StateLockError(f"alert state {path} is locked by another scan") from None
        yield
    finally:
        os.close(fd)
