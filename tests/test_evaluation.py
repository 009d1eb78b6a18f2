"""Metrics, report rendering and stateful alert diffing."""

from __future__ import annotations

import hashlib
import io
import json
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bucketlens import evaluation
from bucketlens.errors import StateCorruptionError, StateLockError, UnknownBucketError
from bucketlens.evaluation import (
    CSV_HEADER,
    AlertDiff,
    alert_fingerprint,
    alert_to_dict,
    classify_alerts,
    compute_metrics,
    diff_alerts,
    load_state,
    render_report,
    report_to_dict,
    save_state,
    scan_fleet,
    state_lock,
    write_json,
)
from bucketlens.fleetgen import ADVERSARIAL_MIX, GroundTruth, MixSpec, generate_fleet
from bucketlens.model import Alert, Severity

from conftest import (
    FIXTURES, JSON_TEXT, allusers_read_bucket, locked_bucket, needs_builtin_sha256, public_policy_bucket,
    run_fresh_interpreter,
)


def _alert(bucket: str, rule: str = "RULE-X", conditions: tuple[int, ...] = ()) -> Alert:
    return Alert(
        bucket_name=bucket,
        rule_id=rule,
        severity=Severity.HIGH,
        fired_conditions=conditions,
        explanation="test",
    )


def _truth(risk: bool) -> GroundTruth:
    return GroundTruth(exploitable=risk, business_risk=risk, reason="test")


# ---------------------------------------------------------------------------
# classify / metrics
# ---------------------------------------------------------------------------

def test_classify_empty():
    assert classify_alerts([], {}) == (0, 0)


def test_classify_against_business_risk():
    truth = {"risky-bucket": _truth(True), "benign-bucket": _truth(False)}
    assert classify_alerts([_alert("risky-bucket")], truth) == (1, 0)
    assert classify_alerts([_alert("benign-bucket")], truth) == (0, 1)


def test_classify_unknown_bucket():
    with pytest.raises(UnknownBucketError):
        classify_alerts([_alert("ghost-bucket")], {})


def test_precision_eight_over_forty():
    truth = {f"tp-{i}": _truth(True) for i in range(8)}
    truth.update({f"fp-{i}": _truth(False) for i in range(32)})
    alerts = [_alert(name) for name in truth]
    report = compute_metrics(alerts, [], truth)
    assert report.default.precision == Fraction(1, 5)
    assert float(report.default.precision) == 0.2


def test_precision_null_when_no_alerts():
    report = compute_metrics([], [], {})
    assert report.default.precision is None
    assert report.unified.precision is None
    assert report.reduction_rate is None


def test_tp_plus_fp_equals_total():
    truth = {"a-bucket": _truth(True), "b-bucket": _truth(False)}
    alerts = [_alert("a-bucket"), _alert("b-bucket"), _alert("a-bucket", "RULE-Y")]
    report = compute_metrics(alerts, alerts[:1], truth)
    assert report.default.tp + report.default.fp == report.default.total_alerts == 3
    assert report.default.alerted_buckets == 2


def test_reduction_rate_and_triage_minutes():
    truth = {f"fp-{i}": _truth(False) for i in range(1200)}
    truth["tp-0"] = _truth(True)
    default_alerts = [_alert(f"fp-{i}") for i in range(1200)]
    unified_alerts = [_alert("tp-0", "UNIFIED", {1})for _ in range(40)]
    report = compute_metrics(default_alerts, unified_alerts, truth)
    assert report.reduction_rate == 1 - Fraction(40, 1200)
    assert abs(float(report.reduction_rate) - 0.9667) < 5e-5
    assert report.default.modeled_triage_minutes == 1200 * 8
    assert report.unified.modeled_triage_minutes == 40 * 1
    custom = compute_metrics(default_alerts, unified_alerts, truth, 6.5, 0.5)
    assert custom.default.modeled_triage_minutes == 7800.0
    assert custom.unified.modeled_triage_minutes == 20.0


def test_precision_non_increasing_in_fp():
    truth = {"tp-0": _truth(True)}
    truth.update({f"fp-{i}": _truth(False) for i in range(10)})
    previous = Fraction(1, 1)
    for fp_count in range(10):
        alerts = [_alert("tp-0")] + [_alert(f"fp-{i}") for i in range(fp_count)]
        precision = compute_metrics(alerts, [], truth).default.precision
        assert precision <= previous
        previous = precision


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _sample_report():
    truth = {f"tp-{i}": _truth(True) for i in range(8)}
    truth.update({f"fp-{i}": _truth(False) for i in range(32)})
    default_alerts = [_alert(name) for name in truth]
    unified_alerts = [_alert(f"tp-{i}", "UNIFIED", {1}) for i in range(8)]
    return compute_metrics(default_alerts, unified_alerts, truth)


def test_json_round_trips_through_generic_parser():
    report = _sample_report()
    parsed = json.loads(render_report(report, "json"))
    assert parsed == report_to_dict(report)
    assert parsed["rulesets"]["default"]["precision"] == 0.2
    assert parsed["rulesets"]["default"]["true_positives"] == 8
    assert parsed["rulesets"]["default"]["false_positives"] == 32


def test_table_mirrors_expected_row_labels():
    table = render_report(_sample_report(), "table")
    for label in (
        "Total Alerts",
        "True Positives",
        "False Positive Rate",
        "Precision",
        "Investigation Time (modeled)",
    ):
        assert label in table
    assert "Alert reduction" in table


def test_csv_header_matches_golden():
    golden = (FIXTURES / "golden" / "report_header.csv").read_text().strip()
    assert CSV_HEADER == golden
    csv_text = render_report(_sample_report(), "csv")
    assert csv_text.splitlines()[0] == golden
    assert csv_text.splitlines()[1].startswith("default,")
    assert csv_text.splitlines()[2].startswith("unified,")


def test_render_is_deterministic():
    report = _sample_report()
    for fmt in ("table", "json", "csv"):
        assert render_report(report, fmt) == render_report(report, fmt)


def test_triage_minutes_are_rendered_exactly():
    # 23,850 default alerts at 51.7 minutes each, the seed-42 10k paper fleet's
    # count; six significant digits would print 1.23304e+06
    truth = {"fp-0": _truth(False)}
    report = compute_metrics([_alert("fp-0")] * 23850, [_alert("fp-0")] * 3, truth, 51.7, 0.5)
    assert json.loads(render_report(report, "json"))["rulesets"]["default"]["modeled_triage_minutes"] == 1233045.0
    csv_rows = render_report(report, "csv").splitlines()
    assert csv_rows[1].endswith(",1233045") and csv_rows[2].endswith(",1.5")
    table = render_report(report, "table")
    assert "Investigation Time (modeled)  1233045 min      1.5 min\n" in table


@pytest.mark.parametrize("minutes,text", [(19080.0, "19080"), (190800.0, "190800"), (400.0, "400"), (0.0, "0"),
                                          (715.5, "715.5")])
def test_triage_minutes_that_g_writes_exactly_keep_their_text(minutes, text):
    assert evaluation._fmt_minutes(minutes) == format(minutes, "g") == text


@given(st.floats(min_value=0, allow_infinity=False))
@example(1e-5)
@example(1e16)
@example(0.30000000000000004)
def test_triage_minutes_read_back_and_keep_every_exact_g_text(minutes):
    text = evaluation._fmt_minutes(minutes)
    assert float(text) == minutes
    assert "e" not in text and not text.endswith(".0")
    if float(format(minutes, "g")) == minutes and "e" not in format(minutes, "g"):
        assert text == format(minutes, "g")


# ---------------------------------------------------------------------------
# scan_fleet
# ---------------------------------------------------------------------------

def test_scan_fleet_orders_alerts():
    buckets = [public_policy_bucket("p-bucket"), allusers_read_bucket("a-bucket"), locked_bucket()]
    alerts = scan_fleet(buckets, rules="both")
    keys = [(a.bucket_name, a.rule_id) for a in alerts]
    assert keys == sorted(keys)


def test_scan_fleet_rules_selection():
    buckets = [allusers_read_bucket()]
    unified_only = scan_fleet(buckets, rules="unified")
    assert [a.rule_id for a in unified_only] == ["UNIFIED-S3-PUBLIC-ACCESS"]
    default_only = scan_fleet(buckets, rules="default")
    assert all(a.rule_id != "UNIFIED-S3-PUBLIC-ACCESS" for a in default_only)
    both = scan_fleet(buckets, rules="both")
    assert len(both) == len(unified_only) + len(default_only)
    with pytest.raises(ValueError):
        scan_fleet(buckets, rules="everything")


# ---------------------------------------------------------------------------
# stateful diffing
# ---------------------------------------------------------------------------

def test_first_scan_everything_new():
    alerts = [_alert("a-bucket"), _alert("b-bucket"), _alert("c-bucket")]
    diff = diff_alerts({}, alerts, "scan-1")
    assert len(diff.new) == 3
    assert diff.unchanged == () and diff.resolved == ()
    assert set(diff.state.values()) == {"scan-1"}


def test_rescan_unchanged_preserves_first_seen():
    alerts = [_alert("a-bucket"), _alert("b-bucket")]
    first = diff_alerts({}, alerts, "scan-1")
    second = diff_alerts(first.state, alerts, "scan-2")
    assert second.new == ()
    assert len(second.unchanged) == 2
    assert set(second.state.values()) == {"scan-1"}


def test_remediation_resolves_fingerprint():
    alerts = [_alert("a-bucket"), _alert("b-bucket")]
    first = diff_alerts({}, alerts, "scan-1")
    second = diff_alerts(first.state, alerts[:1], "scan-2")
    assert second.resolved == (alert_fingerprint(alerts[1]),)
    assert len(second.unchanged) == 1


_DIFF_ALERTS = st.builds(
    _alert, st.sampled_from(["a-bucket", "b-bucket", "c-bucket"]), st.sampled_from(["RULE-X", "RULE-Y"]),
    st.sampled_from([(), (1,), (2, 3)]),
)
_A, _B = _alert("a-bucket"), _alert("b-bucket")


@given(
    current=st.lists(_DIFF_ALERTS, max_size=12),  # repeats are likely: 18 distinct alerts
    previous=st.dictionaries(
        st.one_of(_DIFF_ALERTS.map(alert_fingerprint), st.text("0123456789abcdef", min_size=64, max_size=64)),
        st.sampled_from(["scan-1", "scan-2"]),
        max_size=12,
    ),
    scan_id=st.sampled_from(["scan-2", "scan-3"]),
)
@example(current=[], previous={}, scan_id="scan-3")
@example(current=[_A, _A, _B], previous={}, scan_id="scan-3")  # repeated alerts, empty previous
@example(current=[_B, _A], previous={alert_fingerprint(_A): "scan-1", alert_fingerprint(_B): "scan-2"},
         scan_id="scan-3")  # all unchanged
@example(current=[], previous={alert_fingerprint(_A): "scan-1", alert_fingerprint(_B): "scan-1"},
         scan_id="scan-3")  # all resolved
def test_diff_alerts_is_the_set_algebra_of_its_fingerprints(current, previous, scan_id):
    before = dict(previous)
    diff = diff_alerts(previous, current, scan_id)
    fps = {alert_fingerprint(alert) for alert in current}
    assert diff.new == tuple(sorted(fps - previous.keys()))
    assert diff.unchanged == tuple(sorted(fps & previous.keys()))
    assert diff.resolved == tuple(sorted(previous.keys() - fps))
    assert diff.state == {fp: previous.get(fp, scan_id) for fp in fps}
    assert previous == before


def _diff_excess(previous: dict[str, str], alerts: list[Alert], scan_id: str) -> tuple[AlertDiff, int]:
    """``diff_alerts``'s result, and the bytes by which its traced peak exceeds what the result keeps."""
    tracemalloc.start()
    try:
        diff = diff_alerts(previous, alerts, scan_id)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return diff, peak - kept


def test_diff_alerts_holds_little_beyond_its_result():
    alerts = scan_fleet((config for config, _ in generate_fleet(MixSpec(dict(ADVERSARIAL_MIX), 5000, 42))), "both")
    # a set of the current fingerprints, or of the previous keys, would cost
    # tens of bytes a member at its peak; the sorted fingerprint list costs 8
    first, excess = _diff_excess({}, alerts, "scan-1")
    assert excess / len(alerts) < 40, excess
    second, excess = _diff_excess(first.state, alerts, "scan-2")
    assert excess / len(alerts) < 40, excess
    assert len(second.unchanged) == len(alerts)


def test_diff_conservation():
    previous = diff_alerts({}, [_alert("a-bucket"), _alert("b-bucket")], "s1").state
    current = [_alert("b-bucket"), _alert("c-bucket")]
    diff = diff_alerts(previous, current, "s2")
    assert len(diff.new) + len(diff.unchanged) == len({alert_fingerprint(a) for a in current})
    assert len(diff.unchanged) + len(diff.resolved) == len(previous)
    assert set(diff.state) == {alert_fingerprint(a) for a in current}


def test_fingerprint_depends_on_identity_fields():
    base = _alert("a-bucket", "RULE-X", (1, 2))
    assert alert_fingerprint(base) == alert_fingerprint(_alert("a-bucket", "RULE-X", (1, 2)))
    assert alert_fingerprint(base) != alert_fingerprint(_alert("b-bucket", "RULE-X", (1, 2)))
    assert alert_fingerprint(base) != alert_fingerprint(_alert("a-bucket", "RULE-Y", (1, 2)))
    assert alert_fingerprint(base) != alert_fingerprint(_alert("a-bucket", "RULE-X", (1,)))


@needs_builtin_sha256
def test_fingerprint_is_the_sha256_of_its_payload_from_the_first_call():
    # the hash is bound at import, so a process that has fingerprinted nothing
    # must give the same digests, through the built-in SHA-256, not OpenSSL's
    script = (
        "import sys\n"
        "from bucketlens import evaluation\n"
        "from bucketlens.model import Severity, new_alert\n"
        "cases = [\n"
        "    (new_alert('a-bucket', 'UNIFIED', Severity.HIGH, (1, 3), 'x'), 'a-bucket\\nUNIFIED\\n1,3'),\n"
        "    (new_alert('b-bucket', 'RULE-X', Severity.LOW, (), 'y'), 'b-bucket\\nRULE-X\\n'),\n"
        "    (new_alert('a-bucket', 'UNIFIED', Severity.HIGH, (1, 3), 'z'), 'a-bucket\\nUNIFIED\\n1,3'),\n"
        "]\n"
        "digests = [evaluation.alert_fingerprint(alert) for alert, _ in cases]\n"
        "assert '_hashlib' not in sys.modules\n"
        "try:\n"
        "    from _sha2 import sha256 as builtin\n"
        "except ImportError:\n"
        "    from _sha256 import sha256 as builtin\n"
        "assert evaluation._sha256 is builtin\n"
        "import hashlib\n"
        "assert digests == [hashlib.sha256(payload.encode()).hexdigest() for _, payload in cases]\n"
    )
    run_fresh_interpreter(script)


def test_fingerprint_and_scan_id_fall_back_to_hashlib(tmp_path):
    # an interpreter built without the built-in SHA-256 hashes through hashlib
    fleet = tmp_path / "fleet.jsonl"
    data = bytes(range(256)) * 5000  # more than one 1 MiB chunk
    fleet.write_bytes(data)
    script = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib\n"
        "from bucketlens import cli, evaluation\n"
        "from bucketlens.model import Severity, new_alert\n"
        "alert = new_alert('a-bucket', 'UNIFIED', Severity.HIGH, (1, 3), 'x')\n"
        "assert evaluation.alert_fingerprint(alert) == hashlib.sha256(b'a-bucket\\nUNIFIED\\n1,3').hexdigest()\n"
        "assert evaluation._sha256 is hashlib.sha256  # picked by the first hash\n"
        f"print(cli._default_scan_id({str(fleet)!r}), file=sys.stderr)\n"
    )
    assert run_fresh_interpreter(script) == f"scan-{hashlib.sha256(data).hexdigest()[:12]}\n"


@given(st.text(max_size=20), st.text(max_size=20), st.frozensets(st.integers(1, 5)).map(sorted).map(tuple))
def test_fingerprint_is_the_sha256_of_its_payload(bucket, rule, conditions):
    payload = f"{bucket}\n{rule}\n{','.join(map(str, conditions))}"
    expected = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    assert alert_fingerprint(_alert(bucket, rule, conditions)) == expected


def test_state_save_load_round_trip(tmp_path):
    alerts = [_alert("a-bucket")]
    state = diff_alerts({}, alerts, "scan-1").state
    path = tmp_path / "state.json"
    save_state(state, path)
    loaded = load_state(path)
    assert loaded == state
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 1


def test_state_is_the_plain_first_seen_map_through_diff_save_and_load(tmp_path):
    path = tmp_path / "state.json"
    kept, gone, added = _alert("a-bucket"), _alert("b-bucket"), _alert("c-bucket")
    previous = {alert_fingerprint(kept): "scan-1", alert_fingerprint(gone): "scan-1"}
    save_state(previous, path)
    assert load_state(path) == previous
    diff = diff_alerts(load_state(path), [kept, added], "scan-2")
    assert diff.resolved == (alert_fingerprint(gone),)
    save_state(diff.state, path)
    loaded = load_state(path)
    assert type(loaded) is dict and type(diff.state) is dict
    assert loaded == diff.state == {alert_fingerprint(kept): "scan-1", alert_fingerprint(added): "scan-2"}


def test_loaded_state_keeps_one_string_per_scan_id(tmp_path):
    path = tmp_path / "state.json"
    alerts = [_alert(f"bucket-{i:03}") for i in range(6)]
    first_seen = {alert_fingerprint(a): f"scan-{i % 2}" for i, a in enumerate(alerts)}
    save_state(first_seen, path)
    loaded = load_state(path)
    assert loaded == first_seen
    assert len({id(scan_id) for scan_id in loaded.values()}) == 2


def test_failed_state_save_keeps_previous_state(tmp_path, monkeypatch):
    path = tmp_path / "state.json"
    save_state(diff_alerts({}, [_alert("a-bucket")], "scan-1").state, path)
    before = path.read_bytes()
    real_write_json = evaluation.write_json

    def write_half_then_fail(out, document):
        text = io.StringIO()
        real_write_json(text, document)
        out.write(text.getvalue()[: len(text.getvalue()) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(evaluation, "write_json", write_half_then_fail)
    larger = diff_alerts({}, [_alert("a-bucket"), _alert("b-bucket")], "scan-2").state
    with pytest.raises(OSError, match="disk full"):
        save_state(larger, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


@pytest.mark.parametrize(
    "content",
    [
        "not json", "[]", '{"schema_version": 99, "first_seen": {}}', '{"schema_version": 1, "first_seen": [1]}',
        '{"schema_version": 1, "first_seen": {"fp": "s1", "fp2": 1}}',
        '{"schema_version": true, "first_seen": {}}', '{"schema_version": 1.0, "first_seen": {}}',
        # keys no scan could write: not 64 lowercase hex digits
        '{"schema_version": 1, "first_seen": {"a": "s1"}}',
        '{"schema_version": 1, "first_seen": {"%s": "s1"}}' % ("A" * 64),
        '{"schema_version": 1, "first_seen": {"%s": "s1", "%s": "s1"}}' % ("a" * 64, "a" * 63),
        '{"schema_version": 1, "first_seen": {"%s\\n": "s1"}}' % ("a" * 64),
    ],
)
def test_state_corruption(tmp_path, content):
    path = tmp_path / "state.json"
    path.write_text(content)
    with pytest.raises(StateCorruptionError):
        load_state(path)


def test_state_lock_is_exclusive(tmp_path):
    path = tmp_path / "state.json"
    with state_lock(path):
        with pytest.raises(StateLockError):
            with state_lock(path):
                pass
    # released on exit
    with state_lock(path):
        pass


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

# dicts of alert_to_dict's keys, in its order, holding any text: lone surrogates too, which no fingerprint could hash
_ALERT_DICTS = st.tuples(
    JSON_TEXT,
    JSON_TEXT,
    st.sampled_from([severity.value for severity in Severity]),
    st.frozensets(st.integers(1, 9)).map(sorted),
    JSON_TEXT,
    JSON_TEXT,
).map(lambda values: dict(zip(alert_to_dict(_alert("a-bucket")), values)))
_FINGERPRINTS = st.lists(JSON_TEXT, max_size=6)


def _alert_dicts(count: int) -> list[dict]:
    """``count`` alert_to_dict dicts, some with fired conditions."""
    return [alert_to_dict(_alert(f"bucket-{i:04}", f"RULE-{i % 7}", tuple(range(1, i % 4)))) for i in range(count)]


def _fingerprints(count: int) -> list[str]:
    return [hashlib.sha256(str(i).encode()).hexdigest() for i in range(count)]


def _sized_diff(count: int) -> tuple[list[str], list[str], list[str]]:
    fingerprints = _fingerprints(count)
    return fingerprints, fingerprints[: count // 2], fingerprints[count // 2:]


def _written(document) -> str:
    out = io.StringIO()
    write_json(out, document)
    return out.getvalue()


@given(
    st.lists(_ALERT_DICTS, max_size=5),
    st.none() | st.tuples(_FINGERPRINTS, _FINGERPRINTS, _FINGERPRINTS),
    JSON_TEXT,
    JSON_TEXT,
)
@example([], None, "both", "scan-1")
@example([], ([], [], []), "d\u00e9faut", "scan-\u00e9t\u00e9")
@example(_alert_dicts(1), _sized_diff(1), "both", "scan-\U0001f600")
@example(_alert_dicts(255), _sized_diff(255), "both", "scan-1")
@example(_alert_dicts(256), _sized_diff(256), "unified", "scan-1")
@example(_alert_dicts(257), _sized_diff(257), "default", "scan-1")
@example(_alert_dicts(600), _sized_diff(600), "both", "scan-1")
@example(_alert_dicts(600), None, "both", "scan-1")
def test_write_json_matches_json_dumps(alerts, diff, rules, scan_id):
    # the scan document as cmd_scan builds it, and the same document of plain lists
    document = {"schema_version": 1, "rules": rules, "scan_id": scan_id, "total_alerts": len(alerts)}
    expected = {
        **document,
        "alerts": alerts,
        "diff": None if diff is None else dict(zip(("new", "unchanged", "resolved"), diff)),
    }
    document["alerts"] = map(dict, alerts)
    document["diff"] = None if diff is None else AlertDiff(*map(tuple, diff), state={})
    assert _written(document) == json.dumps(expected, indent=2) + "\n"


@given(st.lists(_ALERT_DICTS, max_size=5), JSON_TEXT, st.sampled_from(Severity))
@example([], "quiet", Severity.LOW)
@example(_alert_dicts(1), "r\u00e8gle-\U0001f600", Severity.HIGH)
@example(_alert_dicts(255), "rule", Severity.HIGH)
@example(_alert_dicts(256), "rule", Severity.MEDIUM)
@example(_alert_dicts(257), "rule", Severity.LOW)
@example(_alert_dicts(600), "rule", Severity.HIGH)
def test_write_json_matches_json_dumps_for_rules_run(alerts, rule, severity):
    # the rules-run document as cmd_rules_run builds it
    expected = {
        "schema_version": 1, "rule": rule, "severity": severity.value, "total_alerts": len(alerts), "alerts": alerts,
    }
    assert _written({**expected, "alerts": iter(alerts)}) == json.dumps(expected, indent=2) + "\n"


@given(st.dictionaries(JSON_TEXT, JSON_TEXT, max_size=8))
@example({})
@example(dict.fromkeys(reversed(_fingerprints(1)), "scan-\u00e9"))
@example(dict.fromkeys(reversed(_fingerprints(255)), "scan-1"))
@example(dict.fromkeys(reversed(_fingerprints(256)), "scan-1"))
@example(dict.fromkeys(reversed(_fingerprints(257)), "scan-1"))
@example({fp: f"scan-{i % 3}" for i, fp in enumerate(reversed(_fingerprints(600)))})
def test_write_json_matches_json_dumps_for_the_state(first_seen):
    expected = {"schema_version": 1, "first_seen": {key: first_seen[key] for key in sorted(first_seen)}}
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "state.json"
        save_state(first_seen, path)
        assert path.read_bytes().decode("ascii") == json.dumps(expected, indent=2) + "\n"


_ALERT_DICT = alert_to_dict(_alert("a-bucket"))


@pytest.mark.parametrize(
    "value",
    [
        1.5,
        {"a": [0.25]},  # a map value that is not a str
        {1: "x"},  # a map key that is not a str
        {"a": {1, 2}},
        [1.5],  # an alert that is not a dict
        {"row": {"ok": [1], None: 2}},
        {**{f"k{i}": i for i in range(300)}, 3: "x"},  # map keys that do not sort
        [{**_ALERT_DICT, "fired_conditions": [1.5]}],
        ["a", 1.5],
        {**{f"k{i}": "v" for i in range(300)}, 3: "x"},
        {i: "v" for i in range(300)},
        {1, 2},
        AlertDiff(new=(1,), unchanged=(), resolved=(), state={}),  # a fingerprint that is not a str
        [{**_ALERT_DICT, "explanation": None}],
    ],
)
def test_write_json_rejects_unsupported_values(value):
    with pytest.raises(TypeError):
        write_json(io.StringIO(), {"schema_version": 1, "value": value})


def test_write_json_rejects_a_key_that_is_not_a_str():
    with pytest.raises(TypeError):
        write_json(io.StringIO(), {1: "x"})


def test_write_json_bounds_each_write():
    fingerprints = _fingerprints(20_000)
    diff = AlertDiff(new=tuple(fingerprints), unchanged=(), resolved=tuple(fingerprints[:5]), state={})
    first_seen = dict.fromkeys(fingerprints, "scan-1")
    documents = (
        ({"diff": diff}, {"diff": {"new": fingerprints, "unchanged": [], "resolved": fingerprints[:5]}}),
        (
            {"schema_version": 1, "first_seen": first_seen},
            {"schema_version": 1, "first_seen": dict(sorted(first_seen.items()))},
        ),
    )
    for document, expected in documents:
        writes: list[str] = []
        write_json(SimpleNamespace(write=writes.append), document)
        assert "".join(writes) == json.dumps(expected, indent=2) + "\n"
        # one line per member: no write holds more than one batch of them
        assert max(text.count("\n") for text in writes) == evaluation._BATCH


def test_write_json_bounds_each_write_of_alert_rows():
    alerts = [
        _alert(f"bucket-{i:04}", f"RULE-{i % 7}", tuple(range(1, i % 5)))  # some with fired conditions
        for i in range(2_000)
    ]
    expected = json.dumps({"total_alerts": len(alerts), "alerts": list(map(alert_to_dict, alerts))}, indent=2)
    drawn = 0
    writes: list[str] = []

    def written_alerts() -> int:
        return sum(text.count('"fingerprint"') for text in writes)

    def counting(items):
        nonlocal drawn
        for item in items:
            # the writer holds at most one batch of alerts that it drew and has not written
            assert drawn - written_alerts() < evaluation._BATCH
            drawn += 1
            yield item

    document = {"total_alerts": len(alerts), "alerts": map(alert_to_dict, counting(alerts))}
    write_json(SimpleNamespace(write=writes.append), document)
    assert "".join(writes) == expected + "\n"
    assert drawn == len(alerts)
    assert max(text.count('"fingerprint"') for text in writes) == evaluation._BATCH
