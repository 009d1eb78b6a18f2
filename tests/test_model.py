"""Snapshot parsing, canonical serialization and AWS artifact import."""

from __future__ import annotations

import dataclasses
import gc
import json
import pickle
import random
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bucketlens import model
from bucketlens.errors import DuplicateNameError, MissingArtifactError, MixError, SchemaError
from bucketlens.fleetgen import ADVERSARIAL_MIX, PAPER_MIX, MixSpec, generate_fleet
from bucketlens.model import (
    ALL_USERS_URI,
    AclGrant,
    BucketConfig,
    Effect,
    GranteeType,
    Permission,
    PolicyStatement,
    PublicAccessBlock,
    Severity,
    import_aws_artifacts,
    iter_fleet,
    load_fleet,
    parse_json,
    parse_snapshot_line,
    read_json,
    read_jsonl,
    read_utf8,
    serialize_snapshot_line,
    write_fleet,
)
from bucketlens.policy import Exposure

import model_oracle
from conftest import FIXTURES, random_bucket_config

MINIMAL = (
    '{"name":"b-1","region":"us-east-1","acl_grants":[],'
    '"public_access_block":{"block_public_acls":true,"ignore_public_acls":true,'
    '"block_public_policy":true,"restrict_public_buckets":true}}'
)


def test_minimal_record_forces_defaults():
    config = parse_snapshot_line(MINIMAL)
    assert config.policy is None
    assert config.tags == {}
    assert config.website_enabled is False
    assert config.public_access_block == PublicAccessBlock(True, True, True, True)


def test_allusers_read_grant_parses():
    line = json.dumps(
        {
            "name": "grant-bucket",
            "acl_grants": [
                {
                    "grantee_type": "Group",
                    "grantee_uri": "http://acs.amazonaws.com/groups/global/AllUsers",
                    "permission": "READ",
                }
            ],
        }
    )
    config = parse_snapshot_line(line)
    assert config.acl_grants == (
        AclGrant(
            GranteeType.GROUP,
            "http://acs.amazonaws.com/groups/global/AllUsers",
            Permission.READ,
        ),
    )
    assert config.public_access_block == PublicAccessBlock()


def test_unknown_permission_rejected():
    line = json.dumps(
        {
            "name": "bad-bucket",
            "acl_grants": [
                {"grantee_type": "Group", "grantee_uri": "http://x", "permission": "OWNER"}
            ],
        }
    )
    with pytest.raises(SchemaError) as exc:
        parse_snapshot_line(line)
    assert "OWNER" in str(exc.value)


SCHEMA_ERROR_CASES = [
    ("not json", "invalid JSON"),
    ("[1]", "object"),
    ('{"region":"us-east-1"}', "name"),
    ('{"name":"UPPER"}', "invalid bucket name"),
    ('{"name":"ab"}', "invalid bucket name"),
    ('{"name":"abc\\n"}', "invalid bucket name"),  # a trailing newline
    ('{"name":"ok-bucket","bogus":1}', "bogus"),
    ('{"name":"ok-bucket","policy":[{"effect":"Allow","principal_aws":[],"actions":[]}]}', "actions"),
    ('{"name":"ok-bucket","public_access_block":{"block_public_acls":true}}', "ignore_public_acls"),
    ('{"name":"ok-bucket","tags":{"a":1}}', "tags"),
    pytest.param("[" * 100_000, "nested too deeply", id="deep-nesting"),
    pytest.param(
        '{"name":"ok-bucket","acl_grants":[{"grantee_type":"Group","grantee_uri":"","permission":"READ"}]}',
        "grantee_uri must be non-empty",
        id="empty-grantee-uri",
    ),
]


@pytest.mark.parametrize("line,needle", SCHEMA_ERROR_CASES)
def test_schema_errors(line, needle):
    with pytest.raises(SchemaError) as exc:
        parse_snapshot_line(line)
    assert needle in str(exc.value)


@pytest.mark.parametrize("line,needle", SCHEMA_ERROR_CASES)
def test_every_snapshot_error_names_its_line(line, needle, tmp_path):
    path = tmp_path / "fleet.jsonl"
    path.write_text('{"name":"good-bucket"}\n\n' + line + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_fleet(path)
    assert exc.value.line == 3
    assert str(exc.value).startswith(f"{path}: ")
    assert str(exc.value).endswith("(line 3)")
    assert needle in str(exc.value)


def test_bad_name_message_is_unchanged_and_checked_once(monkeypatch):
    import bucketlens.model as model

    calls = []
    pattern = model._NAME_RE

    class CountingPattern:
        def match(self, text):
            calls.append(text)
            return pattern.match(text)

    monkeypatch.setattr(model, "_NAME_RE", CountingPattern())
    parse_snapshot_line('{"name":"good-name"}')
    assert calls == ["good-name"]
    with pytest.raises(SchemaError) as exc:
        parse_snapshot_line('{"name":"Bad_Name"}')
    assert str(exc.value) == (
        "invalid bucket name 'Bad_Name': expected 3-63 chars of lowercase letters, "
        "digits, dots, hyphens (field: name)"
    )


def test_load_fleet_rejects_non_utf8_naming_the_line(tmp_path):
    fleet = tmp_path / "fleet.jsonl"
    good = b'{"name":"ok-bucket-%d"}\n'
    # far past the first decode block, so lines before it have been read and parsed
    fleet.write_bytes(b"".join(good % i for i in range(2000)) + b'{"name":"bad-\xff"}\n')
    with pytest.raises(SchemaError) as exc:
        load_fleet(fleet)
    assert exc.value.line == 2001
    assert "invalid UTF-8" in str(exc.value)


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize(
    "text,reason",
    [
        ("{", "invalid JSON: Expecting property name enclosed in double quotes"),
        ("[" * 100_000, "invalid JSON: nested too deeply"),
        pytest.param(
            "[%s]" % ("1" * (_DIGIT_LIMIT + 1)),
            "invalid JSON: integer has too many digits",
            marks=pytest.mark.skipif(_DIGIT_LIMIT == 0, reason="integer digit limit is off"),
            id="int-too-long",
        ),
    ],
)
def test_parse_json_gives_each_decode_failure_to_the_callers_error(text, reason, tmp_path):
    with pytest.raises(MixError) as exc:
        parse_json(text, MixError)
    assert str(exc.value) == reason
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(MixError) as exc:
        read_json(path, lambda why: MixError(f"doc is {why}"))
    assert str(exc.value) == f"doc is {reason}"


_LONE = "invalid JSON: lone surrogate in a string"


@pytest.mark.parametrize(
    "text,value",
    [
        ('["\\ud800"]', _LONE),
        ('{"\\udc00": 1}', _LONE),  # in a key
        ('"\\udc00\\ud800"', _LONE),  # a pair in the wrong order
        (" " + "[" * 500 + '"\\udbff"' + "]" * 500, _LONE),  # deep, and past the scanner's fast path
        ('"\\ud83d\\ude00"', "\U0001f600"),
        ('"\\\\ud800"', "\\ud800"),  # an escaped backslash, then text
        ('"\\u00e9\\n"', "\u00e9\n"),
    ],
)
def test_parse_json_rejects_a_lone_surrogate_and_keeps_every_other_escape(text, value):
    if value == _LONE:
        with pytest.raises(MixError) as exc:
            parse_json(text, MixError)
        assert str(exc.value) == _LONE
        with pytest.raises(SchemaError) as exc:
            model_oracle.parse_snapshot_line(text)
        assert exc.value.message == _LONE
    else:
        assert parse_json(text, MixError) == value


def test_read_utf8_names_the_offset_of_the_first_bad_byte(tmp_path):
    path = tmp_path / "doc.txt"
    path.write_bytes("é".encode() + b"ok\xffmore")
    with pytest.raises(SchemaError) as exc:
        read_utf8(path, SchemaError)
    assert exc.value.message == "invalid UTF-8: invalid start byte (offset 4)"
    path.write_text("ok é\n", encoding="utf-8")
    assert read_utf8(path, SchemaError) == "ok é\n"


def _rejecting(word):
    """A line parser that gives each line back, but raises on one holding ``word``."""
    def parse(text):
        if word in text:
            raise SchemaError(f"{word} here", field="f")
        return text
    return parse


def test_read_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "doc.jsonl"
    path.write_bytes(b"a\n\n  \n\tb\n\r\nc")
    assert list(read_jsonl(path, _rejecting("x"))) == ["a\n", "\tb\n", "c"]
    with pytest.raises(SchemaError) as exc:
        list(read_jsonl(path, _rejecting("c")))
    assert (str(exc.value), exc.value.field, exc.value.line) == (f"{path}: c here (field: f) (line 6)", "f", 6)


def test_read_jsonl_names_the_file_and_line_of_a_duplicate(tmp_path):
    path = tmp_path / "doc.jsonl"
    path.write_bytes(b"a\n\nb\n")

    def parse(text):
        if text == "b\n":
            raise DuplicateNameError("duplicate bucket name 'b'")
        return text

    with pytest.raises(DuplicateNameError) as exc:
        list(read_jsonl(path, parse))
    assert str(exc.value) == f"{path}: duplicate bucket name 'b' (line 3)"


def test_read_jsonl_names_the_first_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "doc.jsonl"
    path.write_bytes(b"ok\n\n\xc3\n\xff\n")
    with pytest.raises(SchemaError) as exc:
        list(read_jsonl(path, str))
    assert (str(exc.value), exc.value.line) == (f"{path}: invalid UTF-8: invalid continuation byte (line 3)", 3)
    # errors come in file order: an earlier line's parse error wins over a later bad byte
    with pytest.raises(SchemaError) as exc:
        list(read_jsonl(path, _rejecting("ok")))
    assert exc.value.line == 1
    path.write_bytes("ok\né".encode() + b"\xff\n")  # a bad byte after a good non-ASCII one
    with pytest.raises(SchemaError) as exc:
        list(read_jsonl(path, str))
    assert (exc.value.message, exc.value.line) == (f"{path}: invalid UTF-8: invalid start byte", 2)


@pytest.mark.parametrize(
    "data,line",
    [
        pytest.param(b"ok\rok\r\xffbad\r", 3, id="cr"),
        pytest.param(b"ok\r\nok\r\n\xffbad\r\n", 3, id="crlf"),
        pytest.param(b"ok\r\n\rok\n\r\n\xffbad", 5, id="mixed"),
    ],
)
def test_read_jsonl_numbers_lines_as_text_mode_does(tmp_path, data, line):
    # \n, \r\n and a lone \r each end one line, for a line that is parsed
    # and for one that is not UTF-8 alike
    path = tmp_path / "doc.jsonl"
    path.write_bytes(data.replace(b"\xff", b""))
    with pytest.raises(SchemaError) as exc:
        list(read_jsonl(path, _rejecting("bad")))
    assert exc.value.line == line
    path.write_bytes(data)
    with pytest.raises(SchemaError) as exc:
        list(read_jsonl(path, str))
    assert (exc.value.message, exc.value.line) == (f"{path}: invalid UTF-8: invalid start byte", line)


def test_load_fleet_and_iter_fleet_parse_each_line_through_the_module_global(tmp_path, monkeypatch):
    # a tracer that wraps model.parse_snapshot_line must see one call per bucket
    path = tmp_path / "fleet.jsonl"
    path.write_text('{"name":"abc"}\n\n{"name":"abd"}\r\n  \n{"name":"abe"}', encoding="utf-8")
    calls = []
    original = model.parse_snapshot_line

    def counting(text, **kwargs):
        calls.append(text)
        return original(text, **kwargs)

    monkeypatch.setattr(model, "parse_snapshot_line", counting)
    for read in (load_fleet, iter_fleet):
        calls.clear()
        assert [bucket.name for bucket in read(path)] == ["abc", "abd", "abe"]
        assert calls == ['{"name":"abc"}\n', '{"name":"abd"}\n', '{"name":"abe"}']


def test_read_jsonl_closes_its_file_however_the_reading_ends(tmp_path, monkeypatch):
    import bucketlens.model as model

    handles = []

    def recording_open(*args, **kwargs):
        handles.append(open(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(model, "open", recording_open, raising=False)
    path = tmp_path / "fleet.jsonl"
    path.write_text('{"name":"abc"}\n{"name":"abc"}\n{"name":"abd"}\n')

    lines = read_jsonl(path, str)
    assert next(lines) == '{"name":"abc"}\n'
    lines.close()
    lines = read_jsonl(path, str)
    next(lines)
    del lines  # abandoned part-read
    with pytest.raises(DuplicateNameError):  # the consumer stops at line 2
        load_fleet(path)
    path.write_bytes(b"ok\n\xff\n")
    with pytest.raises(SchemaError):
        load_fleet(path)
    assert len(handles) == 4  # a file that is not UTF-8 is opened once
    assert all(handle.closed for handle in handles)


def test_snapshot_round_trip_on_random_configs():
    rng = random.Random(2024)
    for _ in range(300):
        config = random_bucket_config(rng)
        line = serialize_snapshot_line(config)
        reparsed = parse_snapshot_line(line)
        assert reparsed == config
        assert serialize_snapshot_line(reparsed) == line


def test_empty_condition_normalizes_to_absent():
    line = json.dumps(
        {
            "name": "cond-bucket",
            "policy": [
                {
                    "effect": "Allow",
                    "principal_aws": ["*"],
                    "actions": ["s3:GetObject"],
                    "resources": [],
                    "condition": {},
                }
            ],
        }
    )
    config = parse_snapshot_line(line)
    assert config.policy[0].condition is None
    assert parse_snapshot_line(serialize_snapshot_line(config)) == config


def test_load_fleet_rejects_duplicates(tmp_path):
    fleet = tmp_path / "fleet.jsonl"
    fleet.write_text('{"name":"dup-bucket"}\n{"name":"dup-bucket"}\n')
    with pytest.raises(DuplicateNameError):
        load_fleet(fleet)


def test_load_fleet_reports_line_numbers(tmp_path):
    fleet = tmp_path / "fleet.jsonl"
    fleet.write_text('{"name":"ok-bucket"}\n{"name":"BAD"}\n')
    with pytest.raises(SchemaError) as exc:
        load_fleet(fleet)
    assert exc.value.line == 2


# ---------------------------------------------------------------------------
# load_fleet's value table
# ---------------------------------------------------------------------------

def _typed(value):
    """``value`` as nested (type, contents) pairs, dict order and slot values included."""
    if dataclasses.is_dataclass(value):
        return type(value), tuple((f.name, _typed(getattr(value, f.name))) for f in dataclasses.fields(value))
    if type(value) is dict:
        return dict, tuple((key, _typed(item)) for key, item in value.items())
    if type(value) in (tuple, list):
        return type(value), tuple(map(_typed, value))
    return type(value), value


def _write_lines(path, lines) -> str:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def _assert_loads_as_each_line(path, lines) -> list[BucketConfig]:
    fleet = load_fleet(path)
    assert list(map(_typed, fleet)) == [_typed(parse_snapshot_line(line)) for line in lines]
    return fleet


def _shared_values(fleet) -> dict[str, list]:
    """Each shared kind of value in ``fleet``: the regions, non-empty tag maps,
    non-empty grant lists, and statement principal and action lists."""
    statements = [stmt for bucket in fleet for stmt in bucket.policy or ()]
    return {
        "region": [bucket.region for bucket in fleet],
        "tags": [bucket.tags for bucket in fleet if bucket.tags],
        "acl_grants": [bucket.acl_grants for bucket in fleet if bucket.acl_grants],
        "principal and actions": [
            strings for stmt in statements for strings in (stmt.principal_aws, stmt.actions) if strings
        ],
    }


def _key(value):
    return tuple(value.items()) if type(value) is dict else value


@pytest.fixture(scope="module")
def seed_fleets(tmp_path_factory):
    root = tmp_path_factory.mktemp("seed-fleets")
    fleets = {}
    for mix, spec in (("paper", PAPER_MIX), ("adversarial", ADVERSARIAL_MIX)):
        path = root / f"{mix}.jsonl"
        write_fleet((config for config, _ in generate_fleet(MixSpec(dict(spec), total=1000, seed=42))), path)
        fleets[mix] = path
    return fleets


@pytest.mark.parametrize("mix", ["paper", "adversarial"])
def test_load_fleet_shares_one_object_per_equal_value(seed_fleets, mix):
    path = seed_fleets[mix]
    lines = path.read_text(encoding="utf-8").splitlines()
    shared = _assert_loads_as_each_line(path, lines)
    streamed = list(iter_fleet(path))  # every bucket kept alive, so no id is reused
    single = [parse_snapshot_line(line) for line in lines]
    for kind, values in _shared_values(shared).items():
        distinct = {_key(value) for value in values}
        assert len({id(value) for value in values}) == len(distinct) < len(values), kind
        for fleet in (streamed, single):
            unshared = _shared_values(fleet)[kind]
            assert len({id(value) for value in unshared}) == len(unshared), kind


def test_load_fleet_table_keeps_tag_order_and_stops_growing_at_its_cap(tmp_path, monkeypatch):
    tags = ['{"a":"1","b":"2"}', '{"b":"2","a":"1"}', '{"a":"1","b":"2"}', '{}', '{"c":"3"}', '{"c":"3"}']
    lines = [f'{{"name":"bucket-{i}","region":"eu-west-1","tags":{text}}}' for i, text in enumerate(tags)]
    path = _write_lines(tmp_path / "fleet.jsonl", lines)
    fleet = _assert_loads_as_each_line(path, lines)
    assert fleet[0].tags is fleet[2].tags is not fleet[1].tags
    assert list(fleet[1].tags) == ["b", "a"]
    assert fleet[4].tags is fleet[5].tags
    # room for the region and the first tag map only: later maps are each their own
    monkeypatch.setattr(model, "_SHARED_MAX", 2)
    fleet = _assert_loads_as_each_line(path, lines)
    assert fleet[0].tags is fleet[2].tags and fleet[0].region is fleet[5].region
    assert fleet[4].tags is not fleet[5].tags


_GRANT = '{"grantee_type":"Group","grantee_uri":"http://acs.amazonaws.com/groups/global/AllUsers","permission":"READ"}'


@pytest.mark.parametrize(
    "grants",
    [
        [_GRANT, '{"grantee_type":"Nobody","grantee_uri":7,"permission":"READ"}'],
        [_GRANT, '{"grantee_type":"Group","grantee_uri":"","permission":"WRITE"}', '{"grantee_type":7}'],
        [_GRANT, '{"grantee_type":"Group","grantee_uri":"u","permission":"ALL"}'],
        ['{"grantee_type":"Group","permission":"READ"}'],
        [_GRANT, "[]"],
    ],
    ids=[
        "unknown-type-before-uri-type", "empty-uri-before-next-grant", "unknown-permission", "missing-uri", "not-object"
    ],
)
def test_load_fleet_reports_a_bad_grant_as_the_line_parsers_do(tmp_path, grants):
    good = f'{{"name":"good-bucket","acl_grants":[{_GRANT}]}}'
    bad = f'{{"name":"bad-bucket","acl_grants":[{",".join(grants)}]}}'
    path = _write_lines(tmp_path / "fleet.jsonl", [good, bad])
    outcomes = []
    for parse in (parse_snapshot_line, model_oracle.parse_snapshot_line):
        with pytest.raises(SchemaError) as exc:
            parse(bad)
        outcomes.append((exc.value.message, exc.value.field))
    with pytest.raises(SchemaError) as exc:
        load_fleet(path)
    message, field = outcomes[-1]
    assert outcomes[0] == outcomes[-1]
    assert (exc.value.message, exc.value.field, exc.value.line) == (f"{path}: {message}", field, 2)


_REGIONS = st.sampled_from(["us-east-1", "eu-west-1", "ap-south-1", ""])
_TAG_MAPS = st.one_of(
    st.sampled_from([{}, {"team": "data"}, {"env": "prod", "team": "data"}, {"team": "data", "env": "prod"}]),
    st.dictionaries(st.sampled_from(["a", "b", "team"]), st.sampled_from(["1", "2", "data"]), max_size=3),
)
_GRANT_LISTS = st.lists(
    st.fixed_dictionaries(
        {
            "grantee_type": st.sampled_from(["Group", "CanonicalUser"]),
            "grantee_uri": st.sampled_from([ALL_USERS_URI, "owner-id"]),
            "permission": st.sampled_from(["READ", "WRITE"]),
        }
    ),
    max_size=2,
)
_STRING = st.sampled_from(["*", "s3:GetObject", "arn:aws:iam::1:root"])
_STATEMENT = st.fixed_dictionaries(
    {
        "effect": st.sampled_from(["Allow", "Deny"]),
        "principal_aws": st.lists(_STRING, max_size=2),
        "actions": st.lists(_STRING, min_size=1, max_size=2),
    }
)
_RECORD = st.fixed_dictionaries(
    {"region": _REGIONS, "tags": _TAG_MAPS, "acl_grants": _GRANT_LISTS},
    optional={"policy": st.lists(_STATEMENT, max_size=2)},
)


# Caps of 1 and 3 fill the table within a file, so later values go unshared.
@settings(deadline=None)
@given(records=st.lists(_RECORD, min_size=1, max_size=12), cap=st.sampled_from([1, 3, 4096]))
def test_load_fleet_equals_parsing_each_line(records, cap):
    lines = [json.dumps({"name": f"bucket-{i}", **record}) for i, record in enumerate(records)]
    with tempfile.TemporaryDirectory() as root, mock.patch.object(model, "_SHARED_MAX", cap):
        fleet = _assert_loads_as_each_line(_write_lines(Path(root) / "fleet.jsonl", lines), lines)
    if cap == 4096:
        for kind, values in _shared_values(fleet).items():
            assert len({id(value) for value in values}) == len({_key(value) for value in values}), kind


def test_load_fleet_retains_well_under_the_unshared_fleet(seed_fleets):
    path = seed_fleets["paper"]
    lines = path.read_text(encoding="utf-8").splitlines()

    def retained(load) -> int:
        """Bytes still allocated once ``load`` has returned, its result alive."""
        gc.collect()
        tracemalloc.start()
        try:
            fleet = load()  # held while measured
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    shared = retained(lambda: load_fleet(path))
    unshared = retained(lambda: [parse_snapshot_line(line) for line in lines])
    assert shared < 0.6 * unshared, (shared, unshared)


# ---------------------------------------------------------------------------
# AWS artifact import
# ---------------------------------------------------------------------------

def test_import_authusers_full_control():
    config = import_aws_artifacts(FIXTURES / "aws" / "fixture-authusers-full")
    assert len(config.acl_grants) == 1
    grant = config.acl_grants[0]
    assert grant.grantee_uri.endswith("global/AuthenticatedUsers")
    assert grant.permission is Permission.FULL_CONTROL
    assert config.policy is None


def test_import_owner_only_defaults():
    config = import_aws_artifacts(FIXTURES / "aws" / "fixture-owner-only")
    assert config.public_access_block == PublicAccessBlock()
    assert config.policy is None
    assert config.tags == {}
    assert config.acl_grants[0].grantee_type is GranteeType.CANONICAL_USER


def test_import_embedded_policy_condition():
    config = import_aws_artifacts(FIXTURES / "aws" / "fixture-embedded-policy")
    assert config.policy is not None
    stmt = config.policy[0]
    assert stmt.sid == "InternalRead"
    assert stmt.principal_aws == ("*",)
    assert stmt.condition == {"aws:SourceIp": ("10.0.0.0/8",)}
    assert config.website_enabled is True
    assert config.tags["SensitiveData"] == "true"


def test_import_matches_golden_snapshot_lines():
    golden = (FIXTURES / "golden" / "aws_import.jsonl").read_text().splitlines()
    dirs = sorted((FIXTURES / "aws").iterdir())
    assert [d.name for d in dirs] == [json.loads(l)["name"] for l in golden]
    for directory, expected in zip(dirs, golden):
        assert serialize_snapshot_line(import_aws_artifacts(directory)) == expected


def test_import_and_snapshot_parse_agree():
    golden = (FIXTURES / "golden" / "aws_import.jsonl").read_text().splitlines()
    for directory, line in zip(sorted((FIXTURES / "aws").iterdir()), golden):
        assert import_aws_artifacts(directory) == parse_snapshot_line(line)


def test_import_requires_acl(tmp_path):
    empty = tmp_path / "no-acl-bucket"
    empty.mkdir()
    with pytest.raises(MissingArtifactError):
        import_aws_artifacts(empty)


def test_import_rejects_malformed_policy(tmp_path):
    bucket = tmp_path / "bad-policy-bucket"
    bucket.mkdir()
    (bucket / "acl.json").write_text('{"Owner": {}, "Grants": []}')
    (bucket / "policy.json").write_text('{"Policy": "{not json"}')
    with pytest.raises(SchemaError):
        import_aws_artifacts(bucket)


_NO_GRANTS = '{"Grants": []}'


def _policy_file(document: str) -> str:
    return json.dumps({"Policy": document})


def _condition_policy(condition: dict) -> str:
    return _policy_file(json.dumps({"Statement": [{
        "Effect": "Allow", "Principal": "*", "Action": "s3:GetObject", "Condition": condition,
    }]}))


def test_import_keeps_boolean_and_number_condition_values_as_json_text(tmp_path):
    bucket = tmp_path / "condition-bucket"
    bucket.mkdir()
    (bucket / "acl.json").write_text(_NO_GRANTS)
    (bucket / "policy.json").write_text(_condition_policy({
        "Bool": {"aws:SecureTransport": True},
        "NumericLessThanEquals": {"s3:max-keys": [10, "20"]},
    }))
    (statement,) = import_aws_artifacts(bucket).policy
    assert statement.condition == {"aws:SecureTransport": ("true",), "s3:max-keys": ("10", "20")}


@pytest.mark.parametrize(
    "files",
    [
        pytest.param({"acl.json": '{"Grants": [{"Grantee": "x", "Permission": "READ"}]}'}, id="string-grantee"),
        pytest.param(
            {"acl.json": '{"Grants": [{"Grantee": {"Type": ["Group"]}, "Permission": "READ"}]}'},
            id="list-grantee-type",
        ),
        pytest.param({"acl.json": _NO_GRANTS, "policy.json": _policy_file("[]")}, id="policy-document-array"),
        pytest.param(
            {"acl.json": _NO_GRANTS, "policy.json": _condition_policy({"Bool": {"aws:SecureTransport": None}})},
            id="null-condition-value",
        ),
        pytest.param({"acl.json": _NO_GRANTS, "policy.json": _policy_file('{"Statement": 5}')}, id="statement-number"),
        pytest.param(
            {"acl.json": _NO_GRANTS, "tagging.json": '{"TagSet": [{"Key": ["team"], "Value": "data"}]}'},
            id="list-tag-key",
        ),
    ],
)
def test_import_rejects_malformed_artifacts_with_schema_error(tmp_path, files):
    bucket = tmp_path / "malformed-bucket"
    bucket.mkdir()
    for name, text in files.items():
        (bucket / name).write_text(text)
    with pytest.raises(SchemaError):
        import_aws_artifacts(bucket)


def _policy_bucket(tmp_path, *statements: dict):
    bucket = tmp_path / "not-keys-bucket"
    bucket.mkdir()
    (bucket / "acl.json").write_text(_NO_GRANTS)
    (bucket / "policy.json").write_text(_policy_file(json.dumps({"Statement": list(statements)})))
    return bucket


_READ = {"Sid": "Read", "Effect": "Allow", "Principal": "*", "Action": "s3:GetObject"}


def test_import_allow_with_not_principal_is_a_wildcard_principal(tmp_path):
    statement = {"Effect": "Allow", "NotPrincipal": {"AWS": "arn:aws:iam::111122223333:root"}, "Action": "s3:*"}
    (imported,) = import_aws_artifacts(_policy_bucket(tmp_path, statement)).policy
    assert imported.principal_aws == ("*",)
    assert imported.wildcard_principal
    assert imported.actions == ("s3:*",)


def test_import_allow_with_not_action_allows_every_action(tmp_path):
    statement = {"Sid": "AllButDelete", "Effect": "Allow", "Principal": "*", "NotAction": "s3:DeleteObject"}
    (imported,) = import_aws_artifacts(_policy_bucket(tmp_path, statement)).policy
    assert imported.actions == ("*",)
    assert imported.principal_aws == ("*",)
    assert imported.sid == "AllButDelete"


@pytest.mark.parametrize(
    "deny",
    [
        {"Effect": "Deny", "NotPrincipal": {"AWS": "arn:aws:iam::111122223333:root"}, "Action": "s3:GetObject"},
        {"Effect": "Deny", "Principal": "*", "NotAction": "s3:GetObject"},
    ],
    ids=["not-principal", "not-action"],
)
def test_import_leaves_out_a_deny_with_not_principal_or_not_action(tmp_path, deny):
    config = import_aws_artifacts(_policy_bucket(tmp_path, _READ, deny))
    assert [s.sid for s in config.policy] == ["Read"]


@pytest.mark.parametrize("key", ["Principal", "Action"])
def test_import_rejects_a_statement_with_both_a_key_and_its_not_key(tmp_path, key):
    statement = {**_READ, f"Not{key}": _READ[key]}
    with pytest.raises(SchemaError) as exc:
        import_aws_artifacts(_policy_bucket(tmp_path, statement))
    assert exc.value.field == key
    assert f"both '{key}' and 'Not{key}'" in str(exc.value)


def test_statement_wildcard_flag_stays_out_of_equality_hash_and_repr():
    stmt = PolicyStatement(Effect.ALLOW, ("*",), ("s3:GetObject",), sid="s")
    assert stmt.wildcard_principal
    assert not PolicyStatement(Effect.ALLOW, ("arn:aws:iam::1:root",), ("s3:*",)).wildcard_principal
    assert repr(stmt) == (
        "PolicyStatement(effect=<Effect.ALLOW: 'Allow'>, principal_aws=('*',), "
        "actions=('s3:GetObject',), resources=(), sid='s', condition=None)"
    )
    assert hash(stmt) == hash((Effect.ALLOW, ("*",), ("s3:GetObject",), (), "s"))
    parsed = parse_snapshot_line(
        '{"name":"stmt-bucket","policy":[{"sid":"s","effect":"Allow","principal_aws":["*"],'
        '"actions":["s3:GetObject"]}]}'
    ).policy[0]
    assert parsed == stmt and hash(parsed) == hash(stmt) and repr(parsed) == repr(stmt)
    assert parsed.wildcard_principal
    with pytest.raises(dataclasses.FrozenInstanceError):
        parsed.wildcard_principal = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        parsed.sid = "t"


def test_records_with_tags_or_conditions_are_hashable():
    # tags and condition are dicts left out of hash; equality and repr still include them
    assert hash(BucketConfig("abc")) == hash(BucketConfig("abc"))
    stmt = PolicyStatement(Effect.ALLOW, ("*",), ("s3:GetObject",), condition={"aws:SourceVpc": ("vpc-1",)})
    tagged = BucketConfig("tagged-bucket", policy=(stmt,), tags={"SensitiveData": "true"})
    parsed = parse_snapshot_line(serialize_snapshot_line(tagged))
    assert parsed == tagged and hash(parsed) == hash(tagged)
    assert {tagged, parsed, BucketConfig("abc")} == {tagged, BucketConfig("abc")}
    retagged = dataclasses.replace(tagged, tags={"SensitiveData": "false"})
    other_vpc = dataclasses.replace(stmt, condition={"aws:SourceVpc": ("vpc-2",)})
    assert len({tagged, retagged}) == 2 and len({stmt, other_vpc}) == 2
    assert "tags={'SensitiveData': 'true'}" in repr(tagged)
    assert "condition={'aws:SourceVpc': ('vpc-1',)}" in repr(stmt)


@pytest.mark.parametrize("enum_cls", [GranteeType, Permission, Effect, Severity, Exposure], ids=lambda c: c.__name__)
def test_enum_members_hash_by_identity_and_survive_pickling(enum_cls):
    by_member = {member: member.value for member in enum_cls}
    for member in enum_cls:
        assert hash(member) == object.__hash__(member)
        assert pickle.loads(pickle.dumps(member)) is member
        assert by_member[pickle.loads(pickle.dumps(member))] == member.value
        assert by_member[enum_cls(member.value)] == member.value


def _bpa_bucket(tmp_path, configuration: dict):
    bucket = tmp_path / "bpa-bucket"
    bucket.mkdir()
    (bucket / "acl.json").write_text(_NO_GRANTS)
    (bucket / "public-access-block.json").write_text(
        json.dumps({"PublicAccessBlockConfiguration": configuration})
    )
    return bucket


@pytest.mark.parametrize("value", ["false", "no", "true", 1, 0, None, []], ids=repr)
def test_import_accepts_only_json_booleans_as_bpa_flags(tmp_path, value):
    bucket = _bpa_bucket(tmp_path, {"BlockPublicAcls": value, "IgnorePublicAcls": False})
    with pytest.raises(SchemaError) as exc:
        import_aws_artifacts(bucket)
    assert "BlockPublicAcls" in str(exc.value)


def test_import_bpa_flags_absent_keys_are_false(tmp_path):
    bucket = _bpa_bucket(tmp_path, {"BlockPublicAcls": True, "RestrictPublicBuckets": False})
    assert import_aws_artifacts(bucket).public_access_block == PublicAccessBlock(block_public_acls=True)


def test_bucket_config_validates_name():
    for name in ("NO", "abc\n"):  # a trailing newline too
        with pytest.raises(SchemaError):
            BucketConfig(name=name)
