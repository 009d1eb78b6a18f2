"""Snapshot parsing, canonical serialization and AWS artifact import."""

from __future__ import annotations

import dataclasses
import json
import random
import sys

import pytest

from bucketlens.errors import DuplicateNameError, MissingArtifactError, MixError, SchemaError
from bucketlens.model import (
    AclGrant,
    BucketConfig,
    Effect,
    GranteeType,
    Permission,
    PolicyStatement,
    PublicAccessBlock,
    import_aws_artifacts,
    load_fleet,
    parse_json,
    parse_snapshot_line,
    read_json,
    read_jsonl,
    read_utf8,
    serialize_snapshot_line,
)

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
        parse_snapshot_line(line, line=7)
    assert "OWNER" in str(exc.value)
    assert "line 7" in str(exc.value)


SCHEMA_ERROR_CASES = [
    ("not json", "invalid JSON"),
    ("[1]", "object"),
    ('{"region":"us-east-1"}', "name"),
    ('{"name":"UPPER"}', "invalid bucket name"),
    ('{"name":"ab"}', "invalid bucket name"),
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
def test_every_snapshot_error_names_its_line(line, needle):
    with pytest.raises(SchemaError) as exc:
        parse_snapshot_line(line, line=41)
    assert exc.value.line == 41
    assert str(exc.value).endswith("(line 41)")
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
        parse_snapshot_line('{"name":"Bad_Name"}', line=3)
    assert str(exc.value) == (
        "invalid bucket name 'Bad_Name': expected 3-63 chars of lowercase letters, "
        "digits, dots, hyphens (field: name) (line 3)"
    )


def test_load_fleet_rejects_non_utf8_naming_the_line(tmp_path):
    fleet = tmp_path / "fleet.jsonl"
    good = b'{"name":"ok-bucket-%d"}\n'
    # far past the first decode block, so the line is found by the byte scan
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


def test_read_utf8_names_the_offset_of_the_first_bad_byte(tmp_path):
    path = tmp_path / "doc.txt"
    path.write_bytes("é".encode() + b"ok\xffmore")
    with pytest.raises(SchemaError) as exc:
        read_utf8(path, SchemaError)
    assert exc.value.message == "invalid UTF-8: invalid start byte (offset 4)"
    path.write_text("ok é\n", encoding="utf-8")
    assert read_utf8(path, SchemaError) == "ok é\n"


def test_read_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "doc.jsonl"
    path.write_bytes(b"a\n\n  \n\tb\n\r\nc")
    assert list(read_jsonl(path)) == [(1, "a\n"), (4, "\tb\n"), (6, "c")]


def test_read_jsonl_names_the_first_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "doc.jsonl"
    path.write_bytes(b"ok\n\n\xc3\n\xff\n")
    with pytest.raises(SchemaError) as exc:
        list(read_jsonl(path))
    assert (exc.value.message, exc.value.line) == ("invalid UTF-8: invalid continuation byte", 3)


def test_read_jsonl_closes_its_file_however_the_reading_ends(tmp_path, monkeypatch):
    import bucketlens.model as model

    handles = []

    def recording_open(*args, **kwargs):
        handles.append(open(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(model, "open", recording_open, raising=False)
    path = tmp_path / "fleet.jsonl"
    path.write_text('{"name":"abc"}\n{"name":"abc"}\n{"name":"abd"}\n')

    lines = read_jsonl(path)
    assert next(lines) == (1, '{"name":"abc"}\n')
    lines.close()
    lines = read_jsonl(path)
    next(lines)
    del lines  # abandoned part-read
    with pytest.raises(DuplicateNameError):  # the consumer stops at line 2
        load_fleet(path)
    path.write_bytes(b"ok\n\xff\n")
    with pytest.raises(SchemaError):
        load_fleet(path)
    assert len(handles) == 5
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
    assert hash(stmt) == hash((Effect.ALLOW, ("*",), ("s3:GetObject",), (), "s", None))
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
    with pytest.raises(SchemaError):
        BucketConfig(name="NO")
