"""Malformed input ends in a BucketlensError, never in another exception.

Each loader gets arbitrary text and bytes, JSON documents of any shape, and
valid documents with one value replaced or one key removed. The snapshot
parser and the truth loader must also give what the code they replaced gives
on the same input (``model_oracle``): an equal result, or the same error.
"""

from __future__ import annotations

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bucketlens.dsl import parse_rule, tokenize
from bucketlens.errors import BucketlensError, DuplicateNameError, SchemaError
from bucketlens.evaluation import load_state
from bucketlens.fleetgen import MixSpec, generate_fleet, load_mix_file, load_truth
from bucketlens.model import (
    ALL_USERS_URI,
    import_aws_artifacts,
    parse_snapshot_line,
    serialize_snapshot_line,
    to_snapshot_dict,
)
from bucketlens.policy import load_restrictive_keys

import model_oracle
from conftest import agreement_configs, allusers_read_bucket, public_policy_bucket

_CONDITION_BUCKET = {
    "name": "fuzz-bucket",
    "policy": [{
        "sid": "Read",
        "effect": "Allow",
        "principal_aws": ["*"],
        "actions": ["s3:GetObject"],
        "condition": {"aws:SourceIp": ["10.0.0.0/8"], "s3:prefix": "public/"},
    }],
    "public_access_block": {
        "block_public_acls": True,
        "ignore_public_acls": False,
        "block_public_policy": False,
        "restrict_public_buckets": False,
    },
    "tags": {"SensitiveData": "true", "env": "prod"},
    "website_enabled": True,
}
_SNAPSHOTS = [to_snapshot_dict(allusers_read_bucket()), to_snapshot_dict(public_policy_bucket()), _CONDITION_BUCKET]

_STATEMENT = {
    "Sid": "Read",
    "Effect": "Allow",
    "Principal": {"AWS": ["*"]},
    "Action": ["s3:GetObject"],
    "Resource": "arn:aws:s3:::fuzz-bucket/*",
    "Condition": {"IpAddress": {"aws:SourceIp": "10.0.0.0/8"}, "Bool": {"aws:SecureTransport": False}},
}
_ARTIFACTS = {
    "acl.json": {"Grants": [{"Grantee": {"Type": "Group", "URI": ALL_USERS_URI}, "Permission": "READ"}]},
    "public-access-block.json": {
        "PublicAccessBlockConfiguration": {
            "BlockPublicAcls": True,
            "IgnorePublicAcls": False,
            "BlockPublicPolicy": False,
            "RestrictPublicBuckets": False,
        }
    },
    "tagging.json": {"TagSet": [{"Key": "SensitiveData", "Value": "true"}]},
    "website.json": {"IndexDocument": {"Suffix": "index.html"}},
}
_POLICY = {"Version": "2012-10-17", "Statement": [_STATEMENT]}
_STATE = {"schema_version": 1, "first_seen": {"0" * 64: "scan-1"}}
_TRUTH = {"name": "fuzz-bucket", "exploitable": True, "business_risk": False, "reason": "r"}
_MIX = {"S1": 0.5, "S2": 0.5}
_KEYS = ["aws:SourceIp", "aws:SourceVpce"]

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(
        ["*", "Allow", "Deny", "READ", "Group", "CanonicalUser", ALL_USERS_URI, "s3:GetObject", "fuzz-bucket",
         "\ud800"]  # json.dumps writes the lone surrogate as a \u escape
    )
)
_JSON = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _paths(child, prefix + (index,))


@st.composite
def _mutated(draw, document):
    """``document`` with one value replaced by arbitrary JSON, or one key removed."""
    document = copy.deepcopy(document)
    path = draw(st.sampled_from(list(_paths(document))))
    if not path:
        return draw(_JSON)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_JSON)
    return document


def _file_content(document):
    """Text or bytes for a file that should hold ``document``."""
    mutated = _mutated(document).map(json.dumps)
    return st.one_of(
        mutated,
        mutated,
        mutated,
        _JSON.map(json.dumps),
        st.text(max_size=40),
        st.binary(max_size=40),
    )


def _write(path: Path, content) -> Path:
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    return path


def _rejects_or_accepts(load, *args) -> None:
    try:
        load(*args)
    except BucketlensError:
        pass


def _generate_from_mix_file(path: Path) -> None:
    """Load a mix file and, when it loads, generate a small fleet from it."""
    generate_fleet(MixSpec(load_mix_file(path), total=3, seed=0))


# about three seconds for the whole file
_FUZZ = settings(max_examples=100, deadline=None)


_SNAPSHOT_TEXT = st.one_of(st.sampled_from(_SNAPSHOTS).flatmap(_mutated).map(json.dumps), st.text(max_size=60))


@settings(_FUZZ, max_examples=200)
@given(_SNAPSHOT_TEXT)
def test_snapshot_line(text):
    _rejects_or_accepts(parse_snapshot_line, text)


def _parse_outcome(parse, text):
    """What parsing ``text`` gives: the record, or the SchemaError's parts.

    The record is compared by ==, by repr (which shows every field's type)
    and by each statement's wildcard flag, which == leaves out.
    """
    try:
        config = parse(text)
    except SchemaError as exc:
        return ("error", exc.message, exc.field)
    return ("record", config, repr(config), [stmt.wildcard_principal for stmt in config.policy or ()])


def _assert_parsers_agree(text):
    assert _parse_outcome(parse_snapshot_line, text) == _parse_outcome(model_oracle.parse_snapshot_line, text)


# the one-pass parser reads a value that ends its line, or ends it but for
# one newline, itself, and hands any other text to json.loads
_EDGES = st.sampled_from(["", "", "\n", " ", "\t", "\r\n", " \n", "\n\n", "\x0c", "\u2028", "\ufeff", "x"])


@settings(_FUZZ, max_examples=400)
@given(_EDGES, st.one_of(_SNAPSHOT_TEXT, _JSON.map(json.dumps)), _EDGES)
# escapes the fuzz seldom draws: a lone surrogate, past the fast path too, and a pair
@example("", '{"name": "abc", "tags": {"k": "\\udc00"}}', "\n")
@example(" ", '{"name": "abc", "region": "\\ud800"}', "")
@example("", '{"name": "abc", "region": "\\ud83d\\ude00"}', "\n")
def test_snapshot_parser_matches_oracle(prefix, text, suffix):
    _assert_parsers_agree(prefix + text + suffix)


def test_snapshot_parser_matches_oracle_on_seed_fleets():
    for config in agreement_configs():
        _assert_parsers_agree(serialize_snapshot_line(config) + "\n")


_VALID_ARTIFACTS = {**_ARTIFACTS, "policy.json": {"Policy": json.dumps(_POLICY)}}
_FUZZED_ARTIFACTS = {
    **{name: _file_content(document) for name, document in _VALID_ARTIFACTS.items()},
    # the policy document embedded as a string in policy.json
    "policy document": _mutated(_POLICY).map(lambda policy: json.dumps({"Policy": json.dumps(policy)})),
}


@pytest.mark.parametrize("target", sorted(_FUZZED_ARTIFACTS))
def test_aws_artifact_file(target, tmp_path):
    # every other artifact stays valid, so the fuzzed one is always read
    bucket = tmp_path / "fuzz-bucket"
    bucket.mkdir()
    for name, document in _VALID_ARTIFACTS.items():
        (bucket / name).write_text(json.dumps(document), encoding="utf-8")
    name = "policy.json" if target == "policy document" else target
    valid = (bucket / name).read_bytes()

    @settings(_FUZZ, max_examples=60)
    @given(_FUZZED_ARTIFACTS[target])
    def check(content):
        _write(bucket / name, content)
        try:
            import_aws_artifacts(bucket)
        except BucketlensError as exc:
            # a rejection names the file at fault
            assert str(exc).startswith(f"{bucket / name}: "), exc
        finally:
            (bucket / name).write_bytes(valid)

    check()


_RULE_WORDS = [
    "RULE", "r", "SEVERITY", "High", "WHEN", "(", ")", "EXISTS", "WHERE", "AND", "OR", "NOT",
    "=", "!=", "LIKE", "IS", "NULL", "TRUE", "FALSE", "'x%'", "'", "1", "1.5", ".", "--c\n",
    "PolicyStatements", "AclGrants", "Action", "Exposure", "Sid", "é",
]
_RULE_TEXT = st.one_of(
    st.text(max_size=60),
    st.lists(st.sampled_from(_RULE_WORDS), max_size=16).map(" ".join),
    st.lists(st.sampled_from(_RULE_WORDS), max_size=12).map(lambda words: "RULE r SEVERITY High WHEN " + " ".join(words)),
)


@settings(_FUZZ, max_examples=200)
@given(_RULE_TEXT)
def test_rule_text(source):
    _rejects_or_accepts(tokenize, source)
    _rejects_or_accepts(parse_rule, source)


@_FUZZ
@given(
    _file_content(_STATE),
    st.lists(_file_content(_TRUTH).map(lambda c: c if isinstance(c, bytes) else c.replace("\n", " ")), max_size=3),
    _file_content(_MIX),
    _file_content(_KEYS),
)
def test_state_truth_mix_and_key_files(state, truth_lines, mix, keys):
    truth = b"\n".join(line if isinstance(line, bytes) else line.encode("utf-8") for line in truth_lines)
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        _rejects_or_accepts(load_state, _write(root / "state.json", state))
        _rejects_or_accepts(load_truth, _write(root / "truth.jsonl", truth))
        _rejects_or_accepts(_generate_from_mix_file, _write(root / "mix.json", mix))
        _rejects_or_accepts(load_restrictive_keys, _write(root / "keys.json", keys))


def _sometimes(other, usual, every):
    """``usual``, or, in about one draw of ``every``, ``other``."""
    return st.integers(1, every).flatmap(lambda n: other if n == 1 else usual)


# A truth file's lines: mostly labels whose fields are each mostly valid,
# over three names so that some repeat; else a label one mutation away, any
# JSON or any text. Most lines have no edges.
_TRUTH_LABEL = st.fixed_dictionaries(
    {
        "name": _sometimes(_SCALARS, st.sampled_from(["a-bucket", "b-bucket", "fuzz-bucket"]), 12),
        "exploitable": _sometimes(_SCALARS, st.booleans(), 12),
        "business_risk": _sometimes(_SCALARS, st.booleans(), 12),
        "reason": _sometimes(_SCALARS, st.sampled_from(["r", "S1: benign"]), 12),
    }
)
_TRUTH_LINE = _sometimes(
    st.one_of(_mutated(_TRUTH).map(json.dumps), _JSON.map(json.dumps), st.text(max_size=30)),
    _TRUTH_LABEL.map(json.dumps),
    4,
)
_TRUTH_EDGES = _sometimes(_EDGES, st.just(""), 6)


def _load_outcome(load, path):
    """What loading ``path`` gives: the labels with their reprs, or the error's parts."""
    try:
        truths = load(path)
    except (SchemaError, DuplicateNameError) as exc:
        return ("error", type(exc), str(exc), getattr(exc, "field", None), getattr(exc, "line", None))
    return ("truths", truths, repr(truths))


@settings(_FUZZ, max_examples=300)
@given(st.lists(st.tuples(_TRUTH_EDGES, _TRUTH_LINE, _TRUTH_EDGES).map("".join), max_size=4))
def test_truth_loader_matches_oracle(lines):
    with tempfile.TemporaryDirectory() as root:
        path = _write(Path(root) / "truth.jsonl", "\n".join(lines))
        assert _load_outcome(load_truth, path) == _load_outcome(model_oracle.load_truth, path)
