"""End-to-end CLI behavior: subcommands, exit codes, output stability."""

from __future__ import annotations

import contextlib
import fcntl
import gc
import importlib
import io
import json
import multiprocessing
import os
import shlex
import shutil
import signal
import sys
from pathlib import Path

import pytest

import bucketlens
from bucketlens import cli
from bucketlens.cli import RESTRICTIVE_KEYS_ENV, build_parser, main
from bucketlens.evaluation import state_lock

from conftest import FIXTURES, needs_builtin_sha256, run_fresh_interpreter


@pytest.fixture
def small_fleet(tmp_path):
    fleet = tmp_path / "fleet.jsonl"
    rc = main(
        ["generate", "--total", "100", "--mix", "paper", "--seed", "7", "--out", str(fleet)]
    )
    assert rc == 0
    return fleet


def test_generate_writes_fleet_and_truth(tmp_path, capsys):
    fleet = tmp_path / "fleet.jsonl"
    rc = main(["generate", "--total", "50", "--mix", "paper", "--seed", "3", "--out", str(fleet)])
    assert rc == 0
    truth = tmp_path / "fleet.truth.jsonl"
    assert fleet.exists() and truth.exists()
    assert len(fleet.read_text().splitlines()) == 50
    assert len(truth.read_text().splitlines()) == 50
    err = capsys.readouterr().err
    assert "wrote 50 buckets" in err


def test_generate_writes_through_the_module_globals(tmp_path, monkeypatch):
    # a tracer that wraps model.serialize_snapshot_line or fleetgen.write_truth must see generate's calls
    from bucketlens import fleetgen, model

    lines, truths = [], []
    serialize, write_truth = model.serialize_snapshot_line, fleetgen.write_truth

    def counting_serialize(config):
        lines.append(serialize(config))
        return lines[-1]

    def counting_write_truth(pairs, path):
        truths.append(path)
        write_truth(pairs, path)

    monkeypatch.setattr(model, "serialize_snapshot_line", counting_serialize)
    monkeypatch.setattr(fleetgen, "write_truth", counting_write_truth)
    fleet = tmp_path / "fleet.jsonl"
    assert main(["generate", "--total", "20", "--mix", "paper", "--seed", "3", "--out", str(fleet)]) == 0
    assert fleet.read_text(encoding="utf-8") == "".join(line + "\n" for line in lines)
    assert len(lines) == 20
    assert truths == [tmp_path / "fleet.truth.jsonl"]


def test_generate_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        assert main(["generate", "--total", "30", "--mix", "adversarial", "--seed", "9", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.truth.jsonl").read_bytes() == (tmp_path / "b.truth.jsonl").read_bytes()


def test_generate_custom_mix_file(tmp_path):
    mix_file = tmp_path / "mix.json"
    mix_file.write_text('{"S1": 0.5, "S4": 0.5}')
    fleet = tmp_path / "fleet.jsonl"
    assert main(["generate", "--total", "10", "--mix", str(mix_file), "--seed", "1", "--out", str(fleet)]) == 0
    names = [json.loads(line)["name"] for line in fleet.read_text().splitlines()]
    assert any(n.startswith("s1-") for n in names)
    assert any(n.startswith("s4-") for n in names)


def test_generate_bad_mix_exits_three(tmp_path, capsys):
    mix_file = tmp_path / "mix.json"
    mix_file.write_text('{"S1": 0.4}')
    rc = main(["generate", "--total", "10", "--mix", str(mix_file), "--seed", "1", "--out", str(tmp_path / "f.jsonl")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_import_to_stdout_sorted(capsys):
    dirs = sorted(str(p) for p in (FIXTURES / "aws").iterdir())
    rc = main(["import", *reversed(dirs)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    names = [json.loads(line)["name"] for line in out]
    assert names == sorted(names)
    golden = (FIXTURES / "golden" / "aws_import.jsonl").read_text().splitlines()
    assert out == golden


def test_import_missing_acl_exits_three(tmp_path, capsys):
    bucket = tmp_path / "empty-bucket"
    bucket.mkdir()
    assert main(["import", str(bucket)]) == 3
    assert "acl.json" in capsys.readouterr().err


def test_import_duplicate_names_exit_three(tmp_path, capsys):
    acl = (FIXTURES / "aws" / "fixture-owner-only" / "acl.json").read_bytes()
    dirs = []
    for parent, name in (("a", "dup-x"), ("b", "dup-x"), ("a", "dup-y"), ("b", "dup-y"), ("c", "dup-y"), ("a", "solo")):
        bucket = tmp_path / parent / name
        bucket.mkdir(parents=True)
        (bucket / "acl.json").write_bytes(acl)
        dirs.append(str(bucket))
    assert main(["import", *dirs]) == 3
    colliding = ", ".join(str(tmp_path / d) for d in ("a/dup-x", "a/dup-y", "b/dup-x", "b/dup-y", "c/dup-y"))
    assert capsys.readouterr().err == f"error: duplicate bucket directories: {colliding}\n"


def test_import_error_names_a_directory_that_is_no_bucket_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bucket = tmp_path / "t" / "Bad_Name"
    bucket.mkdir(parents=True)
    (bucket / "acl.json").write_text('{"Grants": []}')
    assert main(["import", "t/Bad_Name"]) == 3
    assert capsys.readouterr() == ("", (
        "error: t/Bad_Name: invalid bucket name 'Bad_Name': expected 3-63 chars of lowercase letters, "
        "digits, dots, hyphens (field: name)\n"
    ))
    # a bad artifact is still the error reported
    (bucket / "tagging.json").write_text("{")
    assert main(["import", "t/Bad_Name"]) == 3
    assert capsys.readouterr().err.startswith("error: t/Bad_Name/tagging.json: invalid JSON")


@pytest.mark.parametrize("kind", ["directory", "dangling-symlink"])
@pytest.mark.parametrize("name", ["acl.json", "policy.json", "public-access-block.json", "tagging.json", "website.json"])
def test_import_rejects_an_artifact_that_is_not_a_regular_file(name, kind, tmp_path, capsys):
    bucket = tmp_path / "odd-bucket"
    bucket.mkdir()
    if name != "acl.json":
        (bucket / "acl.json").write_text('{"Grants": []}')
    if kind == "directory":
        (bucket / name).mkdir()
    else:
        (bucket / name).symlink_to(tmp_path / "nowhere.json")
    assert main(["import", str(bucket)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {bucket / name}: "), err


def _embedded(*statements) -> str:
    """A policy.json whose policy document holds ``statements``."""
    return json.dumps({"Policy": json.dumps({"Statement": list(statements)})})


def _statement(**fields) -> str:
    """A policy.json of one statement: a valid Allow, with ``fields`` replaced, or removed when None."""
    statement = {"Effect": "Allow", "Principal": "*", "Action": "s3:GetObject", **fields}
    return _embedded({key: value for key, value in statement.items() if value is not None})


def _grant(**fields) -> str:
    """An acl.json of one grant: an AllUsers READ, with ``fields`` replaced."""
    grant = {"Grantee": {"Type": "Group", "URI": "http://acs.amazonaws.com/groups/global/AllUsers"},
             "Permission": "READ", **fields}
    return json.dumps({"Grants": [grant]})


_BPA = "public-access-block.json"


@pytest.mark.parametrize(
    "name,content,message",
    [
        pytest.param("acl.json", b'{"Grants": ["\xff"]}', "invalid UTF-8", id="acl-not-utf8"),
        pytest.param("acl.json", "{", "invalid JSON", id="acl-invalid-json"),
        pytest.param("acl.json", '{"Grants": {}}', "expected an object with a 'Grants' array", id="acl-no-grants"),
        pytest.param("acl.json", '{"Grants": [{"Permission": "READ"}]}', "each grant needs", id="acl-grant-shape"),
        pytest.param("acl.json", _grant(Grantee="x"), "'Grantee' must be an object", id="acl-string-grantee"),
        pytest.param("acl.json", _grant(Grantee={"Type": "Role"}), "unknown grantee type", id="acl-grantee-type"),
        pytest.param("acl.json", _grant(Grantee={"Type": "CanonicalUser"}), "missing its identifier", id="acl-no-id"),
        pytest.param("acl.json", _grant(Permission="READ_ALL"), "unknown Permission 'READ_ALL'", id="acl-permission"),
        pytest.param("policy.json", '{"Policy": {}}', "expected an object with a 'Policy' string", id="policy-no-text"),
        pytest.param("policy.json", '{"Policy": "{not json"}', "embedded policy document is invalid JSON",
                     id="policy-embedded-invalid"),
        pytest.param("policy.json", '{"Policy": "[]"}', "must be a JSON object", id="policy-embedded-array"),
        pytest.param("policy.json", '{"Policy": "{\\"Statement\\": 5}"}', "'Statement' must be",
                     id="policy-statement-number"),
        pytest.param("policy.json", _embedded(5), "each Statement entry", id="policy-statement-entry"),
        pytest.param("policy.json", _statement(NotAction="s3:*"), "both 'Action' and 'NotAction'", id="policy-not-key"),
        pytest.param("policy.json", _statement(Principal=None), "missing 'Principal'", id="policy-no-principal"),
        pytest.param("policy.json", _statement(Action=None), "missing 'Action'", id="policy-no-action"),
        pytest.param("policy.json", _statement(Sid=5), "'Sid' must be a string", id="policy-sid"),
        pytest.param("policy.json", _statement(Effect="Alow"), "unknown Effect 'Alow'", id="policy-effect"),
        pytest.param("policy.json", _statement(Principal=5), "unsupported Principal form", id="policy-principal"),
        pytest.param("policy.json", _statement(Action=5), "field 'Action' must be a list of strings",
                     id="policy-action"),
        pytest.param("policy.json", _statement(Action=[]), "statement actions must be non-empty",
                     id="policy-no-actions"),
        pytest.param("policy.json", _statement(Resource=[1]), "field 'Resource' must be a list of strings",
                     id="policy-resource"),
        pytest.param("policy.json", _statement(Condition=[]), "'Condition' must be an object", id="policy-condition"),
        pytest.param("policy.json", _statement(Condition={"Bool": 5}), "condition operator value",
                     id="policy-condition-operator"),
        pytest.param("policy.json", _statement(Condition={"Bool": {"aws:SecureTransport": None}}),
                     "field 'Condition.aws:SecureTransport' must be a list of strings", id="policy-condition-value"),
        pytest.param(_BPA, "[]", "expected an object with a 'PublicAccessBlockConfiguration' object", id="bpa-shape"),
        pytest.param(_BPA, '{"PublicAccessBlockConfiguration": {"BlockPublicAcls": "false"}}',
                     "BlockPublicAcls must be true or false", id="bpa-flag"),
        pytest.param("tagging.json", '{"TagSet": 5}', "expected an object with a 'TagSet' array", id="tags-shape"),
        pytest.param("tagging.json", '{"TagSet": [{"Key": "team"}]}', "needs 'Key' and 'Value'", id="tags-entry"),
        pytest.param("tagging.json", '{"TagSet": [{"Key": ["team"], "Value": "x"}]}', "must be strings",
                     id="tags-key"),
        pytest.param("tagging.json", '{"TagSet": [{"Key": "a", "Value": "1"}, {"Key": "a", "Value": "2"}]}',
                     "duplicate tag key 'a'", id="tags-duplicate"),
        pytest.param("website.json", "{", "invalid JSON", id="website-invalid-json"),
    ],
)
def test_import_error_names_the_artifact_file(name, content, message, tmp_path, capsys):
    good, bad = tmp_path / "good-bucket", tmp_path / "bad-bucket"
    for bucket in (good, bad):
        bucket.mkdir()
        (bucket / "acl.json").write_text('{"Grants": []}')
    _write(bad / name, content)
    assert main(["import", str(good), str(bad)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    prefix = f"error: {bad / name}: "
    assert err.startswith(prefix) and message in err[len(prefix):], err


@pytest.mark.parametrize(
    "option,content,message",
    [
        ("keys", "{}", "restrictive-key file must be a JSON array of strings"),
        ("keys", "[", "restrictive-key file is invalid JSON"),
        ("mix", "[", "mix file is invalid JSON"),
        ("mix", "[]", "mix file must map scenario ids to numeric proportions"),
        ("mix", '{"S1": "1"}', "proportion for S1 must be a number"),
        ("mix", '{"S1": Infinity}', "proportion for S1 must be a finite number"),
    ],
    ids=["keys-shape", "keys-invalid-json", "mix-invalid-json", "mix-shape", "mix-string", "mix-infinite"],
)
def test_mix_and_restrictive_key_errors_name_the_file(option, content, message, small_fleet, tmp_path, capsys,
                                                      monkeypatch):
    path = _write(tmp_path / f"{option}.json", content)
    if option == "keys":
        monkeypatch.setenv(RESTRICTIVE_KEYS_ENV, path)
        argv = ["scan", "--input", str(small_fleet)]
    else:
        argv = ["generate", "--total", "5", "--mix", path, "--out", str(tmp_path / "out.jsonl")]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}: {message}"), err


_UNIFIED_RULE_FILE = os.path.join(os.path.dirname(bucketlens.__file__), "unified.rule")


# command -> (modules it must load, modules it must not): a layer, or the
# fractions and decimal modules that only scoring needs
@pytest.mark.parametrize(
    "argv,used,unused",
    [
        pytest.param(
            ["scan", "--rules", "unified"], {"bucketlens.unified"},
            {"bucketlens.defaults", "bucketlens.dsl", "bucketlens.fleetgen", "fractions", "decimal"},
            id="scan-unified",
        ),
        pytest.param(
            ["scan", "--rules", "both"], {"bucketlens.defaults", "bucketlens.unified"},
            {"bucketlens.dsl", "bucketlens.fleetgen", "fractions", "decimal"},
            id="scan-both",
        ),
        pytest.param(
            ["rules", "run", "--file", _UNIFIED_RULE_FILE], {"bucketlens.dsl"},
            {"bucketlens.defaults", "bucketlens.unified", "bucketlens.fleetgen", "fractions", "decimal"},
            id="rules-run",
        ),
        pytest.param(
            ["evaluate", "--truth", "TRUTH"], {"bucketlens.defaults", "bucketlens.unified", "fractions"},
            {"bucketlens.dsl"},
            id="evaluate",
        ),
    ],
)
def test_command_imports_only_the_layers_it_runs(argv, used, unused, small_fleet):
    argv = [str(small_fleet.with_name("fleet.truth.jsonl")) if arg == "TRUTH" else arg for arg in argv]
    script = (
        "import contextlib, io, sys\n"
        "from bucketlens.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv + ['--input', str(small_fleet)]!r}) == 0\n"
        "print(' '.join(sys.modules), file=sys.stderr)\n"
    )
    loaded = set(run_fresh_interpreter(script).split())
    assert used <= loaded, used - loaded
    assert not unused & loaded, unused & loaded


@needs_builtin_sha256
def test_no_command_loads_openssl(small_fleet, tmp_path):
    # importing hashlib loads OpenSSL (_hashlib), a few MB of resident memory
    bucket = json.loads(small_fleet.read_text().splitlines()[0])["name"]
    state = str(tmp_path / "state.json")
    commands = [
        ["scan", "--input", str(small_fleet)],
        ["scan", "--input", str(small_fleet), "--rules", "unified", "--scan-id", "s1"],
        ["scan", "--input", str(small_fleet), "--state", state, "--scan-id", "s1"],
        ["scan", "--input", str(small_fleet), "--state", state],  # the rescan
        ["rules", "run", "--file", _UNIFIED_RULE_FILE, "--input", str(small_fleet)],
        ["evaluate", "--input", str(small_fleet), "--truth", str(small_fleet.with_name("fleet.truth.jsonl"))],
        ["explain", bucket, "--input", str(small_fleet)],
        ["generate", "--total", "20", "--mix", "adversarial", "--seed", "1", "--out", str(tmp_path / "g.jsonl")],
        ["rules", "list", "--set", "default"],
        ["rules", "list", "--set", "unified"],
    ]
    script = (
        "import contextlib, io, sys\n"
        "from bucketlens.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    assert main({command!r}) == 0\n" for command in commands)
        + "loaded = {'hashlib', '_hashlib'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    run_fresh_interpreter(script)


@pytest.fixture(scope="module")
def seed42_fleets(tmp_path_factory):
    """The seed-42 paper fleet at 200 and at 2,000 buckets, each with its truth."""
    root = tmp_path_factory.mktemp("seed42")
    fleets = []
    for total in (200, 2000):
        fleet = root / f"fleet{total}.jsonl"
        assert main(["generate", "--total", str(total), "--mix", "paper", "--seed", "42", "--out", str(fleet)]) == 0
        fleets.append(fleet)
    return fleets


def _cyclic_garbage(commands) -> int:
    """How many objects in reference cycles ``commands`` leave, run with the collector off."""
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in commands:
                assert main(argv) == 0
        return gc.collect()
    finally:
        gc.enable()


# each command's argv lists for a fleet and a directory of its own
@pytest.mark.parametrize(
    "commands",
    [
        pytest.param(
            lambda fleet, work: [["evaluate", "--input", fleet, "--truth", fleet.replace(".jsonl", ".truth.jsonl")]],
            id="evaluate",
        ),
        pytest.param(lambda fleet, work: [["scan", "--input", fleet, "--rules", "unified"]], id="scan-unified"),
        pytest.param(
            lambda fleet, work: [["scan", "--input", fleet, "--state", str(work / "state.json")]] * 2,
            id="scan-both-state-and-rescan",
        ),
        pytest.param(
            lambda fleet, work: [["rules", "run", "--file", _UNIFIED_RULE_FILE, "--input", fleet]], id="rules-run",
        ),
    ],
)
def test_a_command_leaves_no_reference_cycle_per_bucket(commands, seed42_fleets, tmp_path):
    # main turns the cyclic collector off while a command runs, which is safe
    # only while what a command leaves in cycles does not grow with the fleet
    def garbage(fleet, name):
        (tmp_path / name).mkdir()
        return _cyclic_garbage(commands(str(fleet), tmp_path / name))

    garbage(seed42_fleets[0], "warm")  # first imports and first-use caches
    small, large = garbage(seed42_fleets[0], "small"), garbage(seed42_fleets[1], "large")
    assert small == large


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize(
    "argv,code", [(["rules", "list", "--set", "default"], 0), (["scan", "--input", "missing.jsonl"], 3)],
    ids=["exit-0", "exit-3"],
)
def test_main_leaves_the_collector_as_it_found_it(enabled, argv, code, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    seen, rules_list = [], cli.cmd_rules_list  # whether the collector is on as rules list runs
    monkeypatch.setattr(cli, "cmd_rules_list", lambda args: seen.append(gc.isenabled()) or rules_list(args))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == ([False] if argv[0] == "rules" else [])


def test_package_exports_resolve():
    namespace: dict = {}
    exec("from bucketlens import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(bucketlens.__all__)
    for name, home in bucketlens._HOME.items():
        assert getattr(bucketlens, name) is getattr(importlib.import_module(f"bucketlens.{home}"), name)
    with pytest.raises(AttributeError):
        bucketlens.no_such_name


def test_scan_document_shape(small_fleet, capsys):
    rc = main(["scan", "--input", str(small_fleet), "--rules", "both"])
    assert rc == 0
    document = json.loads(capsys.readouterr().out)
    assert document["schema_version"] == 1
    assert document["rules"] == "both"
    assert document["total_alerts"] == len(document["alerts"])
    assert document["diff"] is None
    names = [a["bucket_name"] for a in document["alerts"]]
    assert names == sorted(names)


def test_scan_fail_on_findings(small_fleet, capsys, tmp_path):
    rc = main(["scan", "--input", str(small_fleet), "--rules", "both", "--fail-on-findings"])
    assert rc == 1
    clean = tmp_path / "clean.jsonl"
    clean.write_text('{"name":"quiet-bucket","public_access_block":{"block_public_acls":true,"ignore_public_acls":true,"block_public_policy":true,"restrict_public_buckets":true}}\n')
    capsys.readouterr()
    rc = main(["scan", "--input", str(clean), "--rules", "both", "--fail-on-findings"])
    assert rc == 0


def test_scan_stateful_cycle(small_fleet, tmp_path, capsys):
    state = tmp_path / "state.json"
    assert main(["scan", "--input", str(small_fleet), "--rules", "unified", "--state", str(state), "--scan-id", "s1"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert len(first["diff"]["new"]) == first["total_alerts"]

    assert main(["scan", "--input", str(small_fleet), "--rules", "unified", "--state", str(state), "--scan-id", "s2"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["diff"]["new"] == []
    assert len(second["diff"]["unchanged"]) == first["total_alerts"]


def _as_json_dumps_writes_it(text: str) -> bool:
    return text == json.dumps(json.loads(text), indent=2) + "\n"


def test_streamed_documents_are_byte_equal_to_json_dumps(small_fleet, tmp_path, capsys):
    state = tmp_path / "state.json"
    assert main(["scan", "--input", str(small_fleet), "--state", str(state), "--scan-id", "s1"]) == 0
    stateful = capsys.readouterr().out
    assert json.loads(stateful)["total_alerts"] > 0
    assert _as_json_dumps_writes_it(stateful)
    assert _as_json_dumps_writes_it(state.read_text(encoding="utf-8"))

    assert main(["scan", "--input", str(small_fleet)]) == 0
    stateless = capsys.readouterr().out
    assert json.loads(stateless)["diff"] is None
    assert _as_json_dumps_writes_it(stateless)

    clean = tmp_path / "clean.jsonl"
    clean.write_text('{"name":"quiet-bucket","public_access_block":{"block_public_acls":true,"ignore_public_acls":true,"block_public_policy":true,"restrict_public_buckets":true}}\n')
    assert main(["scan", "--input", str(clean), "--state", str(tmp_path / "clean-state.json")]) == 0
    silent = capsys.readouterr().out
    assert json.loads(silent)["alerts"] == []
    assert _as_json_dumps_writes_it(silent)
    assert _as_json_dumps_writes_it((tmp_path / "clean-state.json").read_text(encoding="utf-8"))

    # an empty fleet scanned over a non-empty state resolves every fingerprint
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["scan", "--input", str(empty), "--state", str(state), "--scan-id", "s2"]) == 0
    resolved = capsys.readouterr().out
    assert json.loads(resolved)["alerts"] == []
    assert json.loads(resolved)["diff"] == {"new": [], "unchanged": [], "resolved": json.loads(stateful)["diff"]["new"]}
    assert _as_json_dumps_writes_it(resolved)
    assert state.read_text(encoding="utf-8") == '{\n  "schema_version": 1,\n  "first_seen": {}\n}\n'

    for rule, matched in (("RULE always SEVERITY Low WHEN TRUE\n", 100), ("RULE never SEVERITY Low WHEN FALSE\n", 0)):
        rule_file = tmp_path / "rule.rule"
        rule_file.write_text(rule)
        assert main(["rules", "run", "--file", str(rule_file), "--input", str(small_fleet)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["total_alerts"] == matched
        assert _as_json_dumps_writes_it(out)


_ODD_TEXT = '"\\\x01\u2028\U0001f600éü'  # quote, backslash, a C0 control, U+2028, non-BMP, non-ASCII


def _odd_fleet(path):
    """Two buckets whose alert explanations quote a grantee URI and a sid holding ``_ODD_TEXT``."""
    open_block = dict.fromkeys(
        ("block_public_acls", "ignore_public_acls", "block_public_policy", "restrict_public_buckets"), False
    )
    buckets = [
        {
            "name": "odd-acl-bucket",
            "acl_grants": [{
                "grantee_type": "Group",
                "grantee_uri": "http://acs.amazonaws.com/groups/global/AllUsers" + _ODD_TEXT,
                "permission": "READ",
            }],
            "public_access_block": open_block,
        },
        {
            "name": "odd-policy-bucket",
            "policy": [{
                "sid": "sid-" + _ODD_TEXT,
                "effect": "Allow",
                "principal_aws": ["*"],
                "actions": ["s3:GetObject"],
                "resources": ["arn:aws:s3:::odd-policy-bucket/*"],
            }],
            "public_access_block": open_block,
        },
    ]
    path.write_text("".join(json.dumps(bucket, ensure_ascii=False) + "\n" for bucket in buckets), encoding="utf-8")
    return path


def test_documents_with_escaped_text_are_byte_equal_to_json_dumps(tmp_path, capsys):
    fleet = _odd_fleet(tmp_path / "odd.jsonl")
    state = tmp_path / "state.json"
    for scan_id in ("scan-été", "scan-\U0001f600"):
        assert main(["scan", "--input", str(fleet), "--rules", "both", "--state", str(state), "--scan-id", scan_id]) == 0
        out = capsys.readouterr().out
        assert _as_json_dumps_writes_it(out)
        assert _as_json_dumps_writes_it(state.read_text(encoding="utf-8"))
        explanations = [alert["explanation"] for alert in json.loads(out)["alerts"]]
        assert any("AllUsers" + _ODD_TEXT in text for text in explanations)
        assert any("sid-" + _ODD_TEXT in text for text in explanations)
    assert set(json.loads(state.read_text(encoding="utf-8"))["first_seen"].values()) == {"scan-été"}

    rule_file = tmp_path / "always.rule"
    rule_file.write_text("RULE always SEVERITY High WHEN TRUE\n")
    assert main(["rules", "run", "--file", str(rule_file), "--input", str(fleet)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["total_alerts"] == 2
    assert _as_json_dumps_writes_it(out)


def test_scan_rejects_held_lock(small_fleet, tmp_path, capsys):
    state = tmp_path / "state.json"
    with open(tmp_path / "state.json.lock", "w") as holder:
        fcntl.flock(holder, fcntl.LOCK_EX)
        rc = main(["scan", "--input", str(small_fleet), "--rules", "unified", "--state", str(state)])
    assert rc == 3
    assert "locked" in capsys.readouterr().err
    assert not state.exists()


def test_scan_with_a_missing_state_directory_names_the_state_file(small_fleet, tmp_path, capsys):
    state = tmp_path / "missing" / "dir" / "s.json"
    assert main(["scan", "--input", str(small_fleet), "--state", str(state), "--scan-id", "s1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot lock alert state {state}: No such file or directory\n"
    assert not (tmp_path / "missing").exists()


def _lock_state_and_die(state: str) -> None:
    with state_lock(state):
        os.kill(os.getpid(), signal.SIGKILL)


def test_scan_after_killed_lock_holder(small_fleet, tmp_path, capsys):
    state = tmp_path / "state.json"
    child = multiprocessing.get_context("spawn").Process(target=_lock_state_and_die, args=(str(state),))
    child.start()
    child.join(timeout=60)
    assert not child.is_alive()
    assert child.exitcode == -signal.SIGKILL
    assert (tmp_path / "state.json.lock").exists()  # the dead holder's sidecar stays behind
    rc = main(["scan", "--input", str(small_fleet), "--rules", "unified", "--state", str(state)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["diff"] is not None


def test_evaluate_table_and_report(small_fleet, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    truth = small_fleet.with_name("fleet.truth.jsonl")
    rc = main(
        [
            "evaluate",
            "--input",
            str(small_fleet),
            "--truth",
            str(truth),
            "--report",
            str(report_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Precision" in out
    report = json.loads(report_path.read_text())
    assert report["rulesets"]["unified"]["precision"] in (1.0, None)


def test_evaluate_csv_format(small_fleet, capsys):
    truth = small_fleet.with_name("fleet.truth.jsonl")
    rc = main(["evaluate", "--input", str(small_fleet), "--truth", str(truth), "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (FIXTURES / "golden" / "report_header.csv").read_text().strip()


def test_evaluate_custom_minutes(small_fleet, capsys):
    truth = small_fleet.with_name("fleet.truth.jsonl")
    rc = main(
        [
            "evaluate", "--input", str(small_fleet), "--truth", str(truth),
            "--format", "json", "--minutes-default", "10", "--minutes-unified", "2",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rulesets"]["default"]["modeled_triage_minutes"] == doc["rulesets"]["default"]["total_alerts"] * 10


@pytest.mark.parametrize("flag", ["--minutes-default", "--minutes-unified"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_evaluate_rejects_minutes_that_are_not_finite_and_non_negative(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--input", "fleet.jsonl", "--truth", "truth.jsonl", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_evaluate_accepts_zero_minutes(small_fleet, capsys):
    truth = small_fleet.with_name("fleet.truth.jsonl")
    rc = main(
        [
            "evaluate", "--input", str(small_fleet), "--truth", str(truth),
            "--format", "json", "--minutes-default", "0", "--minutes-unified", "0",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert [ruleset["modeled_triage_minutes"] for ruleset in doc["rulesets"].values()] == [0, 0]


@pytest.mark.parametrize("flag,ruleset", [("--minutes-default", "default"), ("--minutes-unified", "unified")])
def test_evaluate_rejects_an_overflowing_triage_total(small_fleet, tmp_path, capsys, flag, ruleset):
    # finite minutes per alert, but their product with the alert count is not
    report = tmp_path / "report.json"
    truth = small_fleet.with_name("fleet.truth.jsonl")
    argv = ["evaluate", "--input", str(small_fleet), "--truth", str(truth), "--report", str(report), flag, "1e308"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and f"{ruleset} ruleset" in err
    assert not report.exists()


_TRUTH_LINE = '{"name": "abc", "exploitable": "yes", "business_risk": false, "reason": "r"}\n'
_FLEET_LINE = '{"name": "abc", "region": 7}\n'


@pytest.mark.parametrize(
    "bad_fleet,bad_truth,expected",
    [
        pytest.param(False, True, "truth.jsonl: field 'exploitable' missing or mistyped (field: exploitable) (line 2)",
                     id="truth"),
        pytest.param(True, False, "fleet.jsonl: field 'region' must be str, got int (field: region) (line 2)",
                     id="fleet"),
        pytest.param(True, True, "fleet.jsonl: field 'region' must be str, got int (field: region) (line 2)",
                     id="both-fleet-wins"),
    ],
)
def test_evaluate_error_names_its_input(bad_fleet, bad_truth, expected, small_fleet, tmp_path, capsys):
    def copy(source, name, bad_line):
        """``source`` as ``name``, with ``bad_line``, if given, as its second line."""
        lines = source.read_text().splitlines(keepends=True)
        (tmp_path / name).write_text("".join(lines[:1] + ([bad_line] if bad_line else []) + lines[1:]))
        return str(tmp_path / name)

    fleet = copy(small_fleet, "fleet.jsonl", bad_fleet and _FLEET_LINE)
    truth = copy(small_fleet.with_name("fleet.truth.jsonl"), "truth.jsonl", bad_truth and _TRUTH_LINE)
    assert main(["evaluate", "--input", fleet, "--truth", truth]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {tmp_path}/{expected}\n"


def _with_second_line(source, path, line):
    """``source`` written to ``path`` with ``line`` inserted as its second line;
    ``None`` inserts a copy of the first."""
    lines = source.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join([lines[0], line or lines[0], *lines[1:]]))
    return str(path)


# (second line, message) of each bad input; None repeats the first line, whose name is {name}
_INPUT_FAULTS = {
    ("fleet", "malformed"): (_FLEET_LINE.encode(), "field 'region' must be str, got int (field: region)"),
    ("truth", "malformed"): (_TRUTH_LINE.encode(), "field 'exploitable' missing or mistyped (field: exploitable)"),
    ("fleet", "duplicate"): (None, "duplicate bucket name {name!r}"),
    ("truth", "duplicate"): (None, "duplicate bucket name {name!r}"),
    ("fleet", "not-utf8"): (b'{"name": "bad-\xff"}\n', "invalid UTF-8: invalid start byte"),
    ("truth", "not-utf8"): (b'{"name": "bad-\xff"}\n', "invalid UTF-8: invalid start byte"),
}


@pytest.mark.parametrize("fault", ["malformed", "duplicate", "not-utf8"])
@pytest.mark.parametrize(
    "command,bad_input",
    [("scan", "fleet"), ("explain", "fleet"), ("rules run", "fleet"), ("evaluate", "fleet"), ("evaluate", "truth")],
)
def test_every_fleet_command_names_the_file_and_line_of_an_input_error(
    command, bad_input, fault, small_fleet, tmp_path, capsys
):
    inputs = {"fleet": small_fleet, "truth": small_fleet.with_name("fleet.truth.jsonl")}
    source = inputs[bad_input]
    line, message = _INPUT_FAULTS[bad_input, fault]
    bad = inputs[bad_input] = _with_second_line(source, tmp_path / f"bad-{bad_input}.jsonl", line)
    first = json.loads(source.read_text().splitlines()[0])["name"]
    rule = _write(tmp_path / "always.rule", "RULE always SEVERITY Low WHEN TRUE\n")
    fleet, truth = str(inputs["fleet"]), str(inputs["truth"])
    argv = {
        "scan": ["scan", "--input", fleet],
        "explain": ["explain", first, "--input", fleet],
        "rules run": ["rules", "run", "--file", rule, "--input", fleet],
        "evaluate": ["evaluate", "--input", fleet, "--truth", truth],
    }[command]
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr() == ("", f"error: {bad}: {message.format(name=first)} (line 2)\n")


@pytest.mark.parametrize("format", ["table", "csv", "json"])
def test_evaluate_renders_negative_zero_minutes_as_zero(small_fleet, tmp_path, capsys, format):
    report = tmp_path / "report.json"
    truth = small_fleet.with_name("fleet.truth.jsonl")
    argv = ["evaluate", "--input", str(small_fleet), "--truth", str(truth), "--report", str(report), "--format", format]
    assert main([*argv, "--minutes-default", "-0", "--minutes-unified", "-0"]) == 0
    out, written = capsys.readouterr().out, report.read_bytes()
    assert "-0" not in out and b"-0" not in written
    assert main([*argv, "--minutes-default", "0", "--minutes-unified", "0"]) == 0
    assert (capsys.readouterr().out, report.read_bytes()) == (out, written)


def _strict_json(text: str):
    def reject(constant: str):
        raise AssertionError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_every_json_document_is_strict_json(small_fleet, tmp_path, capsys):
    state, report = tmp_path / "state.json", tmp_path / "report.json"
    truth = small_fleet.with_name("fleet.truth.jsonl")
    rule_file = tmp_path / "always.rule"
    rule_file.write_text("RULE always SEVERITY Low WHEN TRUE\n")
    commands = [
        ["scan", "--input", str(small_fleet), "--state", str(state), "--scan-id", "s1"],
        ["rules", "run", "--file", str(rule_file), "--input", str(small_fleet)],
        # 1e300 minutes per alert stays finite for a 100-bucket fleet
        ["evaluate", "--input", str(small_fleet), "--truth", str(truth), "--format", "json",
         "--report", str(report), "--minutes-default", "1e300", "--minutes-unified", "1e300"],
    ]
    for argv in commands:
        assert main(argv) == 0
        _strict_json(capsys.readouterr().out)
    _strict_json(state.read_text(encoding="utf-8"))
    assert _strict_json(report.read_text(encoding="utf-8"))["rulesets"]["default"]["modeled_triage_minutes"] > 1e300


@pytest.mark.parametrize("version", ["true", "1.0"])
def test_scan_rejects_a_state_whose_version_is_not_the_integer_one(small_fleet, tmp_path, capsys, version):
    state = tmp_path / "state.json"
    state.write_text('{"schema_version": %s, "first_seen": {}}' % version)
    before = state.read_bytes()
    assert main(["scan", "--input", str(small_fleet), "--state", str(state), "--scan-id", "s1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "schema_version" in err
    assert state.read_bytes() == before


def test_scan_rejects_a_state_key_that_is_not_a_fingerprint(small_fleet, tmp_path, capsys):
    # such a key would be reported resolved by every later scan
    state = tmp_path / "state.json"
    state.write_text('{"schema_version": 1, "first_seen": {"a": "s1"}}')
    before = state.read_bytes()
    assert main(["scan", "--input", str(small_fleet), "--state", str(state), "--scan-id", "s2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: alert state {state} has a first_seen key that is not an alert fingerprint\n"
    assert state.read_bytes() == before


def test_explain_fired_bucket(small_fleet, capsys):
    names = [json.loads(l)["name"] for l in small_fleet.read_text().splitlines()]
    target = next(n for n in names if n.startswith("s5-"))
    rc = main(["explain", target, "--input", str(small_fleet)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "unified conditions fired: 2, 3, 4" in out
    assert "sid-" in out  # the wildcard statement is cited
    assert "default alerts" in out


def test_explain_clean_bucket(small_fleet, capsys):
    names = [json.loads(l)["name"] for l in small_fleet.read_text().splitlines()]
    target = next(n for n in names if n.startswith("s1-"))
    rc = main(["explain", target, "--input", str(small_fleet)])
    assert rc == 0
    assert "no conditions fired" in capsys.readouterr().out


def test_explain_unknown_bucket(small_fleet, capsys):
    rc = main(["explain", "no-such-bucket", "--input", str(small_fleet)])
    assert rc == 3


def test_rules_list_default(capsys):
    assert main(["rules", "list", "--set", "default"]) == 0
    out = capsys.readouterr().out
    assert "ACL-ALLUSERS-READ" in out
    assert len([l for l in out.splitlines() if l and not l.startswith(("ID", "-"))]) == 24


def test_rules_list_unified(capsys):
    assert main(["rules", "list", "--set", "unified"]) == 0
    out = capsys.readouterr().out
    assert "UNIFIED-S3-PUBLIC-ACCESS" in out
    for n in range(1, 6):
        assert f"C{n}:" in out


def test_rules_run_unified_matches_builtin_scan(small_fleet, capsys, tmp_path):
    rule_file = tmp_path / "unified.rule"
    from bucketlens.unified import unified_dsl_source

    rule_file.write_text(unified_dsl_source())
    assert main(["rules", "run", "--file", str(rule_file), "--input", str(small_fleet)]) == 0
    custom = json.loads(capsys.readouterr().out)
    assert main(["scan", "--input", str(small_fleet), "--rules", "unified"]) == 0
    builtin = json.loads(capsys.readouterr().out)
    assert {a["bucket_name"] for a in custom["alerts"]} == {
        a["bucket_name"] for a in builtin["alerts"]
    }


def test_rules_run_when_true_alerts_everywhere(small_fleet, capsys, tmp_path):
    rule_file = tmp_path / "always.rule"
    rule_file.write_text("RULE always SEVERITY Low WHEN TRUE\n")
    assert main(["rules", "run", "--file", str(rule_file), "--input", str(small_fleet)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total_alerts"] == 100
    assert doc["severity"] == "Low"


def test_rules_run_malformed_rule_reports_offset(small_fleet, capsys, tmp_path):
    # FILE:OFFSET: and the bare message, for each of the three rule errors
    rule_file = tmp_path / "broken.rule"
    for source, offset, message in [
        ("RULE broken SEVERITY High WHEN 'unclosed", 31, "unterminated string"),
        ("RULE r SEVERITY High WHEN WebsiteEnabled = 1", 43, "illegal character '1'"),
        ("RULE r SEVERITY High WHEN Exposure =", 36, "expected a literal, expected one of: FALSE, TRUE, string"),
        ("RULE r SEVERITY High WHEN nosuch = 'x'", 26, "unknown path 'nosuch'"),
    ]:
        rule_file.write_text(source)
        rc = main(["rules", "run", "--file", str(rule_file), "--input", str(small_fleet)])
        assert rc == 3
        assert capsys.readouterr() == ("", f"error: {rule_file}:{offset}: {message}\n")


def test_restrictive_keys_env_override(small_fleet, tmp_path, capsys, monkeypatch):
    # an empty override set makes the S3-style VPC condition non-restrictive,
    # so internal-wildcard buckets start firing the unified rule
    override = tmp_path / "keys.json"
    override.write_text("[]")
    names_s3 = [
        json.loads(l)["name"]
        for l in small_fleet.read_text().splitlines()
        if json.loads(l)["name"].startswith("s3-")
    ]
    assert names_s3
    assert main(["scan", "--input", str(small_fleet), "--rules", "unified"]) == 0
    base = json.loads(capsys.readouterr().out)
    base_names = {a["bucket_name"] for a in base["alerts"]}
    assert not base_names & set(names_s3)

    monkeypatch.setenv(RESTRICTIVE_KEYS_ENV, str(override))
    assert main(["scan", "--input", str(small_fleet), "--rules", "unified"]) == 0
    overridden = json.loads(capsys.readouterr().out)
    assert set(names_s3) <= {a["bucket_name"] for a in overridden["alerts"]}


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["scan"])  # --input is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_missing_input_file_exits_three(tmp_path, capsys):
    rc = main(["scan", "--input", str(tmp_path / "absent.jsonl")])
    assert rc == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["generate", "--help"],
        ["import", "--help"],
        ["scan", "--help"],
        ["evaluate", "--help"],
        ["explain", "--help"],
        ["rules", "--help"],
        ["rules", "list", "--help"],
        ["rules", "run", "--help"],
    ],
)
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    capsys.readouterr()


def test_help_documents_spec_flags():
    parser = build_parser()
    text = parser.format_help()
    assert "generate" in text and "evaluate" in text and "explain" in text


_DEEP = "[" * 100_000
_BAD_UTF8 = b'{"name":"bad-\xff-bucket"}\n'
# one digit more than int() converts from text; a limit of 0 means none
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_LONG_INT = "1" * (_DIGIT_LIMIT + 1)
_LONG_INT_CASE = pytest.mark.skipif(_DIGIT_LIMIT == 0, reason="integer digit limit is off")


def _rule_run(t, fleet, source):
    return ["rules", "run", "--file", _write(t / "r.rule", source), "--input", str(fleet)]


def _generate(t, mix):
    return ["generate", "--total", "5", "--mix", _write(t / "mix.json", mix), "--out", str(t / "out.jsonl")]


def _scan_with_long_int_keys(t, fleet):
    _write(t / "keys.json", f"[{_LONG_INT}]")  # the test points the restrictive-key override at it
    return ["scan", "--input", str(fleet)]


def _write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return str(path)


def _artifact_dir(tmp_path, files):
    bucket = tmp_path / "malformed-bucket"
    bucket.mkdir()
    for name, content in files.items():
        _write(bucket / name, content)
    return str(bucket)


@pytest.mark.parametrize(
    "make_argv",
    [
        pytest.param(lambda t, fleet: ["scan", "--input", _write(t / "in.jsonl", _BAD_UTF8)], id="input-not-utf8"),
        pytest.param(lambda t, fleet: ["scan", "--input", _write(t / "in.jsonl", _DEEP + "\n")], id="input-deep"),
        pytest.param(
            lambda t, fleet: ["evaluate", "--input", str(fleet), "--truth", _write(t / "t.jsonl", _BAD_UTF8)],
            id="truth-not-utf8",
        ),
        pytest.param(
            lambda t, fleet: ["evaluate", "--input", str(fleet), "--truth", _write(t / "t.jsonl", _DEEP + "\n")],
            id="truth-deep",
        ),
        pytest.param(
            lambda t, fleet: ["rules", "run", "--file", _write(t / "r.rule", b"RULE r SEVERITY High WHEN \xff"),
                              "--input", str(fleet)],
            id="rule-file-not-utf8",
        ),
        pytest.param(
            lambda t, fleet: ["scan", "--input", str(fleet), "--state", _write(t / "state.json", _DEEP)],
            id="state-deep",
        ),
        pytest.param(
            lambda t, fleet: ["scan", "--input", str(fleet), "--state", _write(t / "state.json", b"\xff\xfe{}")],
            id="state-not-utf8",
        ),
        pytest.param(
            lambda t, fleet: ["import", _artifact_dir(t, {"acl.json": b'{"Grants": ["\xff"]}'})],
            id="artifact-not-utf8",
        ),
        pytest.param(lambda t, fleet: ["import", _artifact_dir(t, {"acl.json": _DEEP})], id="artifact-deep"),
        pytest.param(
            lambda t, fleet: ["import", _artifact_dir(t, {
                "acl.json": '{"Grants": []}', "policy.json": json.dumps({"Policy": _DEEP}),
            })],
            id="embedded-policy-deep",
        ),
        pytest.param(
            lambda t, fleet: ["import", _artifact_dir(t, {
                "acl.json": '{"Grants": []}',
                "public-access-block.json": '{"PublicAccessBlockConfiguration": {"BlockPublicAcls": "false"}}',
            })],
            id="bpa-flag-string",
        ),
        pytest.param(
            lambda t, fleet: ["generate", "--total", "5", "--mix", _write(t / "mix.json", b"\xff"),
                              "--out", str(t / "out.jsonl")],
            id="mix-not-utf8",
        ),
        pytest.param(lambda t, fleet: _generate(t, '{"S1": NaN}'), id="mix-nan"),
        pytest.param(lambda t, fleet: _generate(t, '{"S1": 1%s}' % ("0" * 400)), id="mix-too-large-for-a-float"),
        pytest.param(
            lambda t, fleet: _rule_run(t, fleet, "RULE r SEVERITY High WHEN Exposure.x = 'internal'"),
            id="rule-dotted-path",
        ),
        pytest.param(
            lambda t, fleet: _rule_run(t, fleet, "RULE r SEVERITY High WHEN EXISTS(PolicyStatements WHERE Condition = 'x')"),
            id="rule-map-compared",
        ),
        # one over-long integer in each input the CLI reads
        pytest.param(
            lambda t, fleet: ["scan", "--input", _write(t / "in.jsonl", '{"name": "abc", "x": %s}\n' % _LONG_INT)],
            id="input-long-int", marks=_LONG_INT_CASE,
        ),
        pytest.param(
            lambda t, fleet: ["evaluate", "--input", str(fleet), "--truth", _write(t / "t.jsonl", f"[{_LONG_INT}]\n")],
            id="truth-long-int", marks=_LONG_INT_CASE,
        ),
        pytest.param(lambda t, fleet: _generate(t, '{"S1": %s}' % _LONG_INT), id="mix-long-int", marks=_LONG_INT_CASE),
        pytest.param(_scan_with_long_int_keys, id="restrictive-keys-long-int", marks=_LONG_INT_CASE),
        pytest.param(
            lambda t, fleet: ["scan", "--input", str(fleet), "--state",
                              _write(t / "state.json", '{"schema_version": %s}' % _LONG_INT)],
            id="state-long-int", marks=_LONG_INT_CASE,
        ),
        pytest.param(
            lambda t, fleet: ["import", _artifact_dir(t, {"acl.json": '{"Grants": [], "x": %s}' % _LONG_INT})],
            id="artifact-long-int", marks=_LONG_INT_CASE,
        ),
        pytest.param(
            lambda t, fleet: ["import", _artifact_dir(t, {
                "acl.json": '{"Grants": []}', "policy.json": json.dumps({"Policy": '{"x": %s}' % _LONG_INT}),
            })],
            id="embedded-policy-long-int", marks=_LONG_INT_CASE,
        ),
    ],
)
def test_malformed_input_exits_three_without_traceback(make_argv, small_fleet, tmp_path, capsys, monkeypatch):
    argv = make_argv(tmp_path, small_fleet)
    if (tmp_path / "keys.json").exists():  # a case's restrictive-key override
        monkeypatch.setenv(RESTRICTIVE_KEYS_ENV, str(tmp_path / "keys.json"))
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_deeply_nested_rule_is_a_parse_error(small_fleet, tmp_path, capsys):
    rule_file = tmp_path / "deep.rule"
    rule_file.write_text("RULE deep SEVERITY High WHEN " + "(" * 5000 + "TRUE" + ")" * 5000)
    assert main(["rules", "run", "--file", str(rule_file), "--input", str(small_fleet)]) == 3
    err = capsys.readouterr().err
    assert "nested too deeply" in err
    assert "Traceback" not in err


def test_restrictive_keys_file_not_utf8_exits_three(small_fleet, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(RESTRICTIVE_KEYS_ENV, _write(tmp_path / "keys.json", b'["\xff"]'))
    assert main(["scan", "--input", str(small_fleet)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_scan_id_must_be_utf8(small_fleet, tmp_path, capsys):
    # a command-line argument that is not UTF-8 arrives with surrogate escapes
    state = tmp_path / "state.json"
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--input", str(small_fleet), "--state", str(state), "--scan-id", "id\udcff"])
    assert exc.value.code == 2
    assert "expected a UTF-8 scan id" in capsys.readouterr().err
    assert not state.exists()


# \u escapes that spell a lone surrogate, which no UTF-8 output can hold
_LONE_SURROGATES = {"high": "\\ud800", "low": "\\udc00", "reversed-pair": "\\udc00\\ud800"}
# escapes that spell text: a surrogate pair, and an escaped backslash before "ud800"
_SPELLED_TEXT = {"pair": ("\\ud83d\\ude00", "\U0001f600"), "escaped-backslash": ("\\\\ud800", "\\ud800")}


@pytest.mark.parametrize("escape", _LONE_SURROGATES.values(), ids=_LONE_SURROGATES)
@pytest.mark.parametrize("command", ["scan", "explain"])
def test_a_lone_surrogate_in_a_fleet_exits_three(command, escape, tmp_path, capsys):
    fleet = _write(tmp_path / "fleet.jsonl", '{"name": "abc"}\n{"name": "abd", "region": "%s"}\n' % escape)
    argv = ["scan", "--input", fleet] if command == "scan" else ["explain", "abd", "--input", fleet]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", f"error: {fleet}: invalid JSON: lone surrogate in a string (line 2)\n")


@pytest.mark.parametrize("escape", _LONE_SURROGATES.values(), ids=_LONE_SURROGATES)
@pytest.mark.parametrize("artifact", ["tagging.json", "policy document"])
def test_a_lone_surrogate_in_an_artifact_exits_three_before_writing(artifact, escape, tmp_path, capsys):
    if artifact == "tagging.json":
        files = {"acl.json": '{"Grants": []}', "tagging.json": '{"TagSet": [{"Key": "k", "Value": "%s"}]}' % escape}
        message = "invalid JSON: lone surrogate in a string"
    else:  # the policy text, a JSON string, holds the escape as text, so the escape's backslash is doubled
        policy = '{"Statement": {"Effect": "Allow", "Principal": "*", "Action": "s3:GetObject", "Sid": "%s"}}' % escape
        files = {"acl.json": '{"Grants": []}', "policy.json": json.dumps({"Policy": policy})}
        message = "embedded policy document is invalid JSON: lone surrogate in a string"
    bucket = _artifact_dir(tmp_path, files)
    out = tmp_path / "fleet.jsonl"
    assert main(["import", bucket, "--out", str(out)]) == 3
    name = "tagging.json" if artifact == "tagging.json" else "policy.json"
    assert capsys.readouterr() == ("", f"error: {bucket}/{name}: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("escape,text", _SPELLED_TEXT.values(), ids=_SPELLED_TEXT)
def test_escapes_that_spell_text_come_out_unchanged(escape, text, tmp_path, capsys):
    bucket = _artifact_dir(tmp_path, {
        "acl.json": '{"Grants": []}', "tagging.json": '{"TagSet": [{"Key": "k", "Value": "%s"}]}' % escape,
    })
    assert main(["import", bucket]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["tags"] == {"k": text}
    fleet = _write(tmp_path / "fleet.jsonl", '{"name": "abc", "region": "%s"}\n' % escape)
    assert main(["explain", "abc", "--input", fleet]) == 0
    assert capsys.readouterr().out.startswith(f"bucket: abc (region {text})\n")


def _readme_block(readme: str, heading: str, fence: str) -> str:
    """The first ``fence`` code block after ``heading`` in the README."""
    return readme.split(heading, 1)[1].split(fence + "\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs_as_written(tmp_path, capsys, monkeypatch):
    # each command of the quick start exits 0 in a fresh directory, and the
    # evaluate table is the one the README shows
    repo = Path(__file__).resolve().parent.parent
    readme = (repo / "README.md").read_text(encoding="utf-8")
    commands = [shlex.split(line, comments=True) for line in
                _readme_block(readme, "## Quick start", "```sh").replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv]
    assert [argv[:2] for argv in commands] == [
        ["bucketlens", "generate"], ["bucketlens", "evaluate"], ["bucketlens", "scan"], ["bucketlens", "explain"],
        ["bucketlens", "rules"], ["bucketlens", "rules"],
    ]
    (tmp_path / "rules").mkdir()
    shutil.copyfile(repo / "rules" / "unified.rule", tmp_path / "rules" / "unified.rule")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        out = capsys.readouterr().out
        if argv[1] == "evaluate":
            assert out == _readme_block(readme, "A typical `evaluate` table", "```")
    assert (tmp_path / "report.json").is_file() and (tmp_path / "state.json").is_file()
