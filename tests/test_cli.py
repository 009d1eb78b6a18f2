"""End-to-end CLI behavior: subcommands, exit codes, output stability."""

from __future__ import annotations

import fcntl
import importlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import bucketlens
from bucketlens.cli import RESTRICTIVE_KEYS_ENV, build_parser, main
from bucketlens.evaluation import state_lock

from conftest import FIXTURES


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
    assert capsys.readouterr().err == "error: duplicate bucket directories: dup-x, dup-y\n"


def test_scan_imports_only_the_layers_it_runs(small_fleet):
    # A fresh interpreter: this test process has imported every layer already.
    script = (
        "import sys\n"
        "from bucketlens.cli import main\n"
        f"assert main(['scan', '--input', {str(small_fleet)!r}, '--rules', 'both']) == 0\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('bucketlens'))), file=sys.stderr)\n"
    )
    src = str(Path(bucketlens.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stderr.split())
    assert "bucketlens.evaluation" in loaded
    assert "bucketlens.dsl" not in loaded and "bucketlens.fleetgen" not in loaded


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

    rule_file = tmp_path / "always.rule"
    rule_file.write_text("RULE always SEVERITY Low WHEN TRUE\n")
    assert main(["rules", "run", "--file", str(rule_file), "--input", str(small_fleet)]) == 0
    assert _as_json_dumps_writes_it(capsys.readouterr().out)


def test_scan_rejects_held_lock(small_fleet, tmp_path, capsys):
    state = tmp_path / "state.json"
    with open(tmp_path / "state.json.lock", "w") as holder:
        fcntl.flock(holder, fcntl.LOCK_EX)
        rc = main(["scan", "--input", str(small_fleet), "--rules", "unified", "--state", str(state)])
    assert rc == 3
    assert "locked" in capsys.readouterr().err
    assert not state.exists()


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
    rule_file = tmp_path / "broken.rule"
    rule_file.write_text("RULE broken SEVERITY High WHEN 'unclosed")
    rc = main(["rules", "run", "--file", str(rule_file), "--input", str(small_fleet)])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{rule_file}:31" in err


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
            lambda t, fleet: _rule_run(t, fleet, "RULE r SEVERITY High WHEN Name = 1%s.5" % ("0" * 400)),
            id="rule-float-literal-too-large",
        ),
        pytest.param(
            lambda t, fleet: _rule_run(t, fleet, "RULE r SEVERITY High WHEN Exposure.x = 'internal'"),
            id="rule-dotted-path",
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
        pytest.param(
            lambda t, fleet: _rule_run(t, fleet, f"RULE r SEVERITY High WHEN Name = {_LONG_INT}"),
            id="rule-literal-long-int", marks=_LONG_INT_CASE,
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
