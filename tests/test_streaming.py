"""Commands that read the fleet one bucket at a time: error precedence, memory and scan id.

``rules run`` and ``explain`` parse and evaluate each snapshot line as they
read it, and ``scan`` hashes its input for the default scan id before it
loads the buckets. Which error wins when two inputs are bad, and the scan
id, must be what they were when every command loaded the whole fleet first.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from bucketlens.cli import main
from bucketlens.errors import BucketlensError, SchemaError
from bucketlens.evaluation import scan_fleet
from bucketlens.model import iter_fleet, load_fleet, serialize_snapshot_line

from conftest import allusers_read_bucket, fresh_interpreter_env, locked_bucket, public_policy_bucket

_MALFORMED = '{"name": "broken-bucket", "region": 7}\n'


def _fleet(path, *lines: str) -> str:
    path.write_text("".join(lines), encoding="utf-8")
    return str(path)


def _line(config) -> str:
    return serialize_snapshot_line(config) + "\n"


def _fails_with(argv, capsys, expected_err: str) -> None:
    capsys.readouterr()
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == expected_err


def _fleet_error(path) -> str:
    """The stderr of the error ``load_fleet`` raises for ``path``."""
    with pytest.raises(BucketlensError) as caught:
        load_fleet(path)
    return f"error: {caught.value}\n"


def test_iter_fleet_yields_each_bucket_before_reading_the_next_line(tmp_path):
    first, second = allusers_read_bucket(), locked_bucket()
    buckets = iter_fleet(_fleet(tmp_path / "f.jsonl", _line(first), "\n", _line(second), _MALFORMED))
    assert next(buckets) == first
    assert next(buckets) == second
    with pytest.raises(SchemaError) as exc:
        next(buckets)
    assert exc.value.line == 4


# ---------------------------------------------------------------------------
# Error precedence: two faults per case
# ---------------------------------------------------------------------------

def test_explain_malformed_line_after_the_named_bucket(tmp_path, capsys):
    fleet = _fleet(tmp_path / "f.jsonl", _line(allusers_read_bucket("named-bucket")), _line(locked_bucket()), _MALFORMED)
    expected = _fleet_error(fleet)
    assert "(line 3)" in expected
    _fails_with(["explain", "named-bucket", "--input", fleet], capsys, expected)


def test_explain_malformed_line_wins_over_unknown_bucket(tmp_path, capsys):
    fleet = _fleet(tmp_path / "f.jsonl", _line(locked_bucket()), _MALFORMED, _line(public_policy_bucket()))
    expected = _fleet_error(fleet)
    assert "(line 2)" in expected
    _fails_with(["explain", "no-such-bucket", "--input", fleet], capsys, expected)


def test_explain_duplicate_name_after_the_named_bucket(tmp_path, capsys):
    named = _line(allusers_read_bucket("named-bucket"))
    fleet = _fleet(tmp_path / "f.jsonl", named, _line(locked_bucket()), named)
    expected = _fleet_error(fleet)
    assert expected == "error: duplicate bucket name 'named-bucket' (line 3)\n"
    _fails_with(["explain", "named-bucket", "--input", fleet], capsys, expected)


def test_rules_run_rule_error_wins_over_bad_fleet(tmp_path, capsys):
    rule = tmp_path / "broken.rule"
    rule.write_text("RULE broken SEVERITY High WHEN 'unclosed")
    fleet = _fleet(tmp_path / "f.jsonl", _MALFORMED)
    capsys.readouterr()
    assert main(["rules", "run", "--file", str(rule), "--input", fleet]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {rule}:31: unterminated string")
    assert "(line" not in err


def test_rules_run_malformed_line_after_matching_buckets(tmp_path, capsys):
    rule = tmp_path / "always.rule"
    rule.write_text("RULE always SEVERITY Low WHEN TRUE\n")
    fleet = _fleet(
        tmp_path / "f.jsonl", _line(allusers_read_bucket()), _line(public_policy_bucket()), "\n", _MALFORMED
    )
    expected = _fleet_error(fleet)
    assert "(line 4)" in expected
    _fails_with(["rules", "run", "--file", str(rule), "--input", fleet], capsys, expected)


def test_scan_without_scan_id_missing_input(tmp_path, capsys):
    absent = tmp_path / "absent.jsonl"
    _fails_with(["scan", "--input", str(absent)], capsys,
                f"error: [Errno 2] No such file or directory: {str(absent)!r}\n")


def test_scan_without_scan_id_malformed_input(tmp_path, capsys):
    fleet = _fleet(tmp_path / "f.jsonl", _line(allusers_read_bucket()), _MALFORMED)
    expected = _fleet_error(fleet)
    assert "(line 2)" in expected
    _fails_with(["scan", "--input", fleet], capsys, expected)


# ---------------------------------------------------------------------------
# Memory: only the seen-name set grows with the fleet
# ---------------------------------------------------------------------------

# A held BucketConfig of the paper mix costs about 830 bytes; the name set
# costs a set slot and the name string, and rules run adds an alert for the
# few buckets that match.
_BYTES_PER_BUCKET = 300


@pytest.fixture(scope="module")
def paper_fleets(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleets")
    fleets = {}
    for total in (1000, 4000):
        out = root / f"paper-{total}.jsonl"
        assert main(["generate", "--total", str(total), "--mix", "paper", "--seed", "42", "--out", str(out)]) == 0
        fleets[total] = out
    return fleets


def _traced_peak(argv: list[str]) -> int:
    """Bytes the command allocated at its peak, above what was live when it started."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(argv) == 0  # imports and caches, outside the measurement
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak - start


@pytest.mark.parametrize("command", ["rules-run", "explain"])
def test_peak_memory_grows_only_by_the_seen_names(command, paper_fleets, tmp_path):
    rule = tmp_path / "unified.rule"
    from bucketlens.unified import unified_dsl_source

    rule.write_text(unified_dsl_source())
    first = load_fleet(paper_fleets[1000])[0].name  # present in both fleets

    def argv(fleet) -> list[str]:
        if command == "rules-run":
            return ["rules", "run", "--file", str(rule), "--input", str(fleet)]
        return ["explain", first, "--input", str(fleet)]

    small, large = (_traced_peak(argv(paper_fleets[total])) for total in (1000, 4000))
    assert (large - small) / 3000 < _BYTES_PER_BUCKET, (small, large)


def test_scan_fleet_takes_the_streamed_fleet(paper_fleets):
    fleet = paper_fleets[1000]
    assert scan_fleet(iter_fleet(fleet)) == scan_fleet(load_fleet(fleet))


# ---------------------------------------------------------------------------
# Default scan id
# ---------------------------------------------------------------------------

def test_default_scan_id_hashes_the_file_bytes(paper_fleets, tmp_path, capsys):
    lines = paper_fleets[4000].read_text(encoding="utf-8").splitlines()
    text = "".join(line + ("\r\n\r\n" if i % 100 == 0 else "\r\n") for i, line in enumerate(lines))
    crlf = tmp_path / "crlf.jsonl"
    crlf.write_bytes(text.encode("utf-8"))
    data = crlf.read_bytes()
    assert len(data) > 1 << 20 and b"\r\n\r\n" in data  # more than one 1 MiB chunk

    capsys.readouterr()
    assert main(["scan", "--input", str(crlf), "--rules", "unified"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scan_id"] == "scan-" + hashlib.sha256(data).hexdigest()[:12]
    assert main(["scan", "--input", str(paper_fleets[4000]), "--rules", "unified", "--scan-id", "x"]) == 0
    assert json.loads(capsys.readouterr().out)["alerts"] == doc["alerts"]


def _piped_scan(fleet, *argv: str) -> subprocess.CompletedProcess:
    """``scan --input /dev/stdin`` in a new interpreter, with the fleet's bytes on a pipe."""
    return subprocess.run(
        [sys.executable, "-m", "bucketlens.cli", "scan", "--input", "/dev/stdin", *argv],
        input=fleet.read_bytes(), env=fresh_interpreter_env(), capture_output=True, timeout=60,
    )


def test_piped_scan_needs_a_scan_id(paper_fleets, tmp_path, capsys):
    fleet, state = paper_fleets[1000], tmp_path / "state.json"
    capsys.readouterr()
    assert main(["scan", "--input", str(fleet), "--rules", "unified", "--state", str(state)]) == 0
    by_file = json.loads(capsys.readouterr().out)
    assert by_file["total_alerts"] > 0
    saved = state.read_bytes()

    # hashing the pipe for a default scan id would drain it: the scan would
    # see no buckets and resolve every alert of the saved state
    piped = _piped_scan(fleet, "--rules", "unified", "--state", str(state))
    assert (piped.returncode, piped.stdout) == (3, b"")
    assert b"--scan-id" in piped.stderr
    assert state.read_bytes() == saved

    piped = _piped_scan(fleet, "--rules", "unified", "--scan-id", "piped")
    assert piped.returncode == 0, piped.stderr
    assert json.loads(piped.stdout)["alerts"] == by_file["alerts"]


def test_an_empty_scan_id_is_a_usage_error(paper_fleets, tmp_path, capsys):
    # an empty id used to stand for none: a file scan recorded the file's
    # hash as its id, and a piped one failed asking for the id it was given
    fleet, state = paper_fleets[1000], tmp_path / "state.json"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--input", str(fleet), "--state", str(state), "--scan-id", ""])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "--scan-id: expected a non-empty scan id" in err
    assert not state.exists()

    piped = _piped_scan(fleet, "--state", str(state), "--scan-id", "")
    assert (piped.returncode, piped.stdout) == (2, b"")
    assert b"--scan-id: expected a non-empty scan id" in piped.stderr
    assert not state.exists()
