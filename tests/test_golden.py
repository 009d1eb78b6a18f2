"""Pinned bytes of the seed-42 1k fleets and of every read-only command on them.

``generate``'s fleet and truth files are compared by sha256 with recorded
digests. Each case runs one CLI command in-process and compares the sha256
of its stdout with a recorded digest; a stateful scan and its rescan also pin
the bytes of the state file after each. The rule engines may be restructured for
speed, but their output is part of the interface: a changed digest here is a
changed byte for users, and must be deliberate. The JSON documents are also
checked against the standard library's layout of their own parse, so a wrong
byte shows where it is, not only that a digest moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from bucketlens.cli import main

RULE_FILE = Path(__file__).resolve().parent.parent / "rules" / "unified.rule"

# "{fleet}" and "{truth}" are filled in per mix; "explain" runs once per
# scenario, on the first bucket of that scenario, and its outputs are joined.
CASES = {
    "evaluate-table": ["evaluate", "--input", "{fleet}", "--truth", "{truth}", "--format", "table"],
    "evaluate-json": ["evaluate", "--input", "{fleet}", "--truth", "{truth}", "--format", "json"],
    "evaluate-csv": ["evaluate", "--input", "{fleet}", "--truth", "{truth}", "--format", "csv"],
    "scan-unified": ["scan", "--input", "{fleet}", "--rules", "unified"],
    "scan-default": ["scan", "--input", "{fleet}", "--rules", "default"],
    "scan-both": ["scan", "--input", "{fleet}", "--rules", "both"],
    "rules-run-unified": ["rules", "run", "--file", str(RULE_FILE), "--input", "{fleet}"],
    "explain": ["explain", "{bucket}", "--input", "{fleet}"],
    "rules-list-default": ["rules", "list", "--set", "default"],
    "rules-list-unified": ["rules", "list", "--set", "unified"],
}

DIGESTS = {
    ("paper", "evaluate-csv"): "c457eaba873316d68eef0c5a40e9743c5f9c00291c6ee9782d7c1c9c32b650c2",
    ("paper", "evaluate-json"): "ad3578c87987c2dbb85a5a652edb7852e184d6a287395ea0d3e689b073935bf8",
    ("paper", "evaluate-table"): "e632205563bc44de2de594a33cb3cc106e6d258e865270860b72c437a74e2f10",
    ("paper", "explain"): "295b4d81c6fbc74c3d2c3761fc00a589f3feb4b37c1ac59efb70778d2df77a81",
    ("paper", "rules-list-default"): "0c515ae17693532454b96313e510fe70ba36ee6a733f2d8c7d3a2b1df12238f5",
    ("paper", "rules-list-unified"): "2ab2975ec036d045ab1a6ace5f821cbca71fa849e55f481e6dbf4f841c453f0d",
    ("paper", "rules-run-unified"): "bf0ee5614e796f3154147b41a4eb4a60d1e9b9367086f155f1e6c0eb7164044b",
    ("paper", "scan-both"): "e6fcb27a136cf8bd61be1256c1a1a7d915437a35d5a9501a379a486766fb8cfa",
    ("paper", "scan-default"): "6356ddcbe7b92585e853314781fb0e5c9d2620a04d0d198f39e97632b762cabd",
    ("paper", "scan-unified"): "f790dd9efa00387bcbadf1fac7e66ea3d53fc5b646102f0bb9cf091bfb0193da",
    ("adversarial", "evaluate-csv"): "fba3144a501df0e131abf5e9af00d2ef62487b2a8d2c114235f498a8ebc6d625",
    ("adversarial", "evaluate-json"): "a0584b3dfc80891a25b9f93f4d1dad5d5c83f9d6a55b046c1166dc053264bbab",
    ("adversarial", "evaluate-table"): "7f7bc29d0a99cd8ef52a5e4806a6495311c08bb19ea875726b30d9ccfc0312be",
    ("adversarial", "explain"): "47ff9cefabb4c8ebbde40513e21f0c121c65fe5cf0cdd3e4967f6d6357e0e79c",
    ("adversarial", "rules-list-default"): "0c515ae17693532454b96313e510fe70ba36ee6a733f2d8c7d3a2b1df12238f5",
    ("adversarial", "rules-list-unified"): "2ab2975ec036d045ab1a6ace5f821cbca71fa849e55f481e6dbf4f841c453f0d",
    ("adversarial", "rules-run-unified"): "fb3d5a405cab74d9d26113239b1d2a83aff11dfd8fa0fef9fd77c3b6109155df",
    ("adversarial", "scan-both"): "6f97603c013c69cd0a8d980ac95abe687290324c90b3b5285b552b203dbad8b1",
    ("adversarial", "scan-default"): "2fdc1d83c038d299fa88f460c51d9179ddf426047337000b4ddac43d155a727d",
    ("adversarial", "scan-unified"): "b7c8c12c1859b1d0912616174bab90f6c4e9c6675e0a83885ca8dc7cb899a1c6",
}

# sha256 of the fleet and truth files that ``generate`` writes for each mix.
# The scan cases see region and tag values only through the default scan id,
# a hash of the input file; these digests name the file that changed.
GENERATE_DIGESTS = {
    "paper": (
        "8451af5178767561370886fe6df45141526e024290af4e9c52d12d4857ebd4ed",
        "7bda4a67ba3078cb67567faa3b2d32785013190d6f3bd4276d38d27820cd5917",
    ),
    "adversarial": (
        "9a2f88a23d0a6f6a54b57a90be7e6e03ab0cd9fd10f82d0bce638a22e982f209",
        "24b879c75393e9bc74b674c510e21c0ae61e2d121e618790dd97f90c0a7c1287",
    ),
}

# sha256 of (stdout, state file bytes) after ``scan --rules both --state S``
# with scan id "s1" on a fresh state, then after the rescan with "s2".
STATE_DIGESTS = {
    "paper": (
        (
            "dc933bf3ac4362b56d864f9a13311d092696d4580c5100b9df2c611ece978015",
            "bbe766d5f18b7d9f3bce76278f3386657448bdfb33374d37e1b02383a02539ee",
        ),
        (
            "5d129b554dee9cc717133144f3f7ddf4d173f5a125252feadf9ec5da9119f3ac",
            "bbe766d5f18b7d9f3bce76278f3386657448bdfb33374d37e1b02383a02539ee",
        ),
    ),
    "adversarial": (
        (
            "35326397dc588d2624b62f1cd621b6b59df929f6e8aea583589fcd4d10a8889f",
            "a60ffbf1d580296b67fc165ef49f93640b4e0f85b8568a8654f3f33f99241525",
        ),
        (
            "62a2b00918678bf37af74e1b61365d131760b1d8195c8665804362d137a17c96",
            "a60ffbf1d580296b67fc165ef49f93640b4e0f85b8568a8654f3f33f99241525",
        ),
    ),
}


@pytest.fixture(scope="module", params=("paper", "adversarial"))
def fleet(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param) / "fleet.jsonl"
    assert main(["generate", "--total", "1000", "--mix", request.param, "--seed", "42", "--out", str(out)]) == 0
    return request.param, out


def _first_bucket_per_scenario(fleet_path: Path) -> list[str]:
    first: dict[str, str] = {}
    for line in fleet_path.read_text(encoding="utf-8").splitlines():
        name = json.loads(line)["name"]
        scenario = name.split("-", 1)[0]
        first[scenario] = min(name, first.get(scenario, name))
    return [first[s] for s in sorted(first)]


def _run(argv: list[str], capsys) -> str:
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out


def run_case(case: str, fleet_path: Path, capsys) -> str:
    truth = fleet_path.with_name("fleet.truth.jsonl")
    argv = [
        arg.replace("{fleet}", str(fleet_path)).replace("{truth}", str(truth))
        for arg in CASES[case]
    ]
    if case != "explain":
        return _run(argv, capsys)
    outputs = [
        _run([arg.replace("{bucket}", name) for arg in argv], capsys)
        for name in _first_bucket_per_scenario(fleet_path)
    ]
    assert any("unified alert: none" in out for out in outputs)
    assert any("unified alert: UNIFIED" in out for out in outputs)
    return "".join(outputs)


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_digest(fleet, case, capsys):
    mix, fleet_path = fleet
    stdout = run_case(case, fleet_path, capsys)
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == DIGESTS[mix, case]


def test_generate_digest(fleet):
    mix, fleet_path = fleet
    written = (fleet_path, fleet_path.with_name("fleet.truth.jsonl"))
    assert tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in written) == GENERATE_DIGESTS[mix]


def test_stateful_scan_digest(fleet, tmp_path, capsys):
    mix, fleet_path = fleet
    state = tmp_path / "state.json"
    digests = []
    for scan_id in ("s1", "s2"):
        argv = ["scan", "--input", str(fleet_path), "--rules", "both", "--state", str(state), "--scan-id", scan_id]
        stdout = _run(argv, capsys)
        digests.append((hashlib.sha256(stdout.encode("utf-8")).hexdigest(), hashlib.sha256(state.read_bytes()).hexdigest()))
    assert tuple(digests) == STATE_DIGESTS[mix]


def test_json_documents_match_the_stdlib_layout(fleet, tmp_path, capsys):
    """Every JSON document is laid out as ``json.dumps(..., indent=2)`` lays out its own parse."""
    _, fleet_path = fleet
    state = tmp_path / "state.json"
    runs = [
        ["scan", "--input", str(fleet_path), "--rules", "both", "--state", str(state), "--scan-id", scan_id]
        for scan_id in ("s1", "s2")
    ]
    runs.append(["rules", "run", "--file", str(RULE_FILE), "--input", str(fleet_path)])
    for argv in runs:
        texts = [_run(argv, capsys)]
        if "--state" in argv:
            texts.append(state.read_text(encoding="utf-8"))
        for text in texts:
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
