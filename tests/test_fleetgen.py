"""Scenario catalog expectations, mix arithmetic and determinism."""

from __future__ import annotations

import json
import math
import random

import pytest

from bucketlens.defaults import evaluate_default
from bucketlens.errors import MixError, UnknownScenarioError
from bucketlens.fleetgen import (
    ADVERSARIAL_MIX,
    PAPER_MIX,
    MixSpec,
    generate_fleet,
    get_scenario,
    load_mix_file,
    load_truth,
    scenario_catalog,
    serialize_truth_line,
    write_truth,
)
from bucketlens.model import serialize_snapshot_line
from bucketlens.policy import derive, effective_anonymous_access
from bucketlens.unified import evaluate_unified


def _instances(scenario_id: str, count: int, seed: int = 1):
    mix = MixSpec(proportions={scenario_id: 1.0}, total=count, seed=seed)
    return generate_fleet(mix)


def test_catalog_has_documented_scenarios():
    ids = [s.id for s in scenario_catalog()]
    assert ids[:10] == [f"S{i}" for i in range(1, 11)]
    assert "S11" in ids and "S12" in ids


def test_mixes_cover_known_scenarios_and_sum_to_one():
    for mix in (PAPER_MIX, ADVERSARIAL_MIX):
        assert abs(sum(mix.values()) - 1.0) < 1e-9
        for scenario_id in mix:
            get_scenario(scenario_id)
    # the adversarial shapes stay out of the "paper" mix
    assert "S11" not in PAPER_MIX and "S12" not in PAPER_MIX


def test_s1_is_silent_everywhere():
    for config, truth in _instances("S1", 10):
        derived = derive(config)
        assert evaluate_default(config, derived) == []
        assert evaluate_unified(config, derived) is None
        assert not truth.exploitable and not truth.business_risk


def test_s3_fires_defaults_but_not_unified():
    for config, truth in _instances("S3", 10):
        derived = derive(config)
        assert len(evaluate_default(config, derived)) >= 6
        assert evaluate_unified(config, derived) is None
        assert not truth.exploitable


def test_s4_is_exploitable_and_fires_c1():
    for config, truth in _instances("S4", 10):
        derived = derive(config)
        assert effective_anonymous_access(config).read
        alert = evaluate_unified(config, derived)
        assert alert is not None and 1 in alert.fired_conditions
        assert truth.exploitable and truth.business_risk


@pytest.mark.parametrize("scenario", scenario_catalog(), ids=lambda s: s.id)
def test_scenario_expectations(scenario):
    for config, truth in _instances(scenario.id, 100, seed=13):
        derived = derive(config)
        alert = evaluate_unified(config, derived)
        fired = alert.fired_conditions if alert else frozenset()
        assert fired == scenario.expected_unified_conditions, (scenario.id, fired)
        defaults = evaluate_default(config, derived)
        assert len(defaults) >= scenario.expected_default_rule_count_min, scenario.id
        assert truth.exploitable == scenario.expected_exploitable, scenario.id
        assert truth.business_risk == scenario.expected_business_risk, scenario.id


def test_labels_recomputed_from_oracle():
    mix = MixSpec(proportions=dict(ADVERSARIAL_MIX), total=400, seed=9)
    for config, truth in generate_fleet(mix):
        assert truth.exploitable == bool(effective_anonymous_access(config))


def test_paper_mix_thousand_buckets_forty_risky():
    mix = MixSpec(proportions=dict(PAPER_MIX), total=1000, seed=42)
    pairs = generate_fleet(mix)
    assert len(pairs) == 1000
    assert sum(1 for _, t in pairs if t.business_risk) == 40
    names = [c.name for c, _ in pairs]
    assert len(set(names)) == 1000


def test_single_scenario_fleet():
    pairs = _instances("S1", 10)
    assert len(pairs) == 10
    assert all(not t.exploitable and not t.business_risk for _, t in pairs)


def test_generation_is_deterministic():
    mix = MixSpec(proportions=dict(PAPER_MIX), total=200, seed=77)
    first = generate_fleet(mix)
    second = generate_fleet(mix)
    assert [serialize_snapshot_line(c) for c, _ in first] == [
        serialize_snapshot_line(c) for c, _ in second
    ]
    assert [serialize_truth_line(c.name, t) for c, t in first] == [
        serialize_truth_line(c.name, t) for c, t in second
    ]


def test_different_seed_changes_fleet():
    base = dict(PAPER_MIX)
    a = generate_fleet(MixSpec(proportions=base, total=100, seed=1))
    b = generate_fleet(MixSpec(proportions=base, total=100, seed=2))
    assert [c.name for c, _ in a] != [c.name for c, _ in b]


def test_remainder_assigned_in_catalog_order():
    mix = MixSpec(proportions={"S1": 1 / 3, "S2": 1 / 3, "S4": 1 / 3}, total=10, seed=0)
    pairs = generate_fleet(mix)
    by_prefix = {}
    for config, _ in pairs:
        prefix = config.name.split("-")[0]
        by_prefix[prefix] = by_prefix.get(prefix, 0) + 1
    assert by_prefix == {"s1": 4, "s2": 3, "s4": 3}


def test_mix_validation_errors():
    with pytest.raises(MixError):
        generate_fleet(MixSpec(proportions={"S1": 0.5}, total=10, seed=0))
    with pytest.raises(MixError):
        generate_fleet(MixSpec(proportions={"S1": 1.0}, total=0, seed=0))
    with pytest.raises(MixError):
        generate_fleet(MixSpec(proportions={"S1": -0.5, "S2": 1.5}, total=10, seed=0))
    with pytest.raises(UnknownScenarioError):
        generate_fleet(MixSpec(proportions={"S99": 1.0}, total=10, seed=0))
    with pytest.raises(UnknownScenarioError):
        get_scenario("nope")


@pytest.mark.parametrize(
    "proportions",
    [{"S1": math.nan}, {"S1": math.nan, "S2": 1.0}, {"S1": math.inf}, {"S1": 10**400}, {"S1": 0.5, "S2": 10**400}],
    ids=["nan", "nan-beside-one", "inf", "int-too-large-for-a-float", "int-too-large-beside-a-half"],
)
def test_mix_proportions_must_be_finite(proportions, tmp_path):
    with pytest.raises(MixError, match="finite"):
        generate_fleet(MixSpec(proportions=proportions, total=10, seed=0))
    mix_file = tmp_path / "mix.json"
    mix_file.write_text(json.dumps(proportions))
    with pytest.raises(MixError, match="finite"):
        load_mix_file(mix_file)


def test_truth_round_trip(tmp_path):
    pairs = _instances("S4", 5)
    path = tmp_path / "fleet.truth.jsonl"
    write_truth(pairs, path)
    loaded = load_truth(path)
    assert len(loaded) == 5
    for config, truth in pairs:
        assert loaded[config.name] == truth


def test_names_match_snapshot_constraints():
    rng = random.Random(0)
    mix = MixSpec(proportions=dict(ADVERSARIAL_MIX), total=300, seed=rng.randrange(2**32))
    for config, _ in generate_fleet(mix):
        serialize_snapshot_line(config)  # would raise if the name were invalid
        assert config.name == config.name.lower()
