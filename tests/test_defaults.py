"""The 24-rule baseline catalog and its deliberate bluntness."""

from __future__ import annotations

import dataclasses
import random

import pytest

from bucketlens import defaults
from bucketlens.defaults import default_catalog, evaluate_default
from bucketlens.model import (
    ALL_USERS_URI,
    LOG_DELIVERY_URI,
    AclGrant,
    Alert,
    BucketConfig,
    Effect,
    GranteeType,
    Permission,
    PolicyStatement,
    PublicAccessBlock,
)
from bucketlens.policy import derive
from bucketlens.unified import evaluate_unified

from conftest import agreement_configs, allusers_read_bucket, locked_bucket, random_bucket_config, run_fresh_interpreter


def test_catalog_size_and_unique_ids():
    catalog = default_catalog()
    assert len(catalog) == 24
    assert len({rule.id for rule in catalog}) == 24


def test_catalog_contains_documented_ids():
    ids = {rule.id for rule in default_catalog()}
    assert "ACL-ALLUSERS-READ" in ids
    assert "POLICY-WILDCARD-ANY" in ids
    assert "BPA-RESTRICT-PUBLIC-BUCKETS-OFF" in ids
    assert "EXPOSURE-PUBLIC-FACING" in ids


def test_locked_down_bucket_is_silent():
    config = locked_bucket()
    assert evaluate_default(config, derive(config)) == []


def test_allusers_read_bpa_off_fires_many():
    config = allusers_read_bucket()
    alerts = evaluate_default(config, derive(config))
    ids = [a.rule_id for a in alerts]
    assert len(alerts) >= 7
    for expected in (
        "ACL-ALLUSERS-READ",
        "ACL-ANY-GROUP-GRANTEE",
        "ACL-ANY-NONOWNER-GRANT",
        "BPA-BLOCK-PUBLIC-ACLS-OFF",
        "BPA-IGNORE-PUBLIC-ACLS-OFF",
        "BPA-BLOCK-PUBLIC-POLICY-OFF",
        "BPA-RESTRICT-PUBLIC-BUCKETS-OFF",
        "BPA-ANY-FLAG-OFF",
        "EXPOSURE-PUBLIC-FACING",
    ):
        assert expected in ids


def test_deny_only_wildcard_still_fires():
    # effect is deliberately ignored: this is the redundant-violation noise
    config = BucketConfig(
        name="deny-only-bucket",
        policy=(
            PolicyStatement(
                effect=Effect.DENY, principal_aws=("*",), actions=("s3:*",)
            ),
        ),
        public_access_block=PublicAccessBlock(True, True, True, True),
    )
    alerts = evaluate_default(config, derive(config))
    assert [a.rule_id for a in alerts] == ["POLICY-WILDCARD-ANY"]


def test_internal_wildcard_fires_at_least_six():
    config = BucketConfig(
        name="internal-wildcard-bucket",
        policy=(
            PolicyStatement(
                effect=Effect.ALLOW,
                principal_aws=("*",),
                actions=("s3:GetObject",),
                condition={"aws:SourceVpc": ("vpc-1",)},
            ),
        ),
    )
    alerts = evaluate_default(config, derive(config))
    assert len(alerts) >= 6
    ids = {a.rule_id for a in alerts}
    assert "POLICY-WILDCARD-GETOBJECT" in ids  # condition-blind by design
    assert "POLICY-PUBLIC-STATUS" not in ids  # the one context-aware entry


def test_legacy_log_delivery_fires_broad_acl_rules():
    config = BucketConfig(
        name="legacy-acl-bucket",
        acl_grants=(AclGrant(GranteeType.GROUP, LOG_DELIVERY_URI, Permission.WRITE),),
        public_access_block=PublicAccessBlock(True, True, True, True),
    )
    alerts = evaluate_default(config, derive(config))
    assert [a.rule_id for a in alerts] == ["ACL-ANY-GROUP-GRANTEE", "ACL-ANY-NONOWNER-GRANT"]


def test_alerts_sorted_and_bounded_and_deterministic():
    rng = random.Random(7)
    for _ in range(500):
        config = random_bucket_config(rng)
        derived = derive(config)
        alerts = evaluate_default(config, derived)
        assert len(alerts) <= 24
        ids = [a.rule_id for a in alerts]
        assert ids == sorted(ids)
        assert alerts == evaluate_default(config, derived)


def test_unified_fire_implies_some_default_fires():
    rng = random.Random(99)
    for _ in range(2000):
        config = random_bucket_config(rng)
        derived = derive(config)
        if evaluate_unified(config, derived) is not None:
            assert evaluate_default(config, derived), config


def test_allusers_grant_fires_every_permission_variant():
    for permission in Permission:
        config = BucketConfig(
            name="acl-variant-bucket",
            acl_grants=(AclGrant(GranteeType.GROUP, ALL_USERS_URI, permission),),
            public_access_block=PublicAccessBlock(True, True, True, True),
        )
        ids = {a.rule_id for a in evaluate_default(config, derive(config))}
        token = permission.value.replace("_", "-")
        assert f"ACL-ALLUSERS-{token}" in ids


def _every_rule(config, derived) -> list[Alert]:
    # the reference: all 24 predicates, no rule skipped
    alerts = []
    for rule in sorted(default_catalog(), key=lambda r: r.id):
        evidence = rule.predicate(config, derived)
        if evidence is not None:
            alerts.append(Alert(config.name, rule.id, rule.severity, (), f"{rule.title}: {evidence}"))
    return alerts


def test_defaults_does_not_import_the_unified_rule():
    # both rulesets build model.Alert; neither depends on the other
    script = (
        "import sys\n"
        "import bucketlens.defaults\n"
        "assert 'bucketlens.unified' not in sys.modules, sorted(sys.modules)\n"
    )
    run_fresh_interpreter(script)


def test_skipping_rules_on_empty_inputs_changes_no_alert():
    # in a shuffled order from a cold cache, so no signature is first seen on
    # the same bucket each time
    configs = list(agreement_configs())
    random.Random(13).shuffle(configs)
    defaults._signature_hits.cache_clear()
    for config in configs:
        derived = derive(config)
        assert evaluate_default(config, derived) == _every_rule(config, derived)


def test_shared_hits_stay_exact_past_the_cache_size():
    # more distinct signatures than the cache holds, each with its own
    # evidence text, then the first signatures again
    count = defaults._signature_hits.cache_info().maxsize + 50
    configs = [
        BucketConfig(
            name=f"bucket-{index}",
            acl_grants=(AclGrant(GranteeType.GROUP, f"{ALL_USERS_URI}{index}", Permission.READ),),
            public_access_block=PublicAccessBlock(index % 2 == 0, False, index % 3 == 0, False),
            website_enabled=index % 5 == 0,
        )
        for index in range(count)
    ]
    for config in configs + configs[:3]:
        derived = derive(config)
        assert evaluate_default(config, derived) == _every_rule(config, derived)


def _signature_twins() -> tuple[BucketConfig, BucketConfig]:
    # equal flags and grants, built separately: equal, never the same object
    def build(name: str) -> BucketConfig:
        grants = (AclGrant(GranteeType.GROUP, ALL_USERS_URI, Permission.WRITE),)
        return BucketConfig(name, acl_grants=grants, public_access_block=PublicAccessBlock(False, True, False, True))

    return build("first-twin"), build("second-twin")


def test_equal_but_distinct_inputs_share_one_decision():
    first, second = _signature_twins()
    assert first.public_access_block is not second.public_access_block
    assert first.acl_grants[0] is not second.acl_grants[0]
    defaults._signature_hits.cache_clear()
    for config in (first, second):
        derived = derive(config)
        assert evaluate_default(config, derived) == _every_rule(config, derived)
    info = defaults._signature_hits.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_buckets_of_one_signature_keep_their_own_names():
    first, second = _signature_twins()
    first_alerts = evaluate_default(first, derive(first))
    second_alerts = evaluate_default(second, derive(second))
    assert first_alerts and len(first_alerts) == len(second_alerts)
    assert {a.bucket_name for a in first_alerts} == {"first-twin"}
    assert {a.bucket_name for a in second_alerts} == {"second-twin"}
    assert [dataclasses.replace(a, bucket_name="second-twin") for a in first_alerts] == second_alerts


@pytest.mark.parametrize("reads", [None, "acl_grants"], ids=repr)
def test_shared_rules_read_only_their_declared_inputs(reads):
    # evaluate_default decides these rules once per signature; a predicate
    # that read anything else of the config would be shared wrongly
    rules = [rule for rule in default_catalog() if rule.reads == reads]
    for config in agreement_configs():
        derived = derive(config)
        if reads is None:
            stand_in = BucketConfig(
                "stand-in", public_access_block=config.public_access_block, website_enabled=config.website_enabled
            )
        else:
            stand_in = BucketConfig("stand-in", acl_grants=config.acl_grants)
        for rule in rules:
            assert rule.predicate(stand_in, derived) == rule.predicate(config, derived), (rule.id, config)


def test_rule_inputs_are_declared():
    reads = {rule.id: rule.reads for rule in default_catalog()}
    assert sum(r == "acl_grants" for r in reads.values()) == 12
    assert sum(r == "policy" for r in reads.values()) == 4
    assert all(r in (None, "acl_grants", "policy") for r in reads.values())


@pytest.mark.parametrize("empty", [{"acl_grants": ()}, {"policy": None}, {"policy": ()}], ids=repr)
def test_rules_never_fire_on_their_empty_input(empty):
    (name,) = empty
    declared = [rule for rule in default_catalog() if rule.reads == name]
    for config in agreement_configs():
        emptied = dataclasses.replace(config, **empty)
        for derived in (derive(config), derive(emptied)):
            for rule in declared:
                assert rule.predicate(emptied, derived) is None, rule.id


def test_equal_explanations_are_one_string():
    first = evaluate_default(allusers_read_bucket("first-bucket"), derive(allusers_read_bucket("first-bucket")))
    second = evaluate_default(allusers_read_bucket("second-bucket"), derive(allusers_read_bucket("second-bucket")))
    assert [a.explanation for a in first] == [a.explanation for a in second]
    assert all(a.explanation is b.explanation for a, b in zip(first, second))


def test_explanations_stay_exact_past_the_cache_size():
    # more distinct action patterns than the match cache holds, each in its
    # own evidence text, then the first again
    count = defaults._allows.cache_info().maxsize + 50
    configs = [
        BucketConfig(
            name=f"bucket-{index}",
            policy=(
                PolicyStatement(Effect.ALLOW, ("*",), (f"s3:Get*{index}", "S3:*object"), ("*",), sid=f"sid-{index}"),
            ),
        )
        for index in range(count)
    ]
    for config in configs + configs[:3]:
        derived = derive(config)
        assert evaluate_default(config, derived) == _every_rule(config, derived)
