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
    for config in agreement_configs():
        derived = derive(config)
        assert evaluate_default(config, derived) == _every_rule(config, derived)


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
    # more distinct evidence texts than the cache holds, then the first again
    count = defaults._explanation.cache_info().maxsize + 50
    configs = [
        BucketConfig(
            name=f"bucket-{index}",
            policy=(PolicyStatement(Effect.ALLOW, ("*",), ("s3:GetObject",), ("*",), sid=f"sid-{index}"),),
        )
        for index in range(count)
    ]
    for config in configs + configs[:3]:
        derived = derive(config)
        assert evaluate_default(config, derived) == _every_rule(config, derived)
