"""The unified rule: five conditions, built-in/DSL equivalence, monotonicity."""

from __future__ import annotations

import dataclasses
import random
import re

import pytest

from bucketlens.dsl import bind_record, eval_rule, parse_rule
from bucketlens.model import (
    ALL_USERS_URI,
    AUTHENTICATED_USERS_URI,
    AclGrant,
    BucketConfig,
    Effect,
    GranteeType,
    Permission,
    PolicyStatement,
    Alert,
    PublicAccessBlock,
    Severity,
    new_alert,
)
from bucketlens.policy import derive
from bucketlens.unified import (
    UNIFIED_RULE_ID,
    _fired_conditions,
    condition_verdicts,
    evaluate_unified,
    unified_dsl_source,
)

from conftest import (
    agreement_configs,
    allusers_read_bucket,
    locked_bucket,
    public_policy_bucket,
    random_bucket_config,
)


def _eval(config: BucketConfig):
    return evaluate_unified(config, derive(config))


def test_allusers_read_fires_condition_one():
    alert = _eval(allusers_read_bucket())
    assert alert is not None
    assert 1 in alert.fired_conditions
    assert alert.rule_id == UNIFIED_RULE_ID
    assert alert.severity is Severity.HIGH
    assert alert.fired_conditions


def test_public_policy_fires_two_three_four():
    alert = _eval(public_policy_bucket())
    assert alert is not None
    assert alert.fired_conditions == (2, 3, 4)
    assert "AllowPublicRead" in alert.explanation


def test_locked_bucket_is_silent():
    assert _eval(locked_bucket()) is None


def test_sensitive_website_fires_condition_five_only():
    config = BucketConfig(
        name="sensitive-site-bucket",
        website_enabled=True,
        tags={"SensitiveData": "true"},
    )
    alert = _eval(config)
    assert alert is not None
    assert alert.fired_conditions == (5,)


def test_restricted_wildcard_is_silent():
    config = BucketConfig(
        name="vpc-scoped-bucket",
        policy=(
            PolicyStatement(
                effect=Effect.ALLOW,
                principal_aws=("*",),
                actions=("s3:GetObject",),
                condition={"aws:SourceIp": ("10.0.0.0/8",)},
            ),
        ),
    )
    assert _eval(config) is None


def test_authusers_any_permission_fires_condition_one():
    # the first disjunct matches AuthenticatedUsers regardless of permission
    for permission in Permission:
        config = BucketConfig(
            name="auth-any-bucket",
            acl_grants=(AclGrant(GranteeType.GROUP, AUTHENTICATED_USERS_URI, permission),),
            public_access_block=PublicAccessBlock(True, True, True, True),
        )
        alert = _eval(config)
        assert alert is not None and alert.fired_conditions == (1,)


def test_allusers_write_only_is_a_documented_miss():
    # WRITE-only AllUsers grants satisfy no condition unless another signal helps
    config = BucketConfig(
        name="write-only-bucket",
        acl_grants=(AclGrant(GranteeType.GROUP, ALL_USERS_URI, Permission.WRITE),),
    )
    assert _eval(config) is None


def test_at_most_one_alert_per_bucket():
    rng = random.Random(31)
    for _ in range(500):
        config = random_bucket_config(rng)
        alert = _eval(config)
        assert alert is None or alert.fired_conditions


def test_dsl_equivalence_on_random_configs():
    ast = parse_rule(unified_dsl_source())
    rng = random.Random(32)
    for _ in range(3000):
        config = random_bucket_config(rng)
        derived = derive(config)
        built_in = evaluate_unified(config, derived) is not None
        via_dsl = eval_rule(ast, bind_record(config, derived))
        assert built_in == via_dsl, config


def _with_rpb(config: BucketConfig, value: bool) -> BucketConfig:
    bpa = dataclasses.replace(config.public_access_block, restrict_public_buckets=value)
    return dataclasses.replace(config, public_access_block=bpa)


def test_bpa_monotonicity():
    # enabling RestrictPublicBuckets may only remove conditions 2-5; C1 reads
    # nothing but the grant list and never changes
    rng = random.Random(33)
    for _ in range(1000):
        config = _with_rpb(random_bucket_config(rng), False)
        before = _eval(config)
        after = _eval(_with_rpb(config, True))
        before_set = set(before.fired_conditions if before else ())
        after_set = set(after.fired_conditions if after else ())
        assert after_set <= before_set
        assert (1 in before_set) == (1 in after_set)


def test_condition_one_invariant_under_all_bpa_flags():
    rng = random.Random(34)
    for _ in range(500):
        config = random_bucket_config(rng)
        fired = {1} & set(_eval(config).fired_conditions if _eval(config) else ())
        for flags in (PublicAccessBlock(True, True, True, True), PublicAccessBlock()):
            variant = dataclasses.replace(config, public_access_block=flags)
            variant_fired = {1} & set(_eval(variant).fired_conditions if _eval(variant) else ())
            assert fired == variant_fired


def test_restrictive_condition_monotonicity():
    rng = random.Random(35)
    for _ in range(1000):
        config = random_bucket_config(rng)
        if config.policy is None:
            continue
        stricter_policy = tuple(
            dataclasses.replace(s, condition={**(s.condition or {}), "aws:SourceVpc": ("vpc-x",)})
            for s in config.policy
        )
        stricter = dataclasses.replace(config, policy=stricter_policy)
        before = _eval(config)
        after = _eval(stricter)
        before_set = set(before.fired_conditions if before else ())
        after_set = set(after.fired_conditions if after else ())
        assert after_set <= before_set


def test_dsl_text_mentions_each_risky_action():
    source = unified_dsl_source()
    for marker in (
        "s3:GetObject",
        "s3:ListBucketVersions",
        "s3:DeleteObjectVersion",
        "s3:PutBucketAcl",
    ):
        assert f"'%{marker}%'" in source


def test_alerts_and_verdicts_share_one_decision():
    # evaluate_unified and condition_verdicts both take their flags from
    # _fired_conditions; the alert keeps that ascending tuple as it is, and
    # its text is the fired verdicts' evidence
    for keys in (None, frozenset({"s3:prefix"})):
        for config in agreement_configs():
            derived = derive(config, keys)
            fired = _fired_conditions(config, derived, keys)
            verdicts = condition_verdicts(config, derived, keys)
            assert [v.number for v in verdicts] == [1, 2, 3, 4, 5]
            assert fired == tuple(v.number for v in verdicts if v.fired)
            alert = evaluate_unified(config, derived, keys)
            if not fired:
                assert alert is None
                continue
            assert alert.fired_conditions == fired == tuple(sorted(set(fired)))
            assert alert.explanation == "; ".join(f"C{v.number}: {v.detail}" for v in verdicts if v.fired)


def _condition_rules():
    # the unified DSL text, cut at its "-- Condition N:" comments into one
    # rule per condition
    body = unified_dsl_source().split(" WHEN", 1)[1]
    rules = {}
    for number, chunk in re.findall(r"-- Condition (\d):(.*?)(?=-- Condition \d:|\Z)", body, re.S):
        text = " ".join(line for line in chunk.splitlines()[1:] if not line.strip().startswith("--"))
        text = re.sub(r"^\s*OR\b", "", text)
        rules[int(number)] = parse_rule(f"RULE c{number} SEVERITY High WHEN {text}")
    assert sorted(rules) == [1, 2, 3, 4, 5]
    return rules


def test_each_fired_condition_agrees_with_its_dsl_condition():
    rules = _condition_rules()
    for keys in (None, frozenset({"s3:prefix"})):
        for config in agreement_configs():
            derived = derive(config, keys)
            record = bind_record(config, derived, keys)
            expected = tuple(n for n, ast in sorted(rules.items()) if eval_rule(ast, record))
            assert _fired_conditions(config, derived, keys) == expected, config.name


def test_new_alert_is_the_same_frozen_alert():
    fields = ("cheap-bucket", UNIFIED_RULE_ID, Severity.HIGH, (1, 4), "C1: x")
    built, made = Alert(*fields), new_alert(*fields)
    assert type(made) is Alert
    assert made == built and hash(made) == hash(built)
    assert repr(made) == repr(built) == (
        "Alert(bucket_name='cheap-bucket', rule_id='UNIFIED-S3-PUBLIC-ACCESS', "
        "severity=<Severity.HIGH: 'High'>, fired_conditions=(1, 4), explanation='C1: x')"
    )
    assert made != new_alert(*fields[:4], "C1: y")
    for alert in (built, made):
        with pytest.raises(dataclasses.FrozenInstanceError):
            alert.rule_id = "OTHER"
