"""The unified rule: five conditions, built-in/DSL equivalence, monotonicity."""

from __future__ import annotations

import dataclasses
import itertools
import random
import re

import pytest

from bucketlens.dsl import bind_record, eval_rule, parse_rule
from bucketlens.model import (
    ALL_USERS_URI,
    AUTHENTICATED_USERS_URI,
    LOG_DELIVERY_URI,
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
    ConditionVerdict,
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
    # evaluate_unified and condition_verdicts both read one pass's fired
    # conditions and evidence; the alert keeps the ascending fired numbers,
    # and its text is the fired verdicts' evidence
    for keys in (None, frozenset({"s3:prefix"})):
        for config in agreement_configs():
            derived = derive(config, keys)
            verdicts = condition_verdicts(config, derived, keys)
            assert [v.number for v in verdicts] == [1, 2, 3, 4, 5]
            fired = tuple(v.number for v in verdicts if v.fired)
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
            alert = evaluate_unified(config, derived, keys)
            assert (alert.fired_conditions if alert else ()) == expected, config.name


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


# ---------------------------------------------------------------------------
# condition_verdicts: every evidence text, fired and unmet
# ---------------------------------------------------------------------------

def _grant(uri: str, permission: Permission) -> AclGrant:
    return AclGrant(GranteeType.GROUP, uri, permission)


def _allow(*actions: str, sid: str | None = None, condition: dict | None = None) -> PolicyStatement:
    return PolicyStatement(Effect.ALLOW, ("*",), actions, sid=sid, condition=condition)


_RPB_ON = PublicAccessBlock(restrict_public_buckets=True)
_OPEN_READ = (_allow("s3:GetObject", sid="OpenRead"),)
_OPEN_EC2 = (_allow("ec2:DescribeInstances", sid="Ec2"),)
_SENSITIVE = {"SensitiveData": "true"}

_DETAIL_CASES = [
    # C1
    (
        BucketConfig(
            name="c1-two-grants",
            acl_grants=(
                _grant(ALL_USERS_URI, Permission.READ),
                _grant(LOG_DELIVERY_URI, Permission.READ),
                _grant(ALL_USERS_URI, Permission.WRITE),
                _grant(AUTHENTICATED_USERS_URI, Permission.WRITE),
            ),
        ),
        1,
        True,
        f"public ACL grant(s): {ALL_USERS_URI} (READ); {AUTHENTICATED_USERS_URI} (WRITE)",
    ),
    (
        BucketConfig(name="c1-unmet", acl_grants=(_grant(ALL_USERS_URI, Permission.WRITE),)),
        1,
        False,
        "no qualifying ACL grant",
    ),
    # C2, in each of its four states
    (
        BucketConfig(name="c2-fired", policy=_OPEN_READ),
        2,
        True,
        "policy_status_public=true, exposure=public_facing",
    ),
    (
        BucketConfig(name="c2-private-policy", website_enabled=True),
        2,
        False,
        "policy_status_public=false, exposure=public_facing",
    ),
    (
        BucketConfig(name="c2-internal", policy=_OPEN_READ, public_access_block=_RPB_ON),
        2,
        False,
        "policy_status_public=true, exposure=internal",
    ),
    (BucketConfig(name="c2-neither"), 2, False, "policy_status_public=false, exposure=internal"),
    # C3: fired with a sid-less statement and one matching two markers; the
    # open non-risky and the restricted statements are left out
    (
        BucketConfig(
            name="c3-fired",
            policy=(
                _allow("s3:GetObject"),
                _allow("ec2:DescribeInstances", sid="Ec2"),
                _allow("s3:PutObject", sid="VpcOnly", condition={"aws:SourceVpc": ("vpc-1",)}),
                _allow("s3:GetObjectVersion", sid="Versions"),
            ),
        ),
        3,
        True,
        "risky wildcard statement(s): <no sid> matches s3:GetObject; "
        "Versions matches s3:GetObject, s3:GetObjectVersion",
    ),
    (
        BucketConfig(name="c3-internal", policy=_OPEN_READ, public_access_block=_RPB_ON),
        3,
        False,
        "bucket is not public-facing",
    ),
    (
        BucketConfig(
            name="c3-rpb",
            acl_grants=(_grant(ALL_USERS_URI, Permission.READ),),
            policy=_OPEN_READ,
            public_access_block=_RPB_ON,
        ),
        3,
        False,
        "RestrictPublicBuckets is enabled",
    ),
    (
        BucketConfig(name="c3-not-risky", policy=_OPEN_EC2),
        3,
        False,
        "no unrestricted wildcard Allow statement over a risky action",
    ),
    # C4
    (
        BucketConfig(
            name="c4-fired",
            policy=(
                _allow("ec2:DescribeInstances"),
                _allow("s3:PutObject", sid="VpcOnly", condition={"aws:SourceVpc": ("vpc-1",)}),
                _allow("s3:GetObject", sid="OpenRead"),
                PolicyStatement(Effect.DENY, ("*",), ("s3:GetObject",), sid="DenyAll"),
            ),
        ),
        4,
        True,
        "unrestricted wildcard Allow statement(s) <no sid>, OpenRead while RestrictPublicBuckets is disabled",
    ),
    (
        BucketConfig(
            name="c4-no-open-statement",
            policy=(_allow("s3:GetObject", condition={"aws:SourceVpc": ("vpc-1",)}),),
            public_access_block=_RPB_ON,
        ),
        4,
        False,
        "no unrestricted wildcard Allow statement",
    ),
    (
        BucketConfig(name="c4-rpb", policy=_OPEN_EC2, public_access_block=_RPB_ON),
        4,
        False,
        "RestrictPublicBuckets is enabled",
    ),
    # C5, in each of its four states
    (
        BucketConfig(name="c5-fired", website_enabled=True, tags=_SENSITIVE),
        5,
        True,
        "exposure=public_facing, sensitive_data=true",
    ),
    (
        BucketConfig(name="c5-not-sensitive", website_enabled=True),
        5,
        False,
        "exposure=public_facing, sensitive_data=false",
    ),
    (BucketConfig(name="c5-internal", tags=_SENSITIVE), 5, False, "exposure=internal, sensitive_data=true"),
    (BucketConfig(name="c5-neither"), 5, False, "exposure=internal, sensitive_data=false"),
]


@pytest.mark.parametrize(
    ("config", "number", "fired", "detail"), _DETAIL_CASES, ids=[case[0].name for case in _DETAIL_CASES]
)
def test_every_condition_detail_text(config, number, fired, detail):
    verdicts = condition_verdicts(config, derive(config))
    assert [v.number for v in verdicts] == [1, 2, 3, 4, 5]
    assert verdicts[number - 1] == ConditionVerdict(number, fired, detail)


# ---------------------------------------------------------------------------
# built-in rule, DSL rule and DSL slices: every config of a bounded domain
# ---------------------------------------------------------------------------

def _domain_policies():
    """No policy, or one of 48 statement forms."""
    yield None
    for effect, principal, action, condition in itertools.product(
        Effect,
        ("*", "arn:aws:iam::123456789012:root"),
        ("s3:GetObject", "s3:Put*", "*", "ec2:DescribeInstances"),
        (None, {"aws:SourceVpc": ("x",)}, {"aws:SecureTransport": ("x",)}),
    ):
        yield (PolicyStatement(effect, (principal,), (action,), condition=condition),)


def test_dsl_equals_built_in_on_a_bounded_domain():
    """4 flag pairs x 121 grant sets x 49 policies x 4 website/tag pairs: 94,864 configs.

    Only IgnorePublicAcls and RestrictPublicBuckets reach ``derive`` and the
    rule. Per config: the parsed DSL rule matches iff the built-in rule
    alerts, the per-condition DSL slices fire exactly the alert's
    conditions, C3 implies C4, and the alert's text is the fired verdicts'.
    """
    ast = parse_rule(unified_dsl_source())
    slices = sorted(_condition_rules().items())
    single = [
        _grant(uri, permission)
        for uri in (ALL_USERS_URI, AUTHENTICATED_USERS_URI, LOG_DELIVERY_URI)
        for permission in Permission
    ]
    grant_sets = [()] + [(g,) for g in single] + list(itertools.combinations(single, 2))
    policies = list(_domain_policies())
    assert (len(grant_sets), len(policies)) == (121, 49)
    checked = 0
    for ignore, restrict, website, sensitive in itertools.product((False, True), repeat=4):
        bpa = PublicAccessBlock(ignore_public_acls=ignore, restrict_public_buckets=restrict)
        tags = _SENSITIVE if sensitive else {}
        for policy in policies:
            for grants in grant_sets:
                config = BucketConfig(
                    name="bounded-bucket",
                    acl_grants=grants,
                    policy=policy,
                    public_access_block=bpa,
                    tags=tags,
                    website_enabled=website,
                )
                derived = derive(config)
                alert = evaluate_unified(config, derived)
                record = bind_record(config, derived)
                fired = alert.fired_conditions if alert else ()
                assert eval_rule(ast, record) == bool(fired), config
                assert tuple(n for n, rule in slices if eval_rule(rule, record)) == fired, config
                assert 3 not in fired or 4 in fired, config
                if alert:
                    verdicts = condition_verdicts(config, derived)
                    assert alert.explanation == "; ".join(
                        f"C{v.number}: {v.detail}" for v in verdicts if v.fired
                    ), config
                checked += 1
    assert checked == 94_864
