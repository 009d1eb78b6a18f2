"""Derived properties, the access oracle and their cross-properties."""

from __future__ import annotations

import itertools
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    PublicAccessBlock,
)
from bucketlens.policy import (
    RESTRICTIVE_CONDITION_KEYS,
    AccessSet,
    DerivedProperties,
    Exposure,
    _public_facing,
    action_matches,
    derive,
    effective_anonymous_access,
    has_restrictive_condition,
    is_policy_public,
    is_sensitive,
    load_restrictive_keys,
)

from conftest import agreement_configs, random_bucket_config


def _stmt(effect=Effect.ALLOW, principal=("*",), actions=("s3:GetObject",), condition=None):
    return PolicyStatement(
        effect=effect, principal_aws=principal, actions=actions, condition=condition
    )


# ---------------------------------------------------------------------------
# has_restrictive_condition / is_policy_public
# ---------------------------------------------------------------------------

def test_source_vpc_is_restrictive():
    assert has_restrictive_condition(_stmt(condition={"aws:SourceVpc": ("vpc-1",)}))


def test_no_condition_is_not_restrictive():
    assert not has_restrictive_condition(_stmt())


def test_prefix_key_is_not_restrictive():
    # s3:prefix scopes which keys are listed, not who may call
    assert not has_restrictive_condition(_stmt(condition={"s3:prefix": ("public/",)}))
    assert "s3:prefix" not in RESTRICTIVE_CONDITION_KEYS


def test_every_documented_restrictive_key_counts():
    for key in RESTRICTIVE_CONDITION_KEYS:
        assert has_restrictive_condition(_stmt(condition={key: ("x",)}))


def test_restrictive_key_override(tmp_path):
    override = tmp_path / "keys.json"
    override.write_text('["x-corp:approved-network"]')
    keys = load_restrictive_keys(override)
    stmt = _stmt(condition={"x-corp:approved-network": ("yes",)})
    assert has_restrictive_condition(stmt, keys)
    assert not has_restrictive_condition(stmt)
    # and the default key no longer counts under the override
    assert not has_restrictive_condition(_stmt(condition={"aws:SourceIp": ("10.0.0.0/8",)}), keys)


def test_policy_public_basic():
    assert is_policy_public((_stmt(),))


def test_deny_is_never_public():
    assert not is_policy_public((_stmt(effect=Effect.DENY),))


def test_restrictive_condition_suppresses_public():
    stmt = _stmt(condition={"aws:SourceIp": ("10.0.0.0/8",)})
    assert has_restrictive_condition(stmt)
    assert not is_policy_public((stmt,))


def test_absent_policy_is_not_public():
    assert not is_policy_public(None)
    assert not is_policy_public(())


def test_no_allow_statement_means_not_public():
    rng = random.Random(5)
    for _ in range(200):
        config = random_bucket_config(rng)
        if config.policy and all(s.effect is Effect.DENY for s in config.policy):
            assert not is_policy_public(config.policy)


# ---------------------------------------------------------------------------
# action_matches
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "pattern,action,expected",
    [
        ("*", "s3:PutObjectAcl", True),
        ("s3:Get*", "s3:GetObjectVersion", True),
        ("s3:GetObject", "s3:PutObject", False),
        ("s3:getobject", "s3:GetObject", True),
        ("s3:*Object", "s3:GetObject", True),
        ("s3:*Object", "s3:GetObjectAcl", False),
    ],
)
def test_action_matches_cases(pattern, action, expected):
    assert action_matches(pattern, action) is expected


def _glob_oracle(pattern: str, action: str) -> bool:
    regex = ".*".join(re.escape(part) for part in pattern.lower().split("*"))
    return re.fullmatch(regex, action.lower(), re.DOTALL) is not None


@given(
    st.text(alphabet="abG*:3", min_size=1, max_size=12),
    st.text(alphabet="abG:3", min_size=1, max_size=12),
)
def test_action_matches_agrees_with_regex_oracle(pattern, action):
    assert action_matches(pattern, action) == _glob_oracle(pattern, action)


# ---------------------------------------------------------------------------
# effective_anonymous_access: committed truth table
# ---------------------------------------------------------------------------

# Expected capability per (public group grant, permission), with the ACL path
# active; IgnorePublicAcls=true must zero all of these.
ACL_TRUTH_TABLE = {
    Permission.READ: AccessSet(read=True),
    Permission.WRITE: AccessSet(write=True),
    Permission.READ_ACP: AccessSet(acl_read=True),
    Permission.WRITE_ACP: AccessSet(acl_write=True),
    Permission.FULL_CONTROL: AccessSet(read=True, write=True, acl_read=True, acl_write=True),
}


def test_acl_truth_table_exhaustive():
    for uri in (ALL_USERS_URI, AUTHENTICATED_USERS_URI):
        for permission, expected in ACL_TRUTH_TABLE.items():
            for flags in range(16):
                bpa = PublicAccessBlock(
                    block_public_acls=bool(flags & 1),
                    ignore_public_acls=bool(flags & 2),
                    block_public_policy=bool(flags & 4),
                    restrict_public_buckets=bool(flags & 8),
                )
                config = BucketConfig(
                    name="acl-truth-bucket",
                    acl_grants=(AclGrant(GranteeType.GROUP, uri, permission),),
                    public_access_block=bpa,
                )
                got = effective_anonymous_access(config)
                assert got == (AccessSet() if bpa.ignore_public_acls else expected)


# Expected capability per wildcard-Allow action, with the policy path active;
# RestrictPublicBuckets=true must zero all of these.
POLICY_TRUTH_TABLE = {
    ("s3:GetObject",): AccessSet(read=True),
    ("s3:ListBucket",): AccessSet(read=True),
    ("s3:PutObject",): AccessSet(write=True),
    ("s3:DeleteObject",): AccessSet(write=True),
    ("s3:GetBucketAcl",): AccessSet(acl_read=True),
    ("s3:GetObjectAcl",): AccessSet(acl_read=True),
    ("s3:PutBucketAcl",): AccessSet(acl_write=True),
    ("s3:PutObjectAcl",): AccessSet(acl_write=True),
    ("*",): AccessSet(read=True, write=True, acl_read=True, acl_write=True),
    ("s3:Get*",): AccessSet(read=True, acl_read=True),
    ("ec2:DescribeInstances",): AccessSet(),
}


def test_policy_truth_table():
    for actions, expected in POLICY_TRUTH_TABLE.items():
        for rpb in (False, True):
            config = BucketConfig(
                name="policy-truth-bucket",
                policy=(_stmt(actions=actions),),
                public_access_block=PublicAccessBlock(restrict_public_buckets=rpb),
            )
            got = effective_anonymous_access(config)
            assert got == (AccessSet() if rpb else expected), (actions, rpb)


def test_acl_path_neutralized_by_ignore_flag():
    config = BucketConfig(
        name="neutral-bucket",
        acl_grants=(AclGrant(GranteeType.GROUP, ALL_USERS_URI, Permission.READ),),
        public_access_block=PublicAccessBlock(ignore_public_acls=True),
    )
    assert effective_anonymous_access(config) == AccessSet()


def test_deny_subtracts_after_allows():
    config = BucketConfig(
        name="deny-bucket",
        policy=(
            _stmt(actions=("s3:GetObject", "s3:PutObject")),
            _stmt(effect=Effect.DENY, actions=("s3:PutObject",)),
        ),
    )
    assert effective_anonymous_access(config) == AccessSet(read=True)


def test_deny_does_not_remove_acl_capabilities():
    # the two paths are unioned after the policy path applies its denies
    config = BucketConfig(
        name="acl-and-deny-bucket",
        acl_grants=(AclGrant(GranteeType.GROUP, ALL_USERS_URI, Permission.READ),),
        policy=(_stmt(effect=Effect.DENY, actions=("s3:GetObject",)),),
    )
    assert effective_anonymous_access(config) == AccessSet(read=True)


def test_restricted_allow_grants_nothing():
    config = BucketConfig(
        name="vpc-bucket",
        policy=(_stmt(condition={"aws:SourceVpc": ("vpc-1",)}),),
    )
    assert effective_anonymous_access(config) == AccessSet()


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------

def test_website_alone_is_public_facing():
    config = BucketConfig(name="site-bucket", website_enabled=True)
    assert derive(config).exposure is Exposure.PUBLIC_FACING
    # but the oracle has no path to it
    assert effective_anonymous_access(config) == AccessSet()


def test_bpa_all_on_is_internal():
    rng = random.Random(11)
    bpa_on = PublicAccessBlock(True, True, True, True)
    for _ in range(300):
        config = random_bucket_config(rng)
        hardened = BucketConfig(
            name=config.name,
            region=config.region,
            acl_grants=config.acl_grants,
            policy=config.policy,
            public_access_block=bpa_on,
            tags=config.tags,
            website_enabled=config.website_enabled,
        )
        assert derive(hardened).exposure is Exposure.INTERNAL


def test_internal_wildcard_is_internal():
    config = BucketConfig(
        name="internal-bucket",
        policy=(_stmt(condition={"aws:SourceVpc": ("vpc-1",)}),),
    )
    assert derive(config).exposure is Exposure.INTERNAL


def test_derive_tag_only():
    config = BucketConfig(
        name="tagged-bucket",
        public_access_block=PublicAccessBlock(True, True, True, True),
        tags={"SensitiveData": "true"},
    )
    derived = derive(config)
    assert (derived.policy_status_public, derived.exposure, derived.sensitive_data) == (
        False,
        Exposure.INTERNAL,
        True,
    )


def test_derive_public_policy():
    config = BucketConfig(name="pub-bucket", policy=(_stmt(),))
    derived = derive(config)
    assert derived.policy_status_public is True
    assert derived.exposure is Exposure.PUBLIC_FACING
    assert derived.sensitive_data is False


@pytest.mark.parametrize("keys", [None, frozenset({"s3:prefix"})], ids=["default-keys", "prefix-key"])
def test_derive_equals_a_freshly_built_bundle(keys):
    # derive hands out one of 8 shared instances; each must equal the bundle
    # built from the three public checks
    seen = set()
    for config in agreement_configs():
        derived = derive(config, keys)
        policy_public = is_policy_public(config.policy, keys)
        fresh = DerivedProperties(
            policy_status_public=policy_public,
            exposure=Exposure.PUBLIC_FACING if _public_facing(config, policy_public) else Exposure.INTERNAL,
            sensitive_data=is_sensitive(config),
        )
        assert derived == fresh
        assert (hash(derived), repr(derived)) == (hash(fresh), repr(fresh))
        seen.add(fresh)
    assert len(seen) >= 6


@pytest.mark.parametrize("value,expected", [("true", True), ("TRUE", True), ("True", True), ("false", False), ("yes", False)])
def test_sensitive_value_case_insensitive(value, expected):
    config = BucketConfig(name="tag-bucket", tags={"SensitiveData": value})
    assert derive(config).sensitive_data is expected


def test_sensitive_key_case_sensitive():
    config = BucketConfig(name="tag-bucket", tags={"sensitivedata": "true"})
    assert derive(config).sensitive_data is False


# ---------------------------------------------------------------------------
# Cross-properties over random configurations
# ---------------------------------------------------------------------------

def _with_bpa(config: BucketConfig, **flags) -> BucketConfig:
    bpa = config.public_access_block
    merged = {
        "block_public_acls": bpa.block_public_acls,
        "ignore_public_acls": bpa.ignore_public_acls,
        "block_public_policy": bpa.block_public_policy,
        "restrict_public_buckets": bpa.restrict_public_buckets,
    }
    merged.update(flags)
    return BucketConfig(
        name=config.name,
        region=config.region,
        acl_grants=config.acl_grants,
        policy=config.policy,
        public_access_block=PublicAccessBlock(**merged),
        tags=config.tags,
        website_enabled=config.website_enabled,
    )


def _with_extra_condition_key(config: BucketConfig, key: str) -> BucketConfig:
    if config.policy is None:
        return config
    statements = tuple(
        PolicyStatement(
            effect=s.effect,
            principal_aws=s.principal_aws,
            actions=s.actions,
            resources=s.resources,
            sid=s.sid,
            condition={**(s.condition or {}), key: ("added",)},
        )
        for s in config.policy
    )
    return BucketConfig(
        name=config.name,
        region=config.region,
        acl_grants=config.acl_grants,
        policy=statements,
        public_access_block=config.public_access_block,
        tags=config.tags,
        website_enabled=config.website_enabled,
    )


def _leq(a: AccessSet, b: AccessSet) -> bool:
    return (
        (not a.read or b.read)
        and (not a.write or b.write)
        and (not a.acl_read or b.acl_read)
        and (not a.acl_write or b.acl_write)
    )


def test_neutralization_property():
    rng = random.Random(101)
    for _ in range(2000):
        config = random_bucket_config(rng)
        both = _with_bpa(config, ignore_public_acls=True, restrict_public_buckets=True)
        assert effective_anonymous_access(both) == AccessSet()
        # each flag individually zeroes its own path
        acl_only = _with_bpa(config, restrict_public_buckets=True)
        pol_only = _with_bpa(config, ignore_public_acls=True)
        full = effective_anonymous_access(config)
        assert _leq(effective_anonymous_access(acl_only), full)
        assert _leq(effective_anonymous_access(pol_only), full)


def test_restrictive_condition_monotonicity():
    rng = random.Random(202)
    for _ in range(2000):
        config = random_bucket_config(rng)
        stricter = _with_extra_condition_key(config, "aws:SourceIp")
        assert _leq(effective_anonymous_access(stricter), effective_anonymous_access(config))
        if derive(config).exposure is Exposure.INTERNAL:
            assert derive(stricter).exposure is Exposure.INTERNAL


def test_heuristic_dominates_oracle():
    rng = random.Random(303)
    for _ in range(2000):
        config = random_bucket_config(rng)
        if effective_anonymous_access(config):
            assert derive(config).exposure is Exposure.PUBLIC_FACING


# ---------------------------------------------------------------------------
# effective_anonymous_access: every config of a bounded domain
# ---------------------------------------------------------------------------

_EVERY_CAPABILITY = frozenset({"read", "write", "acl_read", "acl_write"})

# The reference's own tables: what each permission and each action pattern of
# the domain grants, written out by hand.
_PERMISSION_GRANTS = {
    Permission.READ: {"read"},
    Permission.WRITE: {"write"},
    Permission.READ_ACP: {"acl_read"},
    Permission.WRITE_ACP: {"acl_write"},
    Permission.FULL_CONTROL: _EVERY_CAPABILITY,
}
_PATTERN_GRANTS = {
    "s3:GetObject": {"read"},
    "s3:Put*": {"write", "acl_write"},  # PutObject, PutBucketAcl, PutObjectAcl
    "*": _EVERY_CAPABILITY,
    "ec2:DescribeInstances": set(),
}
_CONDITIONS = {None: False, "aws:SourceVpc": True, "aws:SecureTransport": False}  # form -> restrictive


def _domain_statements():
    """The 48 statement forms, each with the reference's reading of it."""
    for effect, wildcard, pattern, key in itertools.product(
        Effect, (True, False), _PATTERN_GRANTS, _CONDITIONS
    ):
        stmt = _stmt(
            effect=effect,
            principal=("*",) if wildcard else ("arn:aws:iam::123456789012:root",),
            actions=(pattern,),
            condition=None if key is None else {key: ("x",)},
        )
        yield stmt, (effect, wildcard, pattern, _CONDITIONS[key])


def _reference_policy_path(readings) -> set[str]:
    """Per capability: some open wildcard Allow grants it and no wildcard Deny does."""
    return {
        capability
        for capability in _EVERY_CAPABILITY
        if any(
            effect is Effect.ALLOW and wildcard and not restrictive and capability in _PATTERN_GRANTS[pattern]
            for effect, wildcard, pattern, restrictive in readings
        )
        and not any(
            effect is Effect.DENY and wildcard and capability in _PATTERN_GRANTS[pattern]
            for effect, wildcard, pattern, _ in readings
        )
    }


def test_oracle_equals_a_reference_on_a_bounded_domain():
    """4 flag pairs x 16 grant options x 2353 policy options: 150,592 configs.

    Only IgnorePublicAcls and RestrictPublicBuckets reach the oracle (all 16
    flag sets are in ``test_acl_truth_table_exhaustive``).
    """
    statements = list(_domain_statements())
    policies = [(None, [])] + [
        (tuple(s for s, _ in pair), [r for _, r in pair])
        for size in (1, 2)
        for pair in itertools.product(statements, repeat=size)
    ]
    grants = [((), set(), False)] + [
        ((AclGrant(GranteeType.GROUP, uri, permission),), _PERMISSION_GRANTS[permission], uri != LOG_DELIVERY_URI)
        for uri in (ALL_USERS_URI, AUTHENTICATED_USERS_URI, LOG_DELIVERY_URI)
        for permission in Permission
    ]
    assert (len(statements), len(policies), len(grants)) == (48, 2353, 16)
    checked = 0
    for policy, readings in policies:
        policy_path = _reference_policy_path(readings)
        for ignore, restrict in itertools.product((False, True), repeat=2):
            bpa = PublicAccessBlock(ignore_public_acls=ignore, restrict_public_buckets=restrict)
            for acl_grants, permission_grants, public_group in grants:
                config = BucketConfig(
                    name="bounded-bucket", acl_grants=acl_grants, policy=policy, public_access_block=bpa
                )
                held = (permission_grants if public_group and not ignore else set()) | (
                    set() if restrict else policy_path
                )
                got = effective_anonymous_access(config)
                assert got == AccessSet(**{c: c in held for c in _EVERY_CAPABILITY}), config
                if got:
                    assert derive(config).exposure is Exposure.PUBLIC_FACING, config
                checked += 1
    assert checked == 150_592
