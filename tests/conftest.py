"""Shared builders and the randomized-configuration generator."""

from __future__ import annotations

import functools
import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

import bucketlens
from bucketlens.fleetgen import ADVERSARIAL_MIX, PAPER_MIX, MixSpec, generate_fleet
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

FIXTURES = Path(__file__).parent / "fixtures"

# ``--hypothesis-profile=deep`` runs each property test on 3000 examples
# instead of 100; CI's deep job runs the JSON writer's document tests, the
# snapshot and truth line writers', load_fleet's property test,
# diff_alerts's and the record classes' (tests/test_records.py) with it.
# A test whose own ``@settings`` sets ``max_examples`` keeps that count.
settings.register_profile("deep", max_examples=3000, deadline=None)

# Arbitrary text, drawing often the characters JSON escapes, those json.dumps
# writes as they are though they are special elsewhere, and lone surrogates.
JSON_TEXT = st.text(
    st.one_of(st.sampled_from('"\\\x00\x08\n\x1f\x7f\u2028\u2029\U0001f600\ud800\udc00'), st.characters()), max_size=6
)


# without CPython's built-in SHA-256 the package hashes through hashlib, which loads OpenSSL
needs_builtin_sha256 = pytest.mark.skipif(
    all(importlib.util.find_spec(name) is None for name in ("_sha2", "_sha256")),
    reason="this interpreter has no built-in SHA-256 module",
)


def fresh_interpreter_env() -> dict[str, str]:
    """The environment for a new interpreter that imports this package."""
    src = str(Path(bucketlens.__file__).parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def run_fresh_interpreter(script: str) -> str:
    """Run ``script`` in a new interpreter that imports this package; its stderr.

    The test process has imported every layer already, so what a command
    loads can only be seen from a fresh one.
    """
    result = subprocess.run(
        [sys.executable, "-c", script], env=fresh_interpreter_env(), capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stderr


CANONICAL_ID = "79a59df900b949e55d96a1e698fbacedfd6e09d98eacf8f8d5218e7cd47ef2be"

# (grantee_type, uri); the fourth URI contains the AllUsers marker without
# ending in it, to stress substring-vs-suffix handling
GRANTEE_POOL = (
    (GranteeType.GROUP, ALL_USERS_URI),
    (GranteeType.GROUP, AUTHENTICATED_USERS_URI),
    (GranteeType.GROUP, LOG_DELIVERY_URI),
    (GranteeType.GROUP, "http://acs.amazonaws.com/groups/global/AllUsersLegacy"),
    (GranteeType.CANONICAL_USER, CANONICAL_ID),
    (GranteeType.EMAIL, "ops@example.com"),
)

PRINCIPAL_POOL = (
    ("*",),
    ("arn:aws:iam::111122223333:root",),
    ("arn:aws:iam::111122223333:user/app*",),
    ("*", "arn:aws:iam::111122223333:root"),
    (),
)

ACTION_POOL = (
    "*",
    "s3:*",
    "s3:Get*",
    "s3:GetObject",
    "s3:GetObjectVersion",
    "s3:PutObject",
    "s3:PutObjectAcl",
    "s3:ListBucket",
    "s3:DeleteObject",
    "s3:GetBucketAcl",
    "s3:PutBucketAcl",
    "ec2:DescribeInstances",
)

CONDITION_POOL = (
    None,
    {"aws:SourceIp": ("10.0.0.0/8",)},
    {"aws:SourceVpc": ("vpc-0a1b2c3d",)},
    {"aws:PrincipalOrgID": ("o-abc123",)},
    {"s3:prefix": ("public/",)},
    {"s3:prefix": ("public/",), "aws:SourceIp": ("192.0.2.0/24",)},
)

TAG_POOL = (
    {},
    {"team": "data"},
    {"SensitiveData": "true"},
    {"SensitiveData": "TRUE", "env": "prod"},
    {"SensitiveData": "false"},
    {"sensitivedata": "true"},  # wrong key case: must not count as sensitive
)


def random_statement(rng: random.Random) -> PolicyStatement:
    return PolicyStatement(
        effect=Effect.ALLOW if rng.random() < 0.7 else Effect.DENY,
        principal_aws=rng.choice(PRINCIPAL_POOL),
        actions=tuple(rng.sample(ACTION_POOL, k=rng.randint(1, 3))),
        resources=("arn:aws:s3:::rand-bucket", "arn:aws:s3:::rand-bucket/*"),
        sid=rng.choice((None, f"sid-{rng.randrange(16 ** 4):04x}")),
        condition=rng.choice(CONDITION_POOL),
    )


def random_bucket_config(rng: random.Random) -> BucketConfig:
    """A bucket drawn from a space wide enough to hit every rule path."""
    grants = tuple(
        AclGrant(gtype, uri, rng.choice(tuple(Permission)))
        for gtype, uri in rng.sample(GRANTEE_POOL, k=rng.randint(0, 3))
    )
    policy = None
    if rng.random() < 0.7:
        policy = tuple(random_statement(rng) for _ in range(rng.randint(0, 3)))
        if not policy and rng.random() < 0.5:
            policy = None
    return BucketConfig(
        name=f"rand-{rng.randrange(16 ** 8):08x}",
        region=rng.choice(("us-east-1", "eu-west-1")),
        acl_grants=grants,
        policy=policy,
        public_access_block=PublicAccessBlock(
            block_public_acls=rng.random() < 0.5,
            ignore_public_acls=rng.random() < 0.4,
            block_public_policy=rng.random() < 0.5,
            restrict_public_buckets=rng.random() < 0.4,
        ),
        tags=dict(rng.choice(TAG_POOL)),
        website_enabled=rng.random() < 0.2,
    )


@pytest.fixture
def config_gen():
    return random_bucket_config


@functools.lru_cache(maxsize=1)
def agreement_configs() -> tuple[BucketConfig, ...]:
    """300 random buckets plus the seed-42 1k paper and adversarial fleets."""
    rng = random.Random(1618)
    configs = [random_bucket_config(rng) for _ in range(300)]
    for mix in (PAPER_MIX, ADVERSARIAL_MIX):
        configs += [config for config, _ in generate_fleet(MixSpec(dict(mix), total=1000, seed=42))]
    return tuple(configs)


def locked_bucket(name: str = "locked-bucket") -> BucketConfig:
    return BucketConfig(name=name, public_access_block=PublicAccessBlock(True, True, True, True))


def allusers_read_bucket(name: str = "open-acl-bucket") -> BucketConfig:
    return BucketConfig(
        name=name,
        acl_grants=(AclGrant(GranteeType.GROUP, ALL_USERS_URI, Permission.READ),),
    )


def public_policy_bucket(name: str = "open-policy-bucket") -> BucketConfig:
    return BucketConfig(
        name=name,
        policy=(
            PolicyStatement(
                effect=Effect.ALLOW,
                principal_aws=("*",),
                actions=("s3:GetObject",),
                resources=(f"arn:aws:s3:::{name}/*",),
                sid="AllowPublicRead",
            ),
        ),
    )
