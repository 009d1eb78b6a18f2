"""Derived security properties and the effective-anonymous-access oracle.

Three layers live here:

* statement-level checks: restrictive-condition detection, wildcard action
  matching;
* the exposure heuristic (``classify_exposure``) and the derived-property
  bundle (``derive``) that the rule engines consume;
* an independent ground-truth oracle (``effective_anonymous_access``) that
  simulates what an unauthenticated caller can actually do, used to label
  synthetic fleets.

The heuristic deliberately over-approximates the oracle: whenever the oracle
finds anonymous access, the heuristic reports ``public_facing``, but the
heuristic can also flag website-enabled buckets the oracle cannot reach.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from pathlib import Path

from .errors import SchemaError
from .model import BucketConfig, Effect, Permission, PolicyStatement, read_json

#: Condition keys that scope an otherwise-public statement to callers from a
#: known network, VPC, organization or principal. Overridable per call.
RESTRICTIVE_CONDITION_KEYS: frozenset[str] = frozenset(
    {
        "aws:SourceIp",
        "aws:SourceVpc",
        "aws:SourceVpce",
        "aws:PrincipalOrgID",
        "aws:PrincipalAccount",
        "aws:SourceArn",
        "s3:DataAccessPointArn",
    }
)

# The oracle matches these as URI suffixes and the exposure heuristic as
# substrings, so every grant the oracle counts the heuristic counts too.
_PUBLIC_GROUP_URIS = ("global/AllUsers", "global/AuthenticatedUsers")


class Exposure(enum.Enum):
    PUBLIC_FACING = "public_facing"
    INTERNAL = "internal"


@dataclass(frozen=True, slots=True)
class DerivedProperties:
    """Platform-computed fields consumed by the rule engines."""

    policy_status_public: bool
    exposure: Exposure
    sensitive_data: bool


@dataclass(frozen=True, slots=True)
class AccessSet:
    """Capabilities an unauthenticated caller effectively holds."""

    read: bool = False
    write: bool = False
    acl_read: bool = False
    acl_write: bool = False

    def __bool__(self) -> bool:
        return self.read or self.write or self.acl_read or self.acl_write

    def union(self, other: "AccessSet") -> "AccessSet":
        return AccessSet(
            read=self.read or other.read,
            write=self.write or other.write,
            acl_read=self.acl_read or other.acl_read,
            acl_write=self.acl_write or other.acl_write,
        )

    def difference(self, other: "AccessSet") -> "AccessSet":
        return AccessSet(
            read=self.read and not other.read,
            write=self.write and not other.write,
            acl_read=self.acl_read and not other.acl_read,
            acl_write=self.acl_write and not other.acl_write,
        )


def load_restrictive_keys(path: str | Path) -> frozenset[str]:
    """Load an override for the restrictive condition-key set.

    The file is a JSON array of condition-key strings.
    """
    raw = read_json(path, lambda reason: SchemaError(f"restrictive-key file is {reason}"))
    if not isinstance(raw, list) or not all(isinstance(k, str) for k in raw):
        raise SchemaError("restrictive-key file must be a JSON array of strings")
    return frozenset(raw)


def has_restrictive_condition(
    stmt: PolicyStatement, restrictive_keys: frozenset[str] | None = None
) -> bool:
    """True iff the statement carries at least one recognized restrictive key."""
    if stmt.condition is None:
        return False
    keys = RESTRICTIVE_CONDITION_KEYS if restrictive_keys is None else restrictive_keys
    return not keys.isdisjoint(stmt.condition)


def has_wildcard_principal(stmt: PolicyStatement) -> bool:
    """True iff any principal entry contains ``*`` (normalized wildcards included).

    The flag is computed once, when the statement is built.
    """
    return stmt.wildcard_principal


def _is_open_statement(stmt: PolicyStatement, restrictive_keys: frozenset[str] | None) -> bool:
    """An Allow to a wildcard principal without a restrictive condition."""
    return (
        stmt.effect is Effect.ALLOW
        and stmt.wildcard_principal
        and not has_restrictive_condition(stmt, restrictive_keys)
    )


def is_policy_public(
    policy: tuple[PolicyStatement, ...] | None,
    restrictive_keys: frozenset[str] | None = None,
) -> bool:
    """True iff some Allow statement grants to a wildcard principal without
    a restrictive condition. Absent policy is never public."""
    if policy is None:
        return False
    for stmt in policy:
        if _is_open_statement(stmt, restrictive_keys):
            return True
    return False


def action_matches(pattern: str, action: str) -> bool:
    """Case-insensitive glob match where ``*`` matches any character run."""
    return _runs_match(pattern.lower().split("*"), action.lower())


def _runs_match(chunks: list[str], text: str) -> bool:
    # Greedy left-to-right matching of literal chunks separated by wildcards.
    if len(chunks) == 1:
        return chunks[0] == text
    head, tail = chunks[0], chunks[-1]
    if not text.startswith(head) or not text.endswith(tail):
        return False
    pos = len(head)
    end = len(text) - len(tail)
    if end < pos:
        return False
    for chunk in chunks[1:-1]:
        if not chunk:
            continue
        found = text.find(chunk, pos, end)
        if found < 0:
            return False
        pos = found + len(chunk)
    return True


_ACL_CAPABILITIES = {
    Permission.READ: AccessSet(read=True),
    Permission.WRITE: AccessSet(write=True),
    Permission.READ_ACP: AccessSet(acl_read=True),
    Permission.WRITE_ACP: AccessSet(acl_write=True),
    Permission.FULL_CONTROL: AccessSet(read=True, write=True, acl_read=True, acl_write=True),
}

_CAPABILITY_ACTIONS = (
    ("read", ("s3:GetObject", "s3:ListBucket")),
    ("write", ("s3:PutObject", "s3:DeleteObject")),
    ("acl_read", ("s3:GetBucketAcl", "s3:GetObjectAcl")),
    ("acl_write", ("s3:PutBucketAcl", "s3:PutObjectAcl")),
)


def _statement_capabilities(stmt: PolicyStatement) -> AccessSet:
    flags = {
        capability: any(
            action_matches(pattern, action)
            for pattern in stmt.actions
            for action in actions
        )
        for capability, actions in _CAPABILITY_ACTIONS
    }
    return AccessSet(**flags)


def effective_anonymous_access(
    config: BucketConfig, restrictive_keys: frozenset[str] | None = None
) -> AccessSet:
    """Ground-truth simulation of unauthenticated access to the bucket.

    ACL path: unless IgnorePublicAcls is set, grants to the AllUsers and
    AuthenticatedUsers groups contribute their permission's capabilities.
    Policy path: unless RestrictPublicBuckets is set, wildcard-principal
    Allow statements without restrictive conditions contribute capabilities
    for the actions they match; wildcard-principal Deny statements then
    subtract, regardless of conditions (a sound under-approximation of
    deny-overrides). The result is the union of the two paths.
    """
    bpa = config.public_access_block

    acl_access = AccessSet()
    if not bpa.ignore_public_acls:
        for grant in config.acl_grants:
            if grant.grantee_uri.endswith(_PUBLIC_GROUP_URIS):
                acl_access = acl_access.union(_ACL_CAPABILITIES[grant.permission])

    policy_access = AccessSet()
    if not bpa.restrict_public_buckets and config.policy is not None:
        allowed = AccessSet()
        denied = AccessSet()
        for stmt in config.policy:
            if not stmt.wildcard_principal:
                continue
            if stmt.effect is Effect.ALLOW:
                if not has_restrictive_condition(stmt, restrictive_keys):
                    allowed = allowed.union(_statement_capabilities(stmt))
            else:
                denied = denied.union(_statement_capabilities(stmt))
        policy_access = allowed.difference(denied)

    return acl_access.union(policy_access)


def _has_public_group_grant(config: BucketConfig) -> bool:
    return any(
        any(marker in grant.grantee_uri for marker in _PUBLIC_GROUP_URIS)
        for grant in config.acl_grants
    )


def classify_exposure(
    config: BucketConfig, restrictive_keys: frozenset[str] | None = None
) -> Exposure:
    """Heuristic exposure class: public_facing on any of three indicators.

    (a) a public-group ACL grant not neutralized by IgnorePublicAcls;
    (b) a public policy not neutralized by RestrictPublicBuckets;
    (c) static-website hosting not neutralized by RestrictPublicBuckets.
    """
    if _public_facing(config, is_policy_public(config.policy, restrictive_keys)):
        return Exposure.PUBLIC_FACING
    return Exposure.INTERNAL


def _public_facing(config: BucketConfig, policy_public: bool) -> bool:
    bpa = config.public_access_block
    if config.acl_grants and not bpa.ignore_public_acls and _has_public_group_grant(config):
        return True
    if not bpa.restrict_public_buckets and (policy_public or config.website_enabled):
        return True
    return False


SENSITIVE_TAG_KEY = "SensitiveData"


def is_sensitive(config: BucketConfig) -> bool:
    """Tag key is matched case-sensitively, its value case-insensitively."""
    return config.tags.get(SENSITIVE_TAG_KEY, "").lower() == "true"


# The 8 possible bundles, keyed by (policy public, public-facing, sensitive),
# built once and shared: DerivedProperties is immutable.
_DERIVED = {
    (policy_public, public_facing, sensitive): DerivedProperties(
        policy_status_public=policy_public,
        exposure=Exposure.PUBLIC_FACING if public_facing else Exposure.INTERNAL,
        sensitive_data=sensitive,
    )
    for policy_public, public_facing, sensitive in itertools.product((False, True), repeat=3)
}


def derive(
    config: BucketConfig, restrictive_keys: frozenset[str] | None = None
) -> DerivedProperties:
    """The derived-property bundle for one bucket: one of 8 shared instances."""
    policy_public = is_policy_public(config.policy, restrictive_keys)
    return _DERIVED[policy_public, _public_facing(config, policy_public), is_sensitive(config)]
