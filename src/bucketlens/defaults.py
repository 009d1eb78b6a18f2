"""The noisy baseline: 24 single-indicator detection rules.

Each rule checks exactly one signal and deliberately ignores context (no BPA
cross-checks, no condition-key awareness), so a single misconfigured bucket
routinely trips many overlapping rules. That over-alerting is the behavior the
unified rule is measured against, so keep these rules blunt.

Besides the derived bundle, a predicate reads only the input its
``DefaultRule.reads`` names, and must never fire when that input is empty.
``evaluate_default`` trusts this: it decides the 20 non-policy rules once per
equal (BPA flags, derived, website flag, grants) signature, in a bounded
cache, and runs the 4 policy rules only on buckets with statements.

Alerts are ``model.Alert`` records, the same shape the unified rule emits,
with no fired conditions; this module does not depend on ``unified``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from .model import BPA_FLAGS, AclGrant, Alert, BucketConfig, Effect, GranteeType, Permission, PublicAccessBlock
from .model import Record, Severity, new_alert
from .policy import DerivedProperties, Exposure, action_matches

Predicate = Callable[[BucketConfig, DerivedProperties], "str | None"]


class DefaultRule(Record):
    """One single-indicator rule; the predicate returns evidence or None.

    ``reads`` names the one config input the predicate reads besides the
    derived bundle, ``"acl_grants"`` or ``"policy"``; None means it reads only
    ``public_access_block`` and ``website_enabled``.
    """

    id: str
    title: str
    severity: Severity
    predicate: Predicate
    reads: str | None = None


def _group_acl_rule(marker: str, permission: Permission) -> Predicate:
    def check(config: BucketConfig, derived: DerivedProperties) -> str | None:
        for grant in config.acl_grants:
            if marker in grant.grantee_uri and grant.permission is permission:
                return f"grant to {grant.grantee_uri} with permission {permission.value}"
        return None

    return check


def _any_group_grantee(config: BucketConfig, derived: DerivedProperties) -> str | None:
    for grant in config.acl_grants:
        if grant.grantee_type is GranteeType.GROUP:
            return f"grant to group grantee {grant.grantee_uri}"
    return None


def _any_non_owner_grant(config: BucketConfig, derived: DerivedProperties) -> str | None:
    # Owner identity is not modeled, so canonical-user grants are presumed
    # owner-held; anything else counts as a non-owner grant.
    for grant in config.acl_grants:
        if grant.grantee_type is not GranteeType.CANONICAL_USER:
            return f"non-owner grant to {grant.grantee_uri} ({grant.permission.value})"
    return None


def _bpa_flag_rule(flag: str, label: str) -> Predicate:
    evidence = f"{label} is disabled"

    def check(config: BucketConfig, derived: DerivedProperties) -> str | None:
        if not getattr(config.public_access_block, flag):
            return evidence
        return None

    return check


def _any_bpa_flag_off(config: BucketConfig, derived: DerivedProperties) -> str | None:
    bpa = config.public_access_block
    off = [label for flag, label in BPA_FLAGS if not getattr(bpa, flag)]
    if off:
        return "disabled BPA flag(s): " + ", ".join(off)
    return None


def _wildcard_any_effect(config: BucketConfig, derived: DerivedProperties) -> str | None:
    for stmt in config.policy or ():
        if stmt.wildcard_principal:
            sid = stmt.sid or "<no sid>"
            return f"statement {sid} uses a wildcard principal ({stmt.effect.value})"
    return None


# fleets repeat a few action patterns
_allows = lru_cache(maxsize=256)(action_matches)


_ALLOW = Effect.ALLOW  # a global: an enum member lookup costs about 107 ns on Python 3.11


def _wildcard_allow_action(target_action: str) -> Predicate:
    def check(config: BucketConfig, derived: DerivedProperties) -> str | None:
        for stmt in config.policy or ():
            if stmt.effect is not _ALLOW or not stmt.wildcard_principal:
                continue
            for pattern in stmt.actions:
                if _allows(pattern, target_action):
                    sid = stmt.sid or "<no sid>"
                    return f"statement {sid} allows {target_action} (pattern {pattern!r}) to a wildcard principal"
        return None

    return check


def _policy_status_public(config: BucketConfig, derived: DerivedProperties) -> str | None:
    if derived.policy_status_public:
        return "policy-public status is true"
    return None


def _exposure_public(config: BucketConfig, derived: DerivedProperties) -> str | None:
    if derived.exposure is Exposure.PUBLIC_FACING:
        return "bucket is classified public_facing"
    return None


def _website_enabled(config: BucketConfig, derived: DerivedProperties) -> str | None:
    if config.website_enabled:
        return "static website hosting is enabled"
    return None


def _build_catalog() -> tuple[DefaultRule, ...]:
    rules: list[DefaultRule] = []

    acl_groups = (
        ("ALLUSERS", "global/AllUsers", "AllUsers", Severity.HIGH),
        ("AUTHUSERS", "global/AuthenticatedUsers", "AuthenticatedUsers", Severity.MEDIUM),
    )
    for token, marker, label, severity in acl_groups:
        for permission in Permission:
            perm_token = permission.value.replace("_", "-")
            rules.append(
                DefaultRule(
                    id=f"ACL-{token}-{perm_token}",
                    title=f"ACL grants {permission.value} to the {label} group",
                    severity=severity,
                    predicate=_group_acl_rule(marker, permission),
                    reads="acl_grants",
                )
            )

    rules.append(
        DefaultRule(
            id="ACL-ANY-GROUP-GRANTEE",
            title="ACL contains a grant to any group grantee",
            severity=Severity.LOW,
            predicate=_any_group_grantee,
            reads="acl_grants",
        )
    )
    rules.append(
        DefaultRule(
            id="ACL-ANY-NONOWNER-GRANT",
            title="ACL contains a grant to a non-owner grantee",
            severity=Severity.LOW,
            predicate=_any_non_owner_grant,
            reads="acl_grants",
        )
    )

    for flag, label in BPA_FLAGS:
        rules.append(
            DefaultRule(
                id=f"BPA-{flag.upper().replace('_', '-')}-OFF",
                title=f"Block Public Access flag {label} is disabled",
                severity=Severity.LOW,
                predicate=_bpa_flag_rule(flag, label),
            )
        )
    rules.append(
        DefaultRule(
            id="BPA-ANY-FLAG-OFF",
            title="At least one Block Public Access flag is disabled",
            severity=Severity.LOW,
            predicate=_any_bpa_flag_off,
        )
    )

    rules.append(
        DefaultRule(
            id="POLICY-WILDCARD-ANY",
            title="Policy contains a wildcard principal in any statement",
            severity=Severity.MEDIUM,
            predicate=_wildcard_any_effect,
            reads="policy",
        )
    )
    for rule_id, action, severity in (
        ("POLICY-WILDCARD-GETOBJECT", "s3:GetObject", Severity.HIGH),
        ("POLICY-WILDCARD-PUTOBJECT", "s3:PutObject", Severity.HIGH),
        ("POLICY-WILDCARD-LISTBUCKET", "s3:ListBucket", Severity.MEDIUM),
    ):
        rules.append(
            DefaultRule(
                id=rule_id,
                title=f"Policy allows {action} to a wildcard principal",
                severity=severity,
                predicate=_wildcard_allow_action(action),
                reads="policy",
            )
        )
    rules.append(
        DefaultRule(
            id="POLICY-PUBLIC-STATUS",
            title="Policy-public status is true",
            severity=Severity.HIGH,
            predicate=_policy_status_public,
        )
    )

    rules.append(
        DefaultRule(
            id="EXPOSURE-PUBLIC-FACING",
            title="Bucket is classified as public_facing",
            severity=Severity.HIGH,
            predicate=_exposure_public,
        )
    )
    rules.append(
        DefaultRule(
            id="WEBSITE-ENABLED",
            title="Static website hosting is enabled",
            severity=Severity.LOW,
            predicate=_website_enabled,
        )
    )

    assert len(rules) == 24 and len({r.id for r in rules}) == 24
    assert all(r.reads in (None, "acl_grants", "policy") for r in rules)
    return tuple(rules)


_CATALOG = _build_catalog()

# In rule-id order: the 4 policy rules, and the 20 decided once per signature.
_POLICY_RULES = tuple(r for r in sorted(_CATALOG, key=lambda r: r.id) if r.reads == "policy")
_SIGNATURE_RULES = tuple(r for r in sorted(_CATALOG, key=lambda r: r.id) if r.reads != "policy")


def default_catalog() -> tuple[DefaultRule, ...]:
    """The full 24-rule baseline catalog, in stable order."""
    return _CATALOG


_NO_CONDITIONS: tuple[int, ...] = ()
Hit = tuple[str, Severity, str]  # (rule id, severity, explanation)


def _hits(rules: tuple[DefaultRule, ...], config: BucketConfig, derived: DerivedProperties) -> list[Hit]:
    return [
        (rule.id, rule.severity, f"{rule.title}: {evidence}")
        for rule in rules
        if (evidence := rule.predicate(config, derived)) is not None
    ]


@lru_cache(maxsize=256)
def _signature_hits(
    bpa: PublicAccessBlock, derived: DerivedProperties, website: bool, grants: tuple[AclGrant, ...]
) -> tuple[tuple[Hit, ...], tuple[Hit, ...]]:
    # The non-policy hits that sort before the policy rules, and those after;
    # the stand-in carries nothing a bucket of this signature could vary.
    stand_in = BucketConfig("signature", acl_grants=grants, public_access_block=bpa, website_enabled=website)
    hits = _hits(_SIGNATURE_RULES, stand_in, derived)
    split = sum(hit[0] < _POLICY_RULES[0].id for hit in hits)
    return tuple(hits[:split]), tuple(hits[split:])


def evaluate_default(config: BucketConfig, derived: DerivedProperties) -> list[Alert]:
    """Evaluate every catalog rule; one alert per match, ordered by rule id.

    Buckets with equal BPA flags, derived bundle, website flag and grants share
    one decision of the 20 non-policy rules while it stays in a bounded cache,
    explanation strings included.
    """
    head, tail = _signature_hits(config.public_access_block, derived, config.website_enabled, config.acl_grants)
    hits = [*head, *_hits(_POLICY_RULES, config, derived), *tail] if config.policy else head + tail
    name = config.name
    return [new_alert(name, rule_id, severity, _NO_CONDITIONS, text) for rule_id, severity, text in hits]
