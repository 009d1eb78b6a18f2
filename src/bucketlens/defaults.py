"""The noisy baseline: 24 single-indicator detection rules.

Each rule checks exactly one signal and deliberately ignores context (no BPA
cross-checks, no condition-key awareness), so a single misconfigured bucket
routinely trips many overlapping rules. That over-alerting is the behavior the
unified rule is measured against, so keep these rules blunt.

A rule that declares it reads ``acl_grants`` or ``policy`` must never fire
when that input is empty: ``evaluate_default`` skips it on such buckets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .model import BPA_FLAGS, BucketConfig, Effect, GranteeType, Permission, Severity
from .policy import DerivedProperties, Exposure, _runs_match
from .unified import Alert, new_alert

Predicate = Callable[[BucketConfig, DerivedProperties], "str | None"]


@dataclass(frozen=True, slots=True)
class DefaultRule:
    """One single-indicator rule; the predicate returns evidence or None.

    ``reads`` names the config input the predicate depends on, ``"acl_grants"``
    or ``"policy"``, or is None when it reads neither.
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
    def check(config: BucketConfig, derived: DerivedProperties) -> str | None:
        if not getattr(config.public_access_block, flag):
            return f"{label} is disabled"
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


def _wildcard_allow_action(target_action: str) -> Predicate:
    # policy.action_matches with the fixed target lowercased once per rule.
    target = target_action.lower()

    def check(config: BucketConfig, derived: DerivedProperties) -> str | None:
        for stmt in config.policy or ():
            if stmt.effect is not Effect.ALLOW or not stmt.wildcard_principal:
                continue
            for pattern in stmt.actions:
                if _runs_match(pattern.lower().split("*"), target):
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

# The rules worth running on a bucket, in rule-id order, keyed by
# (has ACL grants, has policy statements).
_RULES_BY_INPUTS = {
    (has_grants, has_policy): tuple(
        rule
        for rule in sorted(_CATALOG, key=lambda r: r.id)
        if (has_grants or rule.reads != "acl_grants") and (has_policy or rule.reads != "policy")
    )
    for has_grants in (False, True)
    for has_policy in (False, True)
}


def default_catalog() -> tuple[DefaultRule, ...]:
    """The full 24-rule baseline catalog, in stable order."""
    return _CATALOG


_NO_CONDITIONS: frozenset[int] = frozenset()


def evaluate_default(config: BucketConfig, derived: DerivedProperties) -> list[Alert]:
    """Evaluate every catalog rule; one alert per match, ordered by rule id.

    Rules whose declared input is empty on this bucket cannot fire and are
    not run.
    """
    alerts: list[Alert] = []
    for rule in _RULES_BY_INPUTS[bool(config.acl_grants), bool(config.policy)]:
        evidence = rule.predicate(config, derived)
        if evidence is not None:
            explanation = f"{rule.title}: {evidence}"
            alerts.append(new_alert(config.name, rule.id, rule.severity, _NO_CONDITIONS, explanation))
    return alerts
