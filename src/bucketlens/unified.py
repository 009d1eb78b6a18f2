"""The unified rule: S3 Public Access Validation and Data Exposure.

One context-aware rule replaces the whole default catalog. Five numbered
conditions are evaluated per bucket and at most one High-severity
``model.Alert`` is emitted, recording which conditions fired as an ascending
tuple:

1. public ACL grants (AuthenticatedUsers with any permission, AllUsers with
   READ);
2. public policy on a public-facing bucket;
3. public-facing bucket, RestrictPublicBuckets disabled, and a wildcard
   Allow statement over a risky action without a restrictive condition;
4. any wildcard Allow statement without a restrictive condition while
   RestrictPublicBuckets is disabled;
5. public-facing bucket tagged as holding sensitive data.

The same logic ships as a DSL rule, kept once in ``rules/unified.rule`` and
read through ``unified_dsl_source``; the built-in evaluation and the parsed
rule must agree on every bucket.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Alert, BucketConfig, Permission, PolicyStatement, Severity, new_alert
from .policy import DerivedProperties, Exposure, _is_open_statement

UNIFIED_RULE_ID = "UNIFIED-S3-PUBLIC-ACCESS"
UNIFIED_RULE_TITLE = "S3 Public Access Validation and Data Exposure"

# one line per condition, for ``rules list --set unified``
_CONDITION_SUMMARIES = {
    1: "public ACL grants (AuthenticatedUsers any permission; AllUsers READ)",
    2: "public policy status on a public-facing bucket",
    3: "public-facing + RestrictPublicBuckets off + unrestricted wildcard allow of a risky action",
    4: "any unrestricted wildcard allow statement while RestrictPublicBuckets is off",
    5: "public-facing bucket tagged as holding sensitive data",
}

#: Substring markers for risky actions (matched LIKE-style: contained in the
#: action string). Version/ACL variants already contain their base action.
RISKY_ACTION_MARKERS: tuple[str, ...] = (
    "s3:GetObject",
    "s3:GetObjectVersion",
    "s3:ListBucket",
    "s3:ListBucketVersions",
    "s3:PutObject",
    "s3:PutObjectAcl",
    "s3:DeleteObject",
    "s3:DeleteObjectVersion",
    "s3:GetBucketAcl",
    "s3:GetObjectAcl",
    "s3:PutBucketAcl",
)


@dataclass(frozen=True, slots=True)
class ConditionVerdict:
    number: int
    fired: bool
    detail: str


def _grant_matches_c1(uri: str, permission: Permission) -> bool:
    # the rule text's third disjunct (groups/global/AuthenticatedUsers, READ) is implied by the first
    return "global/AuthenticatedUsers" in uri or (
        "global/AllUsers" in uri and permission is Permission.READ
    )


def _open_statements(
    config: BucketConfig, restrictive_keys: frozenset[str] | None
) -> list[PolicyStatement]:
    """Wildcard-principal Allow statements without a restrictive condition."""
    return [stmt for stmt in config.policy or () if _is_open_statement(stmt, restrictive_keys)]


def _risky_markers(stmt: PolicyStatement) -> list[str]:
    return sorted({m for m in RISKY_ACTION_MARKERS for action in stmt.actions if m in action})


def _fired_conditions(
    config: BucketConfig,
    derived: DerivedProperties,
    restrictive_keys: frozenset[str] | None = None,
) -> tuple[int, ...]:
    """The numbers of the conditions that hold, ascending; no evidence text.

    This is the only place the five conditions are decided. Most buckets
    fire none, so it touches ACL grants and policy statements only when
    the bucket has them.
    """
    fired: list[int] = []
    for grant in config.acl_grants:
        if _grant_matches_c1(grant.grantee_uri, grant.permission):
            fired.append(1)
            break
    public_facing = derived.exposure is Exposure.PUBLIC_FACING
    if public_facing and derived.policy_status_public:
        fired.append(2)
    if config.policy and not config.public_access_block.restrict_public_buckets:
        open_stmts = _open_statements(config, restrictive_keys)
        if open_stmts:
            if public_facing and any(map(_risky_markers, open_stmts)):
                fired.append(3)
            fired.append(4)
    if public_facing and derived.sensitive_data:
        fired.append(5)
    return tuple(fired)


def _sid(stmt: PolicyStatement) -> str:
    return stmt.sid or "<no sid>"


def _evidence(
    number: int,
    config: BucketConfig,
    derived: DerivedProperties,
    restrictive_keys: frozenset[str] | None,
    fired: bool,
) -> str:
    """Evidence for one condition, given whether it fired.

    Built only for an alerting bucket or for ``explain``.
    """
    bpa = config.public_access_block
    if number == 1:
        if not fired:
            return "no qualifying ACL grant"
        return "public ACL grant(s): " + "; ".join(
            f"{g.grantee_uri} ({g.permission.value})"
            for g in config.acl_grants
            if _grant_matches_c1(g.grantee_uri, g.permission)
        )
    if number == 2:
        return (
            f"policy_status_public={str(derived.policy_status_public).lower()}, "
            f"exposure={derived.exposure.value}"
        )
    if number == 3:
        if fired:
            risky = ((stmt, _risky_markers(stmt)) for stmt in _open_statements(config, restrictive_keys))
            return "risky wildcard statement(s): " + "; ".join(
                f"{_sid(stmt)} matches {', '.join(matched)}" for stmt, matched in risky if matched
            )
        if derived.exposure is not Exposure.PUBLIC_FACING:
            return "bucket is not public-facing"
        if bpa.restrict_public_buckets:
            return "RestrictPublicBuckets is enabled"
        return "no unrestricted wildcard Allow statement over a risky action"
    if number == 4:
        open_stmts = _open_statements(config, restrictive_keys)
        if fired:
            return (
                "unrestricted wildcard Allow statement(s) "
                + ", ".join(_sid(s) for s in open_stmts)
                + " while RestrictPublicBuckets is disabled"
            )
        if not open_stmts:
            return "no unrestricted wildcard Allow statement"
        return "RestrictPublicBuckets is enabled"
    return (
        f"exposure={derived.exposure.value}, "
        f"sensitive_data={str(derived.sensitive_data).lower()}"
    )


def condition_verdicts(
    config: BucketConfig,
    derived: DerivedProperties,
    restrictive_keys: frozenset[str] | None = None,
) -> list[ConditionVerdict]:
    """Evaluate all five conditions with human-readable evidence."""
    fired = _fired_conditions(config, derived, restrictive_keys)
    return [
        ConditionVerdict(number, number in fired, _evidence(number, config, derived, restrictive_keys, number in fired))
        for number in range(1, 6)
    ]


def evaluate_unified(
    config: BucketConfig,
    derived: DerivedProperties,
    restrictive_keys: frozenset[str] | None = None,
) -> Alert | None:
    """Emit at most one High alert per bucket, listing every fired condition."""
    fired = _fired_conditions(config, derived, restrictive_keys)
    if not fired:
        return None
    explanation = "; ".join(
        f"C{number}: {_evidence(number, config, derived, restrictive_keys, True)}" for number in fired
    )
    return new_alert(config.name, UNIFIED_RULE_ID, Severity.HIGH, fired, explanation)


def unified_dsl_source() -> str:
    """The unified rule as DSL text: the ``unified.rule`` package data file.

    In a source checkout that file is a link to ``rules/unified.rule``, the
    one copy of the text; builds ship it as a regular file.
    """
    from importlib import resources  # slow to import, and no command reads the text

    return resources.files("bucketlens").joinpath("unified.rule").read_text(encoding="utf-8")
