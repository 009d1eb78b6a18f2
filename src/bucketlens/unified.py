"""The unified rule: S3 Public Access Validation and Data Exposure.

One context-aware rule replaces the whole default catalog. Five numbered
conditions are decided per bucket, in one pass that also writes each fired
condition's evidence, and at most one High-severity ``model.Alert`` is
emitted, recording which conditions fired as an ascending tuple:

1. public ACL grants (AuthenticatedUsers with any permission, AllUsers with
   READ);
2. public policy on a public-facing bucket;
3. public-facing bucket, RestrictPublicBuckets disabled, and a wildcard
   Allow statement over a risky action without a restrictive condition;
4. any wildcard Allow statement without a restrictive condition while
   RestrictPublicBuckets is disabled;
5. public-facing bucket tagged as holding sensitive data.

``evaluate_unified`` and ``explain``'s ``condition_verdicts`` read that one
pass; only ``explain`` also asks why an unmet condition does not hold.

The same logic ships as a DSL rule, kept once in ``rules/unified.rule`` and
read through ``unified_dsl_source``; the built-in evaluation and the parsed
rule must agree on every bucket.
"""

from __future__ import annotations

from .model import Alert, BucketConfig, Permission, PolicyStatement, Record, Severity, new_alert
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


class ConditionVerdict(Record):
    number: int
    fired: bool
    detail: str


# members ``_fired_evidence`` compares against on every bucket, as module
# globals: each lookup of an enum member costs about 107 ns on Python 3.11
_PUBLIC_FACING = Exposure.PUBLIC_FACING
_READ = Permission.READ


def _risky_markers(stmt: PolicyStatement) -> list[str]:
    return sorted({m for m in RISKY_ACTION_MARKERS for action in stmt.actions if m in action})


def _sid(stmt: PolicyStatement) -> str:
    return stmt.sid or "<no sid>"


def _fired_evidence(config: BucketConfig, derived: DerivedProperties) -> dict[int, str]:
    """Each condition that holds, ascending, mapped to its evidence text.

    This is the only place the five conditions are decided, each once; a
    fired condition's text is written as it is decided. Most buckets fire
    none: they get an empty dict, no text is built for them, and ACL grants
    and policy statements are read only when the bucket has them.
    """
    fired: dict[int, str] = {}
    if config.acl_grants:
        # the rule text's third disjunct (groups/global/AuthenticatedUsers, READ) is implied by the first
        public = [
            f"{g.grantee_uri} ({g.permission.value})"
            for g in config.acl_grants
            if "global/AuthenticatedUsers" in g.grantee_uri
            or ("global/AllUsers" in g.grantee_uri and g.permission is _READ)
        ]
        if public:
            fired[1] = "public ACL grant(s): " + "; ".join(public)
    public_facing = derived.exposure is _PUBLIC_FACING
    if public_facing and derived.policy_status_public:
        fired[2] = "policy_status_public=true, exposure=public_facing"
    if config.policy and not config.public_access_block.restrict_public_buckets:
        # wildcard-principal Allow statements without a restrictive condition
        open_stmts = [stmt for stmt in config.policy if _is_open_statement(stmt)]
        if open_stmts:
            if public_facing:
                risky = [
                    f"{_sid(stmt)} matches {', '.join(matched)}"
                    for stmt in open_stmts
                    if (matched := _risky_markers(stmt))
                ]
                if risky:
                    fired[3] = "risky wildcard statement(s): " + "; ".join(risky)
            fired[4] = (
                "unrestricted wildcard Allow statement(s) "
                + ", ".join(map(_sid, open_stmts))
                + " while RestrictPublicBuckets is disabled"
            )
    if public_facing and derived.sensitive_data:
        fired[5] = "exposure=public_facing, sensitive_data=true"
    return fired


def _unmet_reasons(config: BucketConfig, derived: DerivedProperties) -> tuple[str, ...]:
    """Why each of C1-C5 does not hold, in order; only ``explain`` reads them."""
    rpb = "RestrictPublicBuckets is enabled"
    if derived.exposure is not Exposure.PUBLIC_FACING:
        c3 = "bucket is not public-facing"
    elif config.public_access_block.restrict_public_buckets:
        c3 = rpb
    else:
        c3 = "no unrestricted wildcard Allow statement over a risky action"
    # an open statement is what makes the policy public; with one, only the flag keeps C4 off
    c4 = rpb if derived.policy_status_public else "no unrestricted wildcard Allow statement"
    return (
        "no qualifying ACL grant",
        f"policy_status_public={str(derived.policy_status_public).lower()}, exposure={derived.exposure.value}",
        c3, c4,
        f"exposure={derived.exposure.value}, sensitive_data={str(derived.sensitive_data).lower()}",
    )


def condition_verdicts(config: BucketConfig, derived: DerivedProperties) -> list[ConditionVerdict]:
    """All five conditions, C1 to C5, decided by ``evaluate_unified``'s one pass.

    A fired condition carries that pass's evidence, an unmet one the reason.
    """
    fired = _fired_evidence(config, derived)
    unmet = _unmet_reasons(config, derived)
    return [ConditionVerdict(n, n in fired, fired.get(n, unmet[n - 1])) for n in range(1, 6)]


def evaluate_unified(config: BucketConfig, derived: DerivedProperties) -> Alert | None:
    """Emit at most one High alert per bucket, listing every fired condition.

    One pass decides the conditions and writes the evidence of those that
    fire; the explanation joins that evidence as ``C<n>: <text>``.
    """
    fired = _fired_evidence(config, derived)
    if not fired:
        return None
    explanation = "; ".join(f"C{number}: {text}" for number, text in fired.items())
    return new_alert(config.name, UNIFIED_RULE_ID, Severity.HIGH, tuple(fired), explanation)


def unified_dsl_source() -> str:
    """The unified rule as DSL text: the ``unified.rule`` package data file.

    In a source checkout that file is a link to ``rules/unified.rule``, the
    one copy of the text; builds ship it as a regular file.
    """
    from importlib import resources  # slow to import, and no command reads the text

    return resources.files("bucketlens").joinpath("unified.rule").read_text(encoding="utf-8")
