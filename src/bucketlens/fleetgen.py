"""Deterministic synthetic fleets with oracle-derived ground truth.

Each scenario is a parameterized bucket template paired with the outcomes it
must produce: the unified conditions expected to fire, a floor on how many
default rules fire, and the expected truth labels. Scenarios S1-S10 compose
the calibrated "paper" mix (benign noise sources plus genuine exposures);
S11 and S12 are adversarial shapes that sit in the unified rule's blind
spots and only appear in the adversarial mix.

Ground-truth labels are always recomputed from the access oracle, never
hard-coded, so a scenario whose template drifts out of line with its declared
expectations fails the expectation tests rather than silently mislabeling.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping

from .errors import DuplicateNameError, MixError, SchemaError, UnknownScenarioError
from .model import (
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
    parse_json,
    read_json,
    read_jsonl,
)
from .policy import Exposure, derive, effective_anonymous_access


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """Oracle-backed labels for one bucket."""

    exploitable: bool
    business_risk: bool
    reason: str


@dataclass(frozen=True, slots=True)
class Scenario:
    id: str
    description: str
    builder: Callable[[str, random.Random], BucketConfig]
    expected_exploitable: bool
    expected_business_risk: bool
    expected_unified_conditions: frozenset[int]
    expected_default_rule_count_min: int


@dataclass(frozen=True, slots=True)
class MixSpec:
    """Scenario proportions (summing to 1), fleet size and RNG seed."""

    proportions: Mapping[str, float]
    total: int
    seed: int


_REGIONS = ("us-east-1", "us-west-2", "eu-west-1", "ap-southeast-2")
_NOISE_TAGS = (
    ("team", ("payments", "search", "infra", "analytics")),
    ("env", ("prod", "staging", "dev")),
    ("cost-center", ("cc-100", "cc-200", "cc-300")),
)

_BPA_ON = PublicAccessBlock(True, True, True, True)
_BPA_OFF = PublicAccessBlock()


def _noise_tags(rng: random.Random) -> dict[str, str]:
    tags: dict[str, str] = {}
    for key, values in _NOISE_TAGS:
        if rng.random() < 0.5:
            tags[key] = rng.choice(values)
    return tags


def _sid(rng: random.Random) -> str:
    return "sid-" + "".join(rng.choices("0123456789abcdef", k=4))


def _sensitive_tag(rng: random.Random) -> dict[str, str]:
    return {"SensitiveData": rng.choice(("true", "True", "TRUE"))}


def _wildcard_get_statement(
    name: str, rng: random.Random, condition: Mapping[str, tuple[str, ...]] | None = None
) -> PolicyStatement:
    return PolicyStatement(
        effect=Effect.ALLOW,
        principal_aws=("*",),
        actions=("s3:GetObject",),
        resources=(f"arn:aws:s3:::{name}/*",),
        sid=_sid(rng),
        condition=condition,
    )


def _build_s1(name: str, rng: random.Random) -> BucketConfig:
    return BucketConfig(
        name=name,
        region=rng.choice(_REGIONS),
        public_access_block=_BPA_ON,
        tags=_noise_tags(rng),
    )


def _build_s2(name: str, rng: random.Random) -> BucketConfig:
    return BucketConfig(
        name=name,
        region=rng.choice(_REGIONS),
        acl_grants=(AclGrant(GranteeType.GROUP, LOG_DELIVERY_URI, Permission.WRITE),),
        public_access_block=_BPA_ON,
        tags=_noise_tags(rng),
    )


def _build_s3(name: str, rng: random.Random) -> BucketConfig:
    vpc = "vpc-" + "".join(rng.choices("0123456789abcdef", k=8))
    return BucketConfig(
        name=name,
        region=rng.choice(_REGIONS),
        policy=(_wildcard_get_statement(name, rng, {"aws:SourceVpc": (vpc,)}),),
        public_access_block=_BPA_OFF,
        tags=_noise_tags(rng),
    )


def _build_s4(name: str, rng: random.Random) -> BucketConfig:
    return BucketConfig(
        name=name,
        region=rng.choice(_REGIONS),
        acl_grants=(AclGrant(GranteeType.GROUP, ALL_USERS_URI, Permission.READ),),
        public_access_block=_BPA_OFF,
        tags=_noise_tags(rng),
    )


def _build_s5(name: str, rng: random.Random) -> BucketConfig:
    return BucketConfig(
        name=name,
        region=rng.choice(_REGIONS),
        policy=(_wildcard_get_statement(name, rng),),
        public_access_block=_BPA_OFF,
        tags=_noise_tags(rng),
    )


def _build_s6(name: str, rng: random.Random) -> BucketConfig:
    return BucketConfig(
        name=name,
        region=rng.choice(_REGIONS),
        policy=(_wildcard_get_statement(name, rng),),
        public_access_block=_BPA_OFF,
        tags={**_noise_tags(rng), **_sensitive_tag(rng)},
        website_enabled=True,
    )


def _build_s7(name: str, rng: random.Random) -> BucketConfig:
    stmt = PolicyStatement(
        effect=Effect.DENY,
        principal_aws=("*",),
        actions=("s3:*",),
        resources=(f"arn:aws:s3:::{name}", f"arn:aws:s3:::{name}/*"),
        sid=_sid(rng),
    )
    return BucketConfig(
        name=name,
        region=rng.choice(_REGIONS),
        policy=(stmt,),
        public_access_block=_BPA_ON,
        tags=_noise_tags(rng),
    )


def _build_s8(name: str, rng: random.Random) -> BucketConfig:
    return BucketConfig(
        name=name,
        region=rng.choice(_REGIONS),
        acl_grants=(AclGrant(GranteeType.GROUP, AUTHENTICATED_USERS_URI, Permission.READ),),
        public_access_block=_BPA_OFF,
        tags=_noise_tags(rng),
    )


def _build_s9(name: str, rng: random.Random) -> BucketConfig:
    return BucketConfig(
        name=name,
        region=rng.choice(_REGIONS),
        policy=(_wildcard_get_statement(name, rng),),
        public_access_block=PublicAccessBlock(restrict_public_buckets=True),
        tags=_noise_tags(rng),
    )


def _build_s10(name: str, rng: random.Random) -> BucketConfig:
    return BucketConfig(
        name=name,
        region=rng.choice(_REGIONS),
        public_access_block=_BPA_ON,
        tags={**_noise_tags(rng), **_sensitive_tag(rng)},
    )


def _build_s11(name: str, rng: random.Random) -> BucketConfig:
    return BucketConfig(
        name=name,
        region=rng.choice(_REGIONS),
        acl_grants=(AclGrant(GranteeType.GROUP, ALL_USERS_URI, Permission.WRITE),),
        public_access_block=_BPA_OFF,
        tags=_noise_tags(rng),
    )


def _build_s12(name: str, rng: random.Random) -> BucketConfig:
    return BucketConfig(
        name=name,
        region=rng.choice(_REGIONS),
        acl_grants=(AclGrant(GranteeType.GROUP, AUTHENTICATED_USERS_URI, Permission.READ),),
        public_access_block=PublicAccessBlock(ignore_public_acls=True),
        tags=_noise_tags(rng),
    )


_CATALOG: tuple[Scenario, ...] = (
    Scenario(
        id="S1",
        description="clean private bucket, BPA fully enabled",
        builder=_build_s1,
        expected_exploitable=False,
        expected_business_risk=False,
        expected_unified_conditions=frozenset(),
        expected_default_rule_count_min=0,
    ),
    Scenario(
        id="S2",
        description="legacy log-delivery ACL grant, otherwise locked down",
        builder=_build_s2,
        expected_exploitable=False,
        expected_business_risk=False,
        expected_unified_conditions=frozenset(),
        expected_default_rule_count_min=2,
    ),
    Scenario(
        id="S3",
        description="wildcard policy restricted to a VPC, BPA disabled",
        builder=_build_s3,
        expected_exploitable=False,
        expected_business_risk=False,
        expected_unified_conditions=frozenset(),
        expected_default_rule_count_min=7,
    ),
    Scenario(
        id="S4",
        description="AllUsers READ ACL grant with BPA disabled",
        builder=_build_s4,
        expected_exploitable=True,
        expected_business_risk=True,
        expected_unified_conditions=frozenset({1}),
        expected_default_rule_count_min=9,
    ),
    Scenario(
        id="S5",
        description="unrestricted wildcard GetObject policy with BPA disabled",
        builder=_build_s5,
        expected_exploitable=True,
        expected_business_risk=True,
        expected_unified_conditions=frozenset({2, 3, 4}),
        expected_default_rule_count_min=9,
    ),
    Scenario(
        id="S6",
        description="public website bucket with sensitive data and open policy",
        builder=_build_s6,
        expected_exploitable=True,
        expected_business_risk=True,
        expected_unified_conditions=frozenset({2, 3, 4, 5}),
        expected_default_rule_count_min=10,
    ),
    Scenario(
        id="S7",
        description="deny-only wildcard policy, BPA fully enabled",
        builder=_build_s7,
        expected_exploitable=False,
        expected_business_risk=False,
        expected_unified_conditions=frozenset(),
        expected_default_rule_count_min=1,
    ),
    Scenario(
        id="S8",
        description="AuthenticatedUsers READ ACL grant with BPA disabled",
        builder=_build_s8,
        expected_exploitable=True,
        expected_business_risk=True,
        expected_unified_conditions=frozenset({1}),
        expected_default_rule_count_min=9,
    ),
    Scenario(
        id="S9",
        description="wildcard GetObject policy neutralized by RestrictPublicBuckets",
        builder=_build_s9,
        expected_exploitable=False,
        expected_business_risk=False,
        expected_unified_conditions=frozenset(),
        expected_default_rule_count_min=7,
    ),
    Scenario(
        id="S10",
        description="private bucket tagged SensitiveData, BPA fully enabled",
        builder=_build_s10,
        expected_exploitable=False,
        expected_business_risk=False,
        expected_unified_conditions=frozenset(),
        expected_default_rule_count_min=0,
    ),
    Scenario(
        id="S11",
        description="AllUsers WRITE-only ACL grant with BPA disabled",
        builder=_build_s11,
        expected_exploitable=True,
        expected_business_risk=True,
        expected_unified_conditions=frozenset(),
        expected_default_rule_count_min=9,
    ),
    Scenario(
        id="S12",
        description="AuthenticatedUsers READ grant neutralized by IgnorePublicAcls",
        builder=_build_s12,
        expected_exploitable=False,
        expected_business_risk=False,
        expected_unified_conditions=frozenset({1}),
        expected_default_rule_count_min=7,
    ),
)

_BY_ID = {scenario.id: scenario for scenario in _CATALOG}

#: Calibrated so a 1,000-bucket fleet yields well over 1,200 default alerts
#: (>80% of them false positives) and exactly 40 business-risk buckets, all
#: caught by the unified rule.
PAPER_MIX: Mapping[str, float] = {
    "S1": 0.40,
    "S2": 0.12,
    "S3": 0.15,
    "S7": 0.10,
    "S9": 0.09,
    "S10": 0.10,
    "S4": 0.015,
    "S5": 0.015,
    "S6": 0.005,
    "S8": 0.005,
}

#: Adds the unified rule's documented edge cases: a true exposure it misses
#: (S11) and a neutralized grant it still flags (S12).
ADVERSARIAL_MIX: Mapping[str, float] = {
    "S1": 0.30,
    "S2": 0.10,
    "S3": 0.10,
    "S7": 0.10,
    "S9": 0.10,
    "S10": 0.05,
    "S4": 0.05,
    "S5": 0.05,
    "S6": 0.05,
    "S8": 0.05,
    "S11": 0.025,
    "S12": 0.025,
}


def scenario_catalog() -> tuple[Scenario, ...]:
    return _CATALOG


def get_scenario(scenario_id: str) -> Scenario:
    try:
        return _BY_ID[scenario_id]
    except KeyError:
        raise UnknownScenarioError(f"unknown scenario id {scenario_id!r}") from None


def ground_truth_for(scenario: Scenario, config: BucketConfig) -> GroundTruth:
    """Recompute labels from the oracle and derived properties."""
    exploitable = bool(effective_anonymous_access(config))
    derived = derive(config)
    business_risk = exploitable or (
        derived.exposure is Exposure.PUBLIC_FACING and derived.sensitive_data
    )
    return GroundTruth(
        exploitable=exploitable,
        business_risk=business_risk,
        reason=f"{scenario.id}: {scenario.description}",
    )


def _check_finite(scenario_id: str, proportion: int | float) -> None:
    try:
        finite = math.isfinite(proportion)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise MixError(f"proportion for {scenario_id} must be a finite number")


def _validate_mix(mix: MixSpec) -> None:
    if mix.total < 1:
        raise MixError(f"fleet total must be >= 1, got {mix.total}")
    if not mix.proportions:
        raise MixError("mix has no scenarios")
    for scenario_id, proportion in mix.proportions.items():
        if scenario_id not in _BY_ID:
            raise UnknownScenarioError(f"unknown scenario id {scenario_id!r}")
        if not isinstance(proportion, (int, float)) or isinstance(proportion, bool):
            raise MixError(f"proportion for {scenario_id} must be a number")
        _check_finite(scenario_id, proportion)
        if proportion < 0:
            raise MixError(f"proportion for {scenario_id} must be non-negative")
    total_proportion = sum(mix.proportions.values())
    if abs(total_proportion - 1.0) > 1e-9:
        raise MixError(f"proportions must sum to 1, got {total_proportion!r}")


def _scenario_counts(mix: MixSpec) -> dict[str, int]:
    ordered = [s.id for s in _CATALOG if s.id in mix.proportions]
    counts = {
        sid: math.floor(mix.proportions[sid] * mix.total + 1e-9) for sid in ordered
    }
    remainder = mix.total - sum(counts.values())
    for sid in ordered:
        if remainder <= 0:
            break
        counts[sid] += 1
        remainder -= 1
    return counts


def generate_fleet(mix: MixSpec) -> list[tuple[BucketConfig, GroundTruth]]:
    """Generate exactly ``mix.total`` labeled buckets, deterministically.

    Per-scenario counts are floor(proportion * total), with the remainder
    assigned to scenarios in catalog order. All randomness comes from one
    generator seeded with ``mix.seed``.
    """
    _validate_mix(mix)
    counts = _scenario_counts(mix)
    rng = random.Random(mix.seed)
    fleet: list[tuple[BucketConfig, GroundTruth]] = []
    for scenario in _CATALOG:
        if scenario.id not in counts:
            continue
        for index in range(counts[scenario.id]):
            suffix = "".join(rng.choices("0123456789abcdef", k=6))
            name = f"{scenario.id.lower()}-{index}-{suffix}"
            config = scenario.builder(name, rng)
            fleet.append((config, ground_truth_for(scenario, config)))
    return fleet


# ---------------------------------------------------------------------------
# Ground-truth file format (JSONL alongside the fleet snapshot)
# ---------------------------------------------------------------------------

def serialize_truth_line(name: str, truth: GroundTruth) -> str:
    return json.dumps(
        {
            "name": name,
            "exploitable": truth.exploitable,
            "business_risk": truth.business_risk,
            "reason": truth.reason,
        },
        separators=(",", ":"),
        ensure_ascii=False,
    )


def write_truth(pairs: Iterable[tuple[BucketConfig, GroundTruth]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for config, truth in pairs:
            handle.write(serialize_truth_line(config.name, truth) + "\n")


def load_truth(path: str | Path) -> dict[str, GroundTruth]:
    truths: dict[str, GroundTruth] = {}
    for lineno, text in read_jsonl(path):
        raw = parse_json(text, lambda reason: SchemaError(reason, line=lineno))
        if not isinstance(raw, dict):
            raise SchemaError("truth line must be a JSON object", line=lineno)
        for key, kind in (("name", str), ("exploitable", bool), ("business_risk", bool), ("reason", str)):
            if not isinstance(raw.get(key), kind):
                raise SchemaError(f"field {key!r} missing or mistyped", field=key, line=lineno)
        if raw["name"] in truths:
            raise DuplicateNameError(f"duplicate bucket name {raw['name']!r} (line {lineno})")
        truths[raw["name"]] = GroundTruth(
            exploitable=raw["exploitable"],
            business_risk=raw["business_risk"],
            reason=raw["reason"],
        )
    return truths


def load_mix_file(path: str | Path) -> dict[str, float]:
    """Custom mix file: a JSON object mapping scenario ids to proportions."""
    raw = read_json(path, lambda reason: MixError(f"mix file is {reason}"))
    if not isinstance(raw, dict) or not all(
        isinstance(k, str) and isinstance(v, (int, float)) and not isinstance(v, bool)
        for k, v in raw.items()
    ):
        raise MixError("mix file must map scenario ids to numeric proportions")
    for scenario_id, proportion in raw.items():
        _check_finite(scenario_id, proportion)
    return {k: float(v) for k, v in raw.items()}
