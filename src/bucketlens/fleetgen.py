"""Deterministic synthetic fleets with oracle-derived ground truth.

Each scenario is one catalog entry: a builder, usually ``_bucket`` with the
scenario's grant, policy statement, BPA settings and tags bound, paired with
the outcomes it must produce: the unified conditions expected to fire, a
floor on how many default rules fire, and the expected truth labels.
``_bucket`` draws from the seeded generator in a fixed order (region, the
statement's sid, noise tags, the sensitive tag's spelling), and that order
fixes every seed's fleet bytes. S3 and S7 are the exceptions, with builders
of their own: S3 draws its VPC id, and S7 its deny statement's sid, before
the region.

Scenarios S1-S10 compose the calibrated "paper" mix (benign noise sources
plus genuine exposures); S11 and S12 are adversarial shapes that sit in the
unified rule's blind spots and only appear in the adversarial mix.

Ground-truth labels are always recomputed from the access oracle, never
hard-coded, so a scenario whose template drifts out of line with its declared
expectations fails the expectation tests rather than silently mislabeling.
Truth files are read through ``model.read_jsonl``, which names an error's file and line.
"""

from __future__ import annotations

import json
import math
import random
from functools import partial
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
    Record,
    parse_json,
    read_json,
    read_jsonl,
)
from .policy import SENSITIVE_TAG_KEY, Exposure, derive, effective_anonymous_access


class GroundTruth(Record):
    """Oracle-backed labels for one bucket."""

    exploitable: bool
    business_risk: bool
    reason: str


class Scenario(Record):
    id: str
    description: str
    builder: Callable[[str, random.Random], BucketConfig]
    expected_exploitable: bool
    expected_business_risk: bool
    expected_unified_conditions: tuple[int, ...]  # ascending, as Alert.fired_conditions
    expected_default_rule_count_min: int


class MixSpec(Record):
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


def _bucket(
    name: str,
    rng: random.Random,
    bpa: PublicAccessBlock,
    grant: AclGrant | None = None,
    statement: Callable[[str, random.Random], PolicyStatement] | None = None,
    sensitive: bool = False,
    website: bool = False,
) -> BucketConfig:
    """One synthetic bucket; its draws keep the order the module docstring states."""
    region = rng.choice(_REGIONS)
    policy = None if statement is None else (statement(name, rng),)
    tags = _noise_tags(rng)
    if sensitive:
        tags[SENSITIVE_TAG_KEY] = rng.choice(("true", "True", "TRUE"))
    return BucketConfig(
        name=name,
        region=region,
        acl_grants=() if grant is None else (grant,),
        policy=policy,
        public_access_block=bpa,
        tags=tags,
        website_enabled=website,
    )


def _build_s3(name: str, rng: random.Random) -> BucketConfig:
    # Its own builder because the VPC id is drawn before the region.
    vpc = "vpc-" + "".join(rng.choices("0123456789abcdef", k=8))
    statement = partial(_wildcard_get_statement, condition={"aws:SourceVpc": (vpc,)})
    return _bucket(name, rng, _BPA_OFF, statement=statement)


def _build_s7(name: str, rng: random.Random) -> BucketConfig:
    # Its own builder because the deny statement's sid is drawn before the region.
    deny = PolicyStatement(
        effect=Effect.DENY,
        principal_aws=("*",),
        actions=("s3:*",),
        resources=(f"arn:aws:s3:::{name}", f"arn:aws:s3:::{name}/*"),
        sid=_sid(rng),
    )
    return _bucket(name, rng, _BPA_ON, statement=lambda _name, _rng: deny)


def _group(uri: str, permission: Permission) -> AclGrant:
    return AclGrant(GranteeType.GROUP, uri, permission)


_CATALOG: tuple[Scenario, ...] = (
    Scenario(
        id="S1",
        description="clean private bucket, BPA fully enabled",
        builder=partial(_bucket, bpa=_BPA_ON),
        expected_exploitable=False,
        expected_business_risk=False,
        expected_unified_conditions=(),
        expected_default_rule_count_min=0,
    ),
    Scenario(
        id="S2",
        description="legacy log-delivery ACL grant, otherwise locked down",
        builder=partial(_bucket, bpa=_BPA_ON, grant=_group(LOG_DELIVERY_URI, Permission.WRITE)),
        expected_exploitable=False,
        expected_business_risk=False,
        expected_unified_conditions=(),
        expected_default_rule_count_min=2,
    ),
    Scenario(
        id="S3",
        description="wildcard policy restricted to a VPC, BPA disabled",
        builder=_build_s3,
        expected_exploitable=False,
        expected_business_risk=False,
        expected_unified_conditions=(),
        expected_default_rule_count_min=7,
    ),
    Scenario(
        id="S4",
        description="AllUsers READ ACL grant with BPA disabled",
        builder=partial(_bucket, bpa=_BPA_OFF, grant=_group(ALL_USERS_URI, Permission.READ)),
        expected_exploitable=True,
        expected_business_risk=True,
        expected_unified_conditions=(1,),
        expected_default_rule_count_min=9,
    ),
    Scenario(
        id="S5",
        description="unrestricted wildcard GetObject policy with BPA disabled",
        builder=partial(_bucket, bpa=_BPA_OFF, statement=_wildcard_get_statement),
        expected_exploitable=True,
        expected_business_risk=True,
        expected_unified_conditions=(2, 3, 4),
        expected_default_rule_count_min=9,
    ),
    Scenario(
        id="S6",
        description="public website bucket with sensitive data and open policy",
        builder=partial(
            _bucket, bpa=_BPA_OFF, statement=_wildcard_get_statement, sensitive=True, website=True
        ),
        expected_exploitable=True,
        expected_business_risk=True,
        expected_unified_conditions=(2, 3, 4, 5),
        expected_default_rule_count_min=10,
    ),
    Scenario(
        id="S7",
        description="deny-only wildcard policy, BPA fully enabled",
        builder=_build_s7,
        expected_exploitable=False,
        expected_business_risk=False,
        expected_unified_conditions=(),
        expected_default_rule_count_min=1,
    ),
    Scenario(
        id="S8",
        description="AuthenticatedUsers READ ACL grant with BPA disabled",
        builder=partial(_bucket, bpa=_BPA_OFF, grant=_group(AUTHENTICATED_USERS_URI, Permission.READ)),
        expected_exploitable=True,
        expected_business_risk=True,
        expected_unified_conditions=(1,),
        expected_default_rule_count_min=9,
    ),
    Scenario(
        id="S9",
        description="wildcard GetObject policy neutralized by RestrictPublicBuckets",
        builder=partial(
            _bucket, bpa=PublicAccessBlock(restrict_public_buckets=True), statement=_wildcard_get_statement
        ),
        expected_exploitable=False,
        expected_business_risk=False,
        expected_unified_conditions=(),
        expected_default_rule_count_min=7,
    ),
    Scenario(
        id="S10",
        description="private bucket tagged SensitiveData, BPA fully enabled",
        builder=partial(_bucket, bpa=_BPA_ON, sensitive=True),
        expected_exploitable=False,
        expected_business_risk=False,
        expected_unified_conditions=(),
        expected_default_rule_count_min=0,
    ),
    Scenario(
        id="S11",
        description="AllUsers WRITE-only ACL grant with BPA disabled",
        builder=partial(_bucket, bpa=_BPA_OFF, grant=_group(ALL_USERS_URI, Permission.WRITE)),
        expected_exploitable=True,
        expected_business_risk=True,
        expected_unified_conditions=(),
        expected_default_rule_count_min=9,
    ),
    Scenario(
        id="S12",
        description="AuthenticatedUsers READ grant neutralized by IgnorePublicAcls",
        builder=partial(
            _bucket,
            bpa=PublicAccessBlock(ignore_public_acls=True),
            grant=_group(AUTHENTICATED_USERS_URI, Permission.READ),
        ),
        expected_exploitable=False,
        expected_business_risk=False,
        expected_unified_conditions=(1,),
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


def _check_proportion(scenario_id: str, proportion: object) -> None:
    if not isinstance(proportion, (int, float)) or isinstance(proportion, bool):
        raise MixError(f"proportion for {scenario_id} must be a number")
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
        _check_proportion(scenario_id, proportion)
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

# json.dumps(ensure_ascii=False)'s own string escaper, so the line is what
# json.dumps(separators=(",", ":"), ensure_ascii=False) writes for its dict
_string = json.encoder.encode_basestring
_BOOL = {False: "false", True: "true"}


def serialize_truth_line(name: str, truth: GroundTruth) -> str:
    return (
        f'{{"name":{_string(name)},"exploitable":{_BOOL[truth.exploitable]},'
        f'"business_risk":{_BOOL[truth.business_risk]},"reason":{_string(truth.reason)}}}'
    )


def write_truth(pairs: Iterable[tuple[BucketConfig, GroundTruth]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(f"{serialize_truth_line(config.name, truth)}\n" for config, truth in pairs)


_TRUTH_FIELDS = (("name", str), ("exploitable", bool), ("business_risk", bool), ("reason", str))


def load_truth(path: str | Path) -> dict[str, GroundTruth]:
    """Load a truth JSONL file; bucket names must be unique.

    Buckets with equal labels share one ``GroundTruth``: a fleet has a
    handful of distinct labels across thousands of lines.
    """
    truths: dict[str, GroundTruth] = {}
    shared: dict[tuple[bool, bool, str], GroundTruth] = {}

    def parse(text: str) -> tuple[str, GroundTruth]:
        raw = parse_json(text, SchemaError)
        if type(raw) is not dict:
            raise SchemaError("truth line must be a JSON object")
        get = raw.get
        name, exploitable, risk, reason = get("name"), get("exploitable"), get("business_risk"), get("reason")
        if not (type(name) is str and type(exploitable) is bool and type(risk) is bool and type(reason) is str):
            for key, kind in _TRUTH_FIELDS:
                if type(get(key)) is not kind:
                    raise SchemaError(f"field {key!r} missing or mistyped", field=key)
        if name in truths:
            raise DuplicateNameError(f"duplicate bucket name {name!r}")
        label = (exploitable, risk, reason)
        truth = shared.get(label)
        if truth is None:
            truth = shared[label] = GroundTruth(*label)
        return name, truth

    truths.update(read_jsonl(path, parse))  # pair by pair, so parse sees each earlier name
    return truths


def load_mix_file(path: str | Path) -> dict[str, float]:
    """Custom mix file: a JSON object mapping scenario ids to proportions.
    Each error's message starts with ``path``."""
    try:
        raw = read_json(path, lambda reason: MixError(f"mix file is {reason}"))
        if not isinstance(raw, dict):
            raise MixError("mix file must map scenario ids to numeric proportions")
        for scenario_id, proportion in raw.items():
            _check_proportion(scenario_id, proportion)
    except MixError as exc:
        raise MixError(f"{path}: {exc}") from None
    return {k: float(v) for k, v in raw.items()}
