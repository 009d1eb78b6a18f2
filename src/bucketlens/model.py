"""Bucket configuration data model and offline ingestion.

Two input formats are supported:

* the native snapshot format: JSONL, one bucket object per line, with the
  schema documented in the README (``parse_snapshot_line`` / ``load_fleet``);
* AWS-CLI-shaped per-bucket artifact directories containing ``acl.json`` and
  optionally ``policy.json``, ``public-access-block.json``, ``tagging.json``
  and ``website.json`` (``import_aws_artifacts``).

Both produce the same normalized, immutable :class:`BucketConfig`:

* absent Block Public Access configuration becomes all-false flags;
* absent tags become an empty map;
* principal forms ``"*"``, ``{"AWS": "*"}`` and ``{"AWS": ["*"]}`` become
  ``("*",)``;
* single-string actions/resources become one-element tuples.

``serialize_snapshot_line`` emits the canonical snapshot form; parsing it
back yields a field-by-field identical record.
"""

from __future__ import annotations

import enum
import itertools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from .errors import DuplicateNameError, MissingArtifactError, SchemaError

_NAME_RE = re.compile(r"^[a-z0-9.-]{3,63}$")

# json raises RecursionError on deeply nested documents
_TOO_DEEP = "invalid JSON: nested too deeply"

ALL_USERS_URI = "http://acs.amazonaws.com/groups/global/AllUsers"
AUTHENTICATED_USERS_URI = "http://acs.amazonaws.com/groups/global/AuthenticatedUsers"
LOG_DELIVERY_URI = "http://acs.amazonaws.com/groups/s3/LogDelivery"


class GranteeType(enum.Enum):
    GROUP = "Group"
    CANONICAL_USER = "CanonicalUser"
    EMAIL = "Email"


class Permission(enum.Enum):
    READ = "READ"
    WRITE = "WRITE"
    READ_ACP = "READ_ACP"
    WRITE_ACP = "WRITE_ACP"
    FULL_CONTROL = "FULL_CONTROL"


class Effect(enum.Enum):
    ALLOW = "Allow"
    DENY = "Deny"


class Severity(enum.Enum):
    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"


@dataclass(frozen=True, slots=True)
class AclGrant:
    """One bucket ACL grant."""

    grantee_type: GranteeType
    grantee_uri: str
    permission: Permission

    def __post_init__(self) -> None:
        if not self.grantee_uri:
            raise SchemaError("grantee_uri must be non-empty", field="grantee_uri")


@dataclass(frozen=True, slots=True)
class PolicyStatement:
    """One normalized bucket-policy statement."""

    effect: Effect
    principal_aws: tuple[str, ...]
    actions: tuple[str, ...]
    resources: tuple[str, ...] = ()
    sid: str | None = None
    condition: Mapping[str, tuple[str, ...]] | None = None

    def __post_init__(self) -> None:
        if not self.actions:
            raise SchemaError("statement actions must be non-empty", field="actions")


@dataclass(frozen=True, slots=True)
class PublicAccessBlock:
    """The four Block Public Access flags; absent configuration is all-false."""

    block_public_acls: bool = False
    ignore_public_acls: bool = False
    block_public_policy: bool = False
    restrict_public_buckets: bool = False


@dataclass(frozen=True, slots=True)
class BucketConfig:
    """Full security posture of one bucket.

    Immutable after construction; safe to share across concurrent readers.
    """

    name: str
    region: str = "us-east-1"
    acl_grants: tuple[AclGrant, ...] = ()
    policy: tuple[PolicyStatement, ...] | None = None
    public_access_block: PublicAccessBlock = PublicAccessBlock()
    tags: Mapping[str, str] = field(default_factory=dict)
    website_enabled: bool = False

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise SchemaError(
                f"invalid bucket name {self.name!r}: expected 3-63 chars of "
                "lowercase letters, digits, dots, hyphens",
                field="name",
            )


# ---------------------------------------------------------------------------
# Snapshot format (JSONL)
# ---------------------------------------------------------------------------

_ABSENT = object()


def _require(obj: Mapping[str, Any], key: str, kind: type) -> Any:
    value = obj.get(key, _ABSENT)
    # json.loads yields exact builtin types, so this is the common case
    if type(value) is kind:
        return value
    if value is _ABSENT:
        raise SchemaError(f"missing required field {key!r}", field=key)
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise SchemaError(
            f"field {key!r} must be {kind.__name__}, got {type(value).__name__}", field=key
        )
    return value


def _optional(obj: Mapping[str, Any], key: str, kind: type, default: Any) -> Any:
    value = obj.get(key, _ABSENT)
    if type(value) is kind:
        return value
    if value is _ABSENT:
        return default
    return _require(obj, key, kind)


_ENUM_MEMBERS: dict[type[enum.Enum], dict[Any, enum.Enum]] = {
    enum_cls: {member.value: member for member in enum_cls}
    for enum_cls in (GranteeType, Permission, Effect)
}


def _enum_value(raw: Any, enum_cls: type[enum.Enum], fieldname: str) -> Any:
    try:
        return _ENUM_MEMBERS[enum_cls][raw]
    except (KeyError, TypeError):  # TypeError: an unhashable value such as a list
        allowed = ", ".join(m.value for m in enum_cls)
        raise SchemaError(f"unknown {fieldname} {raw!r} (allowed: {allowed})", field=fieldname) from None


def _check_no_extra_keys(obj: Mapping[str, Any], allowed: frozenset[str], where: str) -> None:
    if allowed.issuperset(obj):
        return
    extra = sorted(set(obj) - allowed)
    raise SchemaError(f"unknown field(s) in {where}: {', '.join(extra)}", field=extra[0])


_TOP_KEYS = frozenset(
    {"name", "region", "acl_grants", "policy", "public_access_block", "tags", "website_enabled"}
)
_GRANT_KEYS = frozenset({"grantee_type", "grantee_uri", "permission"})
_STMT_KEYS = frozenset({"sid", "effect", "principal_aws", "actions", "resources", "condition"})
_BPA_KEYS = frozenset(
    {"block_public_acls", "ignore_public_acls", "block_public_policy", "restrict_public_buckets"}
)


def _string_list(raw: Any, fieldname: str) -> tuple[str, ...]:
    if isinstance(raw, str):
        return (raw,)
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        raise SchemaError(f"field {fieldname!r} must be a list of strings", field=fieldname)
    return tuple(raw)


def _parse_condition(raw: Any) -> dict[str, tuple[str, ...]] | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise SchemaError("field 'condition' must be an object", field="condition")
    out: dict[str, tuple[str, ...]] = {}
    for key, values in raw.items():
        out[key] = _string_list(values, f"condition.{key}")
    return out or None


def _parse_grant(raw: Any) -> AclGrant:
    if not isinstance(raw, dict):
        raise SchemaError("each acl_grants entry must be an object", field="acl_grants")
    _check_no_extra_keys(raw, _GRANT_KEYS, "acl_grants entry")
    return AclGrant(
        grantee_type=_enum_value(_require(raw, "grantee_type", str), GranteeType, "grantee_type"),
        grantee_uri=_require(raw, "grantee_uri", str),
        permission=_enum_value(_require(raw, "permission", str), Permission, "permission"),
    )


def _parse_statement(raw: Any) -> PolicyStatement:
    if not isinstance(raw, dict):
        raise SchemaError("each policy entry must be an object", field="policy")
    _check_no_extra_keys(raw, _STMT_KEYS, "policy statement")
    sid = raw.get("sid")
    if sid is not None and not isinstance(sid, str):
        raise SchemaError("field 'sid' must be a string", field="sid")
    return PolicyStatement(
        effect=_enum_value(_require(raw, "effect", str), Effect, "effect"),
        principal_aws=_string_list(_require(raw, "principal_aws", list), "principal_aws"),
        actions=_string_list(_require(raw, "actions", list), "actions"),
        resources=_string_list(_optional(raw, "resources", list, []), "resources"),
        sid=sid,
        condition=_parse_condition(raw.get("condition")),
    )


# The 16 possible flag sets, built once and shared: PublicAccessBlock is immutable.
_BPA_BY_FLAGS = {flags: PublicAccessBlock(*flags) for flags in itertools.product((False, True), repeat=4)}


def _parse_bpa(raw: Any) -> PublicAccessBlock:
    if raw is None:
        return PublicAccessBlock()
    if not isinstance(raw, dict):
        raise SchemaError("field 'public_access_block' must be an object", field="public_access_block")
    _check_no_extra_keys(raw, _BPA_KEYS, "public_access_block")
    return _BPA_BY_FLAGS[(
        _require(raw, "block_public_acls", bool),
        _require(raw, "ignore_public_acls", bool),
        _require(raw, "block_public_policy", bool),
        _require(raw, "restrict_public_buckets", bool),
    )]


def parse_snapshot_line(text: str, *, line: int | None = None) -> BucketConfig:
    """Parse one line of the JSONL snapshot format into a BucketConfig.

    Missing BPA normalizes to all-false, missing tags to an empty map.
    Raises SchemaError naming the offending field (and line, when given).
    """
    try:
        return _parse_record(text)
    except SchemaError as exc:
        # the one place line numbers are added, for the checks in _parse_record
        # and in the model classes' __post_init__ alike
        if line is None:
            raise
        raise SchemaError(exc.message, field=exc.field, line=line) from None


def _parse_record(text: str) -> BucketConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise SchemaError(_TOO_DEEP) from None
    if not isinstance(raw, dict):
        raise SchemaError("snapshot line must be a JSON object")
    _check_no_extra_keys(raw, _TOP_KEYS, "bucket record")

    name = _require(raw, "name", str)
    grants_raw = _optional(raw, "acl_grants", list, [])
    policy_raw = raw.get("policy")
    if policy_raw is not None and not isinstance(policy_raw, list):
        raise SchemaError("field 'policy' must be an array", field="policy")
    tags_raw = _optional(raw, "tags", dict, {})
    for key, value in tags_raw.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise SchemaError("tags must map strings to strings", field="tags")

    return BucketConfig(
        name=name,  # validated by BucketConfig
        region=_optional(raw, "region", str, "us-east-1"),
        acl_grants=tuple(_parse_grant(g) for g in grants_raw),
        policy=None if policy_raw is None else tuple(_parse_statement(s) for s in policy_raw),
        public_access_block=_parse_bpa(raw.get("public_access_block")),
        tags=dict(tags_raw),
        website_enabled=_optional(raw, "website_enabled", bool, False),
    )


def to_snapshot_dict(config: BucketConfig) -> dict[str, Any]:
    """Canonical dict form of a BucketConfig, with stable key order."""
    out: dict[str, Any] = {
        "name": config.name,
        "region": config.region,
        "acl_grants": [
            {
                "grantee_type": g.grantee_type.value,
                "grantee_uri": g.grantee_uri,
                "permission": g.permission.value,
            }
            for g in config.acl_grants
        ],
    }
    if config.policy is not None:
        stmts = []
        for s in config.policy:
            stmt: dict[str, Any] = {}
            if s.sid is not None:
                stmt["sid"] = s.sid
            stmt["effect"] = s.effect.value
            stmt["principal_aws"] = list(s.principal_aws)
            stmt["actions"] = list(s.actions)
            stmt["resources"] = list(s.resources)
            if s.condition is not None:
                stmt["condition"] = {k: list(s.condition[k]) for k in sorted(s.condition)}
            stmts.append(stmt)
        out["policy"] = stmts
    bpa = config.public_access_block
    out["public_access_block"] = {
        "block_public_acls": bpa.block_public_acls,
        "ignore_public_acls": bpa.ignore_public_acls,
        "block_public_policy": bpa.block_public_policy,
        "restrict_public_buckets": bpa.restrict_public_buckets,
    }
    out["tags"] = {k: config.tags[k] for k in sorted(config.tags)}
    out["website_enabled"] = config.website_enabled
    return out


def serialize_snapshot_line(config: BucketConfig) -> str:
    """Canonical single-line snapshot serialization (no trailing newline)."""
    return json.dumps(to_snapshot_dict(config), separators=(",", ":"), ensure_ascii=False)


def load_fleet(path: str | Path) -> list[BucketConfig]:
    """Load a snapshot JSONL file; bucket names must be unique."""
    buckets: list[BucketConfig] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as handle:
        try:
            for lineno, text in enumerate(handle, start=1):
                if not text.strip():
                    continue
                config = parse_snapshot_line(text, line=lineno)
                if config.name in seen:
                    raise DuplicateNameError(f"duplicate bucket name {config.name!r} (line {lineno})")
                seen.add(config.name)
                buckets.append(config)
        except UnicodeDecodeError:
            raise invalid_utf8_error(path) from None
    return buckets


def invalid_utf8_error(path: str | Path) -> SchemaError:
    """The SchemaError for a JSONL file that is not UTF-8, naming its first bad line.

    Text reads decode in blocks, so the decode error does not tell which
    line failed; the file is read again, as bytes, to find it.
    """
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return SchemaError(f"invalid UTF-8: {exc.reason}", line=lineno)
    return SchemaError("invalid UTF-8")


def write_fleet(buckets: Iterable[BucketConfig], path: str | Path) -> None:
    """Write buckets as canonical snapshot JSONL."""
    with open(path, "w", encoding="utf-8") as handle:
        for config in buckets:
            handle.write(serialize_snapshot_line(config) + "\n")


# ---------------------------------------------------------------------------
# AWS-CLI-shaped artifact directories
# ---------------------------------------------------------------------------

_AWS_GRANTEE_TYPES = {
    "Group": GranteeType.GROUP,
    "CanonicalUser": GranteeType.CANONICAL_USER,
    "AmazonCustomerByEmail": GranteeType.EMAIL,
}


def _load_json_file(path: Path) -> Any:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path.name}: invalid JSON: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path.name}: invalid UTF-8: {exc.reason}", offset=exc.start) from None
    except RecursionError:
        raise SchemaError(f"{path.name}: {_TOO_DEEP}") from None


def _import_acl(path: Path) -> tuple[AclGrant, ...]:
    raw = _load_json_file(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("Grants"), list):
        raise SchemaError(f"{path.name}: expected an object with a 'Grants' array")
    grants: list[AclGrant] = []
    for entry in raw["Grants"]:
        if not isinstance(entry, dict) or "Grantee" not in entry or "Permission" not in entry:
            raise SchemaError(f"{path.name}: each grant needs 'Grantee' and 'Permission'")
        grantee = entry["Grantee"]
        if not isinstance(grantee, dict):
            raise SchemaError(f"{path.name}: 'Grantee' must be an object", field="Grantee")
        gtype_raw = grantee.get("Type")
        if not isinstance(gtype_raw, str) or gtype_raw not in _AWS_GRANTEE_TYPES:
            raise SchemaError(f"{path.name}: unknown grantee type {gtype_raw!r}", field="Grantee.Type")
        gtype = _AWS_GRANTEE_TYPES[gtype_raw]
        if gtype is GranteeType.GROUP:
            identifier = grantee.get("URI")
        elif gtype is GranteeType.CANONICAL_USER:
            identifier = grantee.get("ID")
        else:
            identifier = grantee.get("EmailAddress")
        if not isinstance(identifier, str) or not identifier:
            raise SchemaError(f"{path.name}: grantee is missing its identifier", field="Grantee")
        grants.append(
            AclGrant(
                grantee_type=gtype,
                grantee_uri=identifier,
                permission=_enum_value(entry["Permission"], Permission, "Permission"),
            )
        )
    return tuple(grants)


def _normalize_principal(raw: Any, path: Path) -> tuple[str, ...]:
    if raw == "*":
        return ("*",)
    if isinstance(raw, dict):
        aws = raw.get("AWS", [])
        if isinstance(aws, str):
            return (aws,)
        if isinstance(aws, list) and all(isinstance(x, str) for x in aws):
            return tuple(aws)
    raise SchemaError(f"{path.name}: unsupported Principal form {raw!r}", field="Principal")


def _flatten_condition(raw: Any, path: Path) -> dict[str, tuple[str, ...]] | None:
    # AWS nests condition keys under operators ({"IpAddress": {"aws:SourceIp": ...}});
    # the model keys on the condition key alone.
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise SchemaError(f"{path.name}: 'Condition' must be an object", field="Condition")
    flat: dict[str, list[str]] = {}
    for operator_block in raw.values():
        if not isinstance(operator_block, dict):
            raise SchemaError(f"{path.name}: condition operator value must be an object", field="Condition")
        for key, values in operator_block.items():
            if isinstance(values, list):
                values = [_condition_text(v) for v in values]
            else:
                values = _condition_text(values)
            flat.setdefault(key, []).extend(_string_list(values, f"Condition.{key}"))
    return {k: tuple(v) for k, v in flat.items()} or None


def _condition_text(value: Any) -> Any:
    # AWS accepts JSON booleans and numbers as condition values
    # ({"Bool": {"aws:SecureTransport": false}}); the model keeps their JSON text.
    if isinstance(value, (bool, int, float)):
        return json.dumps(value)
    return value


def _import_policy(path: Path) -> tuple[PolicyStatement, ...]:
    raw = _load_json_file(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("Policy"), str):
        raise SchemaError(f"{path.name}: expected an object with a 'Policy' string")
    try:
        document = json.loads(raw["Policy"])
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path.name}: embedded policy document is invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise SchemaError(f"{path.name}: embedded policy document is {_TOO_DEEP}") from None
    if not isinstance(document, dict):
        raise SchemaError(f"{path.name}: embedded policy document must be a JSON object")
    statements_raw = document.get("Statement", [])
    if isinstance(statements_raw, dict):
        statements_raw = [statements_raw]
    if not isinstance(statements_raw, list):
        raise SchemaError(f"{path.name}: 'Statement' must be an object or an array", field="Statement")
    statements: list[PolicyStatement] = []
    for stmt in statements_raw:
        if not isinstance(stmt, dict):
            raise SchemaError(f"{path.name}: each Statement entry must be an object")
        if "Principal" not in stmt:
            raise SchemaError(f"{path.name}: bucket-policy statement is missing 'Principal'", field="Principal")
        actions = stmt.get("Action")
        if actions is None:
            raise SchemaError(f"{path.name}: statement is missing 'Action'", field="Action")
        sid = stmt.get("Sid")
        if sid is not None and not isinstance(sid, str):
            raise SchemaError(f"{path.name}: 'Sid' must be a string", field="Sid")
        statements.append(
            PolicyStatement(
                effect=_enum_value(stmt.get("Effect"), Effect, "Effect"),
                principal_aws=_normalize_principal(stmt["Principal"], path),
                actions=_string_list(actions, "Action"),
                resources=_string_list(stmt.get("Resource", []), "Resource"),
                sid=sid,
                condition=_flatten_condition(stmt.get("Condition"), path),
            )
        )
    return tuple(statements)


def _import_bpa(path: Path) -> PublicAccessBlock:
    raw = _load_json_file(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("PublicAccessBlockConfiguration"), dict):
        raise SchemaError(f"{path.name}: expected a 'PublicAccessBlockConfiguration' object")
    cfg = raw["PublicAccessBlockConfiguration"]
    flags = []
    for key in ("BlockPublicAcls", "IgnorePublicAcls", "BlockPublicPolicy", "RestrictPublicBuckets"):
        # only JSON booleans: "false" or 1 must not pass for a setting
        value = cfg.get(key, False)
        if not isinstance(value, bool):
            raise SchemaError(f"{path.name}: {key} must be true or false, got {value!r}", field=key)
        flags.append(value)
    return _BPA_BY_FLAGS[tuple(flags)]


def _import_tags(path: Path) -> dict[str, str]:
    raw = _load_json_file(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("TagSet"), list):
        raise SchemaError(f"{path.name}: expected a 'TagSet' array")
    tags: dict[str, str] = {}
    for entry in raw["TagSet"]:
        if not isinstance(entry, dict) or "Key" not in entry or "Value" not in entry:
            raise SchemaError(f"{path.name}: each TagSet entry needs 'Key' and 'Value'")
        key, value = entry["Key"], entry["Value"]
        if not isinstance(key, str) or not isinstance(value, str):
            raise SchemaError(f"{path.name}: tag 'Key' and 'Value' must be strings", field="TagSet")
        if key in tags:
            raise SchemaError(f"{path.name}: duplicate tag key {key!r}", field="TagSet")
        tags[key] = value
    return tags


def import_aws_artifacts(directory: str | Path) -> BucketConfig:
    """Assemble a BucketConfig from an AWS-CLI-shaped artifact directory.

    The directory name is the bucket name. ``acl.json`` is mandatory; all
    other artifact files are optional and default to the same normalized
    values the snapshot parser applies.
    """
    directory = Path(directory)
    acl_path = directory / "acl.json"
    if not acl_path.is_file():
        raise MissingArtifactError(f"mandatory artifact {acl_path} is missing")

    policy_path = directory / "policy.json"
    bpa_path = directory / "public-access-block.json"
    tagging_path = directory / "tagging.json"
    website_path = directory / "website.json"
    if website_path.is_file():
        _load_json_file(website_path)  # validate only; presence means enabled

    return BucketConfig(
        name=directory.name,
        region="us-east-1",
        acl_grants=_import_acl(acl_path),
        policy=_import_policy(policy_path) if policy_path.is_file() else None,
        public_access_block=_import_bpa(bpa_path) if bpa_path.is_file() else PublicAccessBlock(),
        tags=_import_tags(tagging_path) if tagging_path.is_file() else {},
        website_enabled=website_path.is_file(),
    )
