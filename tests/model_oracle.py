"""The snapshot-line parser and the truth loader as they were before their
fast-path rewrites: their test oracles.

``parse_snapshot_line`` and its helpers are kept here unchanged, each check in
its own helper and every object built through its dataclass constructor,
so the one-pass parser in ``bucketlens.model`` is checked against an
independent reading of the same schema: it must return an equal
``BucketConfig`` or raise a ``SchemaError`` with the same message and field.
``load_truth`` is ``bucketlens.fleetgen.load_truth`` before it decoded with
the snapshot parser's scanner and shared equal labels: it must return an
equal dict or raise the same error.

The truth loader reads its file through the package's ``read_jsonl``, which
puts the file and line in front of each error. The snapshot parser's one
addition is its lone-surrogate check, made by re-encoding the value.
"""

from __future__ import annotations

import enum
import itertools
import json
from pathlib import Path
from typing import Any, Mapping

from bucketlens.errors import DuplicateNameError, SchemaError
from bucketlens.fleetgen import GroundTruth
from bucketlens.model import (
    AclGrant,
    BucketConfig,
    Effect,
    GranteeType,
    Permission,
    PolicyStatement,
    PublicAccessBlock,
    parse_json,
    read_jsonl,
)

_TOO_DEEP = "invalid JSON: nested too deeply"
_LONE_SURROGATE = "invalid JSON: lone surrogate in a string"

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


def parse_snapshot_line(text: str) -> BucketConfig:
    """Parse one line of the JSONL snapshot format into a BucketConfig.

    Missing BPA normalizes to all-false, missing tags to an empty map.
    Raises SchemaError naming the offending field.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise SchemaError(_TOO_DEEP) from None
    if "\\u" in text:
        try:
            json.dumps(raw, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:  # a \u escape that spells a lone surrogate
            raise SchemaError(_LONE_SURROGATE) from None
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


def load_truth(path: str | Path) -> dict[str, GroundTruth]:
    truths: dict[str, GroundTruth] = {}

    def parse(text: str) -> None:
        raw = parse_json(text, SchemaError)
        if not isinstance(raw, dict):
            raise SchemaError("truth line must be a JSON object")
        for key, kind in (("name", str), ("exploitable", bool), ("business_risk", bool), ("reason", str)):
            if not isinstance(raw.get(key), kind):
                raise SchemaError(f"field {key!r} missing or mistyped", field=key)
        if raw["name"] in truths:
            raise DuplicateNameError(f"duplicate bucket name {raw['name']!r}")
        truths[raw["name"]] = GroundTruth(
            exploitable=raw["exploitable"],
            business_risk=raw["business_risk"],
            reason=raw["reason"],
        )

    for _ in read_jsonl(path, parse):
        pass
    return truths
