"""Bucket configuration data model and offline ingestion.

Two input formats are supported:

* the native snapshot format: JSONL, one bucket object per line, with the
  schema documented in the README (``parse_snapshot_line``, and ``iter_fleet`` /
  ``load_fleet`` for a whole file);
* AWS-CLI-shaped per-bucket artifact directories containing ``acl.json`` and
  optionally ``policy.json``, ``public-access-block.json``, ``tagging.json``
  and ``website.json`` (``import_aws_artifacts``; each error in one of these
  files starts with the file's path).

Both produce the same normalized, immutable :class:`BucketConfig`:

* absent Block Public Access configuration becomes all-false flags;
* absent tags become an empty map;
* principal forms ``"*"``, ``{"AWS": "*"}`` and ``{"AWS": ["*"]}`` become
  ``("*",)``;
* single-string actions/resources become one-element tuples.

``serialize_snapshot_line`` writes the canonical snapshot form from string
templates; parsing it back yields a field-by-field identical record.

The module also holds :class:`Alert`, the one record both rulesets emit
(``defaults`` and ``unified`` build it with ``new_alert``).

Every record class of the package derives from :class:`Record`, which gives
it what ``@dataclass(frozen=True, slots=True)`` would: slots, ``__init__``,
``==``, ``hash``, ``repr``, pickling, ``replace`` and frozen fields, all read
from the class's ``_fields`` table. ``__init__`` and ``hash``, which the
commands call per bucket, are copies of fixed templates with the field names
put in, so no source is compiled when a class is made, and no command imports
``dataclasses``, which would also load ``inspect``. ``==``, which no command
calls, is one method of ``Record``.

Every input file is read through ``read_utf8``, ``read_json`` or
``read_jsonl``, and decoded by ``parse_json``; they turn each way a file fails
to decode (not UTF-8, invalid JSON, nested too deeply, an integer with too
many digits, a lone surrogate) into the caller's ``BucketlensError``.
``read_jsonl`` puts the file and line in front of each JSONL error.
"""

from __future__ import annotations

import enum
import itertools
import json
import operator
import os
import re
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from .errors import DuplicateNameError, FrozenInstanceError, MissingArtifactError, SchemaError

_NAME_RE = re.compile(r"^[a-z0-9.-]{3,63}\Z")  # \Z: "$" would also match before a final newline

ALL_USERS_URI = "http://acs.amazonaws.com/groups/global/AllUsers"
AUTHENTICATED_USERS_URI = "http://acs.amazonaws.com/groups/global/AuthenticatedUsers"
LOG_DELIVERY_URI = "http://acs.amazonaws.com/groups/s3/LogDelivery"


# Each model enum hashes by identity, in C: members are singletons compared by
# identity, and Enum's own Python-level hash of the member name varies per
# process just the same. The parser's grant keys and the default catalog's
# signature keys hash these members on every bucket.
class GranteeType(enum.Enum):
    __hash__ = object.__hash__

    GROUP = "Group"
    CANONICAL_USER = "CanonicalUser"
    EMAIL = "Email"


class Permission(enum.Enum):
    __hash__ = object.__hash__

    READ = "READ"
    WRITE = "WRITE"
    READ_ACP = "READ_ACP"
    WRITE_ACP = "WRITE_ACP"
    FULL_CONTROL = "FULL_CONTROL"


class Effect(enum.Enum):
    __hash__ = object.__hash__

    ALLOW = "Allow"
    DENY = "Deny"


class Severity(enum.Enum):
    __hash__ = object.__hash__

    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

_NO_DEFAULT: Any = object()


class Field:
    """One field of a record class, as its ``_fields`` table holds it.

    ``hash`` None means "as ``compare``"; a field with ``init`` false is
    set by the class's ``__post_init__``.
    """

    __slots__ = ("name", "default", "default_factory", "init", "repr", "hash", "compare")

    def __init__(
        self,
        default: Any = _NO_DEFAULT,
        default_factory: Callable[[], Any] | None = None,
        init: bool = True,
        repr: bool = True,
        hash: bool | None = None,
        compare: bool = True,
    ) -> None:
        self.name = ""  # set when the class is built
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.repr = repr
        self.hash = compare if hash is None else hash
        self.compare = compare


def field(**options: Any) -> Any:
    """A field declaration for a record class body: ``x: T = field(...)``
    with ``Field``'s options, as ``dataclasses.field`` takes them."""
    return Field(**options)


# Templates of the methods built for a record class, by field count. A copy
# of one has each placeholder ``_<i>`` renamed to the class's i-th field
# (``_renamed``), so the copy is the method a dataclass would compile from
# source, without compiling anything: ``__init__`` binds its arguments, and
# ``hash`` reads the fields, as fast as hand-written methods do. Both run per
# bucket: ``generate`` builds records, and the default catalog hashes its
# signature keys. An ``__init__`` sets each field through its slot's setter
# and then calls ``post`` (the class's ``__post_init__``) if there is one.

def _init_1(s0, post):
    def __init__(self, _0):
        s0(self, _0)
        if post:
            post(self)
    return __init__


def _init_2(s0, s1, post):
    def __init__(self, _0, _1):
        s0(self, _0), s1(self, _1)
        if post:
            post(self)
    return __init__


def _init_3(s0, s1, s2, post):
    def __init__(self, _0, _1, _2):
        s0(self, _0), s1(self, _1), s2(self, _2)
        if post:
            post(self)
    return __init__


def _init_4(s0, s1, s2, s3, post):
    def __init__(self, _0, _1, _2, _3):
        s0(self, _0), s1(self, _1), s2(self, _2), s3(self, _3)
        if post:
            post(self)
    return __init__


def _init_5(s0, s1, s2, s3, s4, post):
    def __init__(self, _0, _1, _2, _3, _4):
        s0(self, _0), s1(self, _1), s2(self, _2), s3(self, _3), s4(self, _4)
        if post:
            post(self)
    return __init__


def _init_6(s0, s1, s2, s3, s4, s5, post):
    def __init__(self, _0, _1, _2, _3, _4, _5):
        s0(self, _0), s1(self, _1), s2(self, _2), s3(self, _3), s4(self, _4), s5(self, _5)
        if post:
            post(self)
    return __init__


def _init_7(s0, s1, s2, s3, s4, s5, s6, post):
    def __init__(self, _0, _1, _2, _3, _4, _5, _6):
        s0(self, _0), s1(self, _1), s2(self, _2), s3(self, _3), s4(self, _4), s5(self, _5), s6(self, _6)
        if post:
            post(self)
    return __init__


def _hash_1(self):
    return hash((self._0,))


def _hash_2(self):
    return hash((self._0, self._1))


def _hash_3(self):
    return hash((self._0, self._1, self._2))


def _hash_4(self):
    return hash((self._0, self._1, self._2, self._3))


def _hash_5(self):
    return hash((self._0, self._1, self._2, self._3, self._4))


def _hash_6(self):
    return hash((self._0, self._1, self._2, self._3, self._4, self._5))


def _hash_7(self):
    return hash((self._0, self._1, self._2, self._3, self._4, self._5, self._6))


_INITS = (_init_1, _init_2, _init_3, _init_4, _init_5, _init_6, _init_7)
_HASHES = (_hash_1, _hash_2, _hash_3, _hash_4, _hash_5, _hash_6, _hash_7)


def _renamed(function: Any, cls: type, fields: Iterable[Field]) -> Any:
    """A copy of the template ``function``, a method of ``cls``, whose
    placeholders ``_0``, ``_1``, ... are the names of ``fields``."""
    names = {f"_{i}": f.name for i, f in enumerate(fields)}
    code = function.__code__
    code = code.replace(
        co_varnames=tuple(names.get(name, name) for name in code.co_varnames),
        co_names=tuple(names.get(name, name) for name in code.co_names),
    )
    method = type(function)(code, function.__globals__, code.co_name, None, function.__closure__)
    method.__qualname__ = f"{cls.__qualname__}.{code.co_name}"
    method.__module__ = cls.__module__
    return method


def _slot_setters(cls: type) -> tuple[Any, ...]:
    """The ``__set__`` of each field's member descriptor, in field order."""
    return tuple(cls.__dict__[f.name].__set__ for f in cls._fields)


def _factory_setter(set_field: Callable[[Any, Any], None], factory: Callable[[], Any]) -> Callable[[Any, Any], None]:
    """``set_field``, with ``factory()`` set in place of the missing-argument default."""

    def set_or_make(record: Any, value: Any) -> None:
        set_field(record, factory() if value is _NO_DEFAULT else value)

    return set_or_make


class _RecordType(type):
    """The metaclass of ``Record``: a class's annotated names become its
    slots and its ``_fields`` table, from which its methods are built."""

    def __new__(mcls, name: str, bases: tuple[type, ...], namespace: dict[str, Any]) -> type:
        table = []
        for field_name in namespace.get("__annotations__", {}):
            value = namespace.pop(field_name, _NO_DEFAULT)
            spec = value if isinstance(value, Field) else Field(default=value)
            spec.name = field_name
            table.append(spec)
        namespace["__slots__"] = tuple(spec.name for spec in table)
        cls = super().__new__(mcls, name, bases, namespace)
        if table:
            if any(getattr(base, "_fields", ()) for base in bases):
                raise TypeError(f"{name}: a record class with fields cannot be extended with more")
            _build_record(cls, tuple(table))
        return cls


def _build_record(cls: Any, table: tuple[Field, ...]) -> None:
    """Give ``cls`` its field table, ``__init__``, ``hash``, ``__match_args__``,
    and the getter of its compared fields that ``Record.__eq__`` reads."""
    cls._fields = table
    params = [f for f in table if f.init]
    defaults = []
    for f in params:
        if f.default_factory is not None:
            defaults.append(_NO_DEFAULT)
        elif f.default is not _NO_DEFAULT:
            defaults.append(f.default)
        elif defaults:
            raise TypeError(f"{cls.__name__}: field {f.name!r} without a default follows one with a default")
    hashed = [f for f in table if f.hash]
    if not all(1 <= len(group) <= 7 for group in (params, hashed)):
        raise TypeError(f"{cls.__name__}: a record has 1 to 7 fields that __init__ and hash each read")
    if any(f.name == "self" for f in params):
        raise TypeError(f"{cls.__name__}: no field can be named 'self', the name of __init__'s first argument")
    setters = dict(zip(table, _slot_setters(cls)))
    init = _INITS[len(params) - 1](
        *(setters[f] if f.default_factory is None else _factory_setter(setters[f], f.default_factory) for f in params),
        cls.__dict__.get("__post_init__"),
    )
    cls.__init__ = _renamed(init, cls, params)
    cls.__init__.__defaults__ = tuple(defaults) or None
    # led by the class, which both sides of an == share, so the getter gives a tuple for one field too
    cls._compared = operator.attrgetter("__class__", *(f.name for f in table if f.compare))
    cls.__hash__ = _renamed(_HASHES[len(hashed) - 1], cls, hashed)
    cls.__match_args__ = tuple(f.name for f in params)


class Record(metaclass=_RecordType):
    """Base of the package's immutable records, which behave as
    ``@dataclass(frozen=True, slots=True)`` classes do.

    A subclass declares its fields as annotated class attributes, in order,
    a default as the value and other options with ``field(...)``. Each name
    becomes a slot, and the class gets ``__init__`` (positional or keyword
    arguments, then ``__post_init__`` if the class defines it) and ``hash``
    over its hashed fields; ``==`` over its compared fields, ``repr``,
    pickling and ``replace`` are methods of ``Record`` that every class
    shares. Assigning to or deleting a field raises ``FrozenInstanceError``.
    ``_fields`` is the class's table of ``Field`` specs, in order.
    """

    __slots__ = ()
    _fields = ()  # a tuple of Field; not annotated, as an annotation would make it a field

    def __eq__(self, other: object) -> Any:
        """Equal to a record of the same class whose compared fields equal
        this one's, as tuples compare; ``NotImplemented`` for anything else."""
        if other.__class__ is self.__class__:
            return self._compared(self) == self._compared(other)
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in self._fields if f.repr)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self) -> list[Any]:
        return [getattr(self, f.name) for f in self._fields]

    def __setstate__(self, state: list[Any]) -> None:
        for set_field, value in zip(_slot_setters(self.__class__), state):
            set_field(self, value)

    def replace(self, **changes: Any) -> Any:
        """A copy with the given fields changed, built through ``__init__``
        (as ``dataclasses.replace`` does); also ``copy.replace`` from Python 3.13."""
        for f in self._fields:
            if not f.init:
                if f.name in changes:
                    raise TypeError(
                        f"field {f.name} is declared with init=False, it cannot be specified with replace()"
                    )
            elif f.name not in changes:
                changes[f.name] = getattr(self, f.name)
        return self.__class__(**changes)

    __replace__ = replace


class AclGrant(Record):
    """One bucket ACL grant."""

    grantee_type: GranteeType
    grantee_uri: str
    permission: Permission

    def __post_init__(self) -> None:
        if not self.grantee_uri:
            raise SchemaError("grantee_uri must be non-empty", field="grantee_uri")


class PolicyStatement(Record):
    """One normalized bucket-policy statement."""

    effect: Effect
    principal_aws: tuple[str, ...]
    actions: tuple[str, ...]
    resources: tuple[str, ...] = ()
    sid: str | None = None
    #: left out of hash, as a dict; see BucketConfig
    condition: Mapping[str, tuple[str, ...]] | None = field(default=None, hash=False)
    #: True iff some principal entry contains ``*``; set from ``principal_aws``
    #: once, when the statement is built, and left out of ==, hash and repr.
    wildcard_principal: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.actions:
            raise SchemaError("statement actions must be non-empty", field="actions")
        object.__setattr__(self, "wildcard_principal", _any_wildcard(self.principal_aws))


def _any_wildcard(principals: tuple[str, ...]) -> bool:
    return any("*" in principal for principal in principals)


class PublicAccessBlock(Record):
    """The four Block Public Access flags; absent configuration is all-false."""

    block_public_acls: bool = False
    ignore_public_acls: bool = False
    block_public_policy: bool = False
    restrict_public_buckets: bool = False


#: (field name, AWS and rule-language name) of each Block Public Access flag
BPA_FLAGS = (
    ("block_public_acls", "BlockPublicAcls"),
    ("ignore_public_acls", "IgnorePublicAcls"),
    ("block_public_policy", "BlockPublicPolicy"),
    ("restrict_public_buckets", "RestrictPublicBuckets"),
)


class BucketConfig(Record):
    """Full security posture of one bucket.

    Immutable after construction; safe to share across concurrent readers.
    ``tags``, and each policy statement's ``condition``, are plain dicts that
    every holder of the record shares, so they must not be mutated:
    ``load_fleet`` gives the buckets of a file with equal tags one dict, so a
    change to one bucket's tags would change them all. They are left out of
    ``hash`` (equality still compares them), which makes the records
    hashable.
    """

    name: str
    region: str = "us-east-1"
    acl_grants: tuple[AclGrant, ...] = ()
    policy: tuple[PolicyStatement, ...] | None = None
    public_access_block: PublicAccessBlock = PublicAccessBlock()
    tags: Mapping[str, str] = field(default_factory=dict, hash=False)
    website_enabled: bool = False

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise SchemaError(
                f"invalid bucket name {self.name!r}: expected 3-63 chars of "
                "lowercase letters, digits, dots, hyphens",
                field="name",
            )


class Alert(Record):
    """One finding emitted by a ruleset for one bucket.

    ``fired_conditions`` holds the numbers of the unified rule's conditions
    that hold, ascending, as the rule decided them; it is empty for every
    other rule.
    """

    bucket_name: str
    rule_id: str
    severity: Severity
    fired_conditions: tuple[int, ...]
    explanation: str


# ---------------------------------------------------------------------------
# Input readers
# ---------------------------------------------------------------------------

_scan_once = json.JSONDecoder().scan_once


def parse_json(text: str, error: Callable[[str], Exception]) -> Any:
    """``json.loads(text)``; text that does not decode, or whose strings hold a lone
    surrogate (which UTF-8 cannot encode), raw or as ``\\u`` escapes, raises ``error(reason)``.

    A text that is its value, or its value and one newline, as a JSONL line
    is, goes to the decoder's scanner directly, skipping json.loads' wrapping.
    """
    try:
        value, end = _scan_once(text, 0)
        scanned = end == len(text) or (end == len(text) - 1 and text[end] == "\n")
    except (ValueError, TypeError, StopIteration, RecursionError):  # ValueError: JSONDecodeError
        scanned = False
    if not scanned:
        try:
            value = json.loads(text)
        except json.JSONDecodeError as exc:
            raise error(f"invalid JSON: {exc.msg}") from None
        except RecursionError:
            raise error("invalid JSON: nested too deeply") from None
        except ValueError:  # an integer longer than sys.get_int_max_str_digits()
            raise error("invalid JSON: integer has too many digits") from None
    if ("\\" in text or not text.isascii()) and _holds_lone_surrogate(value):  # only these can hold one
        raise error("invalid JSON: lone surrogate in a string")
    return value


_SURROGATE = re.compile("[\ud800-\udfff]")


def _holds_lone_surrogate(value: Any) -> bool:
    """Whether a string or key in the decoded ``value`` holds a surrogate (the
    decoder joins only escaped pairs); walked without recursion."""
    pending = [value]
    while pending:
        item = pending.pop()
        if type(item) is dict:
            pending += (*item, *item.values())
        elif type(item) is list:
            pending += item
        elif type(item) is str and _SURROGATE.search(item):
            return True
    return False


def read_utf8(path: str | Path, error: Callable[[str], Exception]) -> str:
    """The text of a UTF-8 file; undecodable bytes raise ``error(reason)``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"invalid UTF-8: {exc.reason} (offset {exc.start})") from None


def read_json(path: str | Path, error: Callable[[str], Exception]) -> Any:
    """The JSON document in a UTF-8 file; see ``read_utf8`` and ``parse_json``."""
    return parse_json(read_utf8(path, error), error)


def read_jsonl(path: str | Path, parse: Callable[[str], Any]) -> Iterator[Any]:
    """Yield ``parse(text)`` for each non-blank line of a UTF-8 JSONL file.

    Each SchemaError or DuplicateNameError that ``parse`` raises, and the
    first line that is not UTF-8, is raised as ``<path>: <message> (line N)``.
    Lines end as text mode ends them (LF, CR LF or a lone CR). The file is
    closed however the iteration ends.
    """
    try:
        # bytes that are not UTF-8 are read as escapes, and decoded again to raise their error on their own line
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            for lineno, text in enumerate(handle, start=1):
                if not text.isascii() and _SURROGATE.search(text):
                    text.encode("utf-8", "surrogateescape").decode("utf-8")
                if text.strip():
                    yield parse(text)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: invalid UTF-8: {exc.reason}", line=lineno) from None
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc.message}", field=exc.field, line=lineno) from None
    except DuplicateNameError as exc:
        raise DuplicateNameError(f"{path}: {exc} (line {lineno})") from None


# ---------------------------------------------------------------------------
# Snapshot format (JSONL)
# ---------------------------------------------------------------------------

_ABSENT = object()
_NO_ITEMS: list = []  # the default of an absent array; only ever read

# The parser below checks each value inline. json.loads yields only dict,
# list, str, int, float, bool and None, with str keys, so ``type(v) is T``
# accepts exactly what an isinstance check would; the helpers just below
# run only after a check has failed, to build its error.


def _field_error(key: str, kind: type, value: Any) -> SchemaError:
    """The error for a field whose value is not a ``kind``: missing, or of another type."""
    if value is _ABSENT:
        return SchemaError(f"missing required field {key!r}", field=key)
    return SchemaError(f"field {key!r} must be {kind.__name__}, got {type(value).__name__}", field=key)


_ENUM_MEMBERS: dict[type[enum.Enum], dict[Any, enum.Enum]] = {
    enum_cls: {member.value: member for member in enum_cls}
    for enum_cls in (GranteeType, Permission, Effect)
}
# Members are truthy, so ``_EFFECTS.get(v) or _enum_value(v, ...)`` runs the
# helper only for an unknown value, and only to raise its error.
_GRANTEE_TYPES = _ENUM_MEMBERS[GranteeType]
_PERMISSIONS = _ENUM_MEMBERS[Permission]
_EFFECTS = _ENUM_MEMBERS[Effect]


def _enum_value(raw: Any, enum_cls: type[enum.Enum], fieldname: str) -> Any:
    try:
        return _ENUM_MEMBERS[enum_cls][raw]
    except (KeyError, TypeError):  # TypeError: an unhashable value such as a list
        allowed = ", ".join(m.value for m in enum_cls)
        raise SchemaError(f"unknown {fieldname} {raw!r} (allowed: {allowed})", field=fieldname) from None


def _extra_keys_error(obj: Mapping[str, Any], allowed: frozenset[str], where: str) -> SchemaError:
    extra = sorted(set(obj) - allowed)
    return SchemaError(f"unknown field(s) in {where}: {', '.join(extra)}", field=extra[0])


_TOP_KEYS = frozenset(
    {"name", "region", "acl_grants", "policy", "public_access_block", "tags", "website_enabled"}
)
_GRANT_KEYS = frozenset({"grantee_type", "grantee_uri", "permission"})
_STMT_KEYS = frozenset({"sid", "effect", "principal_aws", "actions", "resources", "condition"})
_BPA_FIELDS = tuple(name for name, _ in BPA_FLAGS)
_BPA_KEYS = frozenset(_BPA_FIELDS)


def _string_list(raw: Any, fieldname: str) -> tuple[str, ...]:
    """A string or a list of strings, as a tuple."""
    if type(raw) is str:
        return (raw,)
    if type(raw) is list:
        for item in raw:
            if type(item) is not str:
                break
        else:
            return tuple(raw)
    raise SchemaError(f"field {fieldname!r} must be a list of strings", field=fieldname)


# The parser builds a BucketConfig for every bucket, and a PolicyStatement
# for every third or so, so it sets their slots through the member
# descriptors, without a call of __init__, after making the checks of
# __post_init__ itself.
_new = object.__new__

_STMT_SLOTS = _slot_setters(PolicyStatement)
_BUCKET_SLOTS = _slot_setters(BucketConfig)
_ALERT_SLOTS = _slot_setters(Alert)


def new_alert(
    bucket_name: str, rule_id: str, severity: Severity, fired_conditions: tuple[int, ...], explanation: str
) -> Alert:
    """``Alert(...)`` without a call of ``Alert.__init__``: the same
    instance, built in about half the time, for the rule engines' hot loops."""
    alert = _new(Alert)
    set_bucket, set_rule, set_severity, set_fired, set_explanation = _ALERT_SLOTS
    set_bucket(alert, bucket_name)
    set_rule(alert, rule_id)
    set_severity(alert, severity)
    set_fired(alert, fired_conditions)
    set_explanation(alert, explanation)
    return alert


def _parse_grant(raw: Any) -> tuple[GranteeType, str, Permission]:
    """An ``acl_grants`` entry, checked as ``AclGrant`` would check it, as the
    triple of its fields; the caller builds, or finds, the grant."""
    if type(raw) is not dict:
        raise SchemaError("each acl_grants entry must be an object", field="acl_grants")
    if not _GRANT_KEYS.issuperset(raw):
        raise _extra_keys_error(raw, _GRANT_KEYS, "acl_grants entry")
    get = raw.get
    grantee_type = get("grantee_type", _ABSENT)
    if type(grantee_type) is not str:
        raise _field_error("grantee_type", str, grantee_type)
    grantee_type = _GRANTEE_TYPES.get(grantee_type) or _enum_value(grantee_type, GranteeType, "grantee_type")
    uri = get("grantee_uri", _ABSENT)
    if type(uri) is not str:
        raise _field_error("grantee_uri", str, uri)
    permission = get("permission", _ABSENT)
    if type(permission) is not str:
        raise _field_error("permission", str, permission)
    permission = _PERMISSIONS.get(permission) or _enum_value(permission, Permission, "permission")
    if not uri:
        AclGrant(grantee_type, uri, permission)  # raises the model's empty-URI error
    return grantee_type, uri, permission


def _string_list_field(raw: dict, key: str, default: Any = _ABSENT) -> tuple[str, ...]:
    """A field that must be a JSON array of strings, as a tuple."""
    value = raw.get(key, default)
    if type(value) is not list:
        raise _field_error(key, list, value)
    return _string_list(value, key)


def _parse_condition(raw: Any) -> dict[str, tuple[str, ...]] | None:
    if raw is None:
        return None
    if type(raw) is not dict:
        raise SchemaError("field 'condition' must be an object", field="condition")
    out: dict[str, tuple[str, ...]] = {}
    for key, values in raw.items():
        out[key] = _string_list(values, f"condition.{key}")
    return out or None


def _parse_statement(raw: Any, shared: dict | None) -> PolicyStatement:
    if type(raw) is not dict:
        raise SchemaError("each policy entry must be an object", field="policy")
    if not _STMT_KEYS.issuperset(raw):
        raise _extra_keys_error(raw, _STMT_KEYS, "policy statement")
    get = raw.get
    sid = get("sid")
    if sid is not None and type(sid) is not str:
        raise SchemaError("field 'sid' must be a string", field="sid")
    effect = get("effect", _ABSENT)
    if type(effect) is not str:
        raise _field_error("effect", str, effect)
    effect = _EFFECTS.get(effect) or _enum_value(effect, Effect, "effect")
    principal = _string_list_field(raw, "principal_aws")
    actions = _string_list_field(raw, "actions")
    resources = _string_list_field(raw, "resources", _NO_ITEMS)
    condition = _parse_condition(get("condition"))
    if not actions:
        PolicyStatement(effect, principal, actions)  # raises the model's empty-actions error
    if shared is not None:
        principal = shared.get(principal) or _keep(shared, principal, principal)
        actions = shared.get(actions) or _keep(shared, actions, actions)
    stmt = _new(PolicyStatement)
    set_effect, set_principal, set_actions, set_resources, set_sid, set_condition, set_wildcard = _STMT_SLOTS
    set_effect(stmt, effect)
    set_principal(stmt, principal)
    set_actions(stmt, actions)
    set_resources(stmt, resources)
    set_sid(stmt, sid)
    set_condition(stmt, condition)
    set_wildcard(stmt, _any_wildcard(principal))
    return stmt


# The 16 possible flag sets, built once and shared: PublicAccessBlock is immutable.
_BPA_BY_FLAGS = {flags: PublicAccessBlock(*flags) for flags in itertools.product((False, True), repeat=4)}
_NO_BPA = _BPA_BY_FLAGS[False, False, False, False]


def _parse_bpa(raw: Any) -> PublicAccessBlock:
    if raw is None:
        return _NO_BPA
    if type(raw) is not dict:
        raise SchemaError("field 'public_access_block' must be an object", field="public_access_block")
    if not _BPA_KEYS.issuperset(raw):
        raise _extra_keys_error(raw, _BPA_KEYS, "public_access_block")
    get = raw.get
    a, b, c, d = flags = (
        get("block_public_acls", _ABSENT),
        get("ignore_public_acls", _ABSENT),
        get("block_public_policy", _ABSENT),
        get("restrict_public_buckets", _ABSENT),
    )
    # exact bools only: 1 == True, so the table alone would take 1 for true
    if not (type(a) is type(b) is type(c) is type(d) is bool):
        for key, value in zip(_BPA_FIELDS, flags):
            if type(value) is not bool:
                raise _field_error(key, bool, value)
    return _BPA_BY_FLAGS[flags]


# The value table of ``parse_snapshot_line``. Its keys are of four kinds that
# cannot collide: a region is a str; a tag map is keyed by the tuple of its
# (key, value) str pairs, in order, so maps that only order their keys apart
# stay apart; a grant list by the tuple of its (GranteeType, str, Permission)
# triples; and a principal or action list is a tuple of str, where equal
# ones are interchangeable. A table holds at most _SHARED_MAX entries, so a
# file whose every tag map differs keeps no more than that many extra keys.
_SHARED_MAX = 4096


def _keep(shared: dict, key: Any, value: Any) -> Any:
    """``value``, entered in ``shared`` under ``key`` while the table has room."""
    if len(shared) < _SHARED_MAX:
        shared[key] = value
    return value


def parse_snapshot_line(text: str, *, shared: dict | None = None) -> BucketConfig:
    """Parse one line of the JSONL snapshot format into a BucketConfig.

    Missing BPA normalizes to all-false, missing tags to an empty map.
    Raises SchemaError naming the offending field.

    ``shared`` is a value table for the lines of one file, empty at first;
    ``load_fleet`` passes one. With it, each region, non-empty tag map,
    ``acl_grants`` tuple and statement ``principal_aws`` or ``actions`` tuple
    that equals one an earlier line entered in the table is that earlier
    object, so buckets with equal tags share one tag dict. Without it, the
    record shares none of these values.
    """
    raw = parse_json(text, SchemaError)
    if type(raw) is not dict:
        raise SchemaError("snapshot line must be a JSON object")
    if not _TOP_KEYS.issuperset(raw):
        raise _extra_keys_error(raw, _TOP_KEYS, "bucket record")
    get = raw.get

    name = get("name", _ABSENT)
    if type(name) is not str:
        raise _field_error("name", str, name)
    grants_raw = get("acl_grants", _NO_ITEMS)
    if type(grants_raw) is not list:
        raise _field_error("acl_grants", list, grants_raw)
    policy_raw = get("policy")
    if policy_raw is not None and type(policy_raw) is not list:
        raise SchemaError("field 'policy' must be an array", field="policy")
    tags = get("tags", _ABSENT)
    if type(tags) is dict:
        for value in tags.values():
            if type(value) is not str:
                raise SchemaError("tags must map strings to strings", field="tags")
    elif tags is _ABSENT:
        tags = {}
    else:
        raise _field_error("tags", dict, tags)
    region = get("region", "us-east-1")
    if type(region) is not str:
        raise _field_error("region", str, region)
    if grants_raw:
        triples = tuple(map(_parse_grant, grants_raw))
        if shared is None:
            grants = tuple(itertools.starmap(AclGrant, triples))
        else:
            grants = shared.get(triples) or _keep(shared, triples, tuple(itertools.starmap(AclGrant, triples)))
    else:
        grants = ()
    policy = None if policy_raw is None else tuple(map(_parse_statement, policy_raw, itertools.repeat(shared)))
    bpa = _parse_bpa(get("public_access_block"))
    website = get("website_enabled", False)
    if type(website) is not bool:
        raise _field_error("website_enabled", bool, website)
    if not _NAME_RE.match(name):
        BucketConfig(name)  # raises the model's invalid-name error
    if shared is not None:
        region = shared.get(region) or _keep(shared, region, region)
        if tags:
            key = tuple(tags.items())
            tags = shared.get(key) or _keep(shared, key, tags)

    bucket = _new(BucketConfig)
    set_name, set_region, set_grants, set_policy, set_bpa, set_tags, set_website = _BUCKET_SLOTS
    set_name(bucket, name)
    set_region(bucket, region)
    set_grants(bucket, grants)
    set_policy(bucket, policy)
    set_bpa(bucket, bpa)
    set_tags(bucket, tags)  # the decoder's own dict, or the table's copy of an equal one
    set_website(bucket, website)
    return bucket


def to_snapshot_dict(config: BucketConfig) -> dict[str, Any]:
    """Canonical dict form of a BucketConfig: its ``serialize_snapshot_line``, decoded."""
    return json.loads(serialize_snapshot_line(config))


# json.dumps(ensure_ascii=False)'s own string escaper, so each string comes out as json.dumps writes it
_string = json.encoder.encode_basestring
_BOOL = {False: "false", True: "true"}
_ENUM_TEXT = {member: _string(member.value) for cls in (GranteeType, Permission, Effect) for member in cls}
_BPA_TEXT = {flags: json.dumps(dict(zip(_BPA_FIELDS, flags)), separators=(",", ":")) for flags in _BPA_BY_FLAGS}
_bpa_flags = operator.attrgetter(*_BPA_FIELDS)


def _array(texts: Iterable[str]) -> str:
    return "[%s]" % ",".join(map(_string, texts))


def _statement_text(s: PolicyStatement) -> str:
    sid = "" if s.sid is None else f'"sid":{_string(s.sid)},'
    condition = "" if s.condition is None else ',"condition":{%s}' % ",".join(
        f"{_string(key)}:{_array(values)}" for key, values in sorted(s.condition.items())
    )
    lists = f'"principal_aws":{_array(s.principal_aws)},"actions":{_array(s.actions)},"resources":{_array(s.resources)}'
    return f'{{{sid}"effect":{_ENUM_TEXT[s.effect]},{lists}{condition}}}'


def serialize_snapshot_line(config: BucketConfig) -> str:
    """One canonical snapshot line, without its newline, in the form README "File formats" states."""
    grants = ",".join(
        f'{{"grantee_type":{_ENUM_TEXT[g.grantee_type]},"grantee_uri":{_string(g.grantee_uri)},'
        f'"permission":{_ENUM_TEXT[g.permission]}}}'
        for g in config.acl_grants
    )
    policy = "" if config.policy is None else ',"policy":[%s]' % ",".join(map(_statement_text, config.policy))
    tags = ",".join(f"{_string(key)}:{_string(value)}" for key, value in sorted(config.tags.items()))
    head = f'{{"name":{_string(config.name)},"region":{_string(config.region)},"acl_grants":[{grants}]{policy}'
    bpa = _BPA_TEXT[_bpa_flags(config.public_access_block)]
    return f'{head},"public_access_block":{bpa},"tags":{{{tags}}},"website_enabled":{_BOOL[config.website_enabled]}}}'


def _read_fleet(path: str | Path, shared: dict | None) -> Iterator[BucketConfig]:
    seen: set[str] = set()

    def parse(text: str) -> BucketConfig:
        # parse_snapshot_line is looked up on each call, so a wrapper set on the module sees every line
        config = parse_snapshot_line(text, shared=shared)
        if config.name in seen:
            raise DuplicateNameError(f"duplicate bucket name {config.name!r}")
        seen.add(config.name)
        return config

    return read_jsonl(path, parse)


def iter_fleet(path: str | Path) -> Iterator[BucketConfig]:
    """Yield the buckets of a snapshot JSONL file in file order, parsing one line at a time.

    Bucket names must be unique: a repeated name raises DuplicateNameError
    when its line is reached, so buckets before it have already been yielded.
    Only the set of names seen so far is held. The buckets share no values
    (see ``load_fleet``): a table of them would keep the values of buckets
    already let go, and cost time on every line.
    """
    return _read_fleet(path, None)


def load_fleet(path: str | Path) -> list[BucketConfig]:
    """Load a snapshot JSONL file, as ``iter_fleet`` reads it, into a list.

    The lines share one value table (see ``parse_snapshot_line``), so equal
    regions, tag maps, grant lists and statement principal and action lists
    are one object across the buckets, which the fleet repeats many times.
    """
    return list(_read_fleet(path, {}))


def write_fleet(buckets: Iterable[BucketConfig], path: str | Path) -> None:
    """Write buckets as canonical snapshot JSONL."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(f"{serialize_snapshot_line(config)}\n" for config in buckets)


# ---------------------------------------------------------------------------
# AWS-CLI-shaped artifact directories
# ---------------------------------------------------------------------------

# AWS grantee Type -> the model's type, and the Grantee key holding its identifier
_AWS_GRANTEES = {
    "Group": (GranteeType.GROUP, "URI"),
    "CanonicalUser": (GranteeType.CANONICAL_USER, "ID"),
    "AmazonCustomerByEmail": (GranteeType.EMAIL, "EmailAddress"),
}
_JSON_KINDS = {list: "array", str: "string", dict: "object"}


def _artifact(path: Path, key: str | None, kind: type, parse: Callable[[Any], Any], absent: Any = _ABSENT) -> Any:
    """``parse`` of the ``key`` member, a ``kind``, of the JSON object in the
    artifact file ``path`` (of the whole document if ``key`` is None), or
    ``absent``, if given and nothing exists at ``path`` (anything else that is
    not a regular file is an error). Each SchemaError met in reading the file
    is raised again with ``path`` in front of its message."""
    if absent is not _ABSENT and not os.path.lexists(path):
        return absent
    try:
        if not path.is_file():
            raise SchemaError("not a regular file")
        document = read_json(path, SchemaError)
        if key is None:
            return parse(document)
        if not isinstance(document, dict) or not isinstance(document.get(key), kind):
            raise SchemaError(f"expected an object with a {key!r} {_JSON_KINDS[kind]}")
        return parse(document[key])
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc.message}", field=exc.field) from None


def _import_acl(entries: list) -> tuple[AclGrant, ...]:
    grants: list[AclGrant] = []
    for entry in entries:
        if not isinstance(entry, dict) or "Grantee" not in entry or "Permission" not in entry:
            raise SchemaError("each grant needs 'Grantee' and 'Permission'")
        grantee = entry["Grantee"]
        if not isinstance(grantee, dict):
            raise SchemaError("'Grantee' must be an object", field="Grantee")
        gtype_raw = grantee.get("Type")
        if not isinstance(gtype_raw, str) or gtype_raw not in _AWS_GRANTEES:
            raise SchemaError(f"unknown grantee type {gtype_raw!r}", field="Grantee.Type")
        gtype, identifier_key = _AWS_GRANTEES[gtype_raw]
        identifier = grantee.get(identifier_key)
        if not isinstance(identifier, str) or not identifier:
            raise SchemaError("grantee is missing its identifier", field="Grantee")
        permission = _enum_value(entry["Permission"], Permission, "Permission")
        grants.append(AclGrant(gtype, identifier, permission))
    return tuple(grants)


def _normalize_principal(raw: Any) -> tuple[str, ...]:
    if raw == "*":
        return ("*",)
    if isinstance(raw, dict):
        aws = raw.get("AWS", [])
        if isinstance(aws, str):
            return (aws,)
        if isinstance(aws, list) and all(isinstance(x, str) for x in aws):
            return tuple(aws)
    raise SchemaError(f"unsupported Principal form {raw!r}", field="Principal")


def _flatten_condition(raw: Any) -> dict[str, tuple[str, ...]] | None:
    # AWS nests condition keys under operators ({"IpAddress": {"aws:SourceIp": ...}});
    # the model keys on the condition key alone.
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise SchemaError("'Condition' must be an object", field="Condition")
    flat: dict[str, list[str]] = {}
    for operator_block in raw.values():
        if not isinstance(operator_block, dict):
            raise SchemaError("condition operator value must be an object", field="Condition")
        for key, values in operator_block.items():
            texts = [_condition_text(v) for v in values] if isinstance(values, list) else _condition_text(values)
            flat.setdefault(key, []).extend(_string_list(texts, f"Condition.{key}"))
    return {k: tuple(v) for k, v in flat.items()} or None


def _condition_text(value: Any) -> Any:
    # AWS accepts JSON booleans and numbers as condition values
    # ({"Bool": {"aws:SecureTransport": false}}); the model keeps their JSON text.
    if isinstance(value, (bool, int, float)):
        return json.dumps(value)
    return value


def _import_policy(text: str) -> tuple[PolicyStatement, ...]:
    document = parse_json(text, lambda reason: SchemaError(f"embedded policy document is {reason}"))
    if not isinstance(document, dict):
        raise SchemaError("embedded policy document must be a JSON object")
    statements_raw = document.get("Statement", [])
    if isinstance(statements_raw, dict):
        statements_raw = [statements_raw]
    if not isinstance(statements_raw, list):
        raise SchemaError("'Statement' must be an object or an array", field="Statement")
    statements: list[PolicyStatement] = []
    for stmt in statements_raw:
        if not isinstance(stmt, dict):
            raise SchemaError("each Statement entry must be an object")
        for key in ("Principal", "Action"):
            if key in stmt and f"Not{key}" in stmt:
                raise SchemaError(f"statement has both '{key}' and 'Not{key}'", field=key)
        if "Principal" not in stmt and "NotPrincipal" not in stmt:
            raise SchemaError("bucket-policy statement is missing 'Principal'", field="Principal")
        actions = stmt.get("Action")
        if actions is None and "NotAction" not in stmt:
            raise SchemaError("statement is missing 'Action'", field="Action")
        sid = stmt.get("Sid")
        if sid is not None and not isinstance(sid, str):
            raise SchemaError("'Sid' must be a string", field="Sid")
        effect = _enum_value(stmt.get("Effect"), Effect, "Effect")
        # NotPrincipal and NotAction name what a statement leaves out, and the
        # model has no exclusions: an Allow is widened to every principal or
        # action, and a Deny is dropped. Either way the imported policy grants
        # at least what the real one does, never less.
        if effect is Effect.DENY and ("NotPrincipal" in stmt or "NotAction" in stmt):
            continue
        statements.append(
            PolicyStatement(
                effect=effect,
                principal_aws=_normalize_principal(stmt["Principal"]) if "Principal" in stmt else ("*",),
                actions=_string_list(actions, "Action") if actions is not None else ("*",),
                resources=_string_list(stmt.get("Resource", []), "Resource"),
                sid=sid,
                condition=_flatten_condition(stmt.get("Condition")),
            )
        )
    return tuple(statements)


def _import_bpa(cfg: dict) -> PublicAccessBlock:
    flags = tuple(cfg.get(key, False) for _, key in BPA_FLAGS)
    for (_, key), value in zip(BPA_FLAGS, flags):
        if not isinstance(value, bool):  # only JSON booleans: "false" or 1 must not pass for a setting
            raise SchemaError(f"{key} must be true or false, got {value!r}", field=key)
    return _BPA_BY_FLAGS[flags]


def _import_tags(entries: list) -> dict[str, str]:
    tags: dict[str, str] = {}
    for entry in entries:
        if not isinstance(entry, dict) or "Key" not in entry or "Value" not in entry:
            raise SchemaError("each TagSet entry needs 'Key' and 'Value'")
        key, value = entry["Key"], entry["Value"]
        if not isinstance(key, str) or not isinstance(value, str):
            raise SchemaError("tag 'Key' and 'Value' must be strings", field="TagSet")
        if key in tags:
            raise SchemaError(f"duplicate tag key {key!r}", field="TagSet")
        tags[key] = value
    return tags


def import_aws_artifacts(directory: str | Path) -> BucketConfig:
    """Assemble a BucketConfig from an AWS-CLI-shaped artifact directory.

    The directory name is the bucket name. ``acl.json`` is mandatory; all
    other artifact files are optional and default to the same normalized
    values the snapshot parser applies; one is absent only when nothing
    exists at its path. A malformed artifact, or one that is not a regular
    file, raises a SchemaError whose message starts with the file's path:
    ``directory``, as given, joined to the file name. A directory name that
    is no valid bucket name is an error too, checked after the artifacts,
    whose message starts with ``directory``.
    """
    directory = Path(directory)
    acl_path = directory / "acl.json"
    if not os.path.lexists(acl_path):
        raise MissingArtifactError(f"mandatory artifact {acl_path} is missing")
    # website.json is only decoded: its presence enables the website
    website = _artifact(directory / "website.json", None, object, lambda document: True, False)
    acl_grants = _artifact(acl_path, "Grants", list, _import_acl)
    policy = _artifact(directory / "policy.json", "Policy", str, _import_policy, None)
    bpa_path = directory / "public-access-block.json"
    bpa = _artifact(bpa_path, "PublicAccessBlockConfiguration", dict, _import_bpa, _NO_BPA)
    tags = _artifact(directory / "tagging.json", "TagSet", list, _import_tags, {})
    try:
        return BucketConfig(directory.name, "us-east-1", acl_grants, policy, bpa, tags, website)
    except SchemaError as exc:  # the name, the one field left unchecked
        raise SchemaError(f"{directory}: {exc.message}", field=exc.field) from None
