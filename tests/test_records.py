"""Each record class behaves as the ``@dataclass(frozen=True, slots=True)``
class it replaced.

For each of the package's 24 record classes (``model.Record`` subclasses), a
dataclass twin is built from the class's own ``_fields`` table, with the
same name, defaults, field options and ``__post_init__``. Both are then
called with the same Hypothesis-drawn arguments, and must give the same
``==``, ``hash`` and ``repr``, the same errors (``TypeError`` for missing,
extra and duplicate arguments, and the ``__post_init__`` errors), the same
failed assignments and deletions, and the same ``copy.copy``, ``pickle``
and ``replace`` results.

``==`` is one method of ``Record``, slower than a per-class copy would be,
because no command calls it: ``test_no_command_compares_two_records`` counts
each command's ``==`` and ``hash`` calls.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import sys
import types
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bucketlens import defaults, dsl, evaluation, fleetgen, model, policy, unified
from bucketlens.dsl import Compare, CompareOp, Exists, IsNull, LiteralBool, Not
from bucketlens.errors import FrozenInstanceError
from bucketlens.model import Effect, Record, Severity
from conftest import run_fresh_interpreter

RECORD_CLASSES = sorted(
    (
        value
        for module in (model, policy, evaluation, unified, defaults, fleetgen, dsl)
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, Record) and value is not Record
        and value.__module__ == module.__name__  # each class once, in the module that defines it
    ),
    key=lambda cls: (cls.__module__, cls.__qualname__),
)
_IDS = [cls.__qualname__ for cls in RECORD_CLASSES]


def test_the_package_has_24_record_classes():
    assert len(set(RECORD_CLASSES)) == 24
    assert not any(dataclasses.is_dataclass(cls) for cls in RECORD_CLASSES)
    # __init__ and hash are each class's own template copies; == is Record's alone
    for cls in RECORD_CLASSES:
        assert "__init__" in vars(cls) and "__hash__" in vars(cls) and "__eq__" not in vars(cls), cls


def _twin(cls: type) -> type:
    """The dataclass that ``cls``'s field table describes."""
    namespace = {"__annotations__": {}, "__module__": cls.__module__, "__qualname__": cls.__qualname__}
    for f in cls._fields:
        namespace["__annotations__"][f.name] = "object"
        options = {"init": f.init, "repr": f.repr, "hash": f.hash, "compare": f.compare}
        if f.default_factory is not None:
            options["default_factory"] = f.default_factory
        elif f.default is not model._NO_DEFAULT:
            options["default"] = f.default
        namespace[f.name] = dataclasses.field(**options)
    if "__post_init__" in cls.__dict__:
        namespace["__post_init__"] = cls.__dict__["__post_init__"]
    return dataclasses.dataclass(frozen=True, slots=True)(type(cls.__name__, (), namespace))


_TWINS = {cls: _twin(cls) for cls in RECORD_CLASSES}


def test_each_record_class_has_its_twins_layout():
    for cls, twin in _TWINS.items():
        assert cls.__slots__ == twin.__slots__, cls
        assert cls.__match_args__ == twin.__match_args__, cls
        assert (cls.__dictoffset__, cls.__weakrefoffset__) == (twin.__dictoffset__, twin.__weakrefoffset__) == (0, 0)
        assert [f.name for f in cls._fields] == [f.name for f in dataclasses.fields(twin)]


def test_a_record_class_has_1_to_7_fields_that_init_and_hash_each_read():
    for table in ({f"f{i}": model.field() for i in range(8)}, {"x": model.field(hash=False)}):
        with pytest.raises(TypeError, match="1 to 7 fields that __init__ and hash each read"):
            type("Bad", (Record,), {"__annotations__": dict.fromkeys(table, "object"), **table})
    # == may compare no field at all, as a dataclass's does
    cls = type("Uncompared", (Record,), {"__annotations__": {"x": "object"}, "x": model.field(compare=False, hash=True)})
    twin = _twin(cls)
    assert (cls(1) == cls(2), hash(cls(1)) == hash(cls(2))) == (twin(1) == twin(2), hash(twin(1)) == hash(twin(2)))
    assert cls(1) == cls(2) and hash(cls(1)) != hash(cls(2))


# Hashable values of every kind the records hold, NaN left out: 3.13's
# dataclass compares field by field, where a tuple finds a NaN equal to itself.
# Drawn from a pool, which Hypothesis draws from several times faster than it
# builds text or numbers.
_ATOMS = st.sampled_from(
    [
        None, False, True, 0, 1, -2, 0.0, -0.0, 1.5, float("inf"), "", "a", "*", "é\u2028", "\ud800",
        *Severity, *Effect, *policy.Exposure, (), ("*",), ("a", "s3:Get*"),
    ]
)
_MAPS = st.sampled_from([None, {}, {"a": "b"}, {"b": "", "a": "*"}])
_BODIES = st.sampled_from(
    [
        LiteralBool(True),
        Compare("Name", CompareOp.EQ, "abc"),
        Not(IsNull("Region")),
        Exists("PolicyStatements", Compare("Sid", CompareOp.LIKE, "a%")),
    ]
)
# the values that pass the __post_init__ checks, of the fields that have one
_VALID_VALUES = {
    ("AclGrant", "grantee_uri"): st.sampled_from(["a", "*", "é\u2028"]),
    ("BucketConfig", "name"): st.sampled_from(["abc", "a.b-c", "0" * 63]),
    ("PolicyStatement", "actions"): st.sampled_from([("*",), ("", "s3:Get*")]),
    ("PolicyStatement", "principal_aws"): st.sampled_from([(), ("*",), ("arn:x", "a*b")]),
    ("RuleAst", "body"): _BODIES,
}


def _values(cls: type, f: model.Field, valid: bool) -> st.SearchStrategy:
    """Values for the field ``f`` of ``cls``: only ones ``__post_init__`` accepts if ``valid``."""
    strategy = _VALID_VALUES.get((cls.__name__, f.name))
    if strategy is not None:
        return strategy if valid else st.one_of(strategy, _ATOMS)
    return _ATOMS if f.hash else st.one_of(_ATOMS, _MAPS)  # dicts only where hash leaves them out


@st.composite
def _full_call(draw, cls: type, valid: bool = True) -> tuple[list, dict]:
    """Every parameter of ``cls``, the first ones positional, the rest by keyword."""
    params = [f for f in cls._fields if f.init]
    positional = draw(st.integers(0, len(params)))
    values = [draw(_values(cls, f, valid)) for f in params]
    return values[:positional], {f.name: value for f, value in zip(params[positional:], values[positional:])}


@st.composite
def _any_call(draw, cls: type) -> tuple[list, dict]:
    """A call that may leave out parameters, give one twice, or give an unknown or surplus one."""
    args, kwargs = draw(_full_call(cls, valid=False))
    if kwargs:
        for name in draw(st.lists(st.sampled_from(sorted(kwargs)), unique=True)):
            del kwargs[name]  # left out: its default, or a missing argument
    params = [f.name for f in cls._fields if f.init]
    if args and draw(st.booleans()):
        kwargs[params[draw(st.integers(0, len(args) - 1))]] = draw(_ATOMS)  # a duplicate
    if draw(st.booleans()):
        kwargs["unknown_field"] = 1
    if len(args) == len(params) and draw(st.booleans()):
        args.append(None)  # one positional argument too many
    return args, kwargs


def _outcome(call) -> tuple:
    """What ``call()`` gives: ("ok", result), or the error's kind and message.

    The two FrozenInstanceError classes count as one kind. Up to Python 3.12,
    ``dataclasses.replace`` raises ValueError for an ``init=False`` field,
    where 3.13 and the records raise TypeError.
    """
    try:
        return "ok", call()
    except (FrozenInstanceError, dataclasses.FrozenInstanceError) as exc:
        return "frozen", str(exc)
    except ValueError as exc:
        if "init=False" in str(exc) and sys.version_info < (3, 13):
            return TypeError, str(exc)
        return ValueError, str(exc)
    except Exception as exc:
        return type(exc), str(exc)


def _state(record) -> list:
    """The record's fields, all of them, as ``__getstate__`` lists them; a
    function (``RuleAst``'s compiled body) counts as its type."""
    return [type(v) if isinstance(v, types.FunctionType) else v for v in record.__getstate__()]


def _same(ours: tuple, theirs: tuple) -> None:
    if ours[0] == "ok" or theirs[0] == "ok":
        assert ours[0] == theirs[0] == "ok", (ours, theirs)
        assert _state(ours[1]) == _state(theirs[1])
        assert repr(ours[1]) == repr(theirs[1])
    else:
        assert ours == theirs


def _both(cls: type, call: tuple[list, dict]) -> tuple:
    args, kwargs = call
    return cls(*args, **kwargs), _TWINS[cls](*args, **kwargs)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=_IDS)
@given(data=st.data())
def test_construction_matches_the_dataclass(cls, data):
    args, kwargs = data.draw(_any_call(cls))
    _same(_outcome(lambda: cls(*args, **kwargs)), _outcome(lambda: _TWINS[cls](*args, **kwargs)))


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=_IDS)
@given(data=st.data())
def test_a_record_behaves_as_its_dataclass_twin(cls, data):
    first, second = data.draw(_full_call(cls)), data.draw(st.one_of(st.just(None), _full_call(cls)))
    built = _outcome(lambda: (_both(cls, first), _both(cls, first if second is None else second)))
    assume(built[0] == "ok")  # test_construction_matches_the_dataclass compares the failures
    (record, twin), (other, other_twin) = built[1]  # other: equal fields to record's, or others

    # ==, hash and repr
    assert repr(record) == repr(twin) and _state(record) == _state(twin)
    assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(twin))
    assert (record == other, record != other) == (twin == other_twin, twin != other_twin)
    assert record.__eq__(twin) is NotImplemented and twin.__eq__(record) is NotImplemented
    assert record != twin and record != 0 and record.__eq__(None) is NotImplemented

    # copy and pickle
    for copied, original in ((copy.copy(record), record), (copy.copy(twin), twin)):
        assert type(copied) is type(original) and copied is not original
        assert _state(copied) == _state(original) and copied == original
    if _outcome(lambda: pickle.dumps(record))[0] == "ok":
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            loaded = pickle.loads(pickle.dumps(record, protocol))
            assert type(loaded) is cls and _state(loaded) == _state(record) and loaded == record
    else:  # the twin's class is no module attribute, so its state alone says what would pickle
        assert _outcome(lambda: pickle.dumps(twin.__getstate__()))[0] != "ok"

    # replace: of fields, of an init=False field, of an unknown name
    names = [f.name for f in cls._fields] + ["unknown_field"]
    changes = data.draw(st.dictionaries(st.sampled_from(names), _ATOMS, max_size=2))
    for f in cls._fields:
        if f.name in changes and f.init:
            changes[f.name] = data.draw(_values(cls, f, valid=False))
    replaced = _outcome(lambda: record.replace(**changes))
    _same(replaced, _outcome(lambda: dataclasses.replace(twin, **changes)))
    _same(_outcome(lambda: record.__replace__(**changes)), replaced)
    if sys.version_info >= (3, 13):
        _same(_outcome(lambda: copy.replace(record, **changes)), replaced)

    # assignment and deletion
    value = data.draw(_ATOMS)
    for f in cls._fields:
        assigned = _outcome(lambda: setattr(record, f.name, value))
        assert assigned == _outcome(lambda: setattr(twin, f.name, value)) == ("frozen", f"cannot assign to field {f.name!r}")
        deleted = _outcome(lambda: delattr(record, f.name))
        assert deleted == _outcome(lambda: delattr(twin, f.name)) == ("frozen", f"cannot delete field {f.name!r}")
    # any other name too (the twin raises a TypeError from super(): its methods
    # hold the class that slots=True replaced), and there is no instance dict
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'not_a_field'"):
        record.not_a_field = value
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'not_a_field'"):
        del record.not_a_field
    with pytest.raises(AttributeError):
        getattr(record, "not_a_field")
    assert _state(record) == _state(twin)  # nothing changed


# Runs one command with every record class's == and hash counted by class,
# and prints the counts on stderr as {"==": {class: calls}, "hash": {...}}.
_COUNT_RECORD_CALLS = """
import collections, contextlib, io, json, sys
from bucketlens import defaults, dsl, evaluation, fleetgen, model, policy, unified
from bucketlens.cli import main

classes = {
    value
    for module in (model, policy, evaluation, unified, defaults, fleetgen, dsl)
    for value in vars(module).values()
    if isinstance(value, type) and issubclass(value, model.Record) and value is not model.Record
}
calls = {"==": collections.Counter(), "hash": collections.Counter()}

def counting(kind, method):
    def count(self, *args):
        calls[kind][type(self).__name__] += 1
        return method(self, *args)
    return count

methods = {cls: (cls.__eq__, cls.__hash__) for cls in classes}  # before any is wrapped
for cls, (eq, hash_) in methods.items():
    cls.__eq__, cls.__hash__ = counting("==", eq), counting("hash", hash_)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert main(%r) == 0
print(json.dumps(calls), file=sys.stderr)
"""


@pytest.mark.parametrize("mix", ["paper", "adversarial"])
def test_no_command_compares_two_records(mix, tmp_path):
    """No command calls a record's ``==``, and the default catalog hashes one
    signature key per bucket. Each command runs in a fresh interpreter:
    ``defaults._signature_hits``'s cache outlives a command run in-process,
    and a later fleet's keys, equal but distinct, would compare with ``==``."""
    fleet, state = str(tmp_path / "fleet.jsonl"), str(tmp_path / "state.json")
    rule_file = str(Path(__file__).resolve().parent.parent / "rules" / "unified.rule")
    per_bucket = "one key per bucket"
    commands = [
        (["generate", "--total", "1000", "--mix", mix, "--seed", "42", "--out", fleet], None),
        (["evaluate", "--input", fleet, "--truth", str(tmp_path / "fleet.truth.jsonl")], per_bucket),
        (["scan", "--input", fleet, "--rules", "default", "--scan-id", "s"], per_bucket),
        (["scan", "--input", fleet, "--rules", "unified", "--scan-id", "s"], "none"),
        (["scan", "--input", fleet, "--rules", "both", "--scan-id", "s"], per_bucket),
        (["scan", "--input", fleet, "--state", state, "--scan-id", "s1"], per_bucket),
        (["scan", "--input", fleet, "--state", state, "--scan-id", "s2"], per_bucket),  # the rescan
        (["rules", "run", "--file", rule_file, "--input", fleet], "none"),
        (["explain", "BUCKET", "--input", fleet], None),
    ]
    for argv, hashes in commands:
        if argv[0] == "explain":
            argv[1] = json.loads(Path(fleet).read_text().splitlines()[0])["name"]
        calls = json.loads(run_fresh_interpreter(_COUNT_RECORD_CALLS % (argv,)))
        assert calls["=="] == {}, argv
        if hashes == per_bucket:
            assert calls["hash"]["PublicAccessBlock"] == calls["hash"]["DerivedProperties"] == 1000, argv
        elif hashes == "none":
            assert calls["hash"] == {}, argv
