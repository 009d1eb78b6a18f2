"""Exception hierarchy shared across the package.

Every error raised by bucketlens derives from :class:`BucketlensError`, so
callers (notably the CLI) can map the whole family onto one exit code. The
one exception is :class:`FrozenInstanceError`, which only a program that
writes to a record raises.
"""

from __future__ import annotations


class BucketlensError(Exception):
    """Base class for all bucketlens errors."""


class SchemaError(BucketlensError):
    """Input data violates a documented schema.

    Carries the bare message and optional context: the offending field, the
    input line number (JSONL sources) and an offset (rule sources).
    """

    def __init__(
        self,
        message: str,
        *,
        field: str | None = None,
        line: int | None = None,
        offset: int | None = None,
    ) -> None:
        self.message = message
        self.field = field
        self.line = line
        self.offset = offset
        parts = [message]
        if field is not None:
            parts.append(f"(field: {field})")
        if line is not None:
            parts.append(f"(line {line})")
        if offset is not None:
            parts.append(f"(offset {offset})")
        super().__init__(" ".join(parts))


class DuplicateNameError(BucketlensError):
    """Two buckets in one fleet share a name."""


class MissingArtifactError(BucketlensError):
    """A mandatory per-bucket artifact file is absent."""


class LexError(BucketlensError):
    """Rule source could not be tokenized."""

    def __init__(self, message: str, offset: int) -> None:
        self.message = message
        self.offset = offset
        super().__init__(f"{message} (offset {offset})")


class ParseError(BucketlensError):
    """Rule source tokenized but does not match the grammar; ``message`` is
    the text without the offset, the expected tokens included."""

    def __init__(self, message: str, offset: int, expected: frozenset[str] = frozenset()) -> None:
        self.offset = offset
        self.expected = expected
        listed = f", expected one of: {', '.join(sorted(expected))}" if expected else ""
        self.message = message + listed
        super().__init__(f"{message} (offset {offset}){listed}")


class MixError(BucketlensError):
    """Fleet mix proportions are malformed."""


class UnknownScenarioError(BucketlensError):
    """A mix references a scenario id that is not in the catalog."""


class UnknownBucketError(BucketlensError):
    """An operation referenced a bucket name absent from its fleet or truth set."""


class StateCorruptionError(BucketlensError):
    """A persisted alert-state file is unreadable or structurally invalid."""


class StateLockError(BucketlensError):
    """Another scan currently holds the alert-state advisory lock."""


class FrozenInstanceError(AttributeError):
    """A field of a record (``model.Record``) was assigned to or deleted.

    A misuse of the library, not bad input, so it is an ``AttributeError``
    and no ``BucketlensError``.
    """
