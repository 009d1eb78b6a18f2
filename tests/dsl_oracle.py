"""Reference lexer and interpreter for the rule language: the test oracles.

``reference_tokenize`` scans the source one character at a time, with one
branch per token class; ``bucketlens.dsl.tokenize`` does the same with one
regular expression, and must produce the same tokens and the same errors.

``_eval`` walks a rule body over the dict form of a record that ``_flatten``
builds, resolving each path at evaluation time through the stack of bound
EXISTS elements. It shares only the schema table with ``bucketlens.dsl``,
so the compiled closures are checked against an independent evaluator.
"""

from __future__ import annotations

import re
from typing import Any, Mapping

from bucketlens.dsl import (
    KEYWORDS,
    _ELEMENT_FIELDS,
    _LIST_FIELDS,
    _RECORD_FIELDS,
    And,
    BoundRecord,
    Compare,
    CompareOp,
    Exists,
    IsNull,
    Literal,
    LiteralBool,
    Node,
    Not,
    Or,
    Token,
    TokenKind,
    like_match,
)
from bucketlens.errors import LexError, SchemaError


def _flatten(record: BoundRecord) -> dict[str, Any]:
    """The record as one dict keyed by lowered field name, lists as lists."""
    config, derived, keys = record.config, record.derived, record.keys
    flat: dict[str, Any] = {}
    for name, get_field in _RECORD_FIELDS.items():
        value = get_field(config, derived)
        if name in _ELEMENT_FIELDS and value is not None:
            fields = _ELEMENT_FIELDS[name]
            value = [
                {
                    field_name.lower(): _plain(field_name, get_element_field(element, keys))
                    for field_name, get_element_field in fields.items()
                }
                for element in value
            ]
        flat[name.lower()] = value
    return flat


def _plain(name: str, value: Any) -> Any:
    if value is None:
        return None
    if name in _LIST_FIELDS:
        return list(value)
    if name == "Condition":
        return dict(value)
    return value


def _lookup(env: list[Mapping[str, Any]], path: str) -> Any:
    key = path.lower()
    for frame in reversed(env):
        if key in frame:
            return frame[key]
    raise SchemaError(f"unresolvable path {path!r}")  # unreachable post-parse


def _compare_scalar(value: Any, op: CompareOp, literal: Literal) -> bool:
    if op is CompareOp.LIKE:
        return isinstance(value, str) and like_match(str(literal), value)
    if value is None:
        return op is CompareOp.NE
    # no field holds a number, so == equates a bool only with a bool
    return (value == literal) is (op is CompareOp.EQ)


def _eval(node: Node, env: list[Mapping[str, Any]]) -> bool:
    if isinstance(node, Or):
        return any(_eval(child, env) for child in node.children)
    if isinstance(node, And):
        return all(_eval(child, env) for child in node.children)
    if isinstance(node, Not):
        return not _eval(node.child, env)
    if isinstance(node, LiteralBool):
        return node.value
    if isinstance(node, Exists):
        collection = _lookup(env, node.path)
        if not collection:
            return False
        return any(_eval(node.inner, env + [element]) for element in collection)
    if isinstance(node, IsNull):
        return _lookup(env, node.path) is None
    if isinstance(node, Compare):
        value = _lookup(env, node.path)
        if isinstance(value, list):
            return any(_compare_scalar(v, node.op, node.literal) for v in value)
        return _compare_scalar(value, node.op, node.literal)
    raise TypeError(f"unknown node type {type(node).__name__}")


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def reference_tokenize(source: str) -> list[Token]:
    """Tokenize rule source; raises LexError with a byte offset on failure."""
    if source.isascii():
        def off(i: int) -> int:
            return i
    else:
        offsets = [0] * (len(source) + 1)
        total = 0
        for idx, ch in enumerate(source):
            offsets[idx] = total
            total += len(ch.encode("utf-8"))
        offsets[len(source)] = total

        def off(i: int) -> int:
            return offsets[i]

    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if source.startswith("--", i):
            end = source.find("\n", i)
            i = n if end < 0 else end + 1
            continue
        if ch == "'":
            start = i
            j = i + 1
            content: list[str] = []
            while True:
                if j >= n:
                    raise LexError("unterminated string", off(start))
                c = source[j]
                if c == "'":
                    if j + 1 < n and source[j + 1] == "'":
                        content.append("'")
                        j += 2
                    else:
                        j += 1
                        break
                else:
                    content.append(c)
                    j += 1
            tokens.append(Token(TokenKind.STRING, "".join(content), off(start)))
            i = j
            continue
        match = _IDENT_RE.match(source, i)
        if match:
            text = match.group(0)
            upper = text.upper()
            kind = TokenKind.KEYWORD if upper in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, upper if kind is TokenKind.KEYWORD else text, off(i)))
            i = match.end()
            continue
        if source.startswith("!=", i):
            tokens.append(Token(TokenKind.PUNCT, "!=", off(i)))
            i += 2
            continue
        if ch in "()=":
            tokens.append(Token(TokenKind.PUNCT, ch, off(i)))
            i += 1
            continue
        raise LexError(f"illegal character {ch!r}", off(i))
    tokens.append(Token(TokenKind.EOF, "", off(n)))
    return tokens
