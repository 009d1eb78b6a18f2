"""A small SQL-flavored rule language: lexer, parser, renderer, compiler.

Grammar (keywords case-insensitive, identifiers resolved case-insensitively):

    rule      := RULE name SEVERITY level WHEN expr
    expr      := and_expr (OR and_expr)*
    and_expr  := unary (AND unary)*
    unary     := NOT unary | primary
    primary   := '(' expr ')'
              | EXISTS '(' path WHERE expr ')'
              | TRUE | FALSE
              | predicate
    predicate := path ( ('=' | '!=' | LIKE) literal | IS [NOT] NULL )
    path      := IDENT
    literal   := STRING | TRUE | FALSE

OR binds looser than AND; NOT binds tightest. Strings are single-quoted with
doubled-quote escaping; ``--`` starts a line comment.

Rules range over one bucket record: the bucket configuration flattened
together with its derived properties. A path is one identifier; ``_resolve``
is the only place it is resolved, against the innermost EXISTS element
first, then the record, for the parser (which reports the token offset) and
for the compiler of a directly built ``RuleAst`` alike.

Evaluation is two-valued. A path holding an absent optional value compares
unequal to every literal, fails every LIKE, and satisfies IS NULL; EXISTS
over an absent or empty collection is false. Comparisons against list-valued
fields (Action, Principal_AWS, ...) hold if any element satisfies them.
``IS NOT NULL`` parses to ``Not(IsNull(path))``. There are no number
literals: no field of the record holds a number. A collection and the
map-valued ``Condition`` take only ``IS [NOT] NULL``: any other comparison is
a ``SchemaError``, where it would otherwise never hold (or always, for ``!=``).
A directly built ``Compare`` is checked as the parser checks one: its
operator is a ``CompareOp``, ``LIKE`` takes a string, and ``=`` and ``!=`` a
string or a boolean.

A ``RuleAst`` compiles its body once, on construction, into nested closures
with every path resolved at compile time; ``bind_record`` only pairs the
bucket with its derived properties, and fields are read when a rule reaches
them. The reference interpreter the compiler is tested against lives in
``tests/dsl_oracle.py``.
"""

from __future__ import annotations

import enum
import re
from operator import attrgetter
from typing import Any, Callable, Sequence, Union

from .errors import LexError, ParseError, SchemaError
from .model import BPA_FLAGS, BucketConfig, PolicyStatement, Record, Severity, field
from .policy import (
    RESTRICTIVE_CONDITION_KEYS,
    DerivedProperties,
    _runs_match,
)


def like_match(pattern: str, text: str) -> bool:
    """LIKE with ``%`` as the only wildcard; case-sensitive, all else literal."""
    return _runs_match(pattern.split("%"), text)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

class TokenKind(enum.Enum):
    KEYWORD = "Keyword"
    IDENT = "Ident"
    STRING = "String"
    PUNCT = "Punct"
    EOF = "Eof"


class Token(Record):
    kind: TokenKind
    text: str
    offset: int  # byte position in the UTF-8 encoding of the source


KEYWORDS = frozenset(
    {
        "RULE", "SEVERITY", "WHEN", "AND", "OR", "NOT",
        "EXISTS", "WHERE", "LIKE", "IS", "NULL", "TRUE", "FALSE",
    }
)

# One alternative per token class, tried in this order; the ``(?!')`` keeps
# a closing quote from being the first half of a doubled quote, so ``'a''``
# stays unterminated. A digit may follow an identifier's first character
# but starts no token.
_TOKEN_RE = re.compile(
    r"""
    (?P<skip>[ \t\r\n]+|--[^\n]*\n?)
    |'(?P<string>[^']*(?:''[^']*)*)'(?!')
    |(?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    |(?P<punct>!=|[()=])
    """,
    re.VERBOSE,
)


def tokenize(source: str) -> list[Token]:
    """Tokenize rule source; raises LexError with a byte offset on failure."""
    tokens: list[Token] = []
    i = offset = 0  # character index, and its byte offset in UTF-8
    n = len(source)
    while i < n:
        match = _TOKEN_RE.match(source, i)
        if match is None:
            if source[i] == "'":
                raise LexError("unterminated string", offset)
            raise LexError(f"illegal character {source[i]!r}", offset)
        group = match.lastgroup
        text = match.group(group)
        if group == "ident" and text.upper() in KEYWORDS:
            tokens.append(Token(TokenKind.KEYWORD, text.upper(), offset))
        elif group == "string":
            tokens.append(Token(TokenKind.STRING, text.replace("''", "'"), offset))
        elif group != "skip":
            tokens.append(Token(TokenKind[group.upper()], text, offset))
        try:
            offset += len(match.group().encode("utf-8"))
        except UnicodeEncodeError as exc:  # a lone surrogate, which UTF-8 cannot hold
            char, before = exc.object[exc.start], exc.object[: exc.start]
            raise LexError(f"illegal character {char!r}", offset + len(before.encode("utf-8"))) from None
        i = match.end()
    tokens.append(Token(TokenKind.EOF, "", offset))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class CompareOp(enum.Enum):
    EQ = "="
    NE = "!="
    LIKE = "LIKE"


Literal = Union[str, bool]


class And(Record):
    children: tuple["Node", ...]


class Or(Record):
    children: tuple["Node", ...]


class Not(Record):
    child: "Node"


class Exists(Record):
    path: str
    inner: "Node"


class Compare(Record):
    path: str
    op: CompareOp
    literal: Literal


class IsNull(Record):
    path: str


class LiteralBool(Record):
    value: bool


Node = Union[And, Or, Not, Exists, Compare, IsNull, LiteralBool]


class RuleAst(Record):
    name: str
    severity: Severity
    body: Node
    # the body compiled once; see ``_compile``
    _match: _Matcher = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_match", _compile(self.body, ()))


# ---------------------------------------------------------------------------
# Record schema
# ---------------------------------------------------------------------------

def _restricted_access_keys(stmt: PolicyStatement) -> list[str] | None:
    if stmt.condition is None:
        return None
    return sorted(k for k in stmt.condition if k in RESTRICTIVE_CONDITION_KEYS) or None


# The one schema table. Record fields (scalars and collections) read
# (config, derived); element fields read the element.
_RECORD_FIELDS: dict[str, Callable[[BucketConfig, DerivedProperties], Any]] = {
    "Name": lambda c, d: c.name,
    "Region": lambda c, d: c.region,
    "WebsiteEnabled": lambda c, d: c.website_enabled,
    **{
        label: lambda c, d, flag=attrgetter(f"public_access_block.{name}"): flag(c)
        for name, label in BPA_FLAGS
    },
    "PolicyStatusPublic": lambda c, d: d.policy_status_public,
    "Exposure": lambda c, d: d.exposure.value,
    "SensitiveData": lambda c, d: d.sensitive_data,
    "AclGrants": lambda c, d: c.acl_grants,
    "PolicyStatements": lambda c, d: c.policy,
}

_ELEMENT_FIELDS: dict[str, dict[str, Callable[[Any], Any]]] = {
    "AclGrants": {
        "GranteeType": lambda g: g.grantee_type.value,
        "GranteeURI": lambda g: g.grantee_uri,
        "Permission": lambda g: g.permission.value,
    },
    "PolicyStatements": {
        "Sid": lambda s: s.sid,
        "Effect": lambda s: s.effect.value,
        "Principal_AWS": lambda s: s.principal_aws,
        "Action": lambda s: s.actions,
        "Resource": lambda s: s.resources,
        "Condition": lambda s: s.condition,
        "RestrictedAccessCondition": _restricted_access_keys,
    },
}

# Element fields holding a sequence (or None): comparisons hold if any element does.
_LIST_FIELDS = frozenset({"Principal_AWS", "Action", "Resource", "RestrictedAccessCondition"})

# Element fields holding a map (or None): no literal compares to a map.
_MAP_FIELDS = frozenset({"Condition"})

# lowered name -> canonical spelling: record fields, and each collection's element fields
_RECORD_NAMES = {name.lower(): name for name in _RECORD_FIELDS}
_ELEMENT_NAMES = {
    collection: {name.lower(): name for name in fields} for collection, fields in _ELEMENT_FIELDS.items()
}

_SEVERITIES = {"low": Severity.LOW, "medium": Severity.MEDIUM, "high": Severity.HIGH}


def _resolve(path: str, scopes: Sequence[str], use: str, offset: int | None = None) -> tuple[int | None, str]:
    """Resolve a field name to (index of the binding EXISTS scope, or None for
    the record; canonical field name).

    ``scopes`` names the enclosing EXISTS collections, outermost first; the
    innermost element that has the field wins, then the record. ``use`` is
    ``"exists"`` (the path must be a record collection), ``"compare"`` (it
    must not be one) or ``"null"`` (any field). Every failure is a
    ``SchemaError`` at ``offset``.
    """
    depth, name, key = None, None, path.lower()
    for index in range(len(scopes) - 1, -1, -1):
        fields = _ELEMENT_NAMES[scopes[index]]
        if key in fields:
            depth, name = index, fields[key]
            break
    else:
        name = _RECORD_NAMES.get(key)
    is_collection = depth is None and name in _ELEMENT_FIELDS
    if use == "exists":
        if not is_collection:
            raise SchemaError(f"EXISTS requires a collection path, got {path!r}", offset=offset)
    elif name is None:
        raise SchemaError(f"unknown path {path!r}", offset=offset)
    elif is_collection and use == "compare":
        raise SchemaError(f"collection {path!r} cannot be compared to a literal", offset=offset)
    elif name in _MAP_FIELDS and use == "compare":
        raise SchemaError(f"map {path!r} cannot be compared to a literal", offset=offset)
    return depth, name


def bind_record(config: BucketConfig, derived: DerivedProperties) -> tuple[BucketConfig, DerivedProperties]:
    """A bucket and its derived properties, as ``eval_rule`` takes them: the
    pair ``(config, derived)``; O(1), copies nothing."""
    return config, derived


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._scopes: list[str] = []  # enclosing EXISTS collections, innermost last

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _error(self, message: str, expected: set[str] = frozenset()) -> ParseError:
        return ParseError(message, self._peek().offset, frozenset(expected))

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if token.kind is TokenKind.KEYWORD and token.text == word:
            return self._advance()
        raise self._error(f"expected {word}, found {token.text or '<eof>'!r}", {word})

    def _expect_punct(self, text: str) -> Token:
        token = self._peek()
        if token.kind is TokenKind.PUNCT and token.text == text:
            return self._advance()
        raise self._error(f"expected {text!r}, found {token.text or '<eof>'!r}", {text})

    def parse_rule(self) -> RuleAst:
        self._expect_keyword("RULE")
        name_token = self._peek()
        if name_token.kind in (TokenKind.IDENT, TokenKind.STRING):
            self._advance()
        else:
            raise self._error("expected rule name", {"identifier", "string"})
        self._expect_keyword("SEVERITY")
        level_token = self._peek()
        severity = _SEVERITIES.get(level_token.text.lower()) if level_token.kind is TokenKind.IDENT else None
        if severity is None:
            raise self._error("expected severity level", {"Low", "Medium", "High"})
        self._advance()
        self._expect_keyword("WHEN")
        body = self._expr()
        token = self._peek()
        if token.kind is not TokenKind.EOF:
            raise self._error(f"unexpected trailing input {token.text!r}", {"<eof>"})
        return RuleAst(name=name_token.text, severity=severity, body=body)

    def _expr(self) -> Node:
        children = [self._and_expr()]
        while self._peek().kind is TokenKind.KEYWORD and self._peek().text == "OR":
            self._advance()
            children.append(self._and_expr())
        return children[0] if len(children) == 1 else Or(tuple(children))

    def _and_expr(self) -> Node:
        children = [self._unary()]
        while self._peek().kind is TokenKind.KEYWORD and self._peek().text == "AND":
            self._advance()
            children.append(self._unary())
        return children[0] if len(children) == 1 else And(tuple(children))

    def _unary(self) -> Node:
        token = self._peek()
        if token.kind is TokenKind.KEYWORD and token.text == "NOT":
            self._advance()
            return Not(self._unary())
        return self._primary()

    def _primary(self) -> Node:
        token = self._peek()
        if token.kind is TokenKind.PUNCT and token.text == "(":
            self._advance()
            inner = self._expr()
            self._expect_punct(")")
            return inner
        if token.kind is TokenKind.KEYWORD and token.text == "EXISTS":
            self._advance()
            self._expect_punct("(")
            path_token = self._peek()
            _, canonical = _resolve(self._raw_path(), self._scopes, "exists", path_token.offset)
            self._expect_keyword("WHERE")
            self._scopes.append(canonical)
            try:
                inner = self._expr()
            finally:
                self._scopes.pop()
            self._expect_punct(")")
            return Exists(canonical, inner)
        if token.kind is TokenKind.KEYWORD and token.text in ("TRUE", "FALSE"):
            self._advance()
            return LiteralBool(token.text == "TRUE")
        if token.kind is TokenKind.IDENT:
            return self._predicate()
        raise self._error(
            f"expected expression, found {token.text or '<eof>'!r}",
            {"(", "EXISTS", "NOT", "TRUE", "FALSE", "identifier"},
        )

    def _raw_path(self) -> str:
        if self._peek().kind is not TokenKind.IDENT:
            raise self._error("expected a field path", {"identifier"})
        return self._advance().text

    def _predicate(self) -> Node:
        path_token = self._peek()
        raw = self._raw_path()
        token = self._peek()
        # "=" and "!=" are only ever punctuation, and "LIKE" a keyword
        if token.kind in (TokenKind.PUNCT, TokenKind.KEYWORD) and token.text in ("=", "!=", "LIKE"):
            path = _resolve(raw, self._scopes, "compare", path_token.offset)[1]
            self._advance()
            literal_token = self._peek()
            literal = self._literal()
            if token.text == "LIKE" and not isinstance(literal, str):
                raise ParseError("LIKE pattern must be a string", literal_token.offset)
            return Compare(path, CompareOp(token.text), literal)
        if token.kind is TokenKind.KEYWORD and token.text == "IS":
            path = _resolve(raw, self._scopes, "null", path_token.offset)[1]
            self._advance()
            negated = self._peek().kind is TokenKind.KEYWORD and self._peek().text == "NOT"
            if negated:
                self._advance()
            self._expect_keyword("NULL")
            return Not(IsNull(path)) if negated else IsNull(path)
        raise self._error(
            f"expected a predicate operator after {raw!r}",
            {"=", "!=", "LIKE", "IS"},
        )

    def _literal(self) -> Literal:
        token = self._peek()
        if token.kind is TokenKind.STRING:
            self._advance()
            return token.text
        if token.kind is TokenKind.KEYWORD and token.text in ("TRUE", "FALSE"):
            self._advance()
            return token.text == "TRUE"
        raise self._error("expected a literal", {"string", "TRUE", "FALSE"})


def parse_rule(source: str) -> RuleAst:
    """Parse and schema-validate one rule; paths are stored canonically cased."""
    tokens = tokenize(source)
    try:
        return _Parser(tokens).parse_rule()
    except RecursionError:
        raise ParseError("rule is nested too deeply", 0) from None


# ---------------------------------------------------------------------------
# Renderer
# ---------------------------------------------------------------------------

def _quote(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


def _render(node: Node) -> str:
    if isinstance(node, Or):
        return " OR ".join(
            f"({_render(c)})" if isinstance(c, Or) else _render(c) for c in node.children
        )
    if isinstance(node, And):
        return " AND ".join(
            f"({_render(c)})" if isinstance(c, (Or, And)) else _render(c)
            for c in node.children
        )
    if isinstance(node, Not):
        child = node.child
        rendered = _render(child)
        if isinstance(child, (Or, And)):
            rendered = f"({rendered})"
        return f"NOT {rendered}"
    if isinstance(node, Exists):
        return f"EXISTS({node.path} WHERE {_render(node.inner)})"
    if isinstance(node, Compare):
        literal = node.literal
        text = _render(LiteralBool(literal)) if isinstance(literal, bool) else _quote(literal)
        return f"{node.path} {node.op.value} {text}"
    if isinstance(node, IsNull):
        return f"{node.path} IS NULL"
    if isinstance(node, LiteralBool):
        return "TRUE" if node.value else "FALSE"
    raise TypeError(f"unknown node type {type(node).__name__}")


def render_rule(ast: RuleAst) -> str:
    """Render an AST back to source; reparsing yields a structurally equal AST."""
    return f"RULE {_quote(ast.name)} SEVERITY {ast.severity.value} WHEN {_render(ast.body)}"


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------

# A compiled node takes the bound record, the pair ``(config, derived)``
# whose fields it reads only when it reaches them, and the elements bound by
# the enclosing EXISTS clauses, outermost first.
_Matcher = Callable[[tuple[BucketConfig, DerivedProperties], tuple], bool]


def _literal_test(op: CompareOp, literal: Literal) -> Callable[[Any], bool]:
    """One value against the literal: bools equal only bools, ``None`` is
    unequal to every literal, and LIKE holds only for strings."""
    if op is CompareOp.LIKE:
        pattern = literal
        chunks = pattern.split("%")
        if len(chunks) == 1:
            return lambda v: isinstance(v, str) and v == pattern
        if len(chunks) == 3 and not chunks[0] and not chunks[2]:
            needle = chunks[1]
            return lambda v: isinstance(v, str) and needle in v
        return lambda v: isinstance(v, str) and _runs_match(chunks, v)
    # bools only equal bools, and the two bools are singletons
    if isinstance(literal, bool):
        if op is CompareOp.EQ:
            return lambda v: v is literal
        return lambda v: v is not literal
    # a str literal equals only an equal str; None is unequal
    if op is CompareOp.EQ:
        return lambda v: v == literal
    return lambda v: v != literal


def _compile_value(path: str, scopes: tuple[str, ...], use: str) -> tuple[str, Callable[[tuple, tuple], Any]]:
    """(canonical field, reader of its value) for a path."""
    depth, name = _resolve(path, scopes, use)
    if depth is None:
        get_field = _RECORD_FIELDS[name]
        return name, lambda rec, env: get_field(rec[0], rec[1])
    get_element_field = _ELEMENT_FIELDS[scopes[depth]][name]
    return name, lambda rec, env: get_element_field(env[depth])


def _compile(node: Node, scopes: tuple[str, ...]) -> _Matcher:
    """Compile a node into a closure; ``scopes`` names the enclosing EXISTS collections."""
    if isinstance(node, (Or, And)):
        children = tuple(_compile(child, scopes) for child in node.children)
        if isinstance(node, Or):
            def match_or(rec: tuple, env: tuple) -> bool:
                for child in children:
                    if child(rec, env):
                        return True
                return False
            return match_or

        def match_and(rec: tuple, env: tuple) -> bool:
            for child in children:
                if not child(rec, env):
                    return False
            return True
        return match_and
    if isinstance(node, Not):
        child = _compile(node.child, scopes)
        return lambda rec, env: not child(rec, env)
    if isinstance(node, LiteralBool):
        value = node.value
        return lambda rec, env: value
    if isinstance(node, Exists):
        _, collection = _resolve(node.path, scopes, "exists")
        get_items = _RECORD_FIELDS[collection]
        inner = _compile(node.inner, scopes + (collection,))

        def match_exists(rec: tuple, env: tuple) -> bool:
            items = get_items(rec[0], rec[1])
            if items:
                for item in items:
                    if inner(rec, env + (item,)):
                        return True
            return False
        return match_exists
    if isinstance(node, IsNull):
        _, get = _compile_value(node.path, scopes, "null")
        return lambda rec, env: get(rec, env) is None
    if isinstance(node, Compare):
        name, get = _compile_value(node.path, scopes, "compare")
        # what the parser accepts, so that render_rule's text parses back
        if not isinstance(node.op, CompareOp):
            raise SchemaError(f"unknown comparison operator {node.op!r}")
        if node.op is CompareOp.LIKE and not isinstance(node.literal, str):
            raise SchemaError(f"LIKE pattern must be a string, got {node.literal!r}")
        if not isinstance(node.literal, (str, bool)):
            raise SchemaError(f"{node.op.value} needs a string or boolean literal, got {node.literal!r}")
        test = _literal_test(node.op, node.literal)
        if name not in _LIST_FIELDS:
            return lambda rec, env: test(get(rec, env))

        def match_any(rec: tuple, env: tuple) -> bool:
            values = get(rec, env)
            if values is None:
                return test(None)
            for value in values:
                if test(value):
                    return True
            return False
        return match_any
    raise TypeError(f"unknown node type {type(node).__name__}")


def eval_rule(ast: RuleAst, record: tuple[BucketConfig, DerivedProperties]) -> bool:
    """Evaluate a parsed rule against one bound record (see ``bind_record``)."""
    return ast._match(record, ())
