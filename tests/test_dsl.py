"""Lexer, parser, renderer and evaluator for the rule language."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bucketlens.dsl import (
    _ELEMENT_FIELDS,
    _RECORD_FIELDS,
    And,
    Compare,
    CompareOp,
    Exists,
    IsNull,
    LiteralBool,
    Not,
    Or,
    RuleAst,
    TokenKind,
    bind_record,
    eval_rule,
    like_match,
    parse_rule,
    render_rule,
    tokenize,
)
from bucketlens.errors import LexError, ParseError, SchemaError
from bucketlens.fleetgen import ADVERSARIAL_MIX, PAPER_MIX, MixSpec, generate_fleet
from bucketlens.model import BucketConfig, Severity
from bucketlens.policy import derive
from bucketlens.unified import unified_dsl_source

from conftest import (
    agreement_configs,
    allusers_read_bucket,
    locked_bucket,
    public_policy_bucket,
    random_bucket_config,
)
from dsl_oracle import _eval, _flatten, reference_tokenize


def _record(config: BucketConfig):
    return bind_record(config, derive(config))


def _parse_body(expr: str):
    return parse_rule(f"RULE probe SEVERITY Low WHEN {expr}").body


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------

def test_tokenize_predicate():
    tokens = tokenize("Exposure = 'public_facing'")
    kinds = [t.kind for t in tokens]
    assert kinds == [TokenKind.IDENT, TokenKind.PUNCT, TokenKind.STRING, TokenKind.EOF]
    assert tokens[0].text == "Exposure"
    assert tokens[2].text == "public_facing"


def test_tokenize_empty_input():
    tokens = tokenize("")
    assert [t.kind for t in tokens] == [TokenKind.EOF]


def test_tokenize_unterminated_string():
    with pytest.raises(LexError) as exc:
        tokenize("'unclosed")
    assert exc.value.offset == 0


def test_tokenize_illegal_character():
    with pytest.raises(LexError) as exc:
        tokenize("a = #")
    assert exc.value.offset == 4


def test_dotted_path_is_a_lex_error_at_the_dot():
    # a path is one identifier: the schema has no nested fields
    with pytest.raises(LexError) as exc:
        parse_rule("RULE r SEVERITY High WHEN Exposure.value = 'internal'")
    assert exc.value.offset == len("RULE r SEVERITY High WHEN Exposure")


def test_tokenize_doubled_quote_escape():
    tokens = tokenize("'it''s'")
    assert tokens[0].text == "it's"


def test_tokenize_comments_and_keywords_case():
    tokens = tokenize("-- comment\nrule R severity high WHEN true")
    assert tokens[0].kind == TokenKind.KEYWORD and tokens[0].text == "RULE"
    assert tokens[2].kind == TokenKind.KEYWORD and tokens[2].text == "SEVERITY"


def test_tokenize_offsets_increase_and_are_bytes():
    source = "-- café comment\nExposure = 'x'"
    tokens = tokenize(source)
    offsets = [t.offset for t in tokens]
    assert offsets == sorted(set(offsets))
    # the first token starts after the comment; é is two bytes in UTF-8
    assert tokens[0].offset == len(source[: source.index("Exposure")].encode("utf-8"))


def _lex_outcome(lex, source: str):
    try:
        return [(t.kind, t.text, t.offset) for t in lex(source)]
    except LexError as exc:
        return type(exc), str(exc), exc.offset


# Every character class the lexer tells apart, multi-byte characters (offsets
# are UTF-8 bytes), and ASCII and non-ASCII digits: a digit starts no token.
_LEX_PIECES = st.sampled_from(
    [*" \t\r\n'-!=().#_aZq09é٣", "''", "--", "!=", "rule", "When", "null", "1.5"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LEX_PIECES, max_size=30).map("".join))
@example("'a''")
@example("'it''s' -- end")
@example("x = '\n'''")
@example("'é' #")  # an illegal character after a multi-byte string
@example("x = 'é")  # unterminated after a multi-byte character
@example("-- é")  # a multi-byte comment up to the end
@example("é٣")  # a non-ASCII digit after a multi-byte character
@example("٣ é")  # a two-byte non-ASCII digit first
def test_tokenize_matches_reference_lexer(source):
    assert _lex_outcome(tokenize, source) == _lex_outcome(reference_tokenize, source)


def test_a_digit_that_starts_a_token_is_an_illegal_character():
    # there are no number literals; a digit of any script starts no token
    for source, char, offset in [
        ("RULE r SEVERITY Low WHEN WebsiteEnabled = 1", "1", 42),
        ("RULE r SEVERITY Low WHEN Name = ٣٤", "٣", 32),
        ("RULE 'é' SEVERITY Low WHEN Name = 0.5", "0", 35),  # 34 characters, é is two bytes
        ("RULE r SEVERITY Low WHEN 5", "5", 25),
    ]:
        with pytest.raises(LexError) as exc:
            parse_rule(source)
        assert (str(exc.value), exc.value.offset) == (f"illegal character {char!r} (offset {offset})", offset)
    # after its first character, an identifier may hold digits
    assert [(t.kind, t.text) for t in tokenize("s3 _9")] == [
        (TokenKind.IDENT, "s3"), (TokenKind.IDENT, "_9"), (TokenKind.EOF, ""),
    ]


@pytest.mark.parametrize(
    "source,offset",
    [("x = '\ud800'", 5), ("-- é\udfff", 5), ("\ud800", 0)],
    ids=["in-string", "in-comment", "alone"],
)
def test_a_lone_surrogate_is_an_illegal_character_at_its_byte_offset(source, offset):
    surrogate = next(char for char in source if "\ud800" <= char <= "\udfff")
    with pytest.raises(LexError) as exc:
        tokenize(source)
    assert str(exc.value) == f"illegal character {surrogate!r} (offset {offset})"


# ---------------------------------------------------------------------------
# parse_rule
# ---------------------------------------------------------------------------

def test_parse_minimal_rule():
    ast = parse_rule("RULE r SEVERITY High WHEN TRUE")
    assert ast == RuleAst(name="r", severity=Severity.HIGH, body=LiteralBool(True))


def test_parse_unknown_path_is_schema_error():
    with pytest.raises(SchemaError):
        parse_rule("RULE r SEVERITY High WHEN nosuchfield = 'x'")


def test_parse_error_reports_offset_and_expectations():
    with pytest.raises(ParseError) as exc:
        parse_rule("RULE r SEVERITY High WHEN Exposure =")
    assert exc.value.offset == len("RULE r SEVERITY High WHEN Exposure =")
    assert "string" in exc.value.expected


def test_or_binds_looser_than_and():
    body = _parse_body("SensitiveData = TRUE AND WebsiteEnabled = TRUE OR PolicyStatusPublic = TRUE")
    assert isinstance(body, Or)
    assert isinstance(body.children[0], And)


def test_not_binds_tightest():
    body = _parse_body("NOT SensitiveData = TRUE AND WebsiteEnabled = TRUE")
    assert isinstance(body, And)
    assert isinstance(body.children[0], Not)


def test_exists_requires_collection():
    with pytest.raises(SchemaError):
        _parse_body("EXISTS(Exposure WHERE SensitiveData = TRUE)")


def test_collection_cannot_be_compared():
    with pytest.raises(SchemaError):
        _parse_body("AclGrants = 'x'")


# Comparisons against the map-valued Condition, which could never hold (or,
# for !=, always held); only IS [NOT] NULL applies to a map.
CONDITION_COMPARISONS = [
    "RULE e SEVERITY Low WHEN EXISTS(PolicyStatements WHERE Condition = 'x')",
    "RULE e SEVERITY Low WHEN EXISTS(PolicyStatements WHERE Condition != 'x')",
    "RULE e SEVERITY Low WHEN EXISTS(PolicyStatements WHERE Condition LIKE '%')",
    "RULE e SEVERITY Low WHEN EXISTS(PolicyStatements WHERE Condition LIKE '%SourceIp%')",
    "RULE e SEVERITY Low WHEN EXISTS(PolicyStatements WHERE condition != FALSE)",
]


@pytest.mark.parametrize("source", CONDITION_COMPARISONS, ids=["eq", "ne", "like-any", "like-part", "ne-bool-lowercase"])
def test_map_field_cannot_be_compared(source):
    with pytest.raises(SchemaError) as exc:
        parse_rule(source)
    assert exc.value.offset == source.lower().index("condition")
    assert str(exc.value).lower().startswith("map 'condition' cannot be compared to a literal")


def test_built_map_field_comparison_is_a_schema_error():
    for op, literal in ((CompareOp.EQ, "x"), (CompareOp.NE, False), (CompareOp.LIKE, "%")):
        with pytest.raises(SchemaError, match="map 'Condition' cannot be compared"):
            RuleAst("r", Severity.LOW, Exists("PolicyStatements", Compare("Condition", op, literal)))


@pytest.mark.parametrize(
    "body,message",
    [
        (Compare("Name", CompareOp.LIKE, True), "LIKE pattern must be a string, got True"),
        (Compare("Name", CompareOp.EQ, 5), "= needs a string or boolean literal, got 5"),
        (Compare("Name", CompareOp.NE, None), "!= needs a string or boolean literal, got None"),
        (Compare("Name", "=", "x"), "unknown comparison operator '='"),
    ],
    ids=["like-bool", "eq-int", "ne-none", "op-str"],
)
def test_built_compare_operator_and_literal_are_checked(body, message):
    # render_rule's text must parse back, and the parser takes no such literal
    with pytest.raises(SchemaError) as exc:
        RuleAst("r", Severity.LOW, body)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "body,message",
    [
        (Compare("Exposure.value", CompareOp.EQ, "internal"), "unknown path 'Exposure.value'"),
        (IsNull("PolicyStatements.Sid"), "unknown path 'PolicyStatements.Sid'"),
        (
            Exists("PolicyStatements.Action", LiteralBool(True)),
            "EXISTS requires a collection path, got 'PolicyStatements.Action'",
        ),
        (Exists("PolicyStatements", Compare("Action.0", CompareOp.LIKE, "s3:%")), "unknown path 'Action.0'"),
    ],
    ids=[f"body{index}" for index in range(4)],
)
def test_built_rule_with_a_dotted_path_is_a_schema_error(body, message):
    # a path is one field name; a dotted name is no field of the schema
    with pytest.raises(SchemaError) as exc:
        RuleAst("r", Severity.LOW, body)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "body",
    [
        Compare(("Exposure",), CompareOp.EQ, "internal"),
        IsNull(("PolicyStatements",)),
        Exists(("PolicyStatements",), LiteralBool(True)),
    ],
    ids=repr,
)
def test_built_rule_with_a_tuple_path_is_an_error(body):
    # a tuple is no field name: the rule must not be built, let alone match
    with pytest.raises(AttributeError):
        RuleAst("r", Severity.LOW, body)


def test_built_rule_is_resolved_like_a_parsed_one():
    with pytest.raises(SchemaError, match="cannot be compared"):
        RuleAst("r", Severity.LOW, Compare("AclGrants", CompareOp.EQ, "x"))
    with pytest.raises(SchemaError, match="EXISTS requires a collection"):
        RuleAst("r", Severity.LOW, Exists("Exposure", LiteralBool(True)))
    with pytest.raises(SchemaError, match="unknown path"):
        RuleAst("r", Severity.LOW, IsNull("Sid"))


def test_element_fields_only_resolve_inside_their_exists():
    with pytest.raises(SchemaError):
        _parse_body("GranteeURI LIKE '%x%'")
    body = _parse_body("EXISTS(AclGrants WHERE GranteeURI LIKE '%x%')")
    assert isinstance(body, Exists)


def test_record_fields_visible_inside_exists():
    body = _parse_body("EXISTS(PolicyStatements WHERE Effect = 'Allow' AND RestrictPublicBuckets = FALSE)")
    assert isinstance(body, Exists)


def test_paths_resolve_case_insensitively_to_canonical():
    assert _parse_body("exposure = 'internal'") == Compare("Exposure", CompareOp.EQ, "internal")
    body = _parse_body("EXISTS(policystatements WHERE condition IS NULL)")
    assert body == Exists("PolicyStatements", IsNull("Condition"))


def test_unified_rule_parses_to_five_way_or():
    ast = parse_rule(unified_dsl_source())
    assert isinstance(ast.body, Or)
    assert len(ast.body.children) == 5
    assert ast.severity is Severity.HIGH


def test_unified_rule_text_contains_allusers_pattern():
    assert "%global/AllUsers%" in unified_dsl_source()


def test_shipped_rule_file_matches_embedded_source():
    from pathlib import Path

    repo_rule = Path(__file__).resolve().parent.parent / "rules" / "unified.rule"
    assert repo_rule.read_text(encoding="utf-8") == unified_dsl_source()


# ---------------------------------------------------------------------------
# like_match
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "pattern,text,expected",
    [
        ("%global/AllUsers%", "http://acs.amazonaws.com/groups/global/AllUsers", True),
        ("%", "", True),
        ("%*%", "arn:aws:iam::123:root", False),  # * is literal in LIKE
        ("%*%", "*", True),
        ("READ", "READ", True),
        ("READ", "READ_ACP", False),
        ("a%c", "abc", True),
        ("a%c", "ab", False),
        ("", "", True),
        ("abc", "ABC", False),  # case-sensitive
    ],
)
def test_like_match_cases(pattern, text, expected):
    assert like_match(pattern, text) is expected


def _like_oracle(pattern: str, text: str) -> bool:
    # fullmatch anchors exactly; a manual ^...$ would match before a trailing
    # newline and misreport pattern '' against text '\n'
    regex = ".*".join(re.escape(part) for part in pattern.split("%"))
    return re.fullmatch(regex, text, re.DOTALL) is not None


@given(
    st.text(alphabet="ab%*/U", min_size=0, max_size=14),
    st.text(alphabet="ab*/U\n", min_size=0, max_size=14),
)
def test_like_match_agrees_with_regex_oracle(pattern, text):
    assert like_match(pattern, text) == _like_oracle(pattern, text)


# ---------------------------------------------------------------------------
# eval_rule
# ---------------------------------------------------------------------------

def test_unified_rule_false_on_locked_bucket():
    ast = parse_rule(unified_dsl_source())
    assert eval_rule(ast, _record(locked_bucket())) is False


def test_unified_rule_true_on_allusers_read():
    ast = parse_rule(unified_dsl_source())
    assert eval_rule(ast, _record(allusers_read_bucket())) is True


def test_condition_is_null_inside_exists():
    ast = parse_rule(
        "RULE probe SEVERITY Low WHEN EXISTS(PolicyStatements WHERE Condition IS NULL)"
    )
    assert eval_rule(ast, _record(public_policy_bucket())) is True


def test_absent_policy_semantics():
    record = _record(locked_bucket())
    assert eval_rule(_parse_body_rule("PolicyStatements IS NULL"), record) is True
    assert eval_rule(_parse_body_rule("EXISTS(PolicyStatements WHERE Effect = 'Allow')"), record) is False
    assert eval_rule(_parse_body_rule("Name != 'locked-bucket'"), record) is False


def _parse_body_rule(expr: str) -> RuleAst:
    return parse_rule(f"RULE probe SEVERITY Low WHEN {expr}")


def test_absent_sid_is_null():
    import dataclasses

    bucket = public_policy_bucket()
    no_sid = dataclasses.replace(bucket.policy[0], sid=None)
    bucket = dataclasses.replace(bucket, policy=(no_sid,))
    assert (
        eval_rule(
            _parse_body_rule("EXISTS(PolicyStatements WHERE Sid IS NULL)"), _record(bucket)
        )
        is True
    )
    # and a None scalar compares unequal to every literal
    assert (
        eval_rule(
            _parse_body_rule("EXISTS(PolicyStatements WHERE Sid != 'anything')"), _record(bucket)
        )
        is True
    )
    assert (
        eval_rule(
            _parse_body_rule("EXISTS(PolicyStatements WHERE Sid = 'anything')"), _record(bucket)
        )
        is False
    )


def test_list_fields_match_existentially():
    record = _record(public_policy_bucket())
    assert eval_rule(
        _parse_body_rule("EXISTS(PolicyStatements WHERE Action LIKE '%s3:GetObject%')"), record
    )
    assert not eval_rule(
        _parse_body_rule("EXISTS(PolicyStatements WHERE Action LIKE '%s3:PutObject%')"), record
    )
    assert eval_rule(
        _parse_body_rule("EXISTS(PolicyStatements WHERE Principal_AWS = '*')"), record
    )


def test_de_morgan_on_random_records():
    rng = random.Random(404)
    predicates = [
        "SensitiveData = TRUE",
        "Exposure = 'public_facing'",
        "RestrictPublicBuckets = FALSE",
        "EXISTS(AclGrants WHERE GranteeURI LIKE '%global/AllUsers%')",
        "EXISTS(PolicyStatements WHERE RestrictedAccessCondition IS NULL)",
        "PolicyStatements IS NULL",
    ]
    bodies = [_parse_body(p) for p in predicates]
    for _ in range(500):
        record = _record(random_bucket_config(rng))
        a, b = rng.choice(bodies), rng.choice(bodies)
        lhs = eval_rule(RuleAst("t", Severity.LOW, Not(And((a, b)))), record)
        rhs = eval_rule(RuleAst("t", Severity.LOW, Or((Not(a), Not(b)))), record)
        assert lhs == rhs


def test_eval_is_pure():
    ast = parse_rule(unified_dsl_source())
    record = _record(allusers_read_bucket())
    assert all(eval_rule(ast, record) for _ in range(50))


# ---------------------------------------------------------------------------
# render / parse round trip
# ---------------------------------------------------------------------------

HAND_RULES = [
    "RULE r SEVERITY High WHEN TRUE",
    "RULE r SEVERITY Low WHEN FALSE",
    "RULE 'spaced name' SEVERITY Medium WHEN SensitiveData = TRUE",
    "RULE q SEVERITY High WHEN NOT (SensitiveData = TRUE OR WebsiteEnabled = TRUE)",
    "RULE q SEVERITY High WHEN Exposure != 'internal'",
    "RULE q SEVERITY Low WHEN Name LIKE 'prod-%' AND Region = 'us-east-1'",
    "RULE q SEVERITY Low WHEN EXISTS(AclGrants WHERE Permission LIKE 'READ')",
    "RULE q SEVERITY Low WHEN EXISTS(PolicyStatements WHERE Effect = 'Deny' AND Sid IS NOT NULL)",
    "RULE q SEVERITY Medium WHEN PolicyStatements IS NULL OR NOT PolicyStatusPublic = TRUE",
    "RULE q SEVERITY Medium WHEN (BlockPublicAcls = FALSE AND IgnorePublicAcls = FALSE) OR BlockPublicPolicy = FALSE",
    "RULE 'it''s quoted' SEVERITY High WHEN Region != 'eu-west-1'",
    "RULE q SEVERITY High WHEN EXISTS(PolicyStatements WHERE EXISTS(AclGrants WHERE GranteeType = 'Group'))",
]


def _random_ast(rng: random.Random, depth: int = 0):
    scalar_preds = [
        Compare("SensitiveData", CompareOp.EQ, True),
        Compare("Exposure", CompareOp.NE, "internal"),
        Compare("Name", CompareOp.LIKE, "prod-%"),
        Compare("Region", CompareOp.EQ, "us-east-1"),
        IsNull("PolicyStatements"),
        LiteralBool(rng.random() < 0.5),
        Exists(
            "AclGrants",
            Compare("GranteeURI", CompareOp.LIKE, "%global/AllUsers%"),
        ),
        Exists(
            "PolicyStatements",
            And((Compare("Effect", CompareOp.EQ, "Allow"), IsNull("RestrictedAccessCondition"))),
        ),
        Not(IsNull("PolicyStatements")),
        Exists("PolicyStatements", Not(IsNull("Sid"))),
        Exists("PolicyStatements", Compare("Action", CompareOp.LIKE, "%s3:Get%")),
        Exists("PolicyStatements", Compare("Principal_AWS", CompareOp.EQ, "*")),
        Exists("PolicyStatements", Compare("RestrictedAccessCondition", CompareOp.NE, "aws:SourceIp")),
    ]
    if depth >= 3 or rng.random() < 0.35:
        return rng.choice(scalar_preds)
    kind = rng.choice(("and", "or", "not"))
    if kind == "not":
        return Not(_random_ast(rng, depth + 1))
    children = tuple(_random_ast(rng, depth + 1) for _ in range(rng.randint(2, 3)))
    return And(children) if kind == "and" else Or(children)


def test_round_trip_corpus():
    corpus = list(HAND_RULES) + [unified_dsl_source()]
    rng = random.Random(777)
    for index in range(45):
        ast = RuleAst(f"gen-{index}", Severity.MEDIUM, _random_ast(rng))
        corpus.append(render_rule(ast))
    assert len(corpus) >= 50
    for source in corpus:
        first = parse_rule(source)
        rendered = render_rule(first)
        assert parse_rule(rendered) == first


def test_is_not_null_parses_as_not_is_null():
    source = "RULE q SEVERITY Low WHEN EXISTS(PolicyStatements WHERE Effect = 'Deny' AND Sid IS NOT NULL)"
    built = RuleAst(
        "q", Severity.LOW,
        Exists("PolicyStatements", And((Compare("Effect", CompareOp.EQ, "Deny"), Not(IsNull("Sid"))))),
    )
    ast = parse_rule(source)
    assert ast == built
    rendered = render_rule(ast)
    assert rendered == "RULE 'q' SEVERITY Low WHEN EXISTS(PolicyStatements WHERE Effect = 'Deny' AND NOT Sid IS NULL)"
    assert parse_rule(rendered) == built


def _field_values(config: BucketConfig):
    """Every value a record or element field reader returns for the bucket,
    and each member of a list-valued one."""
    record = _record(config)
    for name, get_field in _RECORD_FIELDS.items():
        value = get_field(config, record.derived)
        yield value
        for element in (value or ()) if name in _ELEMENT_FIELDS else ():
            for get_element_field in _ELEMENT_FIELDS[name].values():
                element_value = get_element_field(element, record.keys)
                yield element_value
                if isinstance(element_value, (tuple, list)):
                    yield from element_value


def test_no_record_field_holds_a_number():
    # the rule language has no number literals because no field holds a
    # number; a numeric field fails here, rather than never matching in silence
    configs = [*agreement_configs()]
    for mix in (PAPER_MIX, ADVERSARIAL_MIX):
        configs += [config for config, _ in generate_fleet(MixSpec(dict(mix), total=1000, seed=42))]
    kinds = {type(value) for config in configs for value in _field_values(config)}
    assert not [kind for kind in kinds if issubclass(kind, (int, float)) and kind is not bool], kinds
    assert {str, bool, tuple, list, dict, type(None)} <= kinds


# ---------------------------------------------------------------------------
# compiled matcher vs the reference interpreter
# ---------------------------------------------------------------------------

# Cases where the two evaluators could plausibly part ways: a dict-valued or
# absent Condition under IS NOT NULL, None Sid, bool literals against str
# fields, and an identifier inside a nested EXISTS that resolves to the outer
# element.
EDGE_RULES = [
    "RULE e SEVERITY Low WHEN EXISTS(PolicyStatements WHERE Condition IS NOT NULL)",
    "RULE e SEVERITY Low WHEN EXISTS(PolicyStatements WHERE Sid != 'sid-0000')",
    "RULE e SEVERITY Low WHEN EXISTS(PolicyStatements WHERE Sid LIKE 'sid-%')",
    "RULE e SEVERITY Low WHEN Region != TRUE",
    "RULE e SEVERITY Low WHEN WebsiteEnabled = 'True'",
    "RULE e SEVERITY Low WHEN EXISTS(PolicyStatements WHERE Action = TRUE)",
    "RULE e SEVERITY Low WHEN Exposure LIKE 'public%' AND Name LIKE '%-%'",
    "RULE e SEVERITY Low WHEN EXISTS(PolicyStatements WHERE RestrictedAccessCondition != 'aws:SourceIp')",
    "RULE e SEVERITY Low WHEN EXISTS(PolicyStatements WHERE Resource LIKE '%/*')",
    "RULE e SEVERITY Low WHEN EXISTS(PolicyStatements WHERE Principal_AWS != '*')",
    "RULE e SEVERITY Low WHEN EXISTS(PolicyStatements WHERE "
    "EXISTS(AclGrants WHERE Effect = 'Allow' AND Permission = 'READ'))",
    "RULE e SEVERITY Low WHEN EXISTS(PolicyStatements WHERE Effect = 'Deny' AND "
    "EXISTS(PolicyStatements WHERE Effect = 'Allow' AND Action LIKE 's3:%'))",
    "RULE e SEVERITY Low WHEN EXISTS(AclGrants WHERE "
    "EXISTS(PolicyStatements WHERE GranteeURI LIKE '%AllUsers' AND Sid IS NULL))",
    "RULE e SEVERITY Low WHEN AclGrants IS NULL OR NOT EXISTS(AclGrants WHERE TRUE)",
]


def _compiler_corpus() -> list[RuleAst]:
    rng = random.Random(2718)
    rules = [parse_rule(source) for source in HAND_RULES + EDGE_RULES + [unified_dsl_source()]]
    rules += [RuleAst(f"gen-{index}", Severity.LOW, _random_ast(rng)) for index in range(120)]
    return rules


def test_compiled_rules_agree_with_the_interpreter():
    records = [_record(config) for config in agreement_configs()]
    flat = [[_flatten(record)] for record in records]
    for ast in _compiler_corpus():
        for record, env in zip(records, flat):
            assert eval_rule(ast, record) is _eval(ast.body, env), render_rule(ast)


def test_compiled_rule_is_built_once_and_ignored_by_equality():
    ast = parse_rule("RULE r SEVERITY High WHEN TRUE")
    assert ast._match is ast._match
    assert "_match" not in repr(ast)
    assert ast == RuleAst("r", Severity.HIGH, LiteralBool(True))
    assert hash(ast) == hash(RuleAst("r", Severity.HIGH, LiteralBool(True)))


def test_flatten_is_todays_record_shape():
    bucket = public_policy_bucket()
    flat = _flatten(_record(bucket))
    assert flat["name"] == bucket.name
    assert flat["aclgrants"] == []
    assert flat["policystatements"] == [
        {
            "sid": "AllowPublicRead",
            "effect": "Allow",
            "principal_aws": ["*"],
            "action": ["s3:GetObject"],
            "resource": [f"arn:aws:s3:::{bucket.name}/*"],
            "condition": None,
            "restrictedaccesscondition": None,
        }
    ]
