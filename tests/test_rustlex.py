"""The Rust lexer: byte-exact round trip, literal and comment kinds, and
delimiter matching that skips literals and comments."""

import pytest

from conftest import FIXTURES

from rustport.rustlex import matching, tokenize

FIXTURE_RS = sorted(FIXTURES.rglob("*.rs"))


def test_fixtures_present():
    assert len(FIXTURE_RS) >= 7


@pytest.mark.parametrize("path", FIXTURE_RS, ids=lambda p: str(p.relative_to(FIXTURES)))
def test_tokens_and_skipped_whitespace_reproduce_fixture(path):
    text = path.read_text(encoding="utf-8")
    rebuilt, end = [], 0
    for tok in tokenize(text):
        gap = text[end : tok.start]
        assert gap.strip() == "", (tok, gap)
        assert tok.closed, tok
        assert tok.line == 1 + text.count("\n", 0, tok.start)
        rebuilt += [gap, tok.text]
        end = tok.start + len(tok.text)
    rebuilt.append(text[end:])
    assert "".join(rebuilt) == text
    assert text[end:].strip() == ""


def kinds(text):
    return [(t.kind, t.text) for t in tokenize(text)]


@pytest.mark.parametrize(
    "text,kind",
    [
        ('"a { \\" }"', "string"),
        ('b"{"', "string"),
        ('br"C:\\"', "string"),
        ('r#"say "}" twice"#', "string"),
        ("'}'", "char"),
        ("'\\''", "char"),
        ("b'{'", "char"),
        ("'\\u{7d}'", "char"),
        ("// unsafe {", "comment"),
        ("/* outer /* inner } */ still */", "comment"),
    ],
)
def test_one_literal_or_comment_token(text, kind):
    assert kinds(text) == [(kind, text)]


def test_lifetime_is_a_lone_quote_before_its_name():
    assert kinds("&'a str") == [("punct", "&"), ("lifetime", "'"), ("ident", "a"), ("ident", "str")]


def test_raw_identifier_is_one_identifier():
    assert kinds("r#impl + r") == [("ident", "r#impl"), ("punct", "+"), ("ident", "r")]


@pytest.mark.parametrize("text", ['"open', 'r#"open"', "/* open /* */", "br\"x"])
def test_unterminated_token_runs_to_the_end_and_does_not_close(text):
    [tok] = [t for t in tokenize(text) if t.kind != "punct"]
    assert tok.text == text[tok.start :]
    assert not tok.closed


def test_multiline_string_starts_on_its_opening_line():
    toks = list(tokenize('let s = "one\ntwo";\nx'))
    assert [(t.text, t.line) for t in toks if t.kind == "string"] == [('"one\ntwo"', 1)]
    assert toks[-1].line == 3


def test_matching_skips_literals_and_comments():
    text = "f(a, ')', \")\" /* ) */) + (b)"
    assert matching(text, 1) == text.index(") +")
    body = "{ let c = '}'; /* { */ \"{\" }"
    assert matching(body, 0) == len(body) - 1
    assert matching("{ { }", 0) is None
