"""The one lexer for Rust text. The unsafe ratio, the batch-locality check
and the brace matching over model replies and mined pairs all read Rust
through it.

``tokenize`` skips only whitespace, so the tokens' texts and the whitespace
between them give back the input byte for byte. Token kinds:

- ``ident``: a run of word characters (keywords and numbers too), or a raw
  identifier such as ``r#type``;
- ``string``: ``"…"``, ``b"…"``, ``c"…"``, and the raw ``r#"…"#``, ``br"…"``
  and ``cr"…"``, which have no escapes;
- ``char``: ``'x'``, ``'\\n'``, ``'\\u{..}'`` and ``b'x'``;
- ``lifetime``: the lone ``'`` of a lifetime or label (its name follows as an
  ``ident``);
- ``comment``: a line comment, or a block comment with the ones nested in it;
- ``punct``: any other single character.

A string or block comment that runs into the end of the text did not close.
The lexer does not parse; callers need tokens only.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple, Optional

_TOKEN_RE = re.compile(
    r"""
      (?P<space>\s+)
    | (?P<comment>//[^\n]*|/\*)
    | (?P<raw_string>[bc]?r(?P<hashes>\#*)")
    | (?P<string>[bc]?"(?:\\.|[^"\\])*(?P<end_quote>")?)
    | (?P<char>b?'(?:[^'\\\n]|\\(?:u\{[0-9a-fA-F_]*\}|x[0-9a-fA-F]{2}|.))')
    | (?P<lifetime>')
    | (?P<ident>(?:r\#)?\w+)
    | (?P<punct>.)
    """,
    re.X | re.S,
)
_COMMENT_DELIM_RE = re.compile(r"/\*|\*/")

CLOSER = {"(": ")", "[": "]", "{": "}"}  # each opening delimiter's closer


class Token(NamedTuple):
    kind: str  # ident | punct | string | char | lifetime | comment
    text: str
    start: int  # offset into the lexed text
    line: int  # 1-based line the token starts on
    closed: bool


def tokenize(text: str, pos: int = 0) -> Iterator[Token]:
    """The tokens of ``text`` from offset ``pos`` on, whitespace skipped."""
    line = 1 + text.count("\n", 0, pos)
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        kind, end, closed = m.lastgroup, m.end(), True
        if m.group() == "/*":
            depth = 1
            while depth and (delim := _COMMENT_DELIM_RE.search(text, end)):
                depth += 1 if delim.group() == "/*" else -1
                end = delim.end()
            closed = not depth
        elif kind == "raw_string":
            hashes = m.group("hashes")
            close = text.find('"' + hashes, end)
            closed = close >= 0
            end = close + 1 + len(hashes)
            kind = "string"
        elif kind == "string":
            closed = m.group("end_quote") is not None
        if not closed:
            end = n
        if kind != "space":
            yield Token(kind, text[pos:end], pos, line, closed)
        line += text.count("\n", pos, end)
        pos = end


def matching(text: str, i: int) -> Optional[int]:
    """The index of the delimiter that closes the ``(``, ``[`` or ``{`` at
    ``i``, skipping literals and comments; None if it never closes. Only
    delimiters of the same kind are counted."""
    opener = text[i]
    closer = CLOSER[opener]
    depth = 0
    for tok in tokenize(text, i):
        if tok.kind != "punct":
            continue
        if tok.text == opener:
            depth += 1
        elif tok.text == closer:
            depth -= 1
            if not depth:
                return tok.start
    return None
