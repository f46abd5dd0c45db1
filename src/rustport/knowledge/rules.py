"""Function alignment and rule mining over C/Rust pairs.

The deterministic extractor derives API-Level rules from call-site
correspondence (unmatched C callees paired with unmatched Rust callees by
first occurrence) and Fragment-Level rules from Rust macro-idiom lines paired
with their closest C line by token overlap.
"""

from __future__ import annotations

import hashlib
import logging
import re
from dataclasses import dataclass, field
from typing import Optional

from .. import rustlex
from ..csyms import match_c_brace
from .bm25 import default_rerank_score, rerank_top_n, tokenize_code

logger = logging.getLogger(__name__)

C_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "do", "else", "case",
    "break", "continue", "goto", "typedef", "struct", "union", "enum",
}
RUST_KEYWORDS = {
    "if", "for", "while", "match", "loop", "return", "fn", "let", "mut",
    "impl", "pub", "use", "mod", "unsafe", "as", "in", "else", "move", "ref",
}
# housekeeping macros that are never translation idioms
BORING_MACROS = {"unimplemented", "todo", "panic", "assert", "assert_eq", "assert_ne", "dbg"}
FRAGMENT_TOKEN_BUDGET = 30  # longest C or Rust line, in code tokens, a fragment rule keeps


@dataclass
class AlignedFunctionPair:
    c_name: str
    c_source: str
    rust_name: str
    rust_source: str
    c_file: str = ""
    rust_file: str = ""
    rerank_score: float = 0.0
    commit: Optional[str] = None

    @property
    def pair_id(self) -> str:
        digest = hashlib.sha256(
            (self.c_source + "\x00" + self.rust_source).encode("utf-8")
        ).hexdigest()
        return digest[:16]


@dataclass
class ApiRule:
    c_interface: str
    rust_interface: str
    support: int = 1
    provenance: list[str] = field(default_factory=list)

    def key(self) -> tuple[str, str]:
        return (self.c_interface, self.rust_interface)


@dataclass
class FragmentRule:
    c_idiom: str
    rust_idiom: str
    hint: str
    support: int = 1
    provenance: list[str] = field(default_factory=list)

    def key(self) -> tuple[str, str]:
        return (self.c_idiom, self.rust_idiom)


# --- function splitting -------------------------------------------------------

_C_FN_RE = re.compile(
    r"^[ \t]*(?:[A-Za-z_][\w]*[ \t*]+)+?(?P<name>[A-Za-z_]\w*)[ \t]*\((?P<args>[^;{)]*)\)[ \t\r\n]*\{",
    re.M,
)
_RUST_FN_RE = re.compile(r"^[ \t]*(?:pub(?:\([^)]*\))?[ \t]+)?(?:const[ \t]+|async[ \t]+|unsafe[ \t]+|extern[ \t]+\"[^\"]*\"[ \t]+)*fn[ \t]+(?P<name>[A-Za-z_]\w*)", re.M)


def split_c_functions(text: str) -> list[tuple[str, str]]:
    """(name, full text) for each function definition found in a C file."""
    out: list[tuple[str, str]] = []
    for m in _C_FN_RE.finditer(text):
        name = m.group("name")
        if name in C_KEYWORDS:
            continue
        open_idx = text.index("{", m.start())
        end = match_c_brace(text, open_idx)
        if end is None:
            continue
        out.append((name, text[m.start() : end + 1]))
    return out


def split_rust_functions(text: str) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    for m in _RUST_FN_RE.finditer(text):
        open_idx = text.find("{", m.end())
        semi_idx = text.find(";", m.end())
        if open_idx == -1 or (semi_idx != -1 and semi_idx < open_idx):
            continue  # trait method signature or declaration
        end = rustlex.matching(text, open_idx)
        if end is None:
            continue
        out.append((m.group("name"), text[m.start() : end + 1]))
    return out


def align_functions(file_pair) -> list[AlignedFunctionPair]:
    """Cartesian candidate function pairs within one file pair, reranked to 5."""
    c_text, rust_text = file_pair.c_text, file_pair.rust_text
    c_fns = split_c_functions(c_text)
    rust_fns = split_rust_functions(rust_text)
    if not c_fns or not rust_fns:
        return []
    candidates = [
        AlignedFunctionPair(
            c_name=cn,
            c_source=cs,
            rust_name=rn,
            rust_source=rs,
            c_file=getattr(file_pair, "c_path", ""),
            rust_file=getattr(file_pair, "rust_path", ""),
            commit=getattr(file_pair, "commit", None),
        )
        for cn, cs in c_fns
        for rn, rs in rust_fns
    ]
    return rerank_top_n(
        candidates, n=5, reranker=lambda p: default_rerank_score(p.c_source, p.rust_source)
    )


# --- deterministic rule extraction ---------------------------------------------

CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")  # a free call's name or a method's
_MACRO_RE = re.compile(r"\b([A-Za-z_]\w*)!\s*[\(\[\{]")


def _callees(text: str, keywords: set[str]) -> list[str]:
    """Each called name once, in order of first occurrence."""
    seen: list[str] = []
    for m in CALL_RE.finditer(text):
        name = m.group(1)
        if name in keywords or name in seen:
            continue
        seen.append(name)
    return seen


def mine_rules(pair: AlignedFunctionPair) -> list:
    """Extract API-Level and Fragment-Level rules from one aligned pair."""
    rules: list = []
    c_calls = _callees(pair.c_source, C_KEYWORDS)
    rust_calls = _callees(pair.rust_source, RUST_KEYWORDS)
    unmatched_c = [c for c in c_calls if c not in set(rust_calls)]
    unmatched_rust = [r for r in rust_calls if r not in set(c_calls)]
    for c_iface, rust_iface in zip(unmatched_c, unmatched_rust):
        rules.append(
            ApiRule(
                c_interface=c_iface,
                rust_interface=rust_iface,
                support=1,
                provenance=[pair.pair_id],
            )
        )

    c_lines = [ln.strip() for ln in pair.c_source.splitlines() if ln.strip()]
    seen_fragments: set[tuple[str, str]] = set()
    for line in pair.rust_source.splitlines():
        stripped = line.strip()
        macro_match = _MACRO_RE.search(stripped)
        if not macro_match or macro_match.group(1) in BORING_MACROS:
            continue
        rust_tokens = set(tokenize_code(stripped))
        best_line, best_overlap = None, 0
        for c_line in c_lines:
            overlap = len(rust_tokens & set(tokenize_code(c_line)))
            if overlap > best_overlap:
                best_line, best_overlap = c_line, overlap
        if best_line is None:
            continue
        if (
            len(tokenize_code(stripped)) > FRAGMENT_TOKEN_BUDGET
            or len(tokenize_code(best_line)) > FRAGMENT_TOKEN_BUDGET
        ):
            logger.info("fragment near %r exceeds token budget; skipped", macro_match.group(1))
            continue
        key = (best_line, stripped)
        if key in seen_fragments:
            continue
        seen_fragments.add(key)
        rules.append(
            FragmentRule(
                c_idiom=best_line,
                rust_idiom=stripped,
                hint=f"use the {macro_match.group(1)}! idiom",
                support=1,
                provenance=[pair.pair_id],
            )
        )
    return rules
