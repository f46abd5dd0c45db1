"""Lexical retrieval: code tokenization, BM25 scoring, and reranking.

Identifiers are split on underscores and camelCase boundaries; string-literal
contents contribute word tokens. The default reranker scores normalized
identifier-set overlap (Jaccard) plus a shared-long-literal bonus and is fully
deterministic; each caller of ``rerank_top_n`` passes the scorer for its own
record shape, which may also be an external reranker.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from typing import Callable, Sequence

logger = logging.getLogger(__name__)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_STRING_RE = re.compile(r'"((?:\\.|[^"\\])*)"')
_NUM_RE = re.compile(r"\b\d[\w]*\b")
_CAMEL_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z0-9])|[A-Z]?[a-z0-9]+|[A-Z]+")


def split_identifier(ident: str) -> list[str]:
    parts: list[str] = []
    for chunk in ident.split("_"):
        if not chunk:
            continue
        parts.extend(m.group(0).lower() for m in _CAMEL_RE.finditer(chunk))
    return parts or [ident.lower()]


def tokenize_code(text: str) -> list[str]:
    tokens: list[str] = []
    no_strings = _STRING_RE.sub(" ", text)
    for m in _IDENT_RE.finditer(no_strings):
        tokens.extend(split_identifier(m.group(0)))
    for m in _STRING_RE.finditer(text):
        for w in _IDENT_RE.finditer(m.group(1)):
            tokens.extend(split_identifier(w.group(0)))
    for m in _NUM_RE.finditer(no_strings):
        tokens.append(m.group(0).lower())
    return tokens


def identifiers(text: str) -> set[str]:
    return {m.group(0) for m in _IDENT_RE.finditer(_STRING_RE.sub(" ", text))}


def long_string_literals(text: str, min_len: int = 6) -> set[str]:
    return {m.group(1) for m in _STRING_RE.finditer(text) if len(m.group(1)) >= min_len}


class Bm25Index:
    """Okapi BM25 with the nonnegative (plus-one) idf variant."""

    def __init__(self, docs: Sequence[tuple[str, str]], k1: float = 1.2, b: float = 0.75):
        self.k1 = k1
        self.b = b
        self.doc_ids = [doc_id for doc_id, _ in docs]
        self.doc_tokens = {doc_id: tokenize_code(text) for doc_id, text in docs}
        self.tf = {doc_id: Counter(toks) for doc_id, toks in self.doc_tokens.items()}
        self.doc_len = {doc_id: len(toks) for doc_id, toks in self.doc_tokens.items()}
        n = len(self.doc_ids)
        self.avgdl = (sum(self.doc_len.values()) / n) if n else 0.0
        df: Counter = Counter()
        for counts in self.tf.values():
            for term in counts:
                df[term] += 1
        self.idf = {
            term: math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for term, d in df.items()
        }

    def score(self, query_text: str) -> dict[str, float]:
        query = tokenize_code(query_text)
        scores = {doc_id: 0.0 for doc_id in self.doc_ids}
        for doc_id in self.doc_ids:
            tf = self.tf[doc_id]
            dl = self.doc_len[doc_id]
            norm = self.k1 * (1.0 - self.b + self.b * (dl / self.avgdl if self.avgdl else 0.0))
            s = 0.0
            for term in query:
                f = tf.get(term, 0)
                if not f:
                    continue
                s += self.idf.get(term, 0.0) * (f * (self.k1 + 1.0)) / (f + norm)
            scores[doc_id] = s
        return scores


def bm25_top_n(
    query_text: str,
    candidates: Sequence[tuple[str, str]],
    n: int = 20,
    k1: float = 1.2,
    b: float = 0.75,
) -> list[str]:
    """Rank candidate (id, text) docs; ties break by id lexicographic order."""
    if not candidates:
        return []
    index = Bm25Index(candidates, k1=k1, b=b)
    scores = index.score(query_text)
    ranked = sorted(scores, key=lambda doc_id: (-scores[doc_id], doc_id))
    return ranked[:n]


def default_rerank_score(left_text: str, right_text: str) -> float:
    left_ids = identifiers(left_text)
    right_ids = identifiers(right_text)
    union = left_ids | right_ids
    jaccard = (len(left_ids & right_ids) / len(union)) if union else 0.0
    shared_literals = long_string_literals(left_text) & long_string_literals(right_text)
    return jaccard + 0.1 * len(shared_literals)


def rerank_top_n(pairs: Sequence, reranker: Callable, n: int = 5) -> list:
    """Keep the top-n pairs under the reranker; stable on ties.

    A failing external reranker falls back to input order (logged), never
    aborts the cascade.
    """
    if not pairs:
        return []
    try:
        scored = [(reranker(pair), i) for i, pair in enumerate(pairs)]
    except Exception as exc:  # backend failure: degrade, do not abort
        logger.warning("reranker failed (%s); keeping input order", exc)
        return list(pairs)[:n]
    order = sorted(range(len(pairs)), key=lambda i: (-scored[i][0], i))
    ranked = [pairs[i] for i in order[:n]]
    for i in order[:n]:
        pairs[i].rerank_score = scored[i][0]
    return ranked
