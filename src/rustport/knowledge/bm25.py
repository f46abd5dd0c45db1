"""Lexical retrieval: code tokenization, BM25 scoring, and reranking.

Identifiers are split on underscores and camelCase boundaries; string-literal
contents contribute word tokens. The reranker, ``default_rerank_score``, scores
normalized identifier-set overlap (Jaccard) plus a shared-long-literal bonus
and is fully deterministic; each caller of ``rerank_top_n`` applies it to the
texts of its own record shape.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
import re
from collections import Counter
from typing import Callable, Iterable, Sequence

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_STRING_RE = re.compile(r'"((?:\\.|[^"\\])*)"')
_NUM_RE = re.compile(r"\b\d[\w]*\b")
_CAMEL_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z0-9])|[A-Z]?[a-z0-9]+|[A-Z]+")
LITERAL_MIN_LEN = 6  # literals longer than 5 characters count as "long"
_UNIT_ROUNDOFF = 2.0 ** -53  # of an IEEE double


def split_identifier(ident: str) -> list[str]:
    parts: list[str] = []
    for chunk in ident.split("_"):
        if not chunk:
            continue
        parts.extend(m.group(0).lower() for m in _CAMEL_RE.finditer(chunk))
    return parts or [ident.lower()]


@functools.lru_cache(maxsize=1 << 15)
def _split_cached(ident: str) -> tuple[str, ...]:
    """``split_identifier`` once per distinct identifier; a tuple, so no
    caller can change what the cache hands to the next one."""
    return tuple(split_identifier(ident))


def tokenize_code(text: str) -> list[str]:
    tokens: list[str] = []
    no_strings = _STRING_RE.sub(" ", text)
    for ident in _IDENT_RE.findall(no_strings):
        tokens.extend(_split_cached(ident))
    for literal in _STRING_RE.findall(text):
        for word in _IDENT_RE.findall(literal):
            tokens.extend(_split_cached(word))
    tokens.extend(number.lower() for number in _NUM_RE.findall(no_strings))
    return tokens


def identifiers(text: str) -> set[str]:
    return {m.group(0) for m in _IDENT_RE.finditer(_STRING_RE.sub(" ", text))}


def long_string_literals(text: str) -> set[str]:
    return {m.group(1) for m in _STRING_RE.finditer(text) if len(m.group(1)) >= LITERAL_MIN_LEN}


class Bm25Index:
    """Okapi BM25 with the nonnegative (plus-one) idf variant, kept incrementally.

    ``add`` tokenizes a document once and keeps the postings (term -> doc ->
    term frequency), the document lengths and their total current, so a
    growing corpus is never re-tokenized. A query scores only the documents
    that share one of its terms; every other document scores 0.

    A term's per-document weight ``idf * (f * (k1 + 1)) / (f + norm)``
    depends on the corpus only through the document count and the total
    length, so weights are cached per term until the next ``add``. Each
    document's score is the sum of its weights in query-token order, the
    same expression added in the same order as a full recount, so scores
    are bit-identical to one. An index is not safe for concurrent use;
    ``KnowledgeBase`` holds a lock around its own.
    """

    K1 = 1.2
    B = 0.75

    def __init__(self, docs: Iterable[tuple[str, str]] = ()):
        self.postings: dict[str, dict[str, int]] = {}
        self.doc_len: dict[str, int] = {}
        self.total_len = 0
        self._sorted_ids: list[str] = []
        self._weights: dict[str, dict[str, float]] = {}
        self._weights_key = (0, 0)
        for doc_id, text in docs:
            self.add(doc_id, text)

    def add(self, doc_id: str, text: str) -> None:
        if doc_id in self.doc_len:
            raise ValueError(f"document {doc_id!r} is already indexed")
        tokens = tokenize_code(text)
        for term, f in Counter(tokens).items():
            self.postings.setdefault(term, {})[doc_id] = f
        self.doc_len[doc_id] = len(tokens)
        self.total_len += len(tokens)
        bisect.insort(self._sorted_ids, doc_id)

    def _term_weights(self, term: str) -> dict[str, float]:
        """doc id -> the term's BM25 weight in that doc, for docs holding it."""
        posting = self.postings.get(term)
        if not posting:
            return {}
        n, total = len(self.doc_len), self.total_len
        if (n, total) != self._weights_key:
            self._weights, self._weights_key = {}, (n, total)
        weights = self._weights.get(term)
        if weights is None:
            d = len(posting)
            idf = math.log(1.0 + (n - d + 0.5) / (d + 0.5))
            avgdl = total / n
            k1, b = self.K1, self.B
            weights = {}
            for doc_id, f in posting.items():
                norm = k1 * (1.0 - b + b * (self.doc_len[doc_id] / avgdl))
                weights[doc_id] = idf * (f * (k1 + 1.0)) / (f + norm)
            self._weights[term] = weights
        return weights

    def scores(self, query_text: str) -> dict[str, float]:
        """BM25 scores of the docs that share a term with the query."""
        scores: dict[str, float] = {}
        for term in tokenize_code(query_text):
            for doc_id, weight in self._term_weights(term).items():
                scores[doc_id] = scores.get(doc_id, 0.0) + weight
        return scores

    def top_n(self, query_text: str, n: int) -> list[str]:
        """The n best doc ids by score; ties break by id lexicographic order.

        The ranking is the one of ``scores``, bit for bit, found in two
        phases. Phase 1 scores each distinct query term once, weighted by its
        count: the same positive terms as ``scores`` sums, in another order.
        Over a query of m tokens, a phase-1 score and the exact score each
        lie within a relative ``g = gamma(m + 1)`` of the real sum of their
        terms (``gamma(k) = k*u / (1 - k*u)``, ``u = 2**-53``), so they lie
        within ``r = 2g / (1 - g)`` of each other. The n docs of the best
        phase-1 scores all score at least ``(1 - r)`` times the n-th of them
        exactly, so a doc can reach the exact top n only if its phase-1
        score is at least ``(1 - r)**2`` times the n-th phase-1 score. The
        cut below, ``1 - 8g``, is lower still, which also covers its own
        rounding. Phase 2 recomputes the scores of the docs above the cut
        exactly, in query-token order, and ranks them.

        Docs that share no query term all score 0 and follow the scored ones
        in id order, exactly where a full ranking of every doc puts them.
        """
        tokens = tokenize_code(query_text)
        approx: dict[str, float] = {}
        get = approx.get
        for term, count in Counter(tokens).items():
            for doc_id, weight in self._term_weights(term).items():
                approx[doc_id] = get(doc_id, 0.0) + count * weight
        candidates = approx.keys()
        if len(approx) > n > 0:
            m = len(tokens) + 1
            gamma = m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)
            cut = heapq.nlargest(n, approx.values())[-1] * (1.0 - 8.0 * gamma)
            candidates = [doc_id for doc_id, score in approx.items() if score >= cut]
        columns = [self._term_weights(term) for term in tokens]
        exact: dict[str, float] = {}
        for doc_id in candidates:
            score = 0.0
            for weights in columns:
                weight = weights.get(doc_id)
                if weight is not None:
                    score += weight
            exact[doc_id] = score
        ranked = heapq.nsmallest(n, exact, key=lambda doc_id: (-exact[doc_id], doc_id))
        for doc_id in self._sorted_ids:
            if len(ranked) >= n:
                break
            if doc_id not in approx:
                ranked.append(doc_id)
        return ranked


def rerank_scorer(left_text: str) -> Callable[[str], float]:
    """``default_rerank_score`` with its left text fixed, whose identifiers
    and long literals are extracted once for every right text scored."""
    left_ids, left_literals = identifiers(left_text), long_string_literals(left_text)

    def score(right_text: str) -> float:
        right_ids = identifiers(right_text)
        union = left_ids | right_ids
        jaccard = (len(left_ids & right_ids) / len(union)) if union else 0.0
        shared_literals = left_literals & long_string_literals(right_text)
        return jaccard + 0.1 * len(shared_literals)

    return score


def default_rerank_score(left_text: str, right_text: str) -> float:
    return rerank_scorer(left_text)(right_text)


def rerank_top_n(pairs: Sequence, reranker: Callable, n: int = 5) -> list:
    """Keep the top-n pairs under the reranker, each carrying its
    ``rerank_score``; stable on ties."""
    scores = [reranker(pair) for pair in pairs]
    order = sorted(range(len(pairs)), key=lambda i: (-scores[i], i))
    ranked = [pairs[i] for i in order[:n]]
    for i in order[:n]:
        pairs[i].rerank_score = scores[i]
    return ranked
