"""The self-evolving knowledge base.

Persistence is line-delimited, and every file starts with a format-version
header line. All three files are append-only journals: ``pairs.jsonl`` takes
each inserted pair (duplicate content is journaled twice; the in-memory
retrieval index deduplicates), and ``api_rules.jsonl`` and
``fragment_rules.jsonl`` take each inserted rule as it arrived. Loading folds
rules that share a key, so a journal loads to the base that wrote it, and
``save`` rewrites all three compacted. A record is whole once its newline is
written: a crash mid-append leaves an unfinished last line, which loading
drops and the next append cuts off.
"""

from __future__ import annotations

import copy
import json
import logging
import os
import threading
from pathlib import Path
from typing import Optional

from ..errors import KnowledgeBaseError
from .bm25 import Bm25Index, default_rerank_score, rerank_scorer, rerank_top_n
from .mining import FilePairCandidate, get_file_candidates
from .rules import (
    AlignedFunctionPair,
    ApiRule,
    FragmentRule,
    align_functions,
    mine_rules,
)

__all__ = [
    "AlignedFunctionPair",
    "ApiRule",
    "FilePairCandidate",
    "FragmentRule",
    "KnowledgeBase",
    "align_functions",
    "build_knowledge_base",
    "get_file_candidates",
    "mine_rules",
    "rerank_top_n",
]

logger = logging.getLogger(__name__)

FORMAT_HEADER = {"format": "rustport-kb", "version": 1}


RULE_FILES = {ApiRule: "api_rules.jsonl", FragmentRule: "fragment_rules.jsonl"}


def _dumps(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def _read_jsonl(path: Path, make) -> list:
    """The records of a KB file, each built by ``make(**record)``.

    A last line without its newline is what a crash mid-append leaves: it is
    dropped with a warning. Any other malformed line is an error naming it.
    """
    data = path.read_bytes()
    end = data.rfind(b"\n") + 1
    if end < len(data):
        logger.warning("%s: dropping an unfinished last line (%d bytes)", path, len(data) - end)
    try:
        lines = data[:end].decode("utf-8").split("\n")[:-1]
    except UnicodeDecodeError as exc:
        raise KnowledgeBaseError(f"{path}: not UTF-8 text ({exc})") from None
    if not lines:
        return []  # a crash while the journal's header was being written
    header = _parse_line(path, 1, lines[0])
    if header.get("format") != FORMAT_HEADER["format"]:
        raise KnowledgeBaseError(f"{path}: not a knowledge-base file")
    if header.get("version") != FORMAT_HEADER["version"]:
        raise KnowledgeBaseError(f"{path}: unsupported version {header.get('version')}")
    records = []
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        record = _parse_line(path, lineno, line)
        try:
            records.append(make(**record))
        except TypeError as exc:
            raise KnowledgeBaseError(f"{path}:{lineno}: malformed record ({exc})") from None
    return records


def _parse_line(path: Path, lineno: int, line: str) -> dict:
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise KnowledgeBaseError(f"{path}:{lineno}: malformed line ({exc})") from None
    if not isinstance(record, dict):
        raise KnowledgeBaseError(f"{path}:{lineno}: not a JSON object")
    return record


def _write_jsonl(path: Path, records: list[dict]) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(FORMAT_HEADER) + "\n")
        for rec in records:
            fh.write(_dumps(rec) + "\n")
    tmp.replace(path)


def _start_journal(path: Path) -> None:
    """Ready ``path`` for appends: write the header if the file is new or
    empty, and cut off an unfinished last line a crash left."""
    size = path.stat().st_size if path.is_file() else 0
    if size:
        with path.open("rb") as fh:
            fh.seek(size - 1)
            if fh.read(1) == b"\n":
                return
            fh.seek(0)
            size = fh.read().rfind(b"\n") + 1
        logger.warning("%s: cutting off an unfinished last line", path)
        os.truncate(path, size)
    if not size:
        path.write_text(json.dumps(FORMAT_HEADER) + "\n", encoding="utf-8")


class KnowledgeBase:
    """Pairs, rules and the BM25 index over the pairs' C sources.

    ``pairs`` is the journal, duplicates included. Retrieval reads the
    distinct pairs: the first pair seen with a ``pair_id`` stands for it.
    Rules are keyed by ``key()``, in first-insert order. Loading only reads:
    the first retrieval builds the distinct-pair map, the BM25 index and
    the map from pair ids to the rules citing them, and every insert after
    that keeps the three current.
    """

    def __init__(self, directory=None):
        self.directory: Optional[Path] = Path(directory) if directory else None
        self.pairs: list[AlignedFunctionPair] = []
        self._rules: dict[tuple, tuple[int, object]] = {}  # (kind, key) -> (seq, rule)
        # built by the first retrieval, guarded by the lock from then on
        self._distinct: dict[str, AlignedFunctionPair] = {}
        self._index: Optional[Bm25Index] = None
        self._citing: dict[str, list[tuple[int, object]]] = {}  # pair id -> (seq, rule)
        self._started: set[Path] = set()  # journals checked by _start_journal
        self._lock = threading.Lock()

    @property
    def api_rules(self) -> tuple[ApiRule, ...]:
        return self._rules_of(ApiRule)

    @property
    def fragment_rules(self) -> tuple[FragmentRule, ...]:
        return self._rules_of(FragmentRule)

    def _rules_of(self, kind: type) -> tuple:
        """The rules of one kind, in first-insert order (a read-only view)."""
        return tuple(rule for (k, _), (_, rule) in self._rules.items() if k is kind)

    # --- persistence ---------------------------------------------------

    @classmethod
    def load(cls, directory) -> "KnowledgeBase":
        """Read the pair journal and the rule journals; rules sharing a key merge."""
        directory = Path(directory)
        kb = cls(directory)
        pairs_file = directory / "pairs.jsonl"
        if pairs_file.is_file():
            kb.pairs = _read_jsonl(pairs_file, AlignedFunctionPair)
        for kind, name in RULE_FILES.items():
            path = directory / name
            if path.is_file():
                for rule in _read_jsonl(path, kind):
                    kb._merge_rule(rule)
        return kb

    def save(self, directory=None) -> None:
        """Write all three files compacted: one record per pair inserted and
        one per rule key."""
        directory = Path(directory) if directory else self.directory
        if directory is None:
            raise KnowledgeBaseError("knowledge base has no directory to save into")
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)
        _write_jsonl(directory / "pairs.jsonl", [vars(p) for p in self.pairs])
        for kind, name in RULE_FILES.items():
            _write_jsonl(directory / name, [vars(r) for r in self._rules_of(kind)])

    def _append(self, name: str, lines: list[str]) -> None:
        """Append serialized records to one journal; the caller holds the lock."""
        if self.directory is None or not lines:
            return
        path = self.directory / name
        if path not in self._started:
            self.directory.mkdir(parents=True, exist_ok=True)
            _start_journal(path)
            self._started.add(path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))

    # --- mutation --------------------------------------------------------

    def _merge_rule(self, rule) -> None:
        """Add a rule, or fold it into the one with the same key: support
        adds up and new provenance is appended. The caller holds the lock,
        or is ``load`` and owns the base."""
        slot = (type(rule), rule.key())
        if slot in self._rules:
            seq, kept = self._rules[slot]
            kept.support += rule.support
            cited = [p for p in dict.fromkeys(rule.provenance) if p not in kept.provenance]
            kept.provenance.extend(cited)
        else:
            seq, kept, cited = len(self._rules), rule, rule.provenance
            self._rules[slot] = (seq, rule)
        if self._index is not None:
            self._cite(seq, kept, cited)

    def _cite(self, seq: int, rule, pair_ids) -> None:
        for pair_id in dict.fromkeys(pair_ids):
            self._citing.setdefault(pair_id, []).append((seq, rule))

    def insert_pair(self, pair: AlignedFunctionPair) -> None:
        with self._lock:
            self.pairs.append(pair)
            pair_id = pair.pair_id
            if self._index is not None and pair_id not in self._distinct:
                self._distinct[pair_id] = pair
                self._index.add(pair_id, pair.c_source)
            self._append("pairs.jsonl", [_dumps(vars(pair))])

    def insert_rules(self, rules: list) -> None:
        """Merge rules, duplicates adding support instead of new entries, and
        journal each rule as it arrived."""
        # serialized before merging: a new rule becomes the stored one, and a
        # later rule of the batch with its key would change it before the write
        journaled: dict[str, list[str]] = {name: [] for name in RULE_FILES.values()}
        for rule in rules:
            journaled[RULE_FILES[type(rule)]].append(_dumps(vars(rule)))
        with self._lock:
            for rule in rules:
                self._merge_rule(rule)
            for name, lines in journaled.items():
                self._append(name, lines)

    # --- retrieval ---------------------------------------------------------

    def _indexed(self) -> Bm25Index:
        """The index, built on first use; the caller holds the lock."""
        if self._index is None:
            for pair in self.pairs:
                self._distinct.setdefault(pair.pair_id, pair)
            for seq, rule in self._rules.values():
                self._cite(seq, rule, rule.provenance)
            self._index = Bm25Index((pid, pair.c_source) for pid, pair in self._distinct.items())
        return self._index

    def retrieve(self, query_source: str, k: int = 5) -> tuple[list[AlignedFunctionPair], list[ApiRule], list[FragmentRule]]:
        """Top-k pairs by BM25 then rerank, plus rules tied to those pairs.

        The pairs returned are copies carrying this query's ``rerank_score``,
        so concurrent retrievals never see each other's scores.
        """
        if k <= 0:
            return [], [], []
        score = rerank_scorer(query_source)
        with self._lock:
            ids = self._indexed().top_n(query_source, max(20, k))
            shortlist = [copy.copy(self._distinct[pid]) for pid in ids]
            top = rerank_top_n(shortlist, n=k, reranker=lambda pair: score(pair.c_source))
            cited = {seq: rule for pair in top for seq, rule in self._citing.get(pair.pair_id, ())}
        rules = [cited[seq] for seq in sorted(cited)]
        api = [r for r in rules if isinstance(r, ApiRule)]
        frags = [r for r in rules if isinstance(r, FragmentRule)]
        return top, api, frags

    def accumulate(
        self,
        c_name: str,
        c_source: str,
        rust_name: str,
        rust_source: str,
    ) -> AlignedFunctionPair:
        """Append a compilation-accepted pair and mine its rules."""
        pair = AlignedFunctionPair(
            c_name=c_name,
            c_source=c_source,
            rust_name=rust_name,
            rust_source=rust_source,
            c_file="accumulated",
            rust_file="accumulated",
        )
        self.insert_pair(pair)
        self.insert_rules(mine_rules(pair))
        return pair


def build_knowledge_base(
    repo_paths, regime: str = "co_evolution", out_dir=None
) -> tuple[KnowledgeBase, dict]:
    """The offline construction cascade over one or more repositories.

    Per repository: candidate mining, BM25 shortlist to 20, rerank to 5 file
    pairs, function alignment reranked to 5, then rule mining per aligned
    pair. Returns the knowledge base plus per-heuristic candidate counts.
    """
    kb = KnowledgeBase(out_dir)
    stats: dict = {"repos": 0, "candidates": 0, "heuristics": {}, "pairs": 0, "rules": 0}
    for repo_path in repo_paths:
        stats["repos"] += 1
        candidates = get_file_candidates(repo_path, regime=regime)
        stats["candidates"] += len(candidates)
        for cand in candidates:
            for tag in cand.evidence:
                stats["heuristics"][tag] = stats["heuristics"].get(tag, 0) + 1
        if not candidates:
            continue
        # file-level BM25: each pair scored by how well its C side retrieves
        # its own Rust side out of the candidate Rust corpus
        rust_docs = [(f"{i:06d}", c.rust_text) for i, c in enumerate(candidates)]
        index = Bm25Index(rust_docs)
        def pair_score(i: int) -> float:
            return index.scores(candidates[i].c_text).get(f"{i:06d}", 0.0)
        order = sorted(
            range(len(candidates)),
            key=lambda i: (-pair_score(i), candidates[i].c_path, candidates[i].rust_path),
        )
        shortlist = [candidates[i] for i in order[:20]]
        top_files = rerank_top_n(
            shortlist, n=5, reranker=lambda c: default_rerank_score(c.c_text, c.rust_text)
        )
        for file_pair in top_files:
            for pair in align_functions(file_pair):
                kb.insert_pair(pair)
                stats["pairs"] += 1
                rules = mine_rules(pair)
                kb.insert_rules(rules)
                stats["rules"] += len(rules)
    if out_dir is not None:
        kb.save(out_dir)
    return kb, stats
