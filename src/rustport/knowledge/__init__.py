"""The self-evolving knowledge base.

Persistence is line-delimited: ``pairs.jsonl`` is the append-only accumulation
journal (duplicate content is journaled twice; the in-memory retrieval index
deduplicates), while the two rule files are derived state rewritten atomically
on change. Every file starts with a format-version header line.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Optional

from ..errors import KnowledgeBaseError
from .bm25 import Bm25Index, bm25_top_n, default_rerank_score, rerank_top_n
from .mining import FilePairCandidate, MiningConfig, get_file_candidates
from .rules import (
    AlignedFunctionPair,
    ApiRule,
    FragmentRule,
    ModelRuleExtractor,
    align_functions,
    mine_rules,
)

__all__ = [
    "AlignedFunctionPair",
    "ApiRule",
    "FilePairCandidate",
    "FragmentRule",
    "KnowledgeBase",
    "MiningConfig",
    "ModelRuleExtractor",
    "align_functions",
    "bm25_top_n",
    "build_knowledge_base",
    "get_file_candidates",
    "mine_rules",
    "rerank_top_n",
]

logger = logging.getLogger(__name__)

FORMAT_HEADER = {"format": "rustport-kb", "version": 1}


def _read_jsonl(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise KnowledgeBaseError(f"{path}: missing format header")
    header = json.loads(lines[0])
    if header.get("format") != FORMAT_HEADER["format"]:
        raise KnowledgeBaseError(f"{path}: not a knowledge-base file")
    if header.get("version") != FORMAT_HEADER["version"]:
        raise KnowledgeBaseError(f"{path}: unsupported version {header.get('version')}")
    return [json.loads(line) for line in lines[1:] if line.strip()]


def _write_jsonl(path: Path, records: list[dict]) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(FORMAT_HEADER) + "\n")
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    tmp.replace(path)


class KnowledgeBase:
    def __init__(self, directory=None):
        self.directory: Optional[Path] = Path(directory) if directory else None
        self.pairs: list[AlignedFunctionPair] = []
        self.api_rules: list[ApiRule] = []
        self.fragment_rules: list[FragmentRule] = []

    # --- persistence ---------------------------------------------------

    @classmethod
    def load(cls, directory) -> "KnowledgeBase":
        directory = Path(directory)
        kb = cls(directory)
        pairs_file = directory / "pairs.jsonl"
        if pairs_file.is_file():
            for rec in _read_jsonl(pairs_file):
                kb.pairs.append(AlignedFunctionPair(**rec))
        api_file = directory / "api_rules.jsonl"
        if api_file.is_file():
            kb.api_rules = [ApiRule(**rec) for rec in _read_jsonl(api_file)]
        frag_file = directory / "fragment_rules.jsonl"
        if frag_file.is_file():
            kb.fragment_rules = [FragmentRule(**rec) for rec in _read_jsonl(frag_file)]
        return kb

    def save(self, directory=None) -> None:
        directory = Path(directory) if directory else self.directory
        if directory is None:
            raise KnowledgeBaseError("knowledge base has no directory to save into")
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)
        _write_jsonl(directory / "pairs.jsonl", [asdict(p) for p in self.pairs])
        self._save_rules()

    def _save_rules(self) -> None:
        if self.directory is None:
            return
        _write_jsonl(self.directory / "api_rules.jsonl", [asdict(r) for r in self.api_rules])
        _write_jsonl(
            self.directory / "fragment_rules.jsonl", [asdict(r) for r in self.fragment_rules]
        )

    def _append_journal(self, pair: AlignedFunctionPair) -> None:
        if self.directory is None:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        journal = self.directory / "pairs.jsonl"
        if not journal.is_file():
            journal.write_text(json.dumps(FORMAT_HEADER) + "\n", encoding="utf-8")
        with journal.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(asdict(pair), sort_keys=True) + "\n")

    # --- mutation --------------------------------------------------------

    def insert_pair(self, pair: AlignedFunctionPair) -> None:
        self.pairs.append(pair)
        self._append_journal(pair)

    def insert_rules(self, rules: list) -> None:
        """Merge rules; duplicates increment support instead of new records."""
        changed = False
        for rule in rules:
            if isinstance(rule, ApiRule):
                kept = self.api_rules
            elif isinstance(rule, FragmentRule):
                kept = self.fragment_rules
            else:
                continue
            existing = next((r for r in kept if r.key() == rule.key()), None)
            if existing is not None:
                existing.support += rule.support
                for p in rule.provenance:
                    if p not in existing.provenance:
                        existing.provenance.append(p)
            else:
                kept.append(rule)
            changed = True
        if changed and self.directory is not None:
            self._save_rules()

    # --- retrieval ---------------------------------------------------------

    def _distinct_pairs(self) -> list[tuple[str, AlignedFunctionPair]]:
        """Index view: duplicate journal content collapses to one doc."""
        seen: dict[str, AlignedFunctionPair] = {}
        for pair in self.pairs:
            seen.setdefault(pair.pair_id, pair)
        return sorted(seen.items())

    def retrieve(self, query_source: str, k: int = 5) -> tuple[list[AlignedFunctionPair], list[ApiRule], list[FragmentRule]]:
        """Top-k pairs by BM25 then rerank, plus rules tied to those pairs."""
        if k <= 0:
            return [], [], []
        distinct = self._distinct_pairs()
        if not distinct:
            return [], [], []
        docs = [(pid, pair.c_source) for pid, pair in distinct]
        shortlist_ids = bm25_top_n(query_source, docs, n=max(20, k))
        by_id = dict(distinct)
        shortlist = [by_id[pid] for pid in shortlist_ids]
        top = rerank_top_n(
            shortlist,
            n=k,
            reranker=lambda pair: default_rerank_score(query_source, pair.c_source),
        )
        top_ids = {pair.pair_id for pair in top}
        api = [r for r in self.api_rules if set(r.provenance) & top_ids]
        frags = [r for r in self.fragment_rules if set(r.provenance) & top_ids]
        return top, api, frags

    def accumulate(
        self,
        c_name: str,
        c_source: str,
        rust_name: str,
        rust_source: str,
        extractor: Optional[Callable] = None,
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
        self.insert_rules(mine_rules(pair, extractor=extractor))
        return pair


def build_knowledge_base(
    repo_paths,
    regime: str = "co_evolution",
    out_dir=None,
    config: Optional[MiningConfig] = None,
    extractor: Optional[Callable] = None,
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
        candidates = get_file_candidates(repo_path, regime=regime, config=config)
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
            return index.score(candidates[i].c_text)[f"{i:06d}"]
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
                rules = mine_rules(pair, extractor=extractor)
                kb.insert_rules(rules)
                stats["rules"] += len(rules)
    if out_dir is not None:
        kb.save(out_dir)
    return kb, stats
