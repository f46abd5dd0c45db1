import functools
import json
import logging
import math
import random
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import pytest
from conftest import build_planted_repo

from rustport.errors import KnowledgeBaseError
from rustport.knowledge import (
    AlignedFunctionPair,
    ApiRule,
    FragmentRule,
    KnowledgeBase,
    align_functions,
    get_file_candidates,
    mine_rules,
    rerank_top_n,
)
from rustport.knowledge import bm25
from rustport.knowledge.bm25 import Bm25Index, default_rerank_score, split_identifier, tokenize_code
from rustport.knowledge.mining import FilePairCandidate
from rustport.knowledge.rules import split_c_functions, split_rust_functions


# --- tokenizer -----------------------------------------------------------------


def test_identifier_splitting():
    assert split_identifier("HdfSbufRecycle") == ["hdf", "sbuf", "recycle"]
    assert split_identifier("hash_seed") == ["hash", "seed"]
    assert split_identifier("MAX_LEN") == ["max", "len"]


def test_tokenize_includes_string_words():
    tokens = tokenize_code('log_msg("BufferOverflow detected");')
    assert "buffer" in tokens and "overflow" in tokens and "detected" in tokens


# --- BM25 -----------------------------------------------------------------------


def brute_force_bm25(query_text, candidates, k1=1.2, b=0.75):
    """Independent oracle: naive per-doc recount, same plus-one idf form."""
    docs = {doc_id: tokenize_code(text) for doc_id, text in candidates}
    n = len(docs)
    avgdl = sum(len(t) for t in docs.values()) / n if n else 0.0
    query = tokenize_code(query_text)
    scores = {}
    for doc_id, toks in docs.items():
        score = 0.0
        for term in query:
            f = toks.count(term)
            if f == 0:
                continue
            df = sum(1 for other in docs.values() if term in other)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            norm = k1 * (1 - b + b * (len(toks) / avgdl if avgdl else 0.0))
            score += idf * (f * (k1 + 1)) / (f + norm)
        scores[doc_id] = score
    return sorted(scores, key=lambda d: (-scores[d], d))


def test_bm25_single_candidate():
    assert Bm25Index([("only", "unrelated text")]).top_n("anything at all", 20) == ["only"]


def test_bm25_no_overlap_tiebreak_order():
    cands = [("b/path", "alpha beta"), ("a/path", "gamma delta"), ("c/path", "epsilon")]
    ranked = Bm25Index(cands).top_n("zzz_nothing_shared", 20)
    assert ranked == ["a/path", "b/path", "c/path"]


def test_bm25_matches_brute_force_oracle():
    rng = random.Random(99)
    vocab = [f"term{i}" for i in range(40)]
    corpora = []
    for seed in range(3):
        docs = []
        for d in range(30):
            words = [rng.choice(vocab) for _ in range(rng.randint(3, 60))]
            docs.append((f"doc{d:03d}", " ".join(words)))
        corpora.append(docs)
    for docs in corpora:
        query = " ".join(rng.choice(vocab) for _ in range(6))
        assert Bm25Index(docs).top_n(query, len(docs)) == brute_force_bm25(query, docs)


# --- reranker --------------------------------------------------------------------


def jaccard_pair(n_shared, n_left_only, n_right_only, tag):
    left = " ".join([f"{tag}shared{i}" for i in range(n_shared)] + [f"{tag}lo{i}" for i in range(n_left_only)])
    right = " ".join([f"{tag}shared{i}" for i in range(n_shared)] + [f"{tag}ro{i}" for i in range(n_right_only)])
    return FilePairCandidate(c_path=tag, rust_path=tag, c_text=left, rust_text=right)


def file_pair_score(cand):
    return default_rerank_score(cand.c_text, cand.rust_text)


def test_rerank_orders_by_jaccard():
    # hand-computed: 3/5 = 0.6, 1/5 = 0.2, 9/10 = 0.9
    p06 = jaccard_pair(3, 2, 0, "a")
    p02 = jaccard_pair(1, 4, 0, "b")
    p09 = jaccard_pair(9, 1, 0, "c")
    ranked = rerank_top_n([p06, p02, p09], file_pair_score, n=3)
    assert [p.c_path for p in ranked] == ["c", "a", "b"]


def test_rerank_full_permutation_when_n_large():
    pairs = [jaccard_pair(1, 1, 1, t) for t in ("x", "y")]
    assert len(rerank_top_n(pairs, file_pair_score, n=10)) == 2


def test_rerank_ties_keep_input_order():
    a = jaccard_pair(2, 2, 0, "t1")
    b = jaccard_pair(2, 2, 0, "t2")
    ranked = rerank_top_n([a, b], file_pair_score, n=2)
    assert [p.c_path for p in ranked] == ["t1", "t2"]


# --- function alignment -----------------------------------------------------------


def test_align_single_pair():
    fp = FilePairCandidate(
        c_path="a.c",
        rust_path="a.rs",
        c_text="int one(void) { return 1; }\n",
        rust_text="pub fn uno() -> i32 { 1 }\n",
    )
    [pair] = align_functions(fp)
    assert pair.c_name == "one" and pair.rust_name == "uno"


def test_align_token_overlap_wins():
    c_text = (
        "int ht_set(int key, int hash, int bucket) { return key + hash + bucket; }\n"
        "int zz_other(double q) { return (int)q; }\n"
    )
    rust_text = (
        "pub fn insert(key: i32, hash: i32, bucket: i32) -> i32 { key + hash + bucket }\n"
        "pub fn unrelated() -> f64 { 0.0 }\n"
    )
    fp = FilePairCandidate(c_path="ht.c", rust_path="ht.rs", c_text=c_text, rust_text=rust_text)
    ranked = align_functions(fp)
    assert (ranked[0].c_name, ranked[0].rust_name) == ("ht_set", "insert")


def test_align_caps_at_five():
    c_text = "".join(f"int cf{i}(void) {{ return {i}; }}\n" for i in range(10))
    rust_text = "".join(f"pub fn rf{i}() -> i32 {{ {i} }}\n" for i in range(10))
    fp = FilePairCandidate(c_path="m.c", rust_path="m.rs", c_text=c_text, rust_text=rust_text)
    assert len(align_functions(fp)) == 5


def test_align_empty_side_gives_empty():
    fp = FilePairCandidate(c_path="a.c", rust_path="a.rs", c_text="int x;\n", rust_text="")
    assert align_functions(fp) == []


def test_function_splitters():
    c_fns = split_c_functions("static int a(void) { if (1) { } return 0; }\nint b(int q);\n")
    assert [n for n, _ in c_fns] == ["a"]
    rust_fns = split_rust_functions("pub unsafe extern \"C\" fn w(x: i32) -> i32 { x }\nfn decl_only();\n")
    assert [n for n, _ in rust_fns] == ["w"]


def test_split_rust_functions_skips_brace_in_string():
    assert split_rust_functions('fn a() { let s = "}"; s; }\nfn b() {}\n') == [
        ("a", 'fn a() { let s = "}"; s; }'),
        ("b", "fn b() {}"),
    ]


def test_split_c_functions_skips_braces_in_literals_and_comments():
    c_text = 'const char *a(void) { /* } */ return "}"; }\nint b(void) { return \'}\'; }\n'
    assert split_c_functions(c_text) == [
        ("a", 'const char *a(void) { /* } */ return "}"; }'),
        ("b", "int b(void) { return '}'; }"),
    ]


# --- rule mining --------------------------------------------------------------------


def make_pair(c_source, rust_source):
    return AlignedFunctionPair(
        c_name="c_fn", c_source=c_source, rust_name="rust_fn", rust_source=rust_source
    )


def test_mine_api_rule_from_call_correspondence():
    pair = make_pair(
        "void cp(char *d, const char *s, int n) { memcpy(d, s, n); }",
        "pub fn cp(d: &mut [u8], s: &[u8]) { d.copy_from_slice(s); }",
    )
    rules = mine_rules(pair)
    api = [r for r in rules if isinstance(r, ApiRule)]
    assert any(r.c_interface == "memcpy" and r.rust_interface == "copy_from_slice" for r in api)


def test_mine_api_rules_pair_callees_by_first_occurrence():
    # a method call and a free call pair with the C calls in text order
    pair = make_pair(
        "int run(int x) { int n = c_foo(x); return c_bar(n); }",
        "pub fn run(x: i32) -> i32 { let n = foo(x); n.bar() }",
    )
    api = [r.key() for r in mine_rules(pair) if isinstance(r, ApiRule)]
    assert api == [("c_foo", "foo"), ("c_bar", "bar")]


def test_mine_fragment_rule_offset_idiom():
    pair = make_pair(
        "int off(struct node *n) {\n    return (int)((char *)&n->next - (char *)n);\n}",
        "pub fn off(n: *const node) -> i32 {\n    core::mem::offset_of!(node, next) as i32\n}",
    )
    rules = mine_rules(pair)
    frags = [r for r in rules if isinstance(r, FragmentRule)]
    assert any("offset_of!" in r.rust_idiom for r in frags)
    assert any("offset_of" in r.hint for r in frags)


def test_mine_no_shared_structure_gives_empty():
    pair = make_pair("int pure(int v) { return v; }", "pub fn pure(v: i32) -> i32 { v }")
    assert mine_rules(pair) == []


# --- knowledge base store ------------------------------------------------------------


def test_retrieve_empty_kb():
    kb = KnowledgeBase()
    assert kb.retrieve("int anything(void);", k=5) == ([], [], [])


def test_retrieve_k_larger_than_store(tmp_path):
    kb = KnowledgeBase(tmp_path / "kb")
    for i in range(3):
        kb.accumulate(f"fn{i}", f"int fn{i}(void) {{ return {i}; }}", f"fn{i}", f"pub fn fn{i}() {{}}")
    pairs, _, _ = kb.retrieve("int query(void) { return 0; }", k=5)
    assert len(pairs) == 3


def test_retrieve_self_rank_first(tmp_path):
    kb = KnowledgeBase(tmp_path / "kb")
    target_c = "int grow_buffer(char *buf, int cap) { return cap * 2; }"
    kb.accumulate("grow_buffer", target_c, "grow_buffer", "pub fn grow_buffer(cap: i32) -> i32 { cap * 2 }")
    kb.accumulate("zero", "void zero(void) { }", "zero", "pub fn zero() {}")
    kb.accumulate("misc", "double misc(double z) { return z; }", "misc", "pub fn misc(z: f64) -> f64 { z }")
    pairs, _, _ = kb.retrieve(target_c, k=3)
    assert pairs[0].c_name == "grow_buffer"


def test_accumulate_then_retrieve_closure(tmp_path):
    kb = KnowledgeBase(tmp_path / "kb")
    c_src = "int fresh_add(int a, int b) { return a + b; }"
    kb.accumulate("fresh_add", c_src, "fresh_add", "pub fn fresh_add(a: i32, b: i32) -> i32 { a + b }")
    pairs, _, _ = kb.retrieve(c_src, k=5)
    assert any(p.c_name == "fresh_add" for p in pairs)


def test_accumulate_duplicate_rule_increments_support(tmp_path):
    kb = KnowledgeBase(tmp_path / "kb")
    c_one = "void cp1(char *d, const char *s, int n) { memcpy(d, s, n); }"
    r_one = "pub fn cp1(d: &mut [u8], s: &[u8]) { d.copy_from_slice(s); }"
    c_two = "void cp2(char *d2, const char *s2, int n2) { memcpy(d2, s2, n2); }"
    r_two = "pub fn cp2(d2: &mut [u8], s2: &[u8]) { d2.copy_from_slice(s2); }"
    kb.accumulate("cp1", c_one, "cp1", r_one)
    [rule] = [r for r in kb.api_rules if r.c_interface == "memcpy"]
    assert rule.support == 1
    kb.accumulate("cp2", c_two, "cp2", r_two)
    [rule] = [r for r in kb.api_rules if r.c_interface == "memcpy"]
    assert rule.support == 2
    assert len(rule.provenance) == 2


def test_journal_two_entries_index_dedupes(tmp_path):
    kb = KnowledgeBase(tmp_path / "kb")
    c_src = "int twice(int v) { return v * 2; }"
    kb.accumulate("twice", c_src, "twice", "pub fn twice(v: i32) -> i32 { v * 2 }")
    kb.accumulate("twice", c_src, "twice", "pub fn twice(v: i32) -> i32 { v * 2 }")
    journal = (tmp_path / "kb" / "pairs.jsonl").read_text().splitlines()
    assert len(journal) == 3  # header + two entries
    pairs, _, _ = kb.retrieve(c_src, k=10)
    assert len([p for p in pairs if p.c_name == "twice"]) == 1


def test_journal_append_only_byte_prefix(tmp_path):
    kb = KnowledgeBase(tmp_path / "kb")
    kb.accumulate("one", "int one(void) { return 1; }", "one", "pub fn one() -> i32 { 1 }")
    before = (tmp_path / "kb" / "pairs.jsonl").read_bytes()
    kb.accumulate("two", "int two(void) { return 2; }", "two", "pub fn two() -> i32 { 2 }")
    after = (tmp_path / "kb" / "pairs.jsonl").read_bytes()
    assert after.startswith(before)
    assert len(after) > len(before)


def test_kb_load_round_trip(tmp_path):
    kb = KnowledgeBase(tmp_path / "kb")
    kb.accumulate(
        "cp", "void cp(char *d, const char *s, int n) { memcpy(d, s, n); }",
        "cp", "pub fn cp(d: &mut [u8], s: &[u8]) { d.copy_from_slice(s); }",
    )
    loaded = KnowledgeBase.load(tmp_path / "kb")
    assert len(loaded.pairs) == 1
    assert loaded.api_rules and loaded.api_rules[0].c_interface == "memcpy"
    pairs, api, _ = loaded.retrieve(loaded.pairs[0].c_source, k=1)
    assert pairs and api


def test_accumulation_monotone(tmp_path):
    kb = KnowledgeBase(tmp_path / "kb")
    sizes = []
    supports = []
    for i in range(4):
        kb.accumulate(
            f"cpv{i}",
            f"void cpv{i}(char *d, const char *s) {{ memcpy(d, s, {i}); }}",
            f"cpv{i}",
            f"pub fn cpv{i}(d: &mut [u8], s: &[u8]) {{ d.copy_from_slice(s); }}",
        )
        sizes.append(len(kb.pairs))
        supports.append(sum(r.support for r in kb.api_rules))
    assert sizes == sorted(sizes)
    assert supports == sorted(supports)


# --- mining over the planted repository -----------------------------------------------


def test_planted_repo_recall(tmp_path):
    planted = build_planted_repo(tmp_path / "repo")
    candidates = get_file_candidates(tmp_path / "repo", regime="co_evolution")
    found = {(c.c_path, c.rust_path): c for c in candidates}

    expectations = {
        "keyword": "keyword",
        "build_config": "build_config",
        "interface_migration": "interface_migration",
        "churn_balance": "churn_balance",
        "delete_then_create": "delete_then_create",
        "evolutionary_coupling": "evolutionary_coupling",
        "developer_identity": "developer_identity",
        "module_colocation": "module_colocation",
    }
    for klass, tag in expectations.items():
        pair = planted[klass]
        assert pair in found, f"{klass} pair not recovered"
        assert tag in found[pair].evidence, f"{klass} pair missing its tag: {found[pair].evidence}"

    semantic = planted["semantic"]
    assert semantic in found
    assert {"key_token_overlap", "shared_literal"} & found[semantic].evidence

    decoy = ("dtcdecoy.c", "dtcdecoy.rs")
    assert decoy not in found


def test_planted_repo_window_boundary(tmp_path):
    build_planted_repo(tmp_path / "repo")
    candidates = get_file_candidates(tmp_path / "repo", regime="co_evolution")
    tagged = {
        (c.c_path, c.rust_path)
        for c in candidates
        if "delete_then_create" in c.evidence
    }
    assert ("dtc.c", "dtc.rs") in tagged
    assert all("dtcdecoy" not in f"{c}{r}" or (c, r) != ("dtcdecoy.c", "dtcdecoy.rs") for c, r in tagged)


def test_co_evolution_without_history_falls_back_to_snapshot(tmp_path):
    root = tmp_path / "nogit"
    root.mkdir()
    (root / "twin.c").write_text(
        'const char *twin_banner = "twin checkpoint marker";\n'
        "int twin_unique_alpha;\nint twin_unique_beta;\nint twin_unique_gamma;\n"
    )
    (root / "twin.rs").write_text(
        'pub const TWIN_BANNER: &str = "twin checkpoint marker";\n'
        "pub static twin_unique_alpha: i32 = 0;\n"
        "pub static twin_unique_beta: i32 = 0;\n"
        "pub static twin_unique_gamma: i32 = 0;\n"
    )
    candidates = get_file_candidates(root, regime="co_evolution")
    [cand] = candidates
    assert {"shared_literal", "key_token_overlap"} & cand.evidence


def test_co_evolution_without_git_falls_back_to_snapshot(tmp_path, monkeypatch, caplog):
    build_planted_repo(tmp_path / "repo")
    snapshot_tags = {"module_colocation", "key_token_overlap", "shared_literal"}
    expected = [
        (c.c_path, c.rust_path, c.evidence & snapshot_tags, None, c.c_text, c.rust_text)
        for c in get_file_candidates(tmp_path / "repo", regime="co_evolution")
        if c.evidence & snapshot_tags
    ]
    (tmp_path / "bin").mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))  # no git on it
    with caplog.at_level(logging.WARNING, logger="rustport.knowledge.mining"):
        candidates = get_file_candidates(tmp_path / "repo", regime="co_evolution")
    assert "history unreadable (cannot run git" in caplog.text
    assert expected
    assert [
        (c.c_path, c.rust_path, c.evidence, c.commit, c.c_text, c.rust_text) for c in candidates
    ] == expected


def test_general_regime_cartesian_fallback(tmp_path):
    root = tmp_path / "snap"
    (root / "x.c").parent.mkdir(parents=True, exist_ok=True)
    (root / "x.c").write_text("int unrelated_one(void) { return 1; }\n")
    (root / "y.rs").write_text("pub fn unrelated_two() -> i32 { 2 }\n")
    candidates = get_file_candidates(root, regime="general")
    assert [(c.c_path, c.rust_path) for c in candidates] == [("x.c", "y.rs")]
    assert candidates[0].c_text.startswith("int unrelated_one")


def test_candidate_texts_recovered_from_history(tmp_path):
    build_planted_repo(tmp_path / "repo")
    candidates = get_file_candidates(tmp_path / "repo", regime="co_evolution")
    kw = next(c for c in candidates if (c.c_path, c.rust_path) == ("kw.c", "kw.rs"))
    # kw.c was deleted from the snapshot; its text must come from history
    assert "kw_compute" in kw.c_text
    assert "kw_compute" in kw.rust_text


# --- offline construction cascade ---------------------------------------------------


def test_cascade_cardinality(tmp_path):
    from rustport.knowledge import build_knowledge_base

    root = tmp_path / "snap"
    root.mkdir()
    # 6 x 5 = 30 Cartesian candidates in the general regime
    for i in range(6):
        (root / f"c{i}.c").write_text(
            f"int cside{i}_alpha(int v) {{ return v + {i}; }}\n"
            f"int cside{i}_beta(int v) {{ return v * {i}; }}\n"
        )
    for j in range(5):
        (root / f"r{j}.rs").write_text(
            f"pub fn rside{j}_alpha(v: i32) -> i32 {{ v + {j} }}\n"
            f"pub fn rside{j}_beta(v: i32) -> i32 {{ v * {j} }}\n"
        )
    kb, stats = build_knowledge_base([root], regime="general", out_dir=tmp_path / "kb")
    assert stats["candidates"] == 30
    # file stage keeps at most 5 pairs, each aligned to at most 5 function pairs
    assert stats["pairs"] <= 25
    assert len(kb.pairs) == stats["pairs"]


# --- incremental index ------------------------------------------------------------------


INTERFACES = [("memcpy", "copy_from_slice"), ("strlen", "len"), ("abs", "wrapping_abs"),
              ("htonl", "to_be"), ("memset", "fill"), ("atoi", "parse")]


def history_pair(rng, n):
    """One deterministic C/Rust pair in the style of a migrated project."""
    name = f"{rng.choice(['buf', 'node', 'hash', 'ring'])}_{rng.choice(['get', 'put', 'scan'])}_{n}"
    calls = rng.sample(INTERFACES, rng.randint(1, 3))
    c_lines = [f"int {name}(int v)", "{", "    int t = v;"]
    r_lines = [f"pub fn {name}(v: i32) -> i32 {{", "    let mut t = v;"]
    for c_iface, r_iface in calls:
        k = rng.randint(1, 9)
        c_lines.append(f"    t = {c_iface}(t, {k});")
        r_lines.append(f"    t = t.{r_iface}({k});")
    if rng.random() < 0.3:
        c_lines.append("    assert(t >= 0);")
        r_lines.append("    debug_assert!(t >= 0);")
    c_lines += ["    return t;", "}"]
    r_lines += ["    t", "}"]
    return AlignedFunctionPair(
        c_name=name, c_source="\n".join(c_lines), rust_name=name, rust_source="\n".join(r_lines)
    )


def kb_history(rng, kb, n_pairs):
    for n in range(n_pairs):
        pair = history_pair(rng, n)
        kb.insert_pair(pair)
        kb.insert_rules(mine_rules(pair))


def distinct_docs(kb):
    first = {}
    for pair in kb.pairs:
        first.setdefault(pair.pair_id, pair)
    return sorted(first.items())


def index_top_n(query, docs, n):
    return Bm25Index(docs).top_n(query, n)


def serial_retrieve(kb, query, k, rank=index_top_n):
    """The reference path: a fresh BM25 ranking of the sorted distinct pairs,
    rerank, then every rule citing a kept pair, in rule-store order."""
    distinct = distinct_docs(kb)
    ids = rank(query, [(pid, pair.c_source) for pid, pair in distinct], n=max(20, k))
    by_id = dict(distinct)
    shortlist = [AlignedFunctionPair(**vars(by_id[pid])) for pid in ids]
    top = rerank_top_n(shortlist, lambda p: default_rerank_score(query, p.c_source), n=k)
    top_ids = {p.pair_id for p in top}
    api = [r for r in kb.api_rules if set(r.provenance) & top_ids]
    frags = [r for r in kb.fragment_rules if set(r.provenance) & top_ids]
    return top, api, frags


def oracle_top_n(query, docs, n):
    return brute_force_bm25(query, docs)[:n]


def retrieval_record(result):
    top, api, frags = result
    return (
        [(p.pair_id, p.rerank_score) for p in top],
        [(r.key(), r.support, list(r.provenance)) for r in api],
        [(r.key(), r.support, list(r.provenance)) for r in frags],
    )


def test_retrieve_matches_brute_force_after_every_insert():
    rng = random.Random(6)
    vocab = [f"term{i}" for i in range(30)]
    texts = [" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 40))) for _ in range(25)]
    kb = KnowledgeBase()
    kb.insert_pair(make_pair(texts[0], "first"))
    assert kb.retrieve("term1", k=5)[0]  # the index is live from here on
    for step in range(60):
        if step % 4 == 3 and kb.pairs:
            pair = rng.choice(kb.pairs)  # a duplicate pair id: the first one stays
            kb.insert_pair(make_pair(pair.c_source, pair.rust_source))
        else:
            kb.insert_pair(make_pair(rng.choice(texts), f"rust {step}"))
        query = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
        for k in (4, len(kb.pairs) + 3):  # a cut at the BM25 shortlist, then every pair
            assert retrieval_record(kb.retrieve(query, k=k)) == retrieval_record(
                serial_retrieve(kb, query, k, rank=oracle_top_n)
            ), (step, k)


def test_index_added_one_by_one_equals_the_batch_index():
    rng = random.Random(8)
    vocab = [f"w{i}" for i in range(20)]
    docs = [(f"d{i:03d}", " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 30)))) for i in range(40)]
    index = Bm25Index()
    for n, (doc_id, text) in enumerate(rng.sample(docs, len(docs)), 1):
        index.add(doc_id, text)
        query = " ".join(rng.choice(vocab + ["absent"]) for _ in range(5))
        added = sorted(index.doc_len)
        batch = [d for d in docs if d[0] in added]
        assert index.top_n(query, n + 2) == brute_force_bm25(query, batch)
        assert index.scores(query) == {d: s for d, s in Bm25Index(batch).scores(query).items()}
    with pytest.raises(ValueError):
        index.add("d000", "again")


def test_retrieve_equals_the_serial_reference(tmp_path):
    rng = random.Random(11)
    kb = KnowledgeBase(tmp_path / "kb")
    kb_history(rng, kb, 120)
    queries = [history_pair(rng, 1000 + i).c_source for i in range(12)]
    queries += [pair.c_source for pair in rng.sample(kb.pairs, 6)]
    for step, query in enumerate(queries):
        for k in (1, 5):
            assert retrieval_record(kb.retrieve(query, k=k)) == retrieval_record(
                serial_retrieve(kb, query, k)
            ), (step, k)
        pair = history_pair(rng, 2000 + step) if step % 3 else rng.choice(kb.pairs)
        kb.accumulate(pair.c_name, pair.c_source, pair.rust_name, pair.rust_source)


def test_retrieve_scores_equal_default_rerank_score(tmp_path):
    # long string literals shared with the query weigh in the rerank score
    rng = random.Random(13)
    kb = KnowledgeBase(tmp_path / "kb")
    messages = ['"queue overflow"', '"bad checksum"', '"short"']
    for n in range(40):
        pair = history_pair(rng, n)
        c_source = pair.c_source.replace("return t;", f"log_msg({rng.choice(messages)});\n    return t;")
        kb.insert_pair(AlignedFunctionPair(**{**vars(pair), "c_source": c_source}))
    query = history_pair(rng, 99).c_source.replace("{", '{\n    log_msg("queue overflow");', 1)
    top, _, _ = kb.retrieve(query, k=5)
    by_id = {pair.pair_id: pair for pair in kb.pairs}
    assert [(p.pair_id, p.rerank_score) for p in top] == [
        (p.pair_id, default_rerank_score(query, by_id[p.pair_id].c_source)) for p in top
    ]
    assert retrieval_record((top, [], [])) == retrieval_record(serial_retrieve(kb, query, 5))
    assert any('"queue overflow"' in by_id[p.pair_id].c_source for p in top)


def test_retrieve_from_threads_equals_serial(tmp_path):
    rng = random.Random(12)
    seed_kb = KnowledgeBase(tmp_path / "kb")
    kb_history(rng, seed_kb, 80)
    queries = [history_pair(rng, 500 + i).c_source for i in range(48)]
    serial_kb = KnowledgeBase.load(tmp_path / "kb")
    serial = [retrieval_record(serial_kb.retrieve(q, k=5)) for q in queries]
    extra = [history_pair(rng, 900 + i) for i in range(40)]
    threaded_kb = KnowledgeBase.load(tmp_path / "kb")  # its index is built under contention
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda q=q: retrieval_record(threaded_kb.retrieve(q, k=5))) for q in queries]
            threaded = [f.result(timeout=60) for f in futures]
            # inserts racing retrievals: a lost index update breaks the ranking below
            tasks = [functools.partial(threaded_kb.insert_pair, p) for p in extra + extra[:10]]
            tasks += [functools.partial(threaded_kb.retrieve, q, 5) for q in queries]
            rng.shuffle(tasks)
            for future in [pool.submit(task) for task in tasks]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    docs = [(pid, pair.c_source) for pid, pair in distinct_docs(threaded_kb)]
    assert len(docs) == 120
    for query in queries[:5]:
        for k in (5, len(docs)):
            assert retrieval_record(threaded_kb.retrieve(query, k=k)) == retrieval_record(
                serial_retrieve(threaded_kb, query, k, rank=oracle_top_n)
            )


def test_tokenizes_each_distinct_pair_once(tmp_path, monkeypatch):
    rng = random.Random(13)
    kb_history(rng, KnowledgeBase(tmp_path / "kb"), 30)
    seen = []

    def counting(text):
        seen.append(text)
        return tokenize_code(text)

    monkeypatch.setattr(bm25, "tokenize_code", counting)
    kb = KnowledgeBase.load(tmp_path / "kb")
    assert seen == []  # loading indexes nothing
    kb.retrieve("int query(int v) { return memcpy(v, 1); }", k=5)
    distinct = [pair.c_source for _, pair in distinct_docs(kb)]
    assert sorted(seen[:-1]) == sorted(distinct) and len(distinct) == 30
    assert seen[-1].startswith("int query")
    del seen[:]
    kb.retrieve("int other(int v) { return abs(v, 2); }", k=5)
    assert seen == ["int other(int v) { return abs(v, 2); }"]
    del seen[:]
    fresh = history_pair(rng, 99)
    kb.accumulate(fresh.c_name, fresh.c_source, fresh.rust_name, fresh.rust_source)
    kb.accumulate(fresh.c_name, fresh.c_source, fresh.rust_name, fresh.rust_source)
    assert seen == [fresh.c_source]  # the duplicate is not indexed again


def test_rule_files_equal_the_asdict_rendering(tmp_path):
    rng = random.Random(14)
    kb = KnowledgeBase(tmp_path / "kb")
    kb_history(rng, kb, 40)
    assert kb.api_rules and kb.fragment_rules
    # the journals, never compacted, load to the in-memory rules
    loaded = KnowledgeBase.load(tmp_path / "kb")
    assert [asdict(r) for r in loaded.api_rules] == [asdict(r) for r in kb.api_rules]
    assert [asdict(r) for r in loaded.fragment_rules] == [asdict(r) for r in kb.fragment_rules]
    kb.save()
    for name, rules in (("api_rules.jsonl", kb.api_rules), ("fragment_rules.jsonl", kb.fragment_rules)):
        lines = [json.dumps({"format": "rustport-kb", "version": 1})]
        lines += [json.dumps(asdict(r), sort_keys=True) for r in rules]
        assert (tmp_path / "kb" / name).read_text() == "\n".join(lines) + "\n"


def test_rule_store_merges_by_key_in_first_insert_order():
    kb = KnowledgeBase()
    kb.insert_rules([ApiRule("memcpy", "copy_from_slice", provenance=["p1"]),
                     FragmentRule("assert(x);", "debug_assert!(x);", "h", provenance=["p1"]),
                     ApiRule("strlen", "len", provenance=["p2"])])
    kb.insert_rules([ApiRule("strlen", "len", support=2, provenance=["p2", "p3", "p3"]),
                     ApiRule("memcpy", "copy_from_slice", provenance=["p4"]),
                     ApiRule("abs", "wrapping_abs", provenance=["p3"])])
    assert [(r.key(), r.support, r.provenance) for r in kb.api_rules] == [
        (("memcpy", "copy_from_slice"), 2, ["p1", "p4"]),
        (("strlen", "len"), 3, ["p2", "p3"]),
        (("abs", "wrapping_abs"), 1, ["p3"]),
    ]
    assert [r.key() for r in kb.fragment_rules] == [("assert(x);", "debug_assert!(x);")]


# --- journals and crashes ----------------------------------------------------------

JOURNALS = ("pairs.jsonl", "api_rules.jsonl", "fragment_rules.jsonl")


def kb_state(kb):
    """Pairs in journal order, then each kind's rules in first-insert order."""
    return (
        [vars(p) for p in kb.pairs],
        [asdict(r) for r in kb.api_rules],
        [asdict(r) for r in kb.fragment_rules],
    )


def test_a_crash_mid_append_loads_the_base_of_the_last_whole_record(tmp_path, caplog):
    rng = random.Random(15)
    kb_dir = tmp_path / "kb"
    kb = KnowledgeBase(kb_dir)
    queries = [history_pair(rng, 700 + i).c_source for i in range(3)]
    points = []  # after each insert: journal sizes, then the live base and its retrievals

    def mark():
        sizes = {n: (kb_dir / n).stat().st_size if (kb_dir / n).is_file() else None for n in JOURNALS}
        points.append((sizes, kb_state(kb), [retrieval_record(kb.retrieve(q, k=5)) for q in queries]))

    mark()
    for n in range(10):
        pair = AlignedFunctionPair(**vars(rng.choice(kb.pairs) if n % 4 == 3 else history_pair(rng, n)))
        kb.insert_pair(pair)
        mark()
        rules = mine_rules(pair)
        if n == 5:  # a new key twice in one batch: each record is journaled as it arrived
            rules += [ApiRule("lib_crash", "crash", provenance=[pair.pair_id]),
                      ApiRule("lib_crash", "crash", support=2, provenance=["p0", pair.pair_id])]
        kb.insert_rules(rules)
        mark()
    assert [r.support for r in kb.api_rules if r.c_interface == "lib_crash"] == [3]
    final = {n: (kb_dir / n).read_bytes() for n in JOURNALS}
    crash_dir = tmp_path / "crash"
    cases = 0
    for sizes, state, retrieved in points:
        # cut every journal after its last whole record, or one journal inside
        # its next record: halfway, or just before the record's newline
        for torn, where in [(None, None)] + [(n, w) for n in JOURNALS for w in ("half", "last")]:
            if torn is not None and sizes[torn] == len(final[torn]):
                continue  # no record follows
            shutil.rmtree(crash_dir, ignore_errors=True)
            crash_dir.mkdir()
            for name, data in final.items():
                size = sizes[name]
                if name == torn:
                    start = size or 0
                    stop = data.index(b"\n", start)
                    size = (start + stop) // 2 if where == "half" else stop
                if size is not None:
                    (crash_dir / name).write_bytes(data[:size])
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                loaded = KnowledgeBase.load(crash_dir)
            assert ("unfinished last line" in caplog.text) == (torn is not None)
            assert kb_state(loaded) == state, (sizes, torn, where)
            assert [retrieval_record(loaded.retrieve(q, k=5)) for q in queries] == retrieved
            # the next run's appends start on a whole line, so its base reloads
            extra = history_pair(rng, 800 + cases)
            loaded.accumulate(extra.c_name, extra.c_source, extra.rust_name, extra.rust_source)
            assert kb_state(KnowledgeBase.load(crash_dir)) == kb_state(loaded)
            cases += 1
    assert cases > 3 * len(points)


def test_a_malformed_line_names_its_file_and_line(tmp_path):
    kb_dir = tmp_path / "kb"
    kb_history(random.Random(16), KnowledgeBase(kb_dir), 3)
    journal = kb_dir / "pairs.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    for broken, message in (
        (lines[1][:30] + "\n", "malformed line"),  # cut short, then a later record
        ("[1, 2]\n", "not a JSON object"),
        (json.dumps({"c_name": "f", "colour": "red"}) + "\n", "malformed record"),
    ):
        journal.write_text(lines[0] + broken + "".join(lines[2:]))
        with pytest.raises(KnowledgeBaseError, match=rf"pairs\.jsonl:2: {message}"):
            KnowledgeBase.load(kb_dir)


# --- two-phase ranking ----------------------------------------------------------------


def one_pass_top_n(index, query, n):
    """The reference ranking: every scored doc by (-score, id), then the
    unscored docs by id."""
    scores = index.scores(query)
    ranked = sorted(scores, key=lambda d: (-scores[d], d))[:n]
    unscored = [d for d in sorted(index.doc_len) if d not in scores]
    return ranked + unscored[: max(0, n - len(ranked))]


def test_two_phase_top_n_equals_the_one_pass_ranking():
    rng = random.Random(17)
    kb = KnowledgeBase()
    kb_history(rng, kb, 300)
    index = Bm25Index((pid, pair.c_source) for pid, pair in distinct_docs(kb))
    queries = [history_pair(rng, 3000 + i).c_source for i in range(20)]
    queries += [pair.c_source for pair in rng.sample(kb.pairs, 10)]
    # near-ties: the same content under many ids, and queries repeating tokens,
    # whose count-weighted sums round differently from the in-order ones
    vocab = [f"w{i}" for i in range(8)]
    texts = [" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 12))) for _ in range(30)]
    tied = Bm25Index((f"t{i:03d}", rng.choice(texts)) for i in range(200))
    tied_queries = [" ".join(rng.choice(vocab[:4]) for _ in range(rng.randint(1, 40))) for _ in range(40)]
    # "a b c" and "d a b" score the same weights summed in other orders: their
    # exact scores tie bit for bit, their count-weighted phase-1 sums do not
    crafted = Bm25Index([("x1", "a b c"), ("x0", "d a b"), ("f0", "e f"), ("f1", "f b e b")])
    assert one_pass_top_n(crafted, "b b c a d c d", 1) == ["x0"]
    for index, queries in (
        (index, queries), (tied, tied_queries + texts), (crafted, ["b b c a d c d"]),
    ):
        for query in queries:
            for n in (0, 1, 5, 20, 60, len(index.doc_len) + 5):
                assert index.top_n(query, n) == one_pass_top_n(index, query, n), (query, n)
