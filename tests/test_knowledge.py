import json
import math
import random

from conftest import build_planted_repo

from rustport.knowledge import (
    AlignedFunctionPair,
    ApiRule,
    FragmentRule,
    KnowledgeBase,
    align_functions,
    bm25_top_n,
    get_file_candidates,
    mine_rules,
    rerank_top_n,
)
from rustport.knowledge.bm25 import default_rerank_score, split_identifier, tokenize_code
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
    assert bm25_top_n("anything at all", [("only", "unrelated text")], n=20) == ["only"]


def test_bm25_no_overlap_tiebreak_order():
    cands = [("b/path", "alpha beta"), ("a/path", "gamma delta"), ("c/path", "epsilon")]
    ranked = bm25_top_n("zzz_nothing_shared", cands, n=20)
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
        assert bm25_top_n(query, docs, n=len(docs)) == brute_force_bm25(query, docs)


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


def test_rerank_backend_failure_falls_back_to_input_order():
    def broken(pair):
        raise RuntimeError("remote reranker down")

    pairs = [jaccard_pair(1, 0, 0, "p"), jaccard_pair(0, 1, 1, "q")]
    ranked = rerank_top_n(pairs, n=1, reranker=broken)
    assert ranked[0].c_path == "p"


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


def test_mine_extractor_failure_is_empty_and_logged():
    def exploding(pair):
        raise RuntimeError("model unavailable")

    pair = make_pair("int a(void) { f(); }", "pub fn a() { g(); }")
    assert mine_rules(pair, extractor=exploding) == []


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


def test_model_rule_extractor_via_replay(tmp_path):
    from rustport.backends import GenerationRequest, ReplayBackend
    from rustport.knowledge.rules import ModelRuleExtractor

    pair = make_pair(
        "void zero(char *p, int n) { memset(p, 0, n); }",
        "pub fn zero(p: &mut [u8]) { p.fill(0); }",
    )
    backend = ReplayBackend(tmp_path / "fixtures")
    extractor = ModelRuleExtractor(backend)
    canned = json.dumps(
        [
            {"type": "api", "c": "memset", "rust": "fill"},
            {"type": "fragment", "c": "memset(p, 0, n);", "rust": "p.fill(0);", "hint": "use slice fill"},
        ]
    )
    probe = GenerationRequest(
        system=(
            "Extract reusable C-to-Rust mapping rules from the aligned pair. "
            'Reply with a JSON array; each item is {"type": "api"|"fragment", '
            '"c": ..., "rust": ..., "hint": ...}.'
        ),
        user=f"C:\n{pair.c_source}\n\nRust:\n{pair.rust_source}\n",
        tag=f"mine:{pair.pair_id}",
    )
    backend.record(probe, canned)
    rules = mine_rules(pair, extractor=extractor)
    api = [r for r in rules if isinstance(r, ApiRule)]
    frags = [r for r in rules if isinstance(r, FragmentRule)]
    assert api and api[0].c_interface == "memset" and api[0].rust_interface == "fill"
    assert frags and frags[0].hint == "use slice fill"
    assert frags[0].provenance == [pair.pair_id]
