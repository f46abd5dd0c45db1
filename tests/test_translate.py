import pytest

from conftest import build_pipeline

from rustport import translate
from rustport.errors import WorkspaceError
from rustport.knowledge.rules import AlignedFunctionPair, ApiRule, FragmentRule
from rustport.translate import assemble_context, build_prompt, extract_body
from rustport.workspace import Workspace

MINI_C = """\
#define CAP 4

struct item {
    int weight;
    struct item *next;
};

int g_seen = 0;

int chain_weight(const struct item *head) {
    int total = 0;
    const struct item *cur = head;
    while (cur) {
        total = total + cur->weight;
        cur = cur->next;
    }
    return total;
}

int bump_seen(int by) {
    g_seen = g_seen + by;
    if (g_seen > CAP) {
        g_seen = CAP;
    }
    return g_seen;
}

int both(const struct item *head, int by) {
    return chain_weight(head) + bump_seen(by);
}
"""


@pytest.fixture(scope="module")
def pipe(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("translate")
    return build_pipeline(tmp, {"items.c": MINI_C}, crate="items_crate")


# --- context assembly ------------------------------------------------------------


def test_context_primitives_only(pipe):
    project, _, graph, index, _, _ = pipe
    ctx = assemble_context("crate::items::bump_seen", project, graph)
    assert ctx.signature.startswith("pub ")
    assert ctx.type_decls == []
    assert any("g_seen" in g for g in ctx.global_decls)
    assert any("CAP" in g for g in ctx.global_decls)


def test_context_includes_callee_and_types(pipe):
    project, _, graph, index, _, _ = pipe
    ctx = assemble_context("crate::items::both", project, graph)
    assert any("chain_weight" in sig for sig in ctx.callee_signatures)
    assert any("bump_seen" in sig for sig in ctx.callee_signatures)
    assert any("struct item" in t for t in ctx.type_decls)


def test_context_closure_over_signature_identifiers(pipe):
    project, _, graph, index, _, _ = pipe
    ctx = assemble_context("crate::items::chain_weight", project, graph)
    rendered = ctx.render()
    # every crate-path identifier in the signature is declared in the context
    assert "pub struct item" in rendered


def test_context_budget_truncates_callees_first(pipe, monkeypatch):
    project, _, graph, index, _, _ = pipe
    full = assemble_context("crate::items::both", project, graph)
    monkeypatch.setattr(translate, "CONTEXT_BUDGET", 40)
    tight = assemble_context("crate::items::both", project, graph)
    assert len(tight.callee_signatures) < len(full.callee_signatures)
    assert tight.type_decls == full.type_decls  # types retained to the last


# --- prompt building -----------------------------------------------------------


def test_prompt_without_retrieval_omits_sections(pipe):
    project, _, graph, index, _, _ = pipe
    ctx = assemble_context("crate::items::bump_seen", project, graph)
    prompt = build_prompt(ctx, tag=f"{ctx.fn_id}#1", examples=[], rules=[])
    assert "## Examples" not in prompt.user
    assert "## Reuse rules" not in prompt.user


def test_prompt_fragment_rule_bullet(pipe):
    project, _, graph, index, _, _ = pipe
    ctx = assemble_context("crate::items::bump_seen", project, graph)
    rule = FragmentRule(
        c_idiom="(char*)&s->f - (char*)s",
        rust_idiom="core::mem::offset_of!(S, f)",
        hint="use the offset_of! idiom",
    )
    prompt = build_prompt(ctx, tag=f"{ctx.fn_id}#1", examples=[], rules=[rule])
    rules_section = prompt.user.split("## Reuse rules\n", 1)[1].split("## Target", 1)[0]
    assert "offset_of!" in rules_section


def test_prompt_examples_capped_at_three(pipe):
    project, _, graph, index, _, _ = pipe
    ctx = assemble_context("crate::items::bump_seen", project, graph)
    pairs = [
        AlignedFunctionPair(c_name=f"c{i}", c_source="int c(void);", rust_name=f"r{i}",
                            rust_source=f"pub fn r{i}() {{}}")
        for i in range(5)
    ]
    prompt = build_prompt(ctx, tag=f"{ctx.fn_id}#1", examples=pairs, rules=[])
    examples_section = prompt.user.split("## Examples\n", 1)[1].split("## Target", 1)[0]
    assert examples_section.count("Example ") == 3
    assert "r0" in examples_section and "r2" in examples_section
    assert "r3" not in examples_section


def test_prompt_deterministic(pipe):
    project, _, graph, index, _, _ = pipe
    ctx = assemble_context("crate::items::both", project, graph)
    rules = [ApiRule(c_interface="memcpy", rust_interface="copy_from_slice")]
    one = build_prompt(ctx, tag=f"{ctx.fn_id}#1", examples=[], rules=rules).render()
    two = build_prompt(ctx, tag=f"{ctx.fn_id}#1", examples=[], rules=rules).render()
    assert one == two


# --- response post-processing -----------------------------------------------------


def test_extract_body_from_fence():
    resp = "Here is the body:\n```rust\nlet x = 1;\nx\n```\nHope that helps!"
    assert extract_body(resp, "f") == "let x = 1;\nx"


def test_extract_body_trims_full_function():
    resp = "pub fn add(a: i32, b: i32) -> i32 {\n    a + b\n}"
    assert extract_body(resp, "add") == "a + b"


def test_extract_body_plain_text_kept():
    assert extract_body("a + b", "add") == "a + b"


def test_extract_body_raw_identifier():
    resp = "fn r#match(x: i32) -> i32 {\n    x\n}"
    assert extract_body(resp, "r#match") == "x"


def test_extract_body_skips_braces_in_string_literal():
    resp = '```rust\nfn greet() {\n    println!("{{");\n}\n```'
    assert extract_body(resp, "greet") == 'println!("{{");'


def test_extract_body_skips_brace_in_char_literal():
    resp = "fn close() -> char {\n    let c = '}';\n    c\n}"
    assert extract_body(resp, "close") == "let c = '}';\nc"


# --- workspace install / rollback ---------------------------------------------------


def test_install_then_rollback_byte_identical(pipe):
    _, workspace, _, _, _, _ = pipe
    fn = "crate::items::bump_seen"
    path = workspace.module_file(fn)
    before = path.read_bytes()
    workspace.install_body(fn, "by + 1")
    assert b"by + 1" in path.read_bytes()
    workspace.rollback_body(fn)
    assert path.read_bytes() == before


def test_two_installs_same_file_keep_markers(pipe):
    _, workspace, _, _, _, _ = pipe
    f, g = "crate::items::chain_weight", "crate::items::bump_seen"
    before_f = workspace.module_file(f).read_bytes()
    workspace.install_body(f, "0")
    workspace.install_body(g, "41 + by - by + 1")
    text = workspace.module_file(f).read_text()
    assert workspace.read_body(f) == "0"
    assert "41 + by" in text
    workspace.rollback_body(g)
    workspace.rollback_body(f)
    assert workspace.module_file(f).read_bytes() == before_f


def test_open_restores_an_uncommitted_batch(pipe):
    _, workspace, _, _, _, _ = pipe
    f, g = "crate::items::chain_weight", "crate::items::bump_seen"
    path = workspace.module_file(f)
    before = path.read_bytes()
    workspace.install_body(f, "0")
    workspace.install_body(g, "by")
    workspace.install_body(g, "by + 1")  # nested: the oldest entry wins
    # a crash here leaves unverified bodies on disk; the next open restores them
    reopened = Workspace(workspace.root)
    assert path.read_bytes() == before
    reopened.install_body(f, "1")
    reopened.rollback_body(f)
    assert path.read_bytes() == before


def test_install_body_containing_end_marker_is_sanitized(pipe):
    _, workspace, _, _, _, _ = pipe
    fn = "crate::items::bump_seen"
    path = workspace.module_file(fn)
    before = path.read_bytes()
    evil = 'let s = "// <<< rustport:body crate::items::bump_seen";\n0'
    workspace.install_body(fn, evil)
    # markers stay unique: a later install still locates the segment
    workspace.install_body(fn, "1")
    assert workspace.read_body(fn) == "1"
    workspace.rollback_body(fn)
    workspace.rollback_body(fn)
    assert path.read_bytes() == before


def test_missing_marker_is_hard_error(pipe, tmp_path):
    _, workspace, _, _, _, _ = pipe
    with pytest.raises(WorkspaceError):
        workspace.read_body("crate::items::no_such_fn")


def test_read_body_returns_placeholder(pipe):
    _, workspace, _, _, _, _ = pipe
    body = workspace.read_body("crate::items::chain_weight")
    assert "unimplemented!()" in body
