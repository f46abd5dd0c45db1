"""Per-function translation: context assembly, prompt rendering, body extraction.

The context holds exactly the declarations the function's signature and C body
reference, resolved through the global symbol index; retrieval examples and
compact rule bullets are injected as separate prompt sections and omitted
entirely when retrieval comes back empty.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from string import Template

from . import rustlex
from .backends import GenerationRequest
from .csyms import base_names
from .errors import SkeletonError
from .graph import GlobalSymbolIndex, SkeletonGraph
from .knowledge.rules import ApiRule, FragmentRule
from .skeleton import SHARED_MODULE, SkeletonProject

logger = logging.getLogger(__name__)

_TEMPLATE_DIR = Path(__file__).parent / "templates"

CONTEXT_BUDGET = 4000  # whitespace tokens of context plus C source in one prompt
EXAMPLE_CAP = 3  # retrieved examples shown in one prompt


@dataclass
class TranslationContext:
    fn_id: str
    c_source: str
    signature: str
    type_decls: list[str] = field(default_factory=list)
    global_decls: list[str] = field(default_factory=list)
    callee_signatures: list[str] = field(default_factory=list)
    shared_excerpts: list[str] = field(default_factory=list)

    def render(self) -> str:
        parts: list[str] = []
        if self.type_decls:
            parts.append("Types in scope:\n```rust\n" + "\n\n".join(self.type_decls) + "\n```")
        if self.global_decls:
            parts.append("Globals and constants:\n```rust\n" + "\n".join(self.global_decls) + "\n```")
        if self.shared_excerpts:
            parts.append("Shared layer:\n```rust\n" + "\n".join(self.shared_excerpts) + "\n```")
        if self.callee_signatures:
            parts.append("Callable stubs:\n```rust\n" + "\n".join(self.callee_signatures) + "\n```")
        return "\n\n".join(parts) if parts else "(no extra declarations needed)"


def _token_count(text: str) -> int:
    return len(text.split())


def assemble_context(
    fn_id: str,
    skeleton: SkeletonProject,
    graph: SkeletonGraph,
    index: GlobalSymbolIndex,
) -> TranslationContext:
    """Close over every declaration the function's signature and body touch.

    Over ``CONTEXT_BUDGET``, callee signatures are dropped first, then
    globals, then the shared excerpts; type declarations are retained to the
    last.
    """
    stub = skeleton.stub_by_name(fn_id)
    if stub is None:
        raise SkeletonError(f"no stub for {fn_id}")

    types_by_qid = {f"{t.module}::{t.name}": t for t in skeleton.types}
    statics_by_qid = {f"{s.module}::{s.name}": s for s in skeleton.statics}
    consts_by_qid = {f"{c.module}::{c.name}": c for c in skeleton.constants}
    origins_by_name = {t.origin.name: t for t in skeleton.types}

    type_qids: list[str] = []
    global_qids: list[str] = []
    callee_qids: list[str] = []

    def add_type_closure(qid: str) -> None:
        if qid in type_qids:
            return
        decl = types_by_qid.get(qid)
        if decl is None:
            return
        type_qids.append(qid)
        # member types referenced by this type join the closure
        for member_name in re.findall(r"crate::[\w:]+", decl.emitted_text):
            if member_name != qid and member_name in types_by_qid:
                add_type_closure(member_name)
        for _mn, mtype, _w in decl.origin.members:
            for m in base_names(mtype):
                inner = origins_by_name.get(m)
                if inner is not None:
                    add_type_closure(f"{inner.module}::{inner.name}")

    # signature types
    sig_names = set(re.findall(r"crate::[\w:]+", stub.signature_text))
    for qid in sorted(sig_names):
        add_type_closure(qid)
    for _pname, ptype in stub.origin.params:
        for name in base_names(ptype):
            decl = origins_by_name.get(name)
            if decl is not None:
                add_type_closure(f"{decl.module}::{decl.name}")

    # constants referenced in the original (un-preprocessed) body text: the
    # preprocessor erased these names, but the skeleton re-emits them
    source_idents = set(re.findall(r"[A-Za-z_]\w*", stub.origin.source_text or ""))
    body_refs = set(stub.origin.calls | stub.origin.value_refs)
    for name in source_idents:
        target = index.resolve(name, stub.module, kind="constant")
        if target is not None:
            body_refs.add(name)

    # body references resolved through the index
    for ref in sorted(body_refs):
        target = index.resolve(ref, stub.module)
        if target is None:
            boundary = f"boundary::{ref}"
            if boundary not in graph.nodes:
                raise SkeletonError(
                    f"{fn_id} references {ref!r}, absent from the index and not a boundary"
                )
            continue
        entry = index.entries[target]
        path = entry.path
        if entry.kind == "type":
            add_type_closure(path)
        elif entry.kind in ("static", "constant"):
            if path not in global_qids:
                global_qids.append(path)
        elif entry.kind == "function" and path != fn_id:
            if path not in callee_qids:
                callee_qids.append(path)

    type_decls = [types_by_qid[q].emitted_text for q in type_qids]
    global_decls = []
    shared_excerpts = []
    for qid in global_qids:
        if qid in statics_by_qid:
            item = statics_by_qid[qid]
            line = f"// at {qid}\n{item.emitted_text}"
            if item.module == SHARED_MODULE:
                shared_excerpts.append(line)
                if item.accessor_text:
                    shared_excerpts.append(item.accessor_text)
            else:
                global_decls.append(line)
        elif qid in consts_by_qid:
            item = consts_by_qid[qid]
            line = f"// at {qid}\n{item.emitted_text}"
            (shared_excerpts if item.module == SHARED_MODULE else global_decls).append(line)
    callee_sigs = []
    for qid in callee_qids:
        callee = skeleton.stub_by_name(qid)
        if callee is not None:
            callee_sigs.append(f"// at {qid}\n{callee.signature_text};")

    ctx = TranslationContext(
        fn_id=fn_id,
        c_source=stub.origin.source_text or "",
        signature=stub.signature_text,
        type_decls=type_decls,
        global_decls=global_decls,
        callee_signatures=callee_sigs,
        shared_excerpts=shared_excerpts,
    )

    def total() -> int:
        return _token_count(ctx.render()) + _token_count(ctx.c_source)

    # deterministic truncation: callees, then globals, then shared; types last
    for bucket in (ctx.callee_signatures, ctx.global_decls, ctx.shared_excerpts):
        while total() > CONTEXT_BUDGET and bucket:
            dropped = bucket.pop()
            logger.info("context for %s over budget; dropped %.40r", fn_id, dropped)
    return ctx


def _rule_bullet(rule) -> str:
    if isinstance(rule, FragmentRule):
        return f"- C: {rule.c_idiom} ⇒ Rust: {rule.rust_idiom} — {rule.hint}"
    if isinstance(rule, ApiRule):
        return (
            f"- C: {rule.c_interface} ⇒ Rust: {rule.rust_interface} — "
            f"reuse this interface (support {rule.support})"
        )
    raise TypeError(f"unknown rule type {type(rule).__name__}")


def build_prompt(
    ctx: TranslationContext, tag: str, examples=(), rules=()
) -> GenerationRequest:
    """Deterministic prompt: system, context, examples, rules, target.

    Empty retrieval omits the examples and rules sections entirely.
    """
    system = (_TEMPLATE_DIR / "translate_system.txt").read_text(encoding="utf-8").strip()

    examples_section = ""
    kept = list(examples)[:EXAMPLE_CAP]
    if kept:
        blocks = []
        for i, pair in enumerate(kept, 1):
            blocks.append(f"Example {i} (accepted translation):\n```rust\n{pair.rust_source}\n```")
        examples_section = "## Examples\n" + "\n\n".join(blocks) + "\n"

    rules_section = ""
    if rules:
        rules_section = "## Reuse rules\n" + "\n".join(_rule_bullet(r) for r in rules) + "\n"

    template = Template((_TEMPLATE_DIR / "translate_user.txt").read_text(encoding="utf-8"))
    user = template.substitute(
        context=ctx.render(),
        examples=examples_section,
        rules=rules_section,
        c_source=ctx.c_source,
        signature=ctx.signature,
    )
    return GenerationRequest(system=system, user=user, tag=tag)


def build_repair_prompt(
    ctx: TranslationContext, body: str, diagnostics_text: str, tag: str
) -> GenerationRequest:
    system = (_TEMPLATE_DIR / "translate_system.txt").read_text(encoding="utf-8").strip()
    template = Template((_TEMPLATE_DIR / "repair_user.txt").read_text(encoding="utf-8"))
    user = template.substitute(
        context=ctx.render(),
        body=body,
        diagnostics=diagnostics_text,
        signature=ctx.signature,
    )
    return GenerationRequest(system=system, user=user, tag=tag)


_FENCE_RE = re.compile(r"```(?:rust|rs)?\s*\n(.*?)```", re.S)


def extract_body(response_text: str, fn_name: str) -> str:
    """Normalize a model response to a bare function body.

    Code fences are stripped; a response containing the whole function is
    trimmed to the body by matching the known signature name; trailing prose
    after the final brace is dropped.
    """
    text = response_text.strip()
    fences = _FENCE_RE.findall(text)
    if fences:
        text = "\n\n".join(f.strip() for f in fences)

    bare = fn_name[2:] if fn_name.startswith("r#") else fn_name
    m = re.search(rf"\bfn\s+(?:r#)?{re.escape(bare)}\b", text)
    if m:
        open_idx = text.find("{", m.end())
        close_idx = rustlex.matching(text, open_idx) if open_idx != -1 else None
        if close_idx is not None:
            return _dedent(text[open_idx + 1 : close_idx].strip("\n"))
    return text


def _dedent(block: str) -> str:
    lines = block.splitlines()
    indents = [len(l) - len(l.lstrip()) for l in lines if l.strip()]
    if not indents:
        return block
    cut = min(indents)
    return "\n".join(l[cut:] if l.strip() else "" for l in lines)
