"""Per-function translation: context assembly, prompt rendering, body extraction.

The context holds exactly the declarations the function's signature and C body
reference. The body's references are the function's out-edges in the skeleton
graph, the one place they resolve (a call prefers a function, then any kind),
so a prompt shows what ``graph.json`` records; the signature's types and
their member types close over the parsed C types. Retrieval examples and
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
from .graph import SkeletonGraph
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
) -> TranslationContext:
    """Close over every declaration the function's signature and body touch.

    Over ``CONTEXT_BUDGET``, callee signatures are dropped first, then
    globals, then the shared excerpts; type declarations are retained to the
    last.
    """
    stub = skeleton.stub_by_name(fn_id)
    if stub is None:
        raise SkeletonError(f"no stub for {fn_id}")

    types_by_name = {t.origin.name: t for t in skeleton.types}
    decls = {
        (kind, _qid(d)): d
        for kind, items in (
            ("type", skeleton.types),
            ("static", skeleton.statics),
            ("constant", skeleton.constants),
        )
        for d in items
    }

    # qid -> emitted text, in closure order
    types: dict[str, str] = {}

    def add_type_closure(decl) -> None:
        if _qid(decl) in types:
            return
        types[_qid(decl)] = decl.emitted_text
        for _mn, mtype, _w in decl.origin.members:
            for name in base_names(mtype):
                if name in types_by_name:
                    add_type_closure(types_by_name[name])

    # signature types, in path order
    signature = [*(ptype for _pname, ptype in stub.origin.params), stub.origin.return_type]
    named = [types_by_name[n] for ct in signature for n in base_names(ct) if n in types_by_name]
    for decl in sorted(named, key=_qid):
        add_type_closure(decl)

    # body references: the function's out-edges, by target name
    targets = [t for edges in (graph.call_edges, graph.symbol_edges) for c, t in edges if c == fn_id]
    global_decls: list[str] = []
    shared_excerpts: list[str] = []
    callee_sigs: list[str] = []
    for target in sorted(targets, key=lambda t: (t.rpartition("::")[2], t)):
        kind, path = graph.nodes[target].kind, graph.nodes[target].path
        if kind == "type":
            add_type_closure(decls["type", path])
        elif kind in ("static", "constant"):
            item = decls[kind, path]
            line = f"// at {path}\n{item.emitted_text}"
            if item.module == SHARED_MODULE:
                shared_excerpts.append(line)
                if kind == "static" and item.accessor_text:
                    shared_excerpts.append(item.accessor_text)
            else:
                global_decls.append(line)
        elif kind == "function" and path != fn_id:
            callee_sigs.append(f"// at {path}\n{skeleton.stub_by_name(path).signature_text};")

    ctx = TranslationContext(
        fn_id=fn_id,
        c_source=stub.origin.source_text or "",
        signature=stub.signature_text,
        type_decls=list(types.values()),
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


def _qid(decl) -> str:
    return f"{decl.module}::{decl.name}"


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
