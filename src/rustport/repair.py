"""Compiler-feedback repair: compile-and-install validation, batched
compilation of a wave of the schedule, a closed set of deterministic rule
fixes, model-guided repair under a budget, and the foreign-declaration
fallback that keeps the project compilable while counting as a translation
failure.

Round accounting: a rule-based fix is free when its candidate compiles; if it
fails to compile it consumes the round. Each function therefore proposes at
most budget + 2 candidates (initial, one per round, at most one extra for a
successful rule fix or the fallback install).

Build bounds. Serially (``repair_loop``), compile invocations per function
stay within budget + 2. In a wave (``repair_layer``: one schedule layer, or
the whole schedule when no knowledge flows between layers) the functions
advance in lockstep, one candidate each per step, and a step costs at most one
batched build (``compile_batch``) plus one build per candidate built one by
one. When a step's build fails, only the candidates it blames roll back; the
others stay installed and uncommitted (*held*) and ride in the next step's
build, which commits them if it is clean and blames each one in whose function
an error then shows up (rustc reports some errors, such as deny-by-default
lints, only once no other error remains). A candidate built one by one never
shares its build with a held body, whose error it would take for its own:
while bodies are held, it waits. A function proposes at most budget + 2
candidates, so a wave takes at most budget + 2 steps, plus the steps by which
waiting delays a function's later candidates (a body blamed late, or one that
waited to be built on its own), plus one step to confirm what its last step
leaves held (beside a fallback shim that failed).

A narrow wave, one holding fewer than one function in ``INCREMENTAL_SHARE``
of the crate's bodies, builds every step with rustc's incremental cache;
nothing else does: not a broad wave, the skeleton check, ICompRate's baseline
and restore, warnings, the FC gate or the serial ``repair_loop``. A wave's
steps change only its own bodies, so once a narrow wave's first clean build
writes the cache, the later builds of that wave, and of the narrow waves
straight after it, differ from the crate the cache holds in few bodies.

The batched path rests on body locality: the skeleton fixes every signature,
so rustc checks each body against fixed interfaces and reports each error at
a primary span inside the function whose body caused it (in the body, at the
signature's return type for a body without a tail, or at the closing brace
for an unfinished body). Bodies that could reach past their own function
(``impl`` blocks, exported or unmangled items, delimiters that close the
function early) are always compiled one by one, and so is a whole batch with
any error that no installed candidate's function contains.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Generator, Optional, TypeVar

from . import rustlex
from .cargo import BuildRunner, Diagnostic, render_diagnostics
from .errors import WorkspaceError
from .graph import GlobalSymbolIndex
from .skeleton import FALLBACK_MARK, FunctionStub
from .translate import TranslationContext, build_repair_prompt, extract_body
from .workspace import Workspace, body_file, locate_body, segment_body

logger = logging.getLogger(__name__)

RULE_FIX_VERSION = 1
DEFAULT_REPAIR_BUDGET = 5
DIAG_PROMPT_LIMIT = 20

# rustc saves no incremental state after a failing build, so its cache pays
# off only while few bodies differ from the crate the last clean build that
# used it compiled, and costs more than it saves when most do. One rustc run
# after editing k random bodies of a translated 1000-function crate (40
# modules), median of 3, ms with / without the cache, rustc 1.95 on 2 vCPUs:
#   bodies changed   clean build   failing build
#   1%               249 / 501     121 / 202
#   10%              350 / 342     170 / 205
#   25%              437 / 353     169 / 166
#   100%             540 / 413     288 / 213
# With loop-heavy bodies the cache still won at 25% (521 / 590, 272 / 445) and
# lost at 100% (872 / 726, 521 / 345): one body in ten is below both
# crossovers. A wave uses the cache when it holds fewer than one function in
# this many of the crate's bodies (see the module doc).
INCREMENTAL_SHARE = 10

_INT_TYPES = {"i8", "i16", "i32", "i64", "i128", "u8", "u16", "u32", "u64", "u128", "usize", "isize"}


@dataclass
class RepairAttempt:
    round_index: int  # 0 = initial generation
    body: str
    ok: bool
    diagnostics: list[tuple[Optional[str], str, str]]  # (code, message, span)
    fix_source: str  # generation | rule_fix | model_repair | fallback
    note: str = ""


@dataclass
class FunctionOutcome:
    node_id: str
    final_state: str  # translated | fallback | failed
    attempts: list[RepairAttempt] = field(default_factory=list)
    rounds_used: int = 0
    final_body: str = ""


Compiled = tuple[bool, list[Diagnostic], str]  # (ok, diagnostics, file snapshot)
T = TypeVar("T")


def _diag_tuples(diags: list[Diagnostic]) -> list[tuple[Optional[str], str, str]]:
    return [
        (d.code, d.message, f"{d.file}:{d.line}:{d.column}" if d.file else "")
        for d in diags
    ]


def compile_and_install(
    workspace: Workspace,
    fn_id: str,
    body: str,
    runner: BuildRunner,
    incremental: bool = False,
) -> Compiled:
    """Install the body and build the whole project, with rustc's incremental
    cache when ``incremental`` is set (see the module doc).

    Success leaves the body installed; failure rolls the module file back
    byte-identically and returns the diagnostics plus a snapshot of the file
    as it looked with the failing body (rule fixes edit that snapshot).
    """
    workspace.install_body(fn_id, body)
    outcome = runner.build(workspace.root, incremental)
    if outcome.ok:
        workspace.commit_install(fn_id)
        return True, [], ""
    snapshot = workspace.module_file(fn_id).read_text(encoding="utf-8")
    workspace.rollback_body(fn_id)
    return False, outcome.errors, snapshot


# items a body can declare whose effect reaches past its own function
_CRATE_WIDE = {"impl", "macro_export", "no_mangle", "export_name"}


def _stays_local(body: str) -> bool:
    """Whether a body's effects stay inside its own function (see module doc):
    it names no crate-wide item, and every delimiter, literal and comment it
    opens closes inside it, so it cannot end its function early."""
    expected: list[str] = []  # the closers of the open delimiters
    for tok in rustlex.tokenize(body):
        if not tok.closed or (tok.kind == "ident" and tok.text in _CRATE_WIDE):
            return False
        if tok.kind != "punct":
            continue
        if tok.text in rustlex.CLOSER:
            expected.append(rustlex.CLOSER[tok.text])
        elif tok.text in ")]}" and (not expected or expected.pop() != tok.text):
            return False
    return not expected


def _attribute(
    workspace: Workspace, live: list[str], errors: list[Diagnostic]
) -> Optional[dict[str, Compiled]]:
    """Blame each error on the installed candidate whose function holds its
    primary span; None if any error lies in no such function.

    A candidate's function runs from its signature to its closing brace:
    rustc reports a body without a tail of the return type at the signature,
    and an unfinished body at the closing brace. Each touched module file's
    text, as the build saw it, is the snapshot of every candidate it holds.
    """
    ranges: dict[Path, list[tuple[int, int, str]]] = {}
    snapshots: dict[str, str] = {}
    for path, (spans, lines) in workspace.locate(live).items():
        text = "".join(lines)
        owned = ranges[path.relative_to(workspace.root)] = []
        for fn_id, (begin, end) in spans.items():
            snapshots[fn_id] = text
            # the skeleton puts the signature right above the begin marker and
            # a blank line above the signature, the closing brace right below
            # the end marker
            first = begin
            while first > 0 and lines[first - 1].strip():
                first -= 1
            closing = end + 1 < len(lines) and lines[end + 1].strip() == "}"
            owned.append((first + 1, end + 1 + closing, fn_id))  # 1-based lines
    blamed: dict[str, list[Diagnostic]] = {}
    for diag in errors:
        owner = None
        if diag.file is not None and diag.line is not None:
            for first, last, fn_id in ranges.get(Path(diag.file), ()):
                if first <= diag.line <= last:
                    owner = fn_id
                    break
        if owner is None:
            return None
        blamed.setdefault(owner, []).append(diag)
    if not blamed:
        return None
    return {fn_id: (False, diags, snapshots[fn_id]) for fn_id, diags in blamed.items()}


def compile_batch(
    workspace: Workspace,
    candidates: dict[str, str],
    runner: BuildRunner,
    incremental: bool = False,
) -> dict[str, Compiled]:
    """One step of compiling candidate bodies: at most one batched build, then
    one build per candidate that is not batched, each with rustc's
    incremental cache when ``incremental`` is set. Returns the result, like
    ``compile_and_install``'s, of each candidate the step decides.

    The candidates still held from an earlier step (installed and
    uncommitted, so their rollback entries are pending) ride in the build
    beside the new candidates whose effects stay inside their own function,
    installed with the rollback store written once, before any segment. A
    clean build commits everything live. Each error is blamed on the
    candidate whose function holds its primary span; those roll back and the
    rest stay held, with no result until a later step's build confirms or
    blames them. If any error cannot be blamed on a live candidate,
    everything live rolls back. Once nothing is held, every candidate left
    (one that is not local, a lone candidate, all of them after an
    unattributable error) is compiled one by one with ``compile_and_install``
    in the candidates' order; while bodies are held, those candidates wait
    for a later step.
    """
    held = workspace.uncommitted(candidates)
    fresh = {
        fn_id: body
        for fn_id, body in candidates.items()
        if fn_id not in held and _stays_local(body)
    }
    results: dict[str, Compiled] = {}
    if held or len(fresh) > 1:
        if fresh:
            workspace.install_bodies(fresh)
        live = [fn_id for fn_id in candidates if fn_id in held or fn_id in fresh]
        outcome = runner.build(workspace.root, incremental)
        if outcome.ok:
            workspace.commit_installs(live)
            results = {fn_id: (True, [], "") for fn_id in live}
        else:
            blamed = _attribute(workspace, live, outcome.errors)
            workspace.rollback_bodies(live if blamed is None else blamed)
            if blamed is not None:
                results = blamed
                if len(blamed) < len(live):
                    return results  # the others are held
    for fn_id, body in candidates.items():
        if fn_id not in results:
            results[fn_id] = compile_and_install(workspace, fn_id, body, runner, incremental)
    return results


_UNRESOLVED_RE = re.compile(r"cannot find (?:value|function|type|struct, variant or union type) `(\w+)`")
_MISMATCH_RE = re.compile(r"expected `([^`]+)`, found `([^`]+)`")


def rule_based_fix(
    diagnostics: list[Diagnostic],
    index: Optional[GlobalSymbolIndex] = None,
    file_snapshot: str = "",
    fn_id: str = "",
    from_module: str = "",
) -> Optional[str]:
    """Apply the closed, ordered fix set; return a body only if something fixed.

    Classes (version 1): integer-width casts at mismatch sites, pointer
    dereference/address-of suggestions the compiler marks machine-applicable,
    path qualification unique in the global symbol index, and mutability
    annotations on compiler-named locals. Anything else routes to model repair.
    Only edits that fall inside this function's own body segment of its own
    module file are applied; offsets into other files or other items are not
    offsets into this snapshot.
    """
    if not diagnostics or not file_snapshot:
        return None
    try:
        own_file = body_file(fn_id)
        first, last, lines = locate_body(file_snapshot, fn_id)
    except WorkspaceError:
        return None
    seg_start = len("".join(lines[: first + 1]).encode("utf-8"))
    seg_end = len("".join(lines[:last]).encode("utf-8"))
    data = file_snapshot.encode("utf-8")
    edits: list[tuple[int, int, bytes]] = []

    def add(file: Optional[str], start: int, end: int, replacement: bytes) -> None:
        if file is not None and Path(file) == own_file and seg_start <= start <= end <= seg_end:
            edits.append((start, end, replacement))

    def add_machine_applicable(diag: Diagnostic) -> None:
        for s in diag.suggestions:
            if s.applicability == "MachineApplicable":
                add(s.file, s.byte_start, s.byte_end, s.replacement.encode("utf-8"))

    def span_in_file(diag: Diagnostic) -> bool:
        return diag.file is not None and diag.line is not None

    for diag in diagnostics:
        if diag.code == "E0308" and span_in_file(diag):
            m = _MISMATCH_RE.search(diag.message) or _MISMATCH_RE.search(diag.rendered)
            if (
                m
                and m.group(1) in _INT_TYPES
                and m.group(2) in _INT_TYPES
                and diag.byte_start is not None
            ):
                start, end = diag.byte_start, diag.byte_end
                snippet = data[start:end].decode("utf-8", "replace")
                add(diag.file, start, end, f"({snippet}) as {m.group(1)}".encode("utf-8"))
                continue
            add_machine_applicable(diag)
        elif diag.code == "E0614":
            add_machine_applicable(diag)
        elif diag.code in ("E0425", "E0412", "E0433") and index is not None:
            m = _UNRESOLVED_RE.search(diag.message)
            if not m:
                continue
            name = m.group(1)
            target = index.resolve_rust(name, from_module)
            if target is not None and diag.byte_start is not None:
                add(
                    diag.file,
                    diag.byte_start,
                    diag.byte_end,
                    index.path_of(target).encode("utf-8"),
                )
        elif diag.code in ("E0384", "E0596"):
            add_machine_applicable(diag)

    if not edits:
        return None
    # apply right-to-left so earlier offsets stay valid; drop overlaps
    edits.sort(key=lambda e: e[0], reverse=True)
    applied = 0
    last_start = len(data) + 1
    for start, end, replacement in edits:
        if end > last_start:
            continue
        data = data[:start] + replacement + data[end:]
        last_start = start
        applied += 1
    if not applied:
        return None
    try:
        first, last, lines = locate_body(data.decode("utf-8", "replace"), fn_id)
    except WorkspaceError:
        return None
    return segment_body(lines, first, last)


def model_repair(
    ctx: TranslationContext,
    body: str,
    diagnostics: list[Diagnostic],
    backend,
    attempt_tag: str,
    fn_name: str,
    prompt_sink: Optional[Callable] = None,
) -> tuple[Optional[str], str]:
    """One model-guided repair: context + failing body + verbatim diagnostics.

    Returns (new body or None on backend error, note)."""
    note = ""
    if len(diagnostics) > DIAG_PROMPT_LIMIT:
        note = f"diagnostics truncated to first {DIAG_PROMPT_LIMIT} of {len(diagnostics)}"
    rendered = render_diagnostics(diagnostics, limit=DIAG_PROMPT_LIMIT)
    request = build_repair_prompt(ctx, body, rendered, attempt_tag)
    if prompt_sink is not None:
        prompt_sink(request.tag, request.render())
    resp = backend.generate(request)
    if resp.finish_reason == "error":
        return None, (note + "; " if note else "") + f"backend error: {resp.backend_id}"
    return extract_body(resp.text, fn_name), note


def fallback_body(stub: FunctionStub) -> str:
    """A foreign-function shim delegating to the original C symbol.

    Compilable in a library crate (resolution happens at link time in a mixed
    C/Rust build); strictly counted as a translation failure downstream.
    """
    sig = stub.signature_text
    open_idx = sig.index("(")
    close_idx = rustlex.matching(sig, open_idx)
    params_text = sig[open_idx + 1 : close_idx]
    ret_clause = sig[close_idx + 1 :].strip()
    name = stub.qualified_name.rsplit("::", 1)[1]
    decl = f"fn {name}({params_text})"
    if ret_clause.startswith("->"):
        decl += f" {ret_clause}"
    args = ", ".join(stub.param_names)
    return (
        f"{FALLBACK_MARK} delegating to the untranslated C symbol\n"
        f'extern "C" {{\n'
        f"    {decl};\n"
        f"}}\n"
        f"unsafe {{ {name}({args}) }}"
    )


def repair_steps(
    stub: FunctionStub,
    ctx: TranslationContext,
    initial_body: str,
    backend,
    index: Optional[GlobalSymbolIndex] = None,
    budget: int = DEFAULT_REPAIR_BUDGET,
    prompt_sink: Optional[Callable] = None,
) -> Generator[str, Compiled, FunctionOutcome]:
    """The repair policy for one function as a step machine.

    It yields each candidate body, is sent back ``(ok, diagnostics,
    snapshot)`` from compiling it, and returns the outcome. Per round: on
    failure try the rule fix (free if its candidate then compiles, a consumed
    round if not), otherwise model repair. Once the budget is exhausted the
    fallback shim is the last candidate and the outcome is `fallback`, which
    downstream metrics count strictly as failure.
    """
    fn_id = stub.qualified_name
    fn_name = fn_id.rsplit("::", 1)[1]
    outcome = FunctionOutcome(node_id=fn_id, final_state="failed")

    ok, diags, snapshot = yield initial_body
    outcome.attempts.append(
        RepairAttempt(0, initial_body, ok, _diag_tuples(diags), "generation")
    )
    body = initial_body
    rounds = 0

    while not ok and rounds < budget:
        fixed = rule_based_fix(
            diags, index=index, file_snapshot=snapshot, fn_id=fn_id,
            from_module=stub.module,
        )
        if fixed is not None and fixed != body:
            ok2, diags2, snap2 = yield fixed
            if ok2:
                # free: the rule fix verified on its own compile
                outcome.attempts.append(RepairAttempt(rounds, fixed, True, [], "rule_fix"))
                body, ok = fixed, True
                break
            rounds += 1
            outcome.attempts.append(
                RepairAttempt(rounds, fixed, False, _diag_tuples(diags2), "rule_fix")
            )
            body, diags, snapshot = fixed, diags2, snap2
            continue

        rounds += 1
        new_body, note = model_repair(
            ctx, body, diags, backend, f"{fn_id}#{rounds + 1}", fn_name, prompt_sink
        )
        if new_body is None:
            outcome.attempts.append(
                RepairAttempt(rounds, body, False, _diag_tuples(diags), "model_repair", note=note)
            )
            continue
        ok, diags, snapshot = yield new_body
        outcome.attempts.append(
            RepairAttempt(rounds, new_body, ok, _diag_tuples(diags), "model_repair", note=note)
        )
        body = new_body

    outcome.rounds_used = rounds
    if ok:
        outcome.final_state = "translated"
        outcome.final_body = body
        return outcome

    shim = fallback_body(stub)
    ok_fb, diags_fb, _snap = yield shim
    if ok_fb:
        outcome.final_state = "fallback"
        outcome.final_body = shim
        outcome.attempts.append(RepairAttempt(rounds, shim, True, [], "fallback"))
    else:
        logger.error("fallback shim for %s failed to compile; placeholder restored", fn_id)
        outcome.final_state = "failed"
        outcome.attempts.append(
            RepairAttempt(rounds, shim, False, _diag_tuples(diags_fb), "fallback")
        )
    return outcome


def _settle(
    machines: dict[str, Generator[str, Compiled, T]],
    compile_step: Callable[[dict[str, str]], dict[str, Compiled]],
) -> dict[str, T]:
    """Drive step machines in lockstep: every step compiles the waiting
    candidate of each unsettled function together, and hands the results it
    decides back in the machines' order. A candidate the step leaves
    undecided (held, or waiting to be built on its own) is offered again in
    the next step."""
    outcomes: dict[str, T] = {}
    waiting = {fn_id: next(machine) for fn_id, machine in machines.items()}
    while waiting:
        results = compile_step(waiting)
        following = {}
        for fn_id, body in waiting.items():
            if fn_id not in results:
                following[fn_id] = body
                continue
            try:
                following[fn_id] = machines[fn_id].send(results[fn_id])
            except StopIteration as done:
                outcomes[fn_id] = done.value
        waiting = following
    return {fn_id: outcomes[fn_id] for fn_id in machines}


def _proposal(body: str) -> Generator[str, Compiled, Compiled]:
    """A step machine that proposes one body and returns its result."""
    return (yield body)


def settle_bodies(
    workspace: Workspace,
    bodies: dict[str, str],
    runner: BuildRunner,
) -> dict[str, Compiled]:
    """Compile bodies that get no repair (ICompRate's restores) in
    ``compile_batch`` steps until none is held: usually one build, and one
    more to confirm the survivors when it fails partly."""
    return _settle(
        {fn_id: _proposal(body) for fn_id, body in bodies.items()},
        lambda step: compile_batch(workspace, step, runner),
    )


def repair_loop(
    workspace: Workspace,
    stub: FunctionStub,
    ctx: TranslationContext,
    initial_body: str,
    backend,
    runner: BuildRunner,
    index: Optional[GlobalSymbolIndex] = None,
    budget: int = DEFAULT_REPAIR_BUDGET,
    prompt_sink: Optional[Callable] = None,
) -> FunctionOutcome:
    """Run the compile/repair loop for one function, one build per candidate
    (the serial reference for ``repair_layer``)."""
    fn_id = stub.qualified_name
    machine = repair_steps(stub, ctx, initial_body, backend, index, budget, prompt_sink)
    return _settle(
        {fn_id: machine},
        lambda step: {fn_id: compile_and_install(workspace, fn_id, step[fn_id], runner)},
    )[fn_id]


def repair_layer(
    workspace: Workspace,
    machines: dict[str, Generator[str, Compiled, FunctionOutcome]],
    runner: BuildRunner,
) -> dict[str, FunctionOutcome]:
    """Settle one wave of the schedule: the step machines of its functions
    advance in lockstep, each step's candidates compiled through
    ``compile_batch`` (see the module doc's build bounds), every step with
    rustc's incremental cache when the wave is narrow."""
    incremental = len(machines) * INCREMENTAL_SHARE < workspace.body_count
    return _settle(
        machines, lambda step: compile_batch(workspace, step, runner, incremental)
    )
