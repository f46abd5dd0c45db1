"""Evaluation metrics: incremental compilation pass rate with rollback,
functional correctness from the project's test harness, the unsafe ratio by
lexical scan, warning counts on compiled artifacts only, and average repair
rounds over successes.

Fallback-origin bodies are pre-marked and count as failures without being
restored; a workspace that fails to build reports warnings as not-available.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from . import rustlex
from .cargo import BuildRunner
from .errors import HarnessTimeoutError, MetricsError
from .repair import FunctionOutcome, settle_bodies
from .repair import compile_and_install  # noqa: F401  (the benchmark's tracer wraps it under this name)
from .skeleton import FALLBACK_MARK
from .workspace import Workspace

logger = logging.getLogger(__name__)


@dataclass
class LedgerEntry:
    fn_id: str
    outcome: str  # restored | failed | fallback
    rounds: Optional[int] = None
    reason: str = ""


@dataclass
class MetricsReport:
    icomp_rate: Optional[float] = None
    fc: Optional[float] = None
    fc_note: str = ""
    unsafe_ratio: Optional[float] = None
    warnings: Optional[int] = None
    avg_repair: Optional[float] = None
    ledger: list[LedgerEntry] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "icomp_rate": self.icomp_rate,
            "fc": self.fc,
            "fc_note": self.fc_note,
            "unsafe_ratio": self.unsafe_ratio,
            "warnings": self.warnings,
            "avg_repair": self.avg_repair,
            "ledger": [
                {
                    "function": e.fn_id,
                    "outcome": e.outcome,
                    "rounds": e.rounds,
                    "reason": e.reason,
                }
                for e in self.ledger
            ],
        }

    def save(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def _fmt(value) -> str:
    if value is None:
        return "--"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def render_table(report: MetricsReport, title: str = "run") -> str:
    headers = ["ICompRate", "FC", "Unsafe", "Warnings", "AvgRepair"]
    values = [
        _fmt(report.icomp_rate),
        _fmt(report.fc),
        _fmt(report.unsafe_ratio),
        _fmt(report.warnings),
        _fmt(report.avg_repair),
    ]
    widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    vals = "  ".join(v.ljust(w) for v, w in zip(values, widths))
    return f"[{title}]\n{line}\n{vals}"


# --- incremental compilation pass rate -----------------------------------------


def incremental_comp_rate(
    skeleton_workspace,
    bodies: dict[str, str],
    order: Sequence[str],
    runner: Optional[BuildRunner] = None,
) -> tuple[float, list[LedgerEntry]]:
    """Restore bodies in schedule order, rolling back failures.

    All bodies are restored together in ``compile_batch`` steps until none
    is held (``repair.settle_bodies``): usually one build, plus one that
    confirms the unblamed bodies when it fails partly, and one more for each
    step a body blamed late waited. Body locality makes the result the same
    as one build per body, and the ledger keeps schedule order.
    Fallback-marked bodies are counted as failures without restoration. The
    skeleton must build clean before evaluation starts.
    """
    runner = runner or BuildRunner()
    workspace = Workspace(skeleton_workspace)
    baseline = runner.build(workspace.root)
    if not baseline.ok:
        raise MetricsError("skeleton workspace does not build; cannot evaluate")

    ordered = [fn for fn in order if fn in bodies]
    placed = set(ordered)
    ordered += [fn for fn in sorted(bodies) if fn not in placed]
    candidates = {fn: bodies[fn] for fn in ordered if FALLBACK_MARK not in bodies[fn]}
    results = settle_bodies(workspace, candidates, runner)

    ledger: list[LedgerEntry] = []
    restored = 0
    for fn_id in ordered:
        if fn_id not in candidates:
            ledger.append(
                LedgerEntry(fn_id, "fallback", reason="fallback shim counted as failure")
            )
            continue
        ok, diags, _snapshot = results[fn_id]
        if ok:
            restored += 1
            ledger.append(LedgerEntry(fn_id, "restored"))
        else:
            first = diags[0].message if diags else "compile failure"
            ledger.append(LedgerEntry(fn_id, "failed", reason=first))
    rate = 100.0 * restored / len(ordered) if ordered else 0.0
    return rate, ledger


# --- unsafe ratio ------------------------------------------------------------------


_UNSAFE_ITEMS = {"fn", "impl", "trait"}


def _unsafe_scope(code: list, i: int) -> Optional[int]:
    """The position in ``code`` of the ``{`` whose block the ``unsafe`` at
    ``i`` makes unsafe, or None when it marks only its own line.

    ``unsafe {`` opens a block. ``unsafe fn name``, ``unsafe extern "abi" fn
    name``, ``unsafe impl`` and ``unsafe trait`` open their item's body when
    its ``{`` comes before a ``;`` outside parentheses and brackets; a
    declaration without a body (in a trait or an ``extern`` block) has none.
    A function pointer type, ``unsafe extern "C" fn(..)``, opens nothing.
    """
    def text(j: int) -> str:
        return code[j].text if j < len(code) else ""

    j = i + 1
    if text(j) == "{":
        return j
    if text(j) == "extern":
        j += 2 if j + 1 < len(code) and code[j + 1].kind == "string" else 1
    if text(j) not in _UNSAFE_ITEMS:
        return None
    if text(j) == "fn" and (j + 1 >= len(code) or code[j + 1].kind != "ident"):
        return None  # `unsafe fn(` is a type
    depth = 0
    for k in range(j + 1, len(code)):
        tok = code[k]
        if tok.kind != "punct":
            continue
        if tok.text in ("(", "["):
            depth += 1
        elif tok.text in (")", "]"):
            depth -= 1
        elif depth == 0 and tok.text == ";":
            return None
        elif depth == 0 and tok.text == "{":
            return k
    return None


def classify_file(text: str) -> tuple[set[int], set[int], bool]:
    """(countable line numbers, unsafe line numbers, balanced) for one file.

    A line is countable when a token other than a comment starts on it, so a
    multi-line string counts on its opening line only. A line is unsafe when
    it holds the ``unsafe`` keyword or is a countable line of a ``{…}``
    block the keyword opens (see ``_unsafe_scope``). A file whose braces do
    not pair, or whose last literal or comment never closes, is not
    balanced.
    """
    tokens = list(rustlex.tokenize(text))
    balanced = all(tok.closed for tok in tokens)
    code = [tok for tok in tokens if tok.kind != "comment"]
    countable = {tok.line for tok in code}
    unsafe_lines: set[int] = set()
    scopes: dict[int, int] = {}  # position of an unsafe block's `{` -> keyword line
    for i, tok in enumerate(code):
        if tok.kind == "ident" and tok.text == "unsafe":
            unsafe_lines.add(tok.line)
            brace = _unsafe_scope(code, i)
            if brace is not None:
                scopes.setdefault(brace, tok.line)
    opened: list[Optional[int]] = []  # per open brace, its unsafe keyword's line
    for i, tok in enumerate(code):
        if tok.kind != "punct":
            continue
        if tok.text == "{":
            opened.append(scopes.get(i))
        elif tok.text == "}":
            if not opened:
                balanced = False
            elif (keyword := opened.pop()) is not None:
                unsafe_lines.update(range(keyword, tok.line + 1))
    if opened:
        balanced = False
    return countable, unsafe_lines & countable, balanced


def unsafe_ratio(workspace_dir) -> float:
    """Union of unsafe-keyword lines and unsafe-scope lines over countable
    lines (comment-only and string-only lines excluded), as a percentage."""
    root = Path(workspace_dir)
    total = 0
    unsafe_total = 0
    for path in sorted(root.glob("src/**/*.rs")):
        text = path.read_text(encoding="utf-8")
        countable, unsafe_lines, balanced = classify_file(text)
        if not balanced:
            logger.warning("unbalanced braces in %s; file excluded from unsafe ratio", path)
            continue
        total += len(countable)
        unsafe_total += len(unsafe_lines)
    if total == 0:
        return 0.0
    return 100.0 * unsafe_total / total


# --- warnings -----------------------------------------------------------------------


def warning_count(workspace_dir, runner: Optional[BuildRunner] = None) -> Optional[int]:
    """Distinct warning diagnostics on a successfully compiled artifact.

    Returns None (rendered "--") when the build fails: warnings cannot be
    collected reliably after early termination.
    """
    runner = runner or BuildRunner()
    outcome = runner.build(workspace_dir)
    if not outcome.ok:
        return None
    distinct = {d.span_key() for d in outcome.warnings}
    return len(distinct)


# --- functional correctness ------------------------------------------------------------


_TEST_SUMMARY_RE = re.compile(r"(\d+) passed; (\d+) failed")


def functional_correctness(
    workspace_dir,
    test_command: Optional[list[str]] = None,
    runner: Optional[BuildRunner] = None,
) -> tuple[Optional[float], str]:
    """Project-level test pass rate, summed over the ``N passed; M failed``
    summaries of the test command's output (``cargo test --no-fail-fast`` by
    default, so every test binary counts; run with cargo's incremental cache
    off unless the caller sets ``CARGO_INCREMENTAL``).

    (None, note) when the workspace does not build or no test is discovered.
    (0.0, note) when the test command times out, or exits non-zero while its
    summaries count no failed test: a test binary that aborts or crashes
    prints no summary of its own. A zero exit with no summary is a
    ``MetricsError``."""
    runner = runner or BuildRunner()
    build = runner.build(workspace_dir)
    if not build.ok:
        return None, "workspace does not build"
    try:
        proc = runner.run_tests(workspace_dir, test_command)
    except HarnessTimeoutError as exc:
        return 0.0, str(exc)
    output = proc.stdout + "\n" + proc.stderr
    matches = _TEST_SUMMARY_RE.findall(output)
    passed = sum(int(p) for p, _ in matches)
    failed = sum(int(f) for _, f in matches)
    if proc.returncode != 0 and failed == 0:
        return 0.0, f"test command exited {proc.returncode} with no failed test in its summaries"
    if not matches:
        raise MetricsError(
            f"test harness output had no parsable summary (exit {proc.returncode}):\n"
            + output[-2000:]
        )
    total = passed + failed
    if total == 0:
        return None, "no tests discovered"
    return 100.0 * passed / total, ""


# --- average repair rounds ----------------------------------------------------------------


def avg_repair(outcomes: Sequence[FunctionOutcome]) -> Optional[float]:
    """Mean repair rounds over functions that reached a successful build.

    Functions that never succeeded (failed or fallback) are excluded; with no
    successes at all the metric is not-available.
    """
    if not outcomes:
        raise MetricsError("empty ledger")
    rounds = [o.rounds_used for o in outcomes if o.final_state == "translated"]
    if not rounds:
        return None
    return sum(rounds) / len(rounds)
