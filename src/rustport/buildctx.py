"""Build-trace ingestion.

Loads ``compile_commands.json``-shaped traces, keeps each unit's
preprocessing flags from the recorded argv in their recorded order, and
preprocesses each translation unit with the host preprocessor under exactly
those flags, so later stages see the declarations the real build saw.

Lines are counted as the preprocessor counts them (``split_lines``): a unit's
``line_map`` row and origin line, and the function source later cut from its
main file, never shift at a form feed or U+2028. Each unit is preprocessed on
its own; what its build's units share is reused at planning time
(``csyms.SharedHeaders``).
"""

from __future__ import annotations

import json
import logging
import re
import shlex
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import BuildTraceError, MalformedRecordError, MissingSourceError, PreprocessError

logger = logging.getLogger(__name__)


@dataclass
class CompileCommand:
    """One recorded compiler invocation for one source file."""

    directory: str
    source_file: str
    arguments: list[str]

    def source_path(self) -> Path:
        p = Path(self.source_file)
        if not p.is_absolute():
            p = Path(self.directory) / p
        return p


@dataclass
class TranslationUnitContext:
    """The argv's preprocessing flags, in recorded order and spelling."""

    command: CompileCommand
    flags: list[str]


@dataclass
class PreprocessedUnit:
    """Fully expanded translation unit plus a line-origin map."""

    origin: TranslationUnitContext
    # the output with its marker and directive lines blanked, each line in its
    # row: a build's units are held at once, and line_map and defines hold
    # what those lines said
    text: str
    # preprocessed line number (1-based) -> (origin file, origin line), for
    # every line that is neither blank nor a directive
    line_map: dict[int, tuple[str, int]]
    # (name, replacement, file, line) of each object-like macro with a
    # replacement in force under the unit's flags, in the order defined
    defines: list[tuple[str, str, str, int]]


@dataclass
class PreprocessorConfig:
    """How to invoke the host C preprocessor."""

    executable: list[str] = field(default_factory=lambda: ["gcc", "-E"])
    base_flags: list[str] = field(default_factory=list)


def load_compile_commands(path, skip_missing_sources: bool = False) -> list[CompileCommand]:
    """Load a build trace and normalize every entry to an argv list.

    Both the single-string ``command`` form and the array ``arguments`` form
    are accepted. Entries whose source file does not exist raise unless
    ``skip_missing_sources`` is set, in which case they are logged and dropped.
    """
    path = Path(path)
    if not path.is_file():
        raise BuildTraceError(f"build trace not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise BuildTraceError(f"build trace is not valid JSON: {path}: {exc}") from exc
    if not isinstance(data, list):
        raise BuildTraceError(f"build trace must be an array, got {type(data).__name__}")

    commands: list[CompileCommand] = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise MalformedRecordError(i, "<entry>", "not an object")
        directory = entry.get("directory")
        if not isinstance(directory, str) or not directory:
            raise MalformedRecordError(i, "directory")
        source = entry.get("file")
        if not isinstance(source, str) or not source:
            raise MalformedRecordError(i, "file")
        if "arguments" in entry:
            arguments = entry["arguments"]
            if not isinstance(arguments, list) or not arguments or not all(
                isinstance(a, str) for a in arguments
            ):
                raise MalformedRecordError(i, "arguments", "must be a non-empty string array")
            arguments = list(arguments)
        elif "command" in entry:
            if not isinstance(entry["command"], str) or not entry["command"].strip():
                raise MalformedRecordError(i, "command", "must be a non-empty string")
            arguments = shlex.split(entry["command"])
        else:
            raise MalformedRecordError(i, "command/arguments", "entry has neither")

        cmd = CompileCommand(directory=directory, source_file=source, arguments=arguments)
        if not cmd.source_path().is_file():
            if skip_missing_sources:
                logger.warning("trace entry %d: source %s missing, skipped", i, cmd.source_path())
                continue
            raise MissingSourceError(f"trace entry {i}: source file not found: {cmd.source_path()}")
        commands.append(cmd)
    return commands


def expand_response_files(arguments: list[str], directory: str) -> list[str]:
    """Inline ``@file`` response-file arguments, and the ones those name in
    turn; a response file that reaches itself again is a ``BuildTraceError``."""

    def expand(args: list[str], open_files: frozenset[Path]) -> list[str]:
        out: list[str] = []
        for arg in args:
            if arg.startswith("@") and len(arg) > 1:
                rsp = Path(directory) / arg[1:]
                if rsp.is_file():
                    key = rsp.resolve()
                    if key in open_files:
                        raise BuildTraceError(f"response file includes itself: {rsp}")
                    nested = shlex.split(rsp.read_text(encoding="utf-8"))
                    out.extend(expand(nested, open_files | {key}))
                    continue
                logger.warning("response file not found, keeping literal: %s", arg)
            out.append(arg)
        return out

    return expand(arguments, frozenset())


# the preprocessing flags a recorded argv keeps: a flag whose value is the
# next argument, and a prefix whose value is joined to it
_SPLIT_FLAGS = ("-D", "-U", "-I", "-isystem", "-iquote", "-idirafter", "-include")
_JOINED_FLAGS = ("-D", "-U", "-I", "-isystem", "-iquote", "-idirafter", "-std=")


def derive_unit_context(cmd: CompileCommand) -> TranslationUnitContext:
    """Keep the argv's preprocessing flags, in recorded order and spelling.

    Those are ``-D``, ``-U``, ``-I``, ``-isystem``, ``-iquote`` and
    ``-idirafter`` (joined or split), ``-include`` (split) and ``-std=``;
    ``@file`` response files are expanded first. Every other argument is
    dropped, never an error.
    """
    args = expand_response_files(cmd.arguments, cmd.directory)
    flags: list[str] = []
    i = 1  # args[0] is the compiler itself
    while i < len(args):
        arg = args[i]
        if arg in _SPLIT_FLAGS:
            flags += args[i : i + 2] if i + 1 < len(args) else []
            i += 2
            continue
        if arg.startswith(_JOINED_FLAGS):
            flags.append(arg)
        i += 1
    return TranslationUnitContext(command=cmd, flags=flags)


# GNU-style line marker: `# <line> "<file>" [flags]`
_LINE_MARKER = re.compile(r'^#\s+(\d+)\s+"([^"]*)"')
# `-dD` prints each definition as `#define NAME REPLACEMENT`, comments
# stripped and continuations joined; a `(` right after the name makes it
# function-like, and an empty replacement defines no value
_OBJECT_DEFINE = re.compile(r"#define (\w+) (.+)$")


def split_lines(text: str) -> list[str]:
    """``text`` cut where the C preprocessor ends a line: at LF, CR LF and a
    lone CR, never at the other breaks ``str.splitlines`` knows (form feed,
    U+2028, ...); a final line end opens no further line."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def preprocess_unit(ctx: TranslationUnitContext, toolchain: PreprocessorConfig) -> PreprocessedUnit:
    """Run the external preprocessor under the unit's exact flags.

    The output keeps line markers and, through ``-dD``, the macro definitions
    in force; ``line_map`` is reconstructed from the markers so every line
    that is neither blank nor a directive maps back to one original
    file:line, and ``defines`` lists the object-like definitions where they
    stood. Lines are counted as the preprocessor counts them (see
    ``split_lines``), and output that is not UTF-8 is a ``PreprocessError``.
    """
    cmd = ctx.command
    # -dD keeps every #define in place in the output
    argv = [*toolchain.executable, *toolchain.base_flags, "-dD", *ctx.flags, str(cmd.source_path())]

    try:
        proc = subprocess.run(argv, cwd=cmd.directory, capture_output=True, check=False)
    except OSError as exc:
        raise PreprocessError(f"cannot invoke preprocessor {argv[0]}: {exc}") from exc
    if proc.returncode != 0:
        raise PreprocessError(
            f"preprocessor failed on {cmd.source_file} (exit {proc.returncode})",
            diagnostics=proc.stderr.decode("utf-8", "replace"),
        )
    try:
        output = proc.stdout.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PreprocessError(f"{cmd.source_file}: preprocessed text is not UTF-8: {exc}") from exc

    lines = split_lines(output)
    line_map: dict[int, tuple[str, int]] = {}
    defines: list[tuple[str, str, str, int]] = []
    current_file = str(cmd.source_path())
    # each output row after a marker is one origin line further on, so a
    # row's origin line is its row plus the offset the last marker set
    offset = 0
    for row, line in enumerate(lines, start=1):
        if not line:
            continue
        if line[0] != "#":
            if not line.isspace():
                line_map[row] = (current_file, row + offset)
            continue
        lines[row - 1] = ""
        if line[1:2].isspace():
            m = _LINE_MARKER.match(line)
            if m:
                # the marker names the origin line of the row after it
                offset = int(m.group(1)) - row - 1
                current_file = m.group(2)
        elif line.startswith("#define ") and not current_file.startswith("<"):
            m = _OBJECT_DEFINE.match(line)
            if m:
                # the units of one build share most system-header macros
                name, replacement = map(sys.intern, m.groups())
                defines.append((name, replacement, current_file, row + offset))

    lines.append("")  # the output's final newline
    return PreprocessedUnit(origin=ctx, text="\n".join(lines), line_map=line_map, defines=defines)


def dedupe_by_source(commands: list[CompileCommand]) -> list[CompileCommand]:
    """Keep the first entry per source file; log any flag conflicts.

    Multi-config builds record one file several times with different flags;
    the skeleton needs exactly one view per file, chosen deterministically.
    """
    seen: dict[str, CompileCommand] = {}
    kept: list[CompileCommand] = []
    for cmd in commands:
        key = str(cmd.source_path().resolve())
        if key in seen:
            if seen[key].arguments != cmd.arguments:
                logger.warning(
                    "multiple build variants for %s; keeping first occurrence", cmd.source_file
                )
            continue
        seen[key] = cmd
        kept.append(cmd)
    return kept
