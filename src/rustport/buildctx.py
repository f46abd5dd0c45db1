"""Build-trace ingestion.

Loads ``compile_commands.json``-shaped traces, keeps each unit's
preprocessing flags from the recorded argv in their recorded order, and
preprocesses each translation unit with the host preprocessor under exactly
those flags, so later stages see the declarations the real build saw.

A unit keeps the preprocessor's output exactly as printed: its line markers,
its ``-dD`` definitions and its other directives stay in place, and
``csyms.extract_symbols`` reads them all in its one scan of the text. Each
unit is preprocessed on its own; what its build's units share is reused at
planning time (``csyms.SharedHeaders``).
"""

from __future__ import annotations

import json
import logging
import shlex
import subprocess
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
    """A fully expanded translation unit: the preprocessor's output under the
    unit's flags, exactly as printed, line markers and ``-dD`` definitions
    included; ``csyms.extract_symbols`` is its one reader."""

    origin: TranslationUnitContext
    text: str


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


def preprocess_unit(ctx: TranslationUnitContext, toolchain: PreprocessorConfig) -> PreprocessedUnit:
    """Run the external preprocessor under the unit's exact flags.

    ``-dD`` keeps every macro definition in force in the output, in place
    under the line marker of its file. Output that is not UTF-8 is a
    ``PreprocessError``.
    """
    cmd = ctx.command
    argv = [*toolchain.executable, *toolchain.base_flags, "-dD", *ctx.flags, str(cmd.source_path())]

    try:
        proc = subprocess.run(argv, cwd=cmd.directory, capture_output=True, check=False)
    except OSError as exc:
        raise PreprocessError(f"cannot invoke preprocessor {argv[0]}: {exc}") from exc
    if proc.returncode != 0:
        diagnostics = proc.stderr.decode("utf-8", "replace")
        raise PreprocessError(
            f"preprocessor failed on {cmd.source_file} (exit {proc.returncode}):\n"
            + diagnostics[-2000:].rstrip(),
            diagnostics=diagnostics,
        )
    try:
        text = proc.stdout.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PreprocessError(f"{cmd.source_file}: preprocessed text is not UTF-8: {exc}") from exc
    return PreprocessedUnit(origin=ctx, text=text)


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
