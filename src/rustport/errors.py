"""Exception hierarchy shared across the toolkit."""


class RustportError(Exception):
    """Base class for all domain errors. CLI maps these to exit code 1."""


class BuildTraceError(RustportError):
    """The build trace file is missing or not a well-formed trace array."""


class MalformedRecordError(BuildTraceError):
    """One trace entry is structurally invalid; carries index and field."""

    def __init__(self, index: int, field: str, detail: str = ""):
        self.index = index
        self.field = field
        msg = f"trace entry {index}: bad or missing field '{field}'"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class MissingSourceError(BuildTraceError):
    """A trace entry names a source file that does not exist."""


class PreprocessError(RustportError):
    """The external preprocessor failed; diagnostics kept verbatim."""

    def __init__(self, message: str, diagnostics: str = ""):
        self.diagnostics = diagnostics
        super().__init__(message)


class SkeletonError(RustportError):
    """Skeleton emission failed (unresolvable type under strict policy, ...)."""


class SkeletonBuildError(SkeletonError):
    """The assembled skeleton did not compile; this is a hard error."""

    def __init__(self, message: str, diagnostics=None):
        self.diagnostics = diagnostics or []
        super().__init__(message)


class DuplicateDefinitionError(RustportError):
    """Two externally-linked definitions share one name."""


class WorkspaceError(RustportError):
    """The Rust workspace is corrupted (missing body markers, ...)."""


class BackendError(RustportError):
    """A generation backend failed (transport error, replay digest miss)."""


class BuildToolError(RustportError):
    """The Rust build tool itself could not be invoked (infrastructure)."""


class HarnessTimeoutError(BuildToolError):
    """The project's test command outlived its time limit."""


class MetricsError(RustportError):
    """A metric precondition failed (non-building skeleton, bad harness output)."""


class KnowledgeBaseError(RustportError):
    """Knowledge-base files are unreadable or version-incompatible."""
