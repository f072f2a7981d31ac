"""Exception hierarchy shared by every subsystem of the reproduction.

All errors raised by the library derive from :class:`SqalpelError`, so
applications embedding the library can catch a single base class.  The
individual subsystems raise the more specific subclasses below; each carries
enough context (rule names, line numbers, query keys, ...) to be actionable
without inspecting the traceback.
"""

from __future__ import annotations


class SqalpelError(Exception):
    """Base class for every error raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# Grammar / core errors
# ---------------------------------------------------------------------------


class GrammarError(SqalpelError):
    """Base class for grammar definition and processing problems."""


class GrammarSyntaxError(GrammarError):
    """The SQALPEL grammar DSL text could not be parsed.

    Attributes
    ----------
    line:
        1-based line number in the DSL source where the problem was found.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GrammarValidationError(GrammarError):
    """The grammar parsed but violates a structural constraint.

    Raised for missing rules (referenced but never defined), dead rules
    (defined but unreachable from the start rule), empty rules and duplicate
    definitions.  ``issues`` holds the individual findings so callers can show
    all of them at once instead of fixing them one by one.
    """

    def __init__(self, issues: list[str]):
        self.issues = list(issues)
        super().__init__("; ".join(self.issues))


class SpaceLimitExceeded(GrammarError):
    """Template enumeration hit the hard cap on the number of templates."""

    def __init__(self, limit: int, message: str | None = None):
        self.limit = limit
        super().__init__(message or f"template space exceeds the hard limit of {limit}")


class RenderError(GrammarError):
    """A template could not be rendered into a concrete query."""


class DialectError(GrammarError):
    """A dialect substitution was requested for an unknown dialect."""


# ---------------------------------------------------------------------------
# SQL front-end errors
# ---------------------------------------------------------------------------


class SQLError(SqalpelError):
    """Base class for SQL lexing, parsing and analysis errors."""


class SQLSyntaxError(SQLError):
    """The SQL text could not be tokenised or parsed."""

    def __init__(self, message: str, position: int | None = None, line: int | None = None):
        self.position = position
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ExtractionError(SQLError):
    """A baseline query could not be converted into a SQALPEL grammar."""


# ---------------------------------------------------------------------------
# Engine errors
# ---------------------------------------------------------------------------


class EngineError(SqalpelError):
    """Base class for the relational engine substrate."""


class CatalogError(EngineError):
    """Unknown table or column, or an attempt to redefine an existing one."""


class PlanError(EngineError):
    """The query is syntactically valid but cannot be planned/executed."""


class ExecutionError(EngineError):
    """A runtime failure while executing a query (type errors, overflow, ...)."""


#: the error kinds that are the engine's verdict on the query *text*: it
#: would refuse the text again on any lease, so the platform dead-letters the
#: task at once.  Every other kind is a fault of one execution and is retried.
VERDICT_KINDS = frozenset({"syntax", "plan"})


def error_kind(error: BaseException) -> str:
    """The kind a driver reports a failed measurement under.

    ``"syntax"`` (the text did not lex or parse) and ``"plan"`` (it names
    what the catalog does not hold, or cannot be planned) are
    :data:`VERDICT_KINDS`; ``"execution"`` is everything else, exceptions
    from outside this hierarchy included.
    """
    if isinstance(error, SQLError):
        return "syntax"
    if isinstance(error, (PlanError, CatalogError)):
        return "plan"
    return "execution"


# ---------------------------------------------------------------------------
# Platform errors
# ---------------------------------------------------------------------------


class PlatformError(SqalpelError):
    """Base class for the performance-repository platform."""


class AccessDenied(PlatformError):
    """The acting user is not allowed to perform the requested operation."""


class NotFound(PlatformError):
    """A referenced platform entity (user, project, task, ...) does not exist."""


class ConflictError(PlatformError):
    """The operation conflicts with existing state (duplicate names, ...)."""


class ValidationError(PlatformError):
    """A request payload failed validation."""


# ---------------------------------------------------------------------------
# Driver errors
# ---------------------------------------------------------------------------


class DriverError(SqalpelError):
    """Base class for the experiment driver."""


class ConfigError(DriverError):
    """The driver configuration file is missing required entries or malformed."""


class TransportError(DriverError):
    """The driver could not reach the platform or got a malformed response."""
