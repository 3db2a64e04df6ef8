"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SqlStepsError(Exception):
    """Base class for every error raised by this package."""


class TrajectorySyntaxError(SqlStepsError):
    """Trajectory text does not conform to the step grammar."""

    def __init__(self, message: str, line: int = 0, column: int = 0, expected: str | None = None):
        detail = f"line {line}, column {column}: {message}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.line = line
        self.column = column
        self.expected = expected


class UnknownActionError(SqlStepsError):
    """Action name is outside the closed action vocabulary."""

    def __init__(self, name: str, line: int = 0):
        super().__init__(f"line {line}: unknown action {name!r}")
        self.name = name
        self.line = line


class BindingError(SqlStepsError):
    """Step bindings violate the single-assignment / no-forward-reference rules."""


class SqlSyntaxError(SqlStepsError):
    """SQL text does not parse under the declared dialect."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"position {position}: {message}")
        self.position = position


class SqlTooDeepError(SqlSyntaxError):
    """SQL text nests deeper than `sqlast.MAX_DEPTH` levels."""


class UnsupportedSqlError(SqlStepsError):
    """SQL construct falls outside the convertible subset."""


class SchemaMismatchError(SqlStepsError):
    """A referenced table or column is absent from the database input."""


class JoinPathNotFoundError(SqlStepsError):
    """No unique foreign-key path connects the referenced tables."""


class FormatError(SqlStepsError):
    """A schema, seed, or corpus file is malformed."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ArityMismatchError(SqlStepsError):
    """Number of fill values does not match the number of mask slots."""


class KindMismatchError(SqlStepsError):
    """A fill value's kind (table vs column) does not match its slot."""


class NoViablePerturbationError(SqlStepsError):
    """No structurally valid perturbation was found within the attempt budget."""


class MissingSchemaError(SqlStepsError):
    """A seed references a database input that was not supplied."""


class StageOutputInvalidError(SqlStepsError):
    """A pipeline stage returned text that does not parse under its grammar."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


class BackendUnavailableError(SqlStepsError):
    """A remote backend could not be reached after retries."""


class BackendFailedError(SqlStepsError):
    """A stage backend or a generator raised an exception that is no SqlStepsError."""


class TemplateNotFoundError(SqlStepsError):
    """No prompt template is registered under the requested id."""


class EngineUnavailableError(SqlStepsError):
    """No embedded engine is available for the requested dialect."""


class GoldExecutionFailedError(SqlStepsError):
    """The gold query failed to execute, so no verdict can be computed."""


class AlignmentError(SqlStepsError):
    """Correction results and gold records could not be aligned by seed id."""


class UsageError(SqlStepsError):
    """Command-line invocation error."""


# What converting one seed between SQL and a trajectory can raise: a verdict on
# that seed, never a fault of the run.
BRIDGE_ERRORS = (UnsupportedSqlError, SchemaMismatchError, JoinPathNotFoundError,
                 SqlSyntaxError)
