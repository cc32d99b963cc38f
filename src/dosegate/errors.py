"""Exception types shared across the package, and the file reader that
turns an unreadable file into one of them.

The CLI maps these onto exit codes: usage errors exit with 1, data and
schema errors with 2, numerical and degeneracy errors with 3.
"""

from pathlib import Path


class DosegateError(Exception):
    """Base class for every error raised by this package."""


class UsageError(DosegateError):
    """Bad command-line invocation or inconsistent configuration."""


class DataError(DosegateError):
    """Malformed, missing, or out-of-contract input data."""


class SchemaError(DataError):
    """Header, column map, or feature-name mismatch."""


class EmptyCohortError(DataError):
    """No usable rows survived parsing."""


class UnimputableVariableError(DataError):
    """A variable is missing in every training row."""

    def __init__(self, variable: str):
        self.variable = variable
        super().__init__(f"variable {variable!r} has no non-missing training values")

    def __reduce__(self):  # re-created from its variable, not from its message
        return type(self), (self.variable,)


class PlanIncompleteError(DataError):
    """The imputation plan lacks a statistic needed by a record."""


class DomainError(DataError):
    """An argument is outside the operation's domain (bad value or shape)."""


class NumericalError(DosegateError):
    """Degenerate or non-physical numerical situation."""


class DegenerateSplitError(NumericalError):
    """A requested split leaves one side empty."""


class DegenerateLabelsError(NumericalError):
    """Training labels contain a single class."""


class NonPhysicalDoseError(NumericalError):
    """The dose model produced a non-positive square-root dose."""


class DegenerateGateError(NumericalError):
    """The gate rejected every record; carries the full-set metrics."""

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


def read_text(path, what: str, encoding: str = "utf-8") -> str:
    """The text of a file, without a leading byte-order mark; a file that
    cannot be opened or whose bytes are not ``encoding`` text is a
    DataError naming ``what`` it is."""
    try:
        return Path(path).read_text(encoding=encoding).removeprefix("\ufeff")
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} {path} is not {encoding} text: {exc.reason} "
                        f"at byte {exc.start}") from None
