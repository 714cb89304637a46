"""Exception hierarchy shared across the pipeline.

The CLI maps these onto process exit codes: configuration problems exit 1,
data problems exit 2, numeric failures exit 3.
"""

from os import PathLike


class RenalRiskError(Exception):
    exit_code = 1


class ConfigError(RenalRiskError):
    """Invalid configuration or usage."""

    exit_code = 1


class DataError(RenalRiskError):
    """Missing, malformed, or inconsistent data artifacts."""

    exit_code = 2


class ParseError(DataError):
    """Malformed input line; carries the 1-based line number and, when known, the file."""

    def __init__(self, line_number: int, message: str, path: str | PathLike | None = None):
        where = f"line {line_number}" if path is None else f"{path}: line {line_number}"
        super().__init__(f"{where}: {message}")
        self.line_number = line_number
        self.message = message
        self.path = path


def in_file(source, message: str) -> str:
    """message, led by the path of source when source is a file path."""
    return f"{source}: {message}" if isinstance(source, (str, PathLike)) else message


class NumericError(RenalRiskError):
    """Non-finite loss or other numeric breakdown during training."""

    exit_code = 3
