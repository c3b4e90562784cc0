"""Exception hierarchy shared across the toolkit.

The CLI maps these onto process exit codes: usage errors exit 1, data
errors exit 2, numeric failures exit 3.
"""

from contextlib import contextmanager


class SublexError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class UsageError(SublexError):
    """Bad command-line arguments or configuration keys."""

    exit_code = 1


class DataError(SublexError):
    """Malformed or inconsistent input data (corpus, dictionary, LM files)."""

    exit_code = 2


class NumericError(SublexError):
    """NaN/Inf or other numeric breakdown during computation."""

    exit_code = 3


class NoPathError(SublexError):
    """No valid state path exists (e.g. fewer frames than chain positions).

    Distinct from :class:`NumericError`: the search space is empty, the
    arithmetic is fine.
    """

    exit_code = 2


class TrainingDivergedError(NumericError):
    """Network training produced a non-finite loss."""


@contextmanager
def open_input(path, what: str, binary: bool = False):
    """Open an input file for reading, as a context manager.

    A file that cannot be opened is a :class:`DataError`, and so is a
    ``ValueError`` raised while it is open: text that is not UTF-8
    (``UnicodeDecodeError``) or a field that does not parse.
    """
    try:
        fh = open(path, "rb") if binary else open(path, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"unreadable {what} {path}: {exc}") from exc
    with fh:
        try:
            yield fh
        except ValueError as exc:
            raise DataError(f"malformed {what} {path}: {exc}") from exc
