"""Exception hierarchy shared across the package, and the reader that
opens every input file.

ConfigError maps to CLI exit code 2 (usage / configuration problems),
DataError to exit code 1 (problems with the content of input files).
"""

import zlib
from contextlib import contextmanager
from functools import partial


class GramprofError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GramprofError):
    """Invalid configuration: bad flag combination, malformed dataset
    description, duplicate targets, missing input path."""


class DataError(GramprofError):
    """Invalid data content: malformed records, mismatched word sets,
    degenerate inputs a metric cannot handle."""


class ConlluParseError(DataError):
    """A token line violating the 10-column layout.

    Carries the 1-based line number so callers can decide whether to
    skip the line or abort; the message names the file when known.
    """

    def __init__(self, line_number: int, message: str, path=None):
        where = f"line {line_number}" if path is None else f"{path}: line {line_number}"
        super().__init__(f"{where}: {message}")
        self.line_number = line_number


INPUT_ENCODING = "utf-8-sig"  # of every input: UTF-8 minus a leading byte-order mark


@contextmanager
def reading(path, what: str, error: type[GramprofError],
            opener=partial(open, encoding=INPUT_ENCODING)):
    """``path`` opened by ``opener`` (INPUT_ENCODING text by default), closed
    on exit. ConfigError if it cannot be opened; ``error`` if reading it
    fails (an I/O error, a truncated or corrupt ``.gz``, bytes not UTF-8)."""
    try:
        stream = opener(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}")
    with stream:
        try:
            yield stream
        except (OSError, EOFError, UnicodeDecodeError, zlib.error) as exc:
            raise error(f"error reading {what} {path}: {exc}")
