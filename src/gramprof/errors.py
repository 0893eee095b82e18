"""Exception hierarchy shared across the package, the reader that
opens every input file, the reader of the tab-separated inputs
(targets, gold data, score rankings and binary labels) and the value
rules they share.

ConfigError maps to CLI exit code 2 (usage / configuration problems),
DataError to exit code 1 (problems with the content of input files).
"""

import math
import re
import zlib
from contextlib import contextmanager
from functools import lru_cache, partial
from typing import Callable, TypeVar

T = TypeVar("T")


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


def read_tsv(path, what: str, parse: Callable[[list[str]], T], layout: str,
             error: type[Exception], min_columns: int,
             max_columns: int) -> dict[str, T]:
    """Read ``path`` into {first column: parse(columns)}, in file order.

    Blank lines (empty, or only whitespace) and ``#`` comments are
    skipped. The key is the first column without surrounding whitespace.
    A line with fewer than ``min_columns`` or more than ``max_columns``
    columns, a key that is not a word id, a line whose columns ``parse``
    rejects (ValueError or GramprofError), a repeated key and a file
    without records raise ``error`` naming the file and line; ``layout``
    describes a valid line in the message. The file is read through
    ``reading``, which names it as ``what``.
    """
    records: dict[str, T] = {}
    with reading(path, what, error) as f:
        for line_number, line in enumerate(f, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip() or line.startswith("#"):
                continue
            columns = line.split("\t")
            where = f"{path}: line {line_number}"
            if not min_columns <= len(columns) <= max_columns:
                raise error(f"{where}: expected {layout}, got {len(columns)} columns")
            try:
                word_id = check_word_id(columns[0].strip())
                value = parse(columns)
            except (ValueError, GramprofError) as exc:
                raise error(f"{where}: {exc}")
            if word_id in records:
                raise error(f"{where}: duplicate word {word_id!r}")
            records[word_id] = value
    if not records:
        raise error(f"{path}: no {layout} lines found")
    return records


def zero_or_one(text: str, what: str) -> int:
    """A binary label: exactly ``0`` or ``1``; ValueError names ``what``."""
    if text not in ("0", "1"):
        raise ValueError(f"{what} {text!r} is not 0 or 1")
    return int(text)


def check_word_id(text: str, error: Callable[[str], Exception] = ValueError) -> str:
    """``text`` if it is a word id: non-empty, no surrounding whitespace, tab, CR or LF."""
    if not text or text != text.strip() or "\t" in text or "\r" in text or "\n" in text:
        raise error(f"word id {text!r} is empty or has surrounding whitespace, tab, CR or LF")
    return text


def finite(text: str, what: str) -> float:
    """A finite number written as a decimal literal; ValueError names ``what``."""
    # [sign] ASCII digits [fraction] [exponent], or [sign] nan, inf or infinity in
    # any case, which are not finite; float() also reads 1_0, " 2 " and "١"
    if not re.fullmatch(r"[+-]?(([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?"
                        r"|(?i:nan|inf|infinity))", text):
        raise ValueError(f"{what} {text!r} is not a decimal literal")
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{what} {text!r} is not finite")
    return value


@lru_cache(maxsize=64, typed=True)
def decimal_ratio(share: float) -> tuple[int, int]:
    """A share (a filter threshold, a top-n ratio) as the decimal that
    ``str`` writes, unreduced: 0.07 gives (7, 100), not the binary float
    just above 7/100 (numpy 2's ``repr`` of it is ``np.float64(0.07)``).
    The cache is typed: 0.0 and False are equal, but only 0.0 is a decimal."""
    digits, _, exponent = str(share).partition("e")
    whole, _, fraction = digits.partition(".")
    places = len(fraction) - int(exponent or 0)
    return int(whole + fraction) * 10 ** max(0, -places), 10 ** max(0, places)
