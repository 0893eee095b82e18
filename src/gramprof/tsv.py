"""Reader shared by the tab-separated input files: targets, gold data,
score rankings and binary labels, and the value rules they share."""

from __future__ import annotations

import math
from typing import Callable, TypeVar

from .errors import GramprofError, reading

T = TypeVar("T")


def read_tsv(path, what: str, parse: Callable[[list[str]], T], layout: str,
             error: type[Exception], min_columns: int,
             max_columns: int) -> dict[str, T]:
    """Read ``path`` into {first column: parse(columns)}, in file order.

    Blank lines (empty, or only whitespace) and ``#`` comments are
    skipped. The key is the first column without surrounding whitespace.
    A line with fewer than ``min_columns`` or more than ``max_columns``
    columns, a line whose columns ``parse`` rejects (ValueError or
    GramprofError), a repeated key and a file without records raise
    ``error`` naming the file and line; ``layout`` describes a valid
    line in the message. The file is read through ``errors.reading``,
    which names it as ``what``.
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
                value = parse(columns)
            except (ValueError, GramprofError) as exc:
                raise error(f"{where}: {exc}")
            word_id = columns[0].strip()
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


def finite(text: str, what: str) -> float:
    """A finite number; ValueError names ``what``."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{what} {text!r} is not finite")
    return value
