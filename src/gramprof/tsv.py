"""Reader shared by the tab-separated input files: targets, gold data,
score rankings and binary labels."""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

from .errors import ConfigError

T = TypeVar("T")


def read_tsv(path, parse: Callable[[list[str]], T], layout: str,
             error: type[Exception], min_columns: int,
             max_columns: Optional[int] = None) -> dict[str, T]:
    """Read ``path`` into {first column: parse(columns)}, in file order.

    Blank lines and ``#`` comments are skipped. A line with fewer than
    ``min_columns`` or more than ``max_columns`` columns, a line whose
    columns ``parse`` rejects with ValueError, a repeated first column
    and a file without records raise ``error`` naming the line;
    ``layout`` describes a valid line in the message. A file that
    cannot be opened raises ConfigError.
    """
    try:
        f = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    records: dict[str, T] = {}
    with f:
        for line_number, line in enumerate(f, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            columns = line.split("\t")
            where = f"{path}: line {line_number}"
            too_many = max_columns is not None and len(columns) > max_columns
            if len(columns) < min_columns or too_many:
                raise error(f"{where}: expected {layout}, got {len(columns)} columns")
            try:
                value = parse(columns)
            except ValueError as exc:
                raise error(f"{where}: {exc}")
            if columns[0] in records:
                raise error(f"{where}: duplicate word {columns[0]!r}")
            records[columns[0]] = value
    if not records:
        raise error(f"{path}: no {layout} lines found")
    return records
