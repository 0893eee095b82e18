"""Streaming CONLL-U reader and target-word matching.

Only the fields needed for grammatical profiling are kept per token:
surface form, lemma, UPOS, the raw FEATS string and the dependency
relation. Multiword-token ranges (``3-4``) and empty nodes (``5.1``)
are skipped; their morphology is absent or redundant with the member
tokens.
"""

from __future__ import annotations

import gzip
import logging
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, NamedTuple, Optional

from .errors import ConfigError, ConlluParseError
from .tsv import read_tsv

logger = logging.getLogger(__name__)

N_COLUMNS = 10


class Token(NamedTuple):
    form: str
    lemma: str
    upos: str
    feats: str        # raw FEATS column, "_" when empty
    deprel: str


@dataclass(frozen=True)
class TargetSpec:
    """One target word: the identifier used in task files plus the
    lemma to look for and an optional part-of-speech restriction."""

    word_id: str
    lemma: str
    upos_filter: Optional[frozenset[str]] = None

    def __post_init__(self):
        if not self.word_id:
            raise ConfigError("target with empty word_id")
        if not self.lemma:
            raise ConfigError(f"target {self.word_id!r} has an empty lemma")


def parse_feats(feats: str) -> list[tuple[str, str]]:
    """Decompose a FEATS string into (category, value) pairs.

    Entries without ``=`` are skipped with a warning; ``_`` yields an
    empty list.
    """
    if feats == "_" or feats == "":
        return []
    pairs = []
    for item in feats.split("|"):
        key, sep, value = item.partition("=")
        if not sep or not key:
            logger.warning("skipping malformed FEATS entry %r in %r", item, feats)
            continue
        pairs.append((key, value))
    return pairs


def strip_deprel_subtype(deprel: str) -> str:
    """Truncate a dependency relation at the subtype separator
    (``obl:tmod`` -> ``obl``)."""
    return deprel.split(":", 1)[0]


def parse_conllu(stream: Iterable[str], errors: str = "skip") -> Iterator[list[Token]]:
    """Parse CONLL-U text into sentences (lists of Token).

    ``stream`` is any iterable of lines (an open file works; a plain
    string is split into lines). Comment lines start with ``#``; a
    blank line ends a sentence. Lines that do not have exactly 10
    tab-separated columns are malformed: with ``errors="skip"`` they
    are dropped with a warning, with ``errors="strict"`` a
    ConlluParseError carrying the line number is raised.
    """
    if errors not in ("skip", "strict"):
        raise ValueError(f"unknown error policy {errors!r}")
    if isinstance(stream, str):
        stream = stream.splitlines()
    sentence: list[Token] = []
    for line_number, line in enumerate(stream, start=1):
        line = line.rstrip("\n").rstrip("\r")
        if not line:
            if sentence:
                yield sentence
                sentence = []
            continue
        if line.startswith("#"):
            continue
        columns = line.split("\t")
        if len(columns) != N_COLUMNS:
            err = ConlluParseError(
                line_number, f"expected {N_COLUMNS} columns, got {len(columns)}"
            )
            if errors == "strict":
                raise err
            logger.warning("skipping malformed CONLL-U %s", err)
            continue
        token_id = columns[0]
        if "-" in token_id or "." in token_id:
            continue  # multiword range or empty node
        sentence.append(
            Token(
                form=columns[1],
                lemma=columns[2],
                upos=columns[3],
                feats=columns[5],
                deprel=columns[7],
            )
        )
    if sentence:
        yield sentence


def open_corpus(path) -> IO[str]:
    """Open a CONLL-U file for reading, transparently decompressing
    ``.gz`` files."""
    path = str(path)
    if path.endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


class TargetIndex:
    """Lemma -> candidate targets lookup built once per extraction run.

    Guarantees that a token matches at most one target: candidates with
    a POS filter take precedence over unfiltered ones, remaining ties
    are broken by ascending word_id and only the first match is
    emitted.
    """

    def __init__(self, targets: Iterable[TargetSpec], case_fold: bool = False,
                 match_field: str = "lemma"):
        targets = list(targets)
        if not targets:
            raise ConfigError("no targets given")
        if match_field not in ("lemma", "form"):
            raise ConfigError(f"unknown match field {match_field!r}")
        self.case_fold = case_fold
        self.match_field = match_field
        seen_ids: set[str] = set()
        seen_rules: set[tuple[str, Optional[frozenset[str]]]] = set()
        self._by_lemma: dict[str, list[TargetSpec]] = {}
        for spec in targets:
            if spec.word_id in seen_ids:
                raise ConfigError(f"duplicate target word_id {spec.word_id!r}")
            seen_ids.add(spec.word_id)
            key = spec.lemma.casefold() if case_fold else spec.lemma
            rule = (key, spec.upos_filter)
            if rule in seen_rules:
                raise ConfigError(
                    f"targets with identical lemma/POS rule: {spec.lemma!r} "
                    f"(word_id {spec.word_id!r})"
                )
            seen_rules.add(rule)
            self._by_lemma.setdefault(key, []).append(spec)
        for candidates in self._by_lemma.values():
            candidates.sort(key=lambda s: (s.upos_filter is None, s.word_id))

    def match(self, sentence: Iterable[Token]) -> Iterator[tuple[str, Token]]:
        for token in sentence:
            value = token.lemma if self.match_field == "lemma" else token.form
            if self.case_fold:
                value = value.casefold()
            candidates = self._by_lemma.get(value)
            if not candidates:
                continue
            for spec in candidates:
                if spec.upos_filter is None or token.upos in spec.upos_filter:
                    yield spec.word_id, token
                    break


def load_targets(path) -> list[TargetSpec]:
    """Read a target list file.

    One record per line: ``word_id<TAB>lemma[<TAB>upos1,upos2]``.
    Blank lines and ``#`` comments are ignored.
    """
    def parse(columns: list[str]) -> TargetSpec:
        upos_filter = None
        if len(columns) == 3 and columns[2].strip():
            upos_filter = frozenset(
                tag.strip() for tag in columns[2].split(",") if tag.strip()
            )
        return TargetSpec(columns[0].strip(), columns[1].strip(), upos_filter)

    return list(read_tsv(path, parse, "word_id<TAB>lemma[<TAB>upos1,upos2]",
                         ConfigError, 2, 3).values())
