"""Streaming CONLL-U reader and target-word matching.

A token is the list of its line's 10 tab-separated columns, as
``str.split`` returned them; each sentence holds its tokens' split
columns until it is counted. Stages read the columns through the
indices below. Multiword-token ranges (``3-4``) and empty nodes
(``5.1``) are skipped; their morphology is absent or redundant with
the member tokens.
"""

from __future__ import annotations

import functools
import gzip
import io
import logging
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Optional

from .errors import INPUT_ENCODING, ConfigError, ConlluParseError
from .tsv import read_tsv

logger = logging.getLogger(__name__)

N_COLUMNS = 10
# Indices of the columns a token is read by; FEATS is "_" when empty.
FORM, LEMMA, UPOS, FEATS, DEPREL = 1, 2, 3, 5, 7


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
        if self.upos_filter is not None and not self.upos_filter:
            raise ConfigError(f"target {self.word_id!r} has a POS filter with no tag")


@functools.lru_cache(maxsize=1 << 16)
def parse_feats(feats: str) -> tuple[tuple[str, str], ...]:
    """The ``(category, value)`` pairs of a FEATS string's well-formed
    ``K=V`` entries, in order; an entry's category ends at its first ``=``.

    ``_`` and the empty string hold none. An entry without ``=`` or
    with an empty key is skipped with a warning. The result is cached
    per string, so a string's warnings come when it is first split, and
    again only after it is evicted or the cache is cleared.
    """
    if feats == "_" or feats == "":
        return ()
    pairs = []
    for item in feats.split("|"):
        key, equals, value = item.partition("=")
        if not key or not equals:
            logger.warning("skipping malformed FEATS entry %r in %r", item, feats)
            continue
        pairs.append((key, value))
    return tuple(pairs)


def strip_deprel_subtype(deprel: str) -> str:
    """Truncate a dependency relation at the subtype separator
    (``obl:tmod`` -> ``obl``)."""
    return deprel.split(":", 1)[0]


def parse_conllu(stream: Iterable[str], strict: bool = False) -> Iterator[list[list[str]]]:
    """Parse CONLL-U text into sentences: lists of tokens, each the list
    of its line's 10 columns as split at tabs (MISC keeps the line
    ending).

    ``stream`` is any iterable of lines (an open file works; a plain
    string is split into lines at ``\\n`` only, as a file would be).
    Comment lines start with ``#``; a blank line ends a sentence. Lines
    that do not have exactly 10 tab-separated columns are malformed:
    they are dropped with a warning, or with ``strict`` a
    ConlluParseError carrying the line number is raised. Both name the
    stream's ``name`` (its file) when it has one.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    path = getattr(stream, "name", None)
    sentence: list[list[str]] = []
    for line_number, line in enumerate(stream, start=1):
        columns = line.split("\t")
        # A line ending only touches MISC, the tenth column, which no
        # stage reads; so a token line needs no rstrip.
        if len(columns) == N_COLUMNS and line[0] != "#":
            token_id = columns[0]
            if "-" not in token_id and "." not in token_id:  # not a range or empty node
                sentence.append(columns)
            continue
        line = line.rstrip("\n").rstrip("\r")
        if not line:
            if sentence:
                yield sentence
                sentence = []
            continue
        if line.startswith("#"):
            continue
        err = ConlluParseError(
            line_number, f"expected {N_COLUMNS} columns, got {len(columns)}", path
        )
        if strict:
            raise err
        logger.warning("skipping malformed CONLL-U %s", err)
    if sentence:
        yield sentence


def open_corpus(path) -> IO[str]:
    """Open a CONLL-U file for reading, transparently decompressing
    ``.gz`` files."""
    path = str(path)
    if path.endswith(".gz"):
        return gzip.open(path, "rt", encoding=INPUT_ENCODING)
    return open(path, "r", encoding=INPUT_ENCODING)


class TargetIndex:
    """Lemma -> candidate targets lookup built once per extraction run.

    Guarantees that a token matches at most one target: candidates with
    a POS filter take precedence over unfiltered ones, remaining ties
    are broken by ascending word_id and only the first match is
    emitted. With ``match_form`` a token is looked up by its surface
    form instead of its lemma.
    """

    def __init__(self, targets: Iterable[TargetSpec], case_fold: bool = False,
                 match_form: bool = False):
        targets = list(targets)
        if not targets:
            raise ConfigError("no targets given")
        self.case_fold = case_fold
        self._field = FORM if match_form else LEMMA
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
            candidates.sort(key=lambda spec: (spec.upos_filter is None, spec.word_id))

    def match(self, sentence: Iterable[list[str]]) -> Iterator[tuple[str, list[str]]]:
        lookup = self._by_lemma.get
        field = self._field
        case_fold = self.case_fold
        for token in sentence:
            value = token[field]
            if case_fold:
                value = value.casefold()
            candidates = lookup(value)
            if candidates:
                upos = token[UPOS]
                for spec in candidates:
                    if spec.upos_filter is None or upos in spec.upos_filter:
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

    return list(read_tsv(path, "target list", parse,
                         "word_id<TAB>lemma[<TAB>upos1,upos2]", ConfigError, 2, 3).values())
