"""Grammatical profiles: per-word, per-period frequency counts.

A profile holds two count tables for one target word in one time
period: combined-FEATS strings (morphology) and dependency relation
labels (syntax). Tokens with empty FEATS count toward the occurrence
total and the syntax table but add nothing to the morphology table.

Profiles are the pipeline's only large intermediate: extraction reads
the corpora once and the store file is cheap to re-score under
different method settings.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, TextIO

from .conllu import TargetIndex, TargetSpec, open_corpus, parse_conllu, parse_feats, \
    strip_deprel_subtype
from .errors import ConfigError, DataError

STORE_FORMAT = "grammatical-profile-store"
STORE_VERSION = 1


@dataclass
class Profile:
    word_id: str
    period: str
    morph: dict[str, int] = field(default_factory=dict)
    synt: dict[str, int] = field(default_factory=dict)
    total: int = 0

    def add_token(self, feats: str, deprel: str) -> None:
        self.total += 1
        self.synt[deprel] = self.synt.get(deprel, 0) + 1
        if feats != "_" and feats != "":
            self.morph[feats] = self.morph.get(feats, 0) + 1

    def validate(self) -> None:
        """Check the counting invariants; raises DataError on violation."""
        if any(c < 1 for c in self.morph.values()) or any(c < 1 for c in self.synt.values()):
            raise DataError(f"profile {self.word_id}/{self.period}: zero or negative count")
        if sum(self.synt.values()) != self.total:
            raise DataError(
                f"profile {self.word_id}/{self.period}: syntax counts do not sum to total"
            )
        if sum(self.morph.values()) > self.total:
            raise DataError(
                f"profile {self.word_id}/{self.period}: morphology counts exceed total"
            )


@dataclass
class CategoryProfile:
    """A profile with combined FEATS strings split into one value
    distribution per morphological category.

    ``total`` is the word's occurrence count in the period, carried
    over from the source profile because rare-feature filtering is
    defined against total word usages.
    """

    word_id: str
    period: str
    categories: dict[str, dict[str, int]] = field(default_factory=dict)
    synt: dict[str, int] = field(default_factory=dict)
    total: int = 0


def separate_categories(profile: Profile) -> CategoryProfile:
    """Split combined FEATS counts into per-category value counts.

    Each FEATS string ``K1=V1|K2=V2`` with count c adds c to every
    (Ki, Vi) cell, so per-category sums are preserved. Malformed FEATS
    entries (no ``=``) are skipped with a warning.
    """
    categories: dict[str, dict[str, int]] = {}
    for feats, count in profile.morph.items():
        for key, value in parse_feats(feats):
            values = categories.setdefault(key, {})
            values[value] = values.get(value, 0) + count
    return CategoryProfile(
        word_id=profile.word_id,
        period=profile.period,
        categories=categories,
        synt=dict(profile.synt),
        total=profile.total,
    )


def build_vectors(counts_a: Mapping[str, int], counts_b: Mapping[str, int]
                  ) -> tuple[list[int], list[int]]:
    """Align two count tables on the sorted union of their keys; absent
    keys become 0."""
    feature_names = sorted(set(counts_a) | set(counts_b))
    return ([counts_a.get(name, 0) for name in feature_names],
            [counts_b.get(name, 0) for name in feature_names])


def merge_profiles(a: Profile, b: Profile) -> Profile:
    """Sum two profiles for the same word and period (shard merge)."""
    if (a.word_id, a.period) != (b.word_id, b.period):
        raise ValueError("can only merge profiles of the same word and period")
    morph = Counter(a.morph)
    morph.update(b.morph)
    synt = Counter(a.synt)
    synt.update(b.synt)
    return Profile(a.word_id, a.period, dict(morph), dict(synt), a.total + b.total)


def extract_profiles(corpora: Mapping[str, Iterable], targets: Iterable[TargetSpec],
                     case_fold: bool = False, match_field: str = "lemma",
                     strip_subtypes: bool = False, errors: str = "skip",
                     ) -> dict[tuple[str, str], Profile]:
    """Count matched-token features over every corpus period.

    ``corpora`` maps period label -> list of CONLL-U sources (paths,
    ``.gz`` allowed, or open text streams). Every (target, period)
    combination gets a profile, with total 0 when the word never
    occurs. ``strip_subtypes`` truncates dependency relations at ``:``
    before counting.
    """
    targets = list(targets)
    if len(corpora) < 2:
        raise ConfigError("need at least two corpus periods")
    index = TargetIndex(targets, case_fold=case_fold, match_field=match_field)
    profiles: dict[tuple[str, str], Profile] = {}
    for period in corpora:
        for spec in targets:
            profiles[(spec.word_id, period)] = Profile(spec.word_id, period)
    for period, sources in corpora.items():
        for source in sources:
            for sentence in _iter_source(source, period, errors):
                for word_id, token in index.match(sentence):
                    deprel = strip_deprel_subtype(token.deprel) if strip_subtypes \
                        else token.deprel
                    profiles[(word_id, period)].add_token(token.feats, deprel)
    return profiles


def _iter_source(source, period: str, errors: str):
    if hasattr(source, "read"):
        yield from parse_conllu(source, errors=errors)
        return
    try:
        stream = open_corpus(source)
    except OSError as exc:
        raise ConfigError(f"cannot read corpus for period {period!r}: {source}: {exc}")
    with stream:
        try:
            yield from parse_conllu(stream, errors=errors)
        except OSError as exc:
            raise DataError(f"error reading corpus for period {period!r}: {source}: {exc}")


@dataclass
class ProfileStore:
    """All profiles of one dataset plus the period order they were
    extracted with."""

    periods: list[str]
    profiles: dict[tuple[str, str], Profile]
    options: dict = field(default_factory=dict)

    @property
    def word_ids(self) -> list[str]:
        return sorted({word_id for word_id, _ in self.profiles})

    def get(self, word_id: str, period: str) -> Profile:
        try:
            return self.profiles[(word_id, period)]
        except KeyError:
            raise DataError(f"no profile for word {word_id!r} in period {period!r}")

    def save(self, stream: TextIO) -> None:
        """Write the store as JSON lines: a version header followed by
        one record per (word_id, period)."""
        header = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "periods": self.periods,
            "options": self.options,
        }
        stream.write(json.dumps(header, sort_keys=True) + "\n")
        order = {label: i for i, label in enumerate(self.periods)}
        for (word_id, period) in sorted(self.profiles, key=lambda k: (k[0], order.get(k[1], 0))):
            p = self.profiles[(word_id, period)]
            record = {
                "word_id": p.word_id,
                "period": p.period,
                "total": p.total,
                "morph": p.morph,
                "synt": p.synt,
            }
            stream.write(json.dumps(record, sort_keys=True) + "\n")

    @classmethod
    def load(cls, stream: TextIO) -> "ProfileStore":
        header_line = stream.readline()
        if not header_line.strip():
            raise DataError("profile store is empty")
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise DataError(f"profile store header is not valid JSON: {exc}")
        if header.get("format") != STORE_FORMAT:
            raise DataError(f"not a profile store (format {header.get('format')!r})")
        if header.get("version") != STORE_VERSION:
            raise DataError(f"unsupported profile store version {header.get('version')!r}")
        profiles: dict[tuple[str, str], Profile] = {}
        for line_number, line in enumerate(stream, start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                profile = Profile(
                    word_id=record["word_id"],
                    period=record["period"],
                    morph={k: int(v) for k, v in record["morph"].items()},
                    synt={k: int(v) for k, v in record["synt"].items()},
                    total=int(record["total"]),
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise DataError(f"profile store line {line_number}: bad record: {exc}")
            profile.validate()
            key = (profile.word_id, profile.period)
            if key in profiles:
                raise DataError(f"profile store line {line_number}: duplicate record {key}")
            profiles[key] = profile
        return cls(periods=list(header.get("periods", [])), profiles=profiles,
                   options=dict(header.get("options", {})))
