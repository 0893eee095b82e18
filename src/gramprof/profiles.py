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

import logging
from typing import Iterable, Iterator, Mapping, Optional, TextIO

from .conllu import DEPREL, FEATS, TargetIndex, TargetSpec, open_corpus, parse_conllu, \
    parse_feats, strip_deprel_subtype
from .errors import ConfigError, DataError, check_word_id, reading

logger = logging.getLogger(__name__)

STORE_FORMAT = "grammatical-profile-store"
STORE_VERSION = 1


class Profile:
    """One word's counts in one period; its key in a profile mapping is
    (word_id, period)."""

    __slots__ = ("morph", "synt", "total")

    def __init__(self, morph: Optional[dict[str, int]] = None,
                 synt: Optional[dict[str, int]] = None, total: int = 0):
        self.morph = {} if morph is None else morph
        self.synt = {} if synt is None else synt
        self.total = total

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.morph, self.synt, self.total) == (other.morph, other.synt, other.total)

    def add_token(self, feats: str, deprel: str) -> None:
        self.total += 1
        self.synt[deprel] = self.synt.get(deprel, 0) + 1
        if feats != "_" and feats != "":
            self.morph[feats] = self.morph.get(feats, 0) + 1


def separate_categories(profile: Profile) -> dict[str, dict[str, int]]:
    """Split combined FEATS counts into per-category value counts:
    category -> value -> count.

    Each FEATS string ``K1=V1|K2=V2`` with count c adds c to every
    (Ki, Vi) cell, so per-category sums are preserved. The pairs are
    those ``parse_feats`` keeps: a malformed entry (no ``=``, or an empty
    key) is skipped without a word; ``warn_malformed_feats`` reports it.
    """
    categories: dict[str, dict[str, int]] = {}
    for feats, count in profile.morph.items():
        for key, value in parse_feats(feats)[0]:
            values = categories.get(key)
            if values is None:
                categories[key] = {value: count}
            else:
                values[value] = values.get(value, 0) + count
    return categories


def warn_malformed_feats(profiles: Iterable[Profile]) -> None:
    """Warn about each malformed entry of each distinct FEATS string, once, in string order."""
    for feats in sorted(set().union(*(profile.morph for profile in profiles))):
        for item in parse_feats(feats)[1]:
            logger.warning("skipping malformed FEATS entry %r in %r", item, feats)


def build_vectors(counts_a: Mapping[str, int], counts_b: Mapping[str, int]
                  ) -> tuple[list[int], list[int]]:
    """Align two count tables on the sorted union of their keys; absent
    keys become 0."""
    feature_names = sorted(counts_a.keys() | counts_b.keys())
    return ([counts_a.get(name, 0) for name in feature_names],
            [counts_b.get(name, 0) for name in feature_names])


def extract_profiles(corpora: Mapping[str, Iterable], targets: Iterable[TargetSpec],
                     case_fold: bool = False, match_form: bool = False,
                     strip_subtypes: bool = False, strict: bool = False,
                     ) -> dict[tuple[str, str], Profile]:
    """Count matched-token features over every corpus period.

    ``corpora`` maps period label -> list of CONLL-U sources (paths,
    ``.gz`` allowed, or open text streams). Every (target, period)
    combination gets a profile, with total 0 when the word never
    occurs. ``match_form`` goes to ``TargetIndex``, ``strict`` to
    ``parse_conllu``; ``strip_subtypes`` truncates dependency relations
    at ``:`` before counting. Equal FEATS strings and equal DEPREL labels
    are one string object across all the returned profiles.

    A period whose corpora hold no token line raises DataError. A period
    with tokens but no match, or whose matched tokens all have DEPREL
    ``_``, or all FEATS ``_``, logs one warning for each of these.
    """
    targets = list(targets)
    if len(corpora) < 2:
        raise ConfigError("need at least two corpus periods")
    index = TargetIndex(targets, case_fold=case_fold, match_form=match_form)
    # A corpus repeats few distinct FEATS strings and DEPREL labels, but
    # each token's copy is a new string. ``shared`` maps every FEATS string
    # and stored label to one object, so all count tables of this call key
    # on that object; ``labels`` maps a raw DEPREL to its stored label, so
    # a label is stripped once, not once per matched token.
    shared: dict[str, str] = {}
    labels: dict[str, str] = {}
    profiles: dict[tuple[str, str], Profile] = {}
    for period, sources in corpora.items():
        by_word = {spec.word_id: Profile() for spec in targets}
        tokens = 0
        for source in sources:
            for sentence in _iter_source(source, period, strict):
                tokens += len(sentence)
                for word_id, token in index.match(sentence):
                    deprel = token[DEPREL]
                    label = labels.get(deprel)
                    if label is None:
                        label = strip_deprel_subtype(deprel) if strip_subtypes else deprel
                        label = labels[deprel] = shared.setdefault(label, label)
                    feats = token[FEATS]
                    by_word[word_id].add_token(shared.setdefault(feats, feats), label)
        _check_period(period, sources, tokens, by_word.values())
        profiles.update(((word_id, period), p) for word_id, p in by_word.items())
    return profiles


def _check_period(period: str, sources, tokens: int, period_profiles) -> None:
    """Fail a period that gave no token, and warn once about a period
    whose matches cannot give a meaningful profile."""
    names = ", ".join(str(getattr(source, "name", "<stream>") if hasattr(source, "read")
                          else source) for source in sources)
    if not tokens:
        raise DataError(f"period {period!r} has no token lines in its corpus files: "
                        f"{names or '(none)'}")
    matched = sum(p.total for p in period_profiles)
    if not matched:
        logger.warning("period %r: %d tokens but no target matched (%s)",
                       period, tokens, names)
        return
    if sum(p.synt.get("_", 0) for p in period_profiles) == matched:
        logger.warning("period %r: every matched token has DEPREL '_' "
                       "(an unparsed corpus?) (%s)", period, names)
    if not any(p.morph for p in period_profiles):
        logger.warning("period %r: every matched token has FEATS '_' "
                       "(an untagged corpus?) (%s)", period, names)


def _iter_source(source, period: str, strict: bool):
    if hasattr(source, "read"):
        yield from parse_conllu(source, strict=strict)
        return
    with reading(source, f"corpus for period {period!r}:", DataError, open_corpus) as f:
        yield from parse_conllu(f, strict=strict)


class ProfileStore:
    """All profiles of one dataset plus the period order they were
    extracted with."""

    __slots__ = ("periods", "profiles", "options")

    def __init__(self, periods: list[str], profiles: dict[tuple[str, str], Profile],
                 options: Optional[dict] = None):
        self.periods = periods
        self.profiles = profiles
        self.options = {} if options is None else options

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.periods, self.profiles, self.options)
                == (other.periods, other.profiles, other.options))

    @property
    def word_ids(self) -> list[str]:
        return sorted({word_id for word_id, _ in self.profiles})

    def save(self, stream: TextIO) -> None:
        """Write the store as JSON lines: a version header followed by
        one record per (word_id, period) key. A key whose period is not
        in ``periods``, or whose word id is not one, raises DataError before
        anything is written, since ``load`` would reject it."""
        import json
        order = {label: i for i, label in enumerate(self.periods)}
        try:
            keys = sorted(self.profiles, key=lambda k: (k[0], order[k[1]]))
        except KeyError:
            key = next(k for k in self.profiles if k[1] not in order)
            raise DataError(f"profile key {key!r}: period not in {self.periods!r}") from None
        for key in keys:
            if type(key[0]) is not str:
                raise DataError(f"profile key {key!r}: word id is not a string")
            check_word_id(key[0], lambda message: DataError(f"profile key {key!r}: {message}"))
        header = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "periods": self.periods,
            "options": self.options,
        }
        stream.write(json.dumps(header, sort_keys=True) + "\n")
        for (word_id, period) in keys:
            p = self.profiles[(word_id, period)]
            record = {
                "word_id": word_id,
                "period": period,
                "total": p.total,
                "morph": p.morph,
                "synt": p.synt,
            }
            stream.write(json.dumps(record, sort_keys=True) + "\n")

    @classmethod
    def load(cls, stream: TextIO) -> "ProfileStore":
        import json
        header_line = stream.readline()
        if not header_line.strip():
            raise DataError("profile store is empty")
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise DataError(f"profile store header is not valid JSON: {exc}")
        if type(header) is not dict or header.get("format") != STORE_FORMAT:
            raise DataError(f"not a profile store (header {header_line.strip()[:80]!r})")
        if header.get("version") != STORE_VERSION:
            raise DataError(f"unsupported profile store version {header.get('version')!r}")
        periods, options = header.get("periods", []), header.get("options", {})
        if type(periods) is not list or not all(type(p) is str for p in periods):
            raise DataError(f"profile store header: periods must be a list of strings, "
                            f"got {periods!r}")
        if type(options) is not dict:
            raise DataError(f"profile store header: options must be an object, "
                            f"got {options!r}")
        if len(periods) < 2:
            raise DataError(f"profile store header lists periods {periods}; a store "
                            f"needs at least two")
        known_periods = set(periods)
        if len(known_periods) != len(periods):
            label = next(p for i, p in enumerate(periods) if p in periods[:i])
            raise DataError(f"profile store header lists period {label!r} more than once")
        profiles: dict[tuple[str, str], Profile] = {}
        for line_number, record in _decoded_records(stream):
            try:
                word_id, period = record["word_id"], record["period"]
                morph, synt, total = record["morph"], record["synt"], record["total"]
            except (KeyError, TypeError) as exc:
                raise DataError(f"profile store line {line_number}: bad record: {exc}")
            # The decoded dicts become the profile's count tables as they
            # are, so their types are checked here: a JSON true, 2.7 or "1"
            # is not a count.
            if not (type(word_id) is str and type(period) is str
                    and type(morph) is dict and type(synt) is dict
                    and {type(total), *map(type, morph.values()),
                         *map(type, synt.values())} == {int}):
                raise DataError(
                    f"profile store line {line_number}: bad record: word_id and period "
                    f"must be strings, morph and synt objects of integer counts and "
                    f"total an integer")
            check_word_id(word_id, lambda message: DataError(
                f"profile store line {line_number}: {message}"))
            if period not in known_periods:
                raise DataError(f"profile store line {line_number}: period {period!r} "
                                f"is not one of the header's periods {periods}")
            if min(morph.values(), default=1) < 1 or min(synt.values(), default=1) < 1:
                raise DataError(f"profile store line {line_number}: zero or negative count")
            if sum(synt.values()) != total:
                raise DataError(f"profile store line {line_number}: syntax counts do not "
                                f"sum to total")
            if sum(morph.values()) > total:
                raise DataError(f"profile store line {line_number}: morphology counts "
                                f"exceed total")
            key = (word_id, period)
            if key in profiles:
                raise DataError(f"profile store line {line_number}: duplicate record {key}")
            profiles[key] = Profile(morph, synt, total)
        if not profiles:
            raise DataError("profile store has a header but no record")
        for word_id in sorted({word_id for word_id, _ in profiles}):
            for period in periods:
                if (word_id, period) not in profiles:
                    raise DataError(f"profile store: missing profile for word {word_id!r} "
                                    f"in period {period!r}")
        return cls(periods=periods, profiles=profiles, options=options)


# Record lines are decoded this many at a time, by one json.loads over the
# batch joined into an array. The decoder shares object keys within one
# call, so a FEATS string or DEPREL label repeated across a batch's
# records becomes one string object.
_DECODE_BATCH_LINES = 512


def _decoded_records(stream: TextIO) -> Iterator[tuple[int, object]]:
    """(line number, decoded value) of each non-blank line after the
    store header, in file order."""
    batch: list[tuple[int, str]] = []
    for line_number, line in enumerate(stream, start=2):
        if line.strip():
            batch.append((line_number, line))
            if len(batch) == _DECODE_BATCH_LINES:
                yield from _decode_batch(batch)
                batch = []
    yield from _decode_batch(batch)


def _decode_batch(batch: list[tuple[int, str]]) -> Iterator[tuple[int, object]]:
    """Decode a batch of lines at once, joined with a 0 between every two.
    The batch is valid only when it decodes to one value per line with
    exactly that 0 between every two: an object split over lines is not
    JSON with a 0 inside it, and a second record on one line stands where
    a 0 belongs. Any other batch is read again one line at a time, so the
    first line that fails to decode names itself, and the values of the
    lines before it are yielded (and checked by the caller) first."""
    # Besides JSONDecodeError (a ValueError), json.loads raises ValueError
    # on an integer of more than sys.get_int_max_str_digits() digits and
    # RecursionError on too deep a nesting.
    import json
    try:
        values = json.loads("[" + ",0,".join([line for _, line in batch]) + "]")
    except (ValueError, RecursionError):
        values = None
    if values is not None and len(values) == 2 * len(batch) - 1 \
            and values[1::2] == [0] * (len(batch) - 1):
        yield from zip([line_number for line_number, _ in batch], values[::2])
        return
    for line_number, line in batch:
        try:
            value = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise DataError(f"profile store line {line_number}: bad record: {exc}")
        yield line_number, value
