"""Change scores: cosine distance between grammatical profiles.

Implements every method variant: plain morphology/syntax distances,
their average, rare-feature filtering, per-category separation with
max or mean aggregation, and the two morphology+syntax combination
strategies. All distances are on raw counts; cosine is scale
invariant, so no normalisation is needed.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from typing import Mapping, Optional, Sequence

from .errors import ConfigError, DataError, decimal_ratio
from .profiles import Profile, build_vectors, separate_categories, warn_malformed_feats

FEATURE_KINDS = ("morphology", "syntax", "average", "combination")
AGGREGATIONS = ("max", "mean")


class MethodConfig(namedtuple(
        "MethodConfig", "feature_kind separation aggregation filter_threshold "
        "zero_profile_distance per_period_filter",
        defaults=("morphology", False, "max", 0.05, 1.0, False))):
    """Scoring method descriptor.

    ``filter_threshold`` removes features rarer than that share of the
    word's total usages; ``zero_profile_distance`` is the distance
    assigned when a word's profile is empty in exactly one of the two
    periods (appearance or disappearance). ``per_period_filter``
    switches the filter denominator from summed to per-period totals.
    Construction checks the fields; ``_replace`` and ``_make`` do not.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if self.feature_kind not in FEATURE_KINDS:
            raise ConfigError(f"unknown feature kind {self.feature_kind!r}")
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(f"unknown aggregation {self.aggregation!r}")
        if not 0.0 <= self.filter_threshold < 1.0:
            raise ConfigError("filter threshold must be in [0, 1)")
        if not 0.0 <= self.zero_profile_distance <= 1.0:
            raise ConfigError("zero-profile distance must be in [0, 1]")
        if self.feature_kind == "combination" and not self.separation:
            raise ConfigError("the combination method requires category separation")


class ChangeScore(namedtuple("ChangeScore", "aggregate d_morph d_synt per_category")):
    """One word's change score: the aggregate, the morphological and
    syntactic distances (None when not computed) and the per-category
    distances ({} without separation)."""

    __slots__ = ()

    def __new__(cls, aggregate: float, d_morph: Optional[float] = None,
                d_synt: Optional[float] = None, per_category: Optional[dict] = None):
        return tuple.__new__(cls, (aggregate, d_morph, d_synt,
                                   {} if per_category is None else per_category))


def cosine_distance(v_a: Sequence[int], v_b: Sequence[int],
                    zero_profile_distance: float = 1.0) -> float:
    """1 - cosine similarity of two non-negative integer count vectors
    of equal length (``build_vectors`` aligns them).

    If exactly one vector is all-zero the profile appeared or vanished
    and ``zero_profile_distance`` is returned; two all-zero (or empty)
    vectors compare as identical, distance 0. Proportional vectors are
    at distance exactly 0 (in integers, ``dot² == |a|²·|b|²`` holds
    exactly then), and any other result is clamped to [0, 1] against
    float round-off.
    """
    squared_a = sum(map(operator.mul, v_a, v_a))
    squared_b = sum(map(operator.mul, v_b, v_b))
    if squared_a == 0 and squared_b == 0:
        return 0.0
    if squared_a == 0 or squared_b == 0:
        return zero_profile_distance
    dot = sum(map(operator.mul, v_a, v_b))
    if dot * dot == squared_a * squared_b:
        return 0.0
    similarity = float(dot) / (math.sqrt(squared_a) * math.sqrt(squared_b))
    return min(1.0, max(0.0, 1.0 - similarity))


def filter_rare(counts_a: Mapping[str, int], counts_b: Mapping[str, int],
                total_a: int, total_b: int, threshold: float,
                per_period: bool = False) -> tuple[dict[str, int], dict[str, int]]:
    """Drop features whose joint occurrence count is below a share of
    the word's total usages.

    Default reading: a key is removed from both tables iff
    ``counts_a[key] + counts_b[key] < threshold * (total_a + total_b)``
    (strictly below; a key exactly at the threshold survives). With
    ``per_period`` the comparison is made against each period's own
    total and removal is decided per table. The comparison is exact, in
    integers, with the threshold read as its decimal, so zero totals
    give zero cutoffs and keep every key. The threshold is in [0, 1):
    ``MethodConfig`` checks it.
    """
    num, den = decimal_ratio(threshold)
    if per_period:
        cutoff_a, cutoff_b = num * total_a, num * total_b
    else:
        cutoff_a = cutoff_b = num * (total_a + total_b)
    get_a, get_b = counts_a.get, counts_b.get
    return ({key: count for key, count in counts_a.items()
             if not (count + get_b(key, 0)) * den < cutoff_a},
            {key: count for key, count in counts_b.items()
             if not (count + get_a(key, 0)) * den < cutoff_b})


def score_basic(counts_a: Mapping[str, int], counts_b: Mapping[str, int],
                total_a: int, total_b: int, config: MethodConfig) -> float:
    """Distance between one word's count tables in two periods: filter
    rare features against the word's totals, align, take the cosine.
    Every distance of every method variant is computed here."""
    counts_a, counts_b = filter_rare(
        counts_a, counts_b, total_a, total_b,
        config.filter_threshold, per_period=config.per_period_filter,
    )
    vector_a, vector_b = build_vectors(counts_a, counts_b)
    return cosine_distance(vector_a, vector_b, config.zero_profile_distance)


def score_separated(profile_a: Profile, profile_b: Profile, config: MethodConfig
                    ) -> tuple[dict[str, float], Optional[float]]:
    """Per-category distances plus their max (or mean) aggregate.

    Filtering is applied after separation, per category, against the
    word's occurrence totals. A category observed in only one period
    whose values survive filtering contributes the zero-profile
    distance. Returns (per_category, aggregate); the aggregate is None
    when no morphological category exists in either period.
    """
    categories_a = separate_categories(profile_a)
    categories_b = separate_categories(profile_b)
    per_category = {
        name: score_basic(categories_a.get(name, {}), categories_b.get(name, {}),
                          profile_a.total, profile_b.total, config)
        for name in sorted(categories_a.keys() | categories_b.keys())
    }
    if not per_category:
        return per_category, None
    distances = list(per_category.values())
    if config.aggregation == "max":
        return per_category, max(distances)
    return per_category, math.fsum(distances) / len(distances)


def score_word_pair(profile_a: Profile, profile_b: Profile, config: MethodConfig
                    ) -> ChangeScore:
    """Compute one word's change score under the configured method."""
    d_morph: Optional[float] = None
    d_synt: Optional[float] = None
    per_category: dict[str, float] = {}
    kind = config.feature_kind

    if kind != "morphology":
        d_synt = score_basic(profile_a.synt, profile_b.synt,
                             profile_a.total, profile_b.total, config)

    if kind != "syntax":
        if config.separation:
            per_category, d_morph = score_separated(profile_a, profile_b, config)
        else:
            d_morph = score_basic(profile_a.morph, profile_b.morph,
                                  profile_a.total, profile_b.total, config)

    if kind == "morphology":
        # A word with no morphological category at all gives no signal;
        # rank it by the zero-profile policy.
        aggregate = d_morph if d_morph is not None else config.zero_profile_distance
    elif kind == "syntax":
        aggregate = d_synt
    elif kind == "average":
        aggregate = d_synt if d_morph is None else (d_morph + d_synt) / 2.0
    else:
        # Appending the syntactic distance to the per-category ones
        # weights syntax down as the morphological profile gets richer.
        aggregate = max([*per_category.values(), d_synt])

    return ChangeScore(aggregate, d_morph, d_synt, per_category)


def score_period_pair(profiles: Mapping[tuple[str, str], Profile],
                      pair: tuple[str, str], config: MethodConfig
                      ) -> dict[str, ChangeScore]:
    """Score every word of a profile mapping for one period pair:
    word_id -> ChangeScore, in word_id order.

    A period in which no word occurs raises DataError: every word would
    get the zero-profile distance, a ranking that says nothing. A
    separating ``config`` first reports malformed FEATS entries."""
    period_a, period_b = pair
    pairs = {}
    for word_id in sorted({word_id for word_id, _ in profiles}):
        try:
            pairs[word_id] = profiles[(word_id, period_a)], profiles[(word_id, period_b)]
        except KeyError as exc:
            raise DataError(f"missing profile for word {word_id!r}: {exc}")
    for period, period_profiles in zip(pair, zip(*pairs.values())):
        if not any(profile.total for profile in period_profiles):
            raise DataError(f"period {period!r}: no target word occurs in it, so the "
                            f"pair {period_a!r}-{period_b!r} cannot be scored")
    if config.separation and config.feature_kind != "syntax":
        warn_malformed_feats(profile for both in pairs.values() for profile in both)
    return {word_id: score_word_pair(profile_a, profile_b, config)
            for word_id, (profile_a, profile_b) in pairs.items()}
