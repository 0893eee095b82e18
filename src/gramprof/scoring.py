"""Change scores: cosine distance between grammatical profiles.

Implements every method variant: plain morphology/syntax distances,
their average, rare-feature filtering, per-category separation with
max or mean aggregation, and the two morphology+syntax combination
strategies. All distances are on raw counts; cosine is scale
invariant, so no normalisation is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .errors import ConfigError, DataError
from .profiles import CategoryProfile, Profile, build_vectors, separate_categories

FEATURE_KINDS = ("morphology", "syntax", "average", "combination")
AGGREGATIONS = ("max", "mean")


@dataclass(frozen=True)
class MethodConfig:
    """Scoring method descriptor.

    ``filter_threshold`` removes features rarer than that share of the
    word's total usages; ``zero_profile_distance`` is the distance
    assigned when a word's profile is empty in exactly one of the two
    periods (appearance or disappearance). ``per_period_filter``
    switches the filter denominator from summed to per-period totals.
    """

    feature_kind: str = "morphology"
    separation: bool = False
    aggregation: str = "max"
    filter_threshold: float = 0.05
    zero_profile_distance: float = 1.0
    per_period_filter: bool = False

    def __post_init__(self):
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

    def describe(self) -> str:
        parts = []
        if self.separation:
            parts.append("separate")
            if self.feature_kind != "combination":
                parts.append(f"aggregate={self.aggregation}")
        parts.append(f"filter={self.filter_threshold:g}")
        if self.per_period_filter:
            parts.append("per-period")
        if self.zero_profile_distance != 1.0:
            parts.append(f"zero-distance={self.zero_profile_distance:g}")
        return f"{self.feature_kind}({','.join(parts)})"


@dataclass
class ChangeScore:
    word_id: str
    period_pair: tuple[str, str]
    aggregate: float
    method: str
    d_morph: Optional[float] = None
    d_synt: Optional[float] = None
    per_category: dict[str, float] = field(default_factory=dict)


def cosine_distance(v_a: Sequence[float], v_b: Sequence[float],
                    zero_profile_distance: float = 1.0) -> float:
    """1 - cosine similarity of two non-negative vectors.

    If exactly one vector is all-zero the profile appeared or vanished
    and ``zero_profile_distance`` is returned; two all-zero (or empty)
    vectors compare as identical, distance 0. Result is clamped to
    [0, 1] against float round-off.
    """
    if len(v_a) != len(v_b):
        raise ValueError(f"vector length mismatch: {len(v_a)} vs {len(v_b)}")
    if list(v_a) == list(v_b):
        return 0.0  # exact, not subject to sqrt round-off
    squared_a = sum(x * x for x in v_a)
    squared_b = sum(x * x for x in v_b)
    if squared_a == 0 and squared_b == 0:
        return 0.0
    if squared_a == 0 or squared_b == 0:
        return zero_profile_distance
    dot = sum(x * y for x, y in zip(v_a, v_b))
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
    total and removal is decided per table. Zero totals leave the
    inputs unchanged.
    """
    if not 0.0 <= threshold < 1.0:
        raise ConfigError("filter threshold must be in [0, 1)")
    if total_a + total_b == 0:
        return dict(counts_a), dict(counts_b)
    keys = set(counts_a) | set(counts_b)
    if per_period:
        filtered_a, filtered_b = {}, {}
        for key in keys:
            joint = counts_a.get(key, 0) + counts_b.get(key, 0)
            if key in counts_a and not joint < threshold * total_a:
                filtered_a[key] = counts_a[key]
            if key in counts_b and not joint < threshold * total_b:
                filtered_b[key] = counts_b[key]
        return filtered_a, filtered_b
    cutoff = threshold * (total_a + total_b)
    kept = {key for key in keys
            if not counts_a.get(key, 0) + counts_b.get(key, 0) < cutoff}
    return ({k: v for k, v in counts_a.items() if k in kept},
            {k: v for k, v in counts_b.items() if k in kept})


def score_basic(profile_a: Profile, profile_b: Profile, kind: str,
                config: MethodConfig) -> float:
    """Distance between two periods on one feature table (``morphology``
    or ``syntax``), with rare-feature filtering."""
    if profile_a.word_id != profile_b.word_id:
        raise ValueError("profiles belong to different words")
    if kind == "morphology":
        counts_a, counts_b = profile_a.morph, profile_b.morph
    elif kind == "syntax":
        counts_a, counts_b = profile_a.synt, profile_b.synt
    else:
        raise ValueError(f"unknown feature table {kind!r}")
    counts_a, counts_b = filter_rare(
        counts_a, counts_b, profile_a.total, profile_b.total,
        config.filter_threshold, per_period=config.per_period_filter,
    )
    vector_a, vector_b = build_vectors(counts_a, counts_b)
    return cosine_distance(vector_a, vector_b, config.zero_profile_distance)


def score_separated(cat_a: CategoryProfile, cat_b: CategoryProfile,
                    config: MethodConfig) -> tuple[dict[str, float], Optional[float]]:
    """Per-category distances plus their max (or mean) aggregate.

    Filtering is applied after separation, per category, against the
    word's occurrence totals. A category observed in only one period
    whose values survive filtering contributes the zero-profile
    distance. Returns (per_category, aggregate); the aggregate is None
    when no morphological category exists in either period.
    """
    if cat_a.word_id != cat_b.word_id:
        raise ValueError("profiles belong to different words")
    per_category: dict[str, float] = {}
    for name in sorted(set(cat_a.categories) | set(cat_b.categories)):
        values_a = cat_a.categories.get(name, {})
        values_b = cat_b.categories.get(name, {})
        values_a, values_b = filter_rare(
            values_a, values_b, cat_a.total, cat_b.total,
            config.filter_threshold, per_period=config.per_period_filter,
        )
        vector_a, vector_b = build_vectors(values_a, values_b)
        per_category[name] = cosine_distance(vector_a, vector_b,
                                             config.zero_profile_distance)
    if not per_category:
        return per_category, None
    distances = list(per_category.values())
    if config.aggregation == "max":
        return per_category, max(distances)
    return per_category, math.fsum(distances) / len(distances)


def combine_average(d_morph: Optional[float], d_synt: Optional[float]) -> float:
    """Arithmetic mean of the two distances; falls back to whichever is
    present when the other is missing."""
    if d_morph is None and d_synt is None:
        raise DataError("no features for word: both distances are missing")
    if d_morph is None:
        return d_synt
    if d_synt is None:
        return d_morph
    return (d_morph + d_synt) / 2.0


def combine_append_max(per_category: Mapping[str, float],
                       d_synt: Optional[float]) -> float:
    """Append the syntactic distance to the per-category distances and
    take the maximum, weighting syntax down as the morphological
    profile gets richer."""
    distances = list(per_category.values())
    if d_synt is not None:
        distances.append(d_synt)
    if not distances:
        raise DataError("no features for word: no category distances and no "
                        "syntactic distance")
    return max(distances)


def score_word_pair(profile_a: Profile, profile_b: Profile,
                    config: MethodConfig) -> ChangeScore:
    """Compute one word's change score under the configured method."""
    d_morph: Optional[float] = None
    d_synt: Optional[float] = None
    per_category: dict[str, float] = {}
    kind = config.feature_kind

    if kind in ("syntax", "average", "combination"):
        d_synt = score_basic(profile_a, profile_b, "syntax", config)

    if kind in ("morphology", "average", "combination"):
        if config.separation:
            per_category, d_morph = score_separated(
                separate_categories(profile_a), separate_categories(profile_b), config
            )
        else:
            d_morph = score_basic(profile_a, profile_b, "morphology", config)

    if kind == "morphology":
        # A word with no morphological category at all gives no signal;
        # rank it by the zero-profile policy.
        aggregate = d_morph if d_morph is not None else config.zero_profile_distance
    elif kind == "syntax":
        aggregate = d_synt
    elif kind == "average":
        aggregate = combine_average(d_morph, d_synt)
    else:
        aggregate = combine_append_max(per_category, d_synt)

    return ChangeScore(
        word_id=profile_a.word_id,
        period_pair=(profile_a.period, profile_b.period),
        aggregate=aggregate,
        method=config.describe(),
        d_morph=d_morph,
        d_synt=d_synt,
        per_category=per_category,
    )


def score_period_pair(profiles: Mapping[tuple[str, str], Profile],
                      pair: tuple[str, str], config: MethodConfig
                      ) -> list[ChangeScore]:
    """Score every word of a profile mapping for one period pair,
    sorted by word_id."""
    period_a, period_b = pair
    word_ids = sorted({word_id for word_id, _ in profiles})
    scores = []
    for word_id in word_ids:
        try:
            profile_a = profiles[(word_id, period_a)]
            profile_b = profiles[(word_id, period_b)]
        except KeyError as exc:
            raise DataError(f"missing profile for word {word_id!r}: {exc}")
        scores.append(score_word_pair(profile_a, profile_b, config))
    return scores
