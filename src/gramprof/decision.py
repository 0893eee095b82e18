"""Turn change scores into rankings and binary changed/stable labels.

Binary labels come either from a fixed ratio (the top share of the
ranking is labelled changed) or from an automatic change point: the
single split of the descending score sequence minimising the total
within-segment squared deviation from the segment means.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import DataError
from .evaluation import check_same_words
from .scoring import _decimal_ratio

Ranking = list[tuple[str, float]]


def rank_words(scores: Mapping[str, float]) -> Ranking:
    """Order words by descending score; ties break by ascending word_id."""
    if not scores:
        raise DataError("cannot rank an empty score set")
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))


def classify_topn(ranking: Ranking, ratio: float) -> dict[str, int]:
    """Label the top round(ratio * N) words as changed (1), the rest
    stable (0). The count is exact, with the ratio read as its decimal
    and a half rounded up: 0.29 of 50 words is 14.5, so 15."""
    if not 0.0 <= ratio <= 1.0:
        raise DataError(f"ratio must be in [0, 1], got {ratio}")
    num, den = _decimal_ratio(ratio)
    n = (2 * num * len(ranking) + den) // (2 * den)
    return {word_id: (1 if i < n else 0) for i, (word_id, _) in enumerate(ranking)}


def classify_changepoint(ranking: Ranking) -> dict[str, int]:
    """Label words above the detected change point as changed.

    The descending score sequence is treated as a 1-D signal; the
    breakpoint is the single split k in 1..N-1 minimising the summed
    squared deviation from the segment means. With prefix sums S_k and
    S = S_N, that cost is sum(x^2) - S_k^2/k - (S - S_k)^2/(N - k), so
    one pass maximising the last two terms finds it. The sums are exact
    (every float is a fraction with a power-of-two denominator), so
    ties are real ties and go to the lowest split index.
    """
    if len(ranking) < 3:
        raise DataError("change-point classification needs at least 3 words; "
                        "use top-n classification instead")
    scores = [Fraction(score) for _, score in ranking]
    n = len(scores)
    total = sum(scores)
    best_k, best_gain, prefix = 0, None, Fraction(0)
    for k in range(1, n):
        prefix += scores[k - 1]
        rest = total - prefix
        gain = prefix * prefix / k + rest * rest / (n - k)
        if best_gain is None or gain > best_gain:
            best_k, best_gain = k, gain
    return {word_id: (1 if i < best_k else 0)
            for i, (word_id, _) in enumerate(ranking)}


def average_binary(labels_morph: Mapping[str, int],
                   labels_synt: Mapping[str, int]) -> dict[str, int]:
    """Combine two binary labelings as their average rounded half up:
    a word is changed (1) when either labeling says so. A label other
    than 0 or 1 raises DataError."""
    check_same_words(labels_morph, labels_synt, "the first labeling", "the second")
    for labels in (labels_morph, labels_synt):
        for word_id, label in labels.items():
            if label not in (0, 1):
                raise DataError(f"word {word_id!r}: label {label!r} is not 0 or 1")
    return {word_id: max(labels_morph[word_id], labels_synt[word_id])
            for word_id in labels_morph}
