"""Turn change scores into rankings and binary changed/stable labels.

Binary labels come either from a fixed ratio (the top share of the
ranking is labelled changed) or from an automatic change point: the
single split of the descending score sequence minimising the total
within-segment squared deviation from the segment means.
"""

from __future__ import annotations

from typing import Mapping

from .errors import DataError, decimal_ratio
from .evaluation import check_same_words

Ranking = list[tuple[str, float]]


def rank_words(scores: Mapping[str, float]) -> Ranking:
    """Order words by descending score; ties break by ascending word_id."""
    if not scores:
        raise DataError("cannot rank an empty score set")
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))


def classify_topn(ranking: Ranking, ratio: float) -> dict[str, int]:
    """Label the top round(ratio * N) words as changed (1), the rest
    stable (0). The count is exact, with the ratio read as its decimal
    and a half rounded up: 0.29 of 50 words is 14.5, so 15. The ratio
    is in [0, 1]: ``classify`` checks ``--ratio``."""
    num, den = decimal_ratio(ratio)
    n = (2 * num * len(ranking) + den) // (2 * den)
    return {word_id: (1 if i < n else 0) for i, (word_id, _) in enumerate(ranking)}


def classify_changepoint(ranking: Ranking) -> dict[str, int]:
    """Label words above the detected change point as changed.

    The descending score sequence is treated as a 1-D signal; the
    breakpoint is the single split k in 1..N-1 minimising the summed
    squared deviation from the segment means. With prefix sums P_k and
    S = P_N, that is the k maximising (N*P_k - k*S)^2 / (k*(N-k)). Every
    float is an integer times a power of two, so the scores scaled by
    the largest such power are exact integers, and gains are compared by
    cross-multiplying: ties are real ties and go to the lowest split.
    """
    if len(ranking) < 3:
        raise DataError("change-point classification needs at least 3 words; "
                        "use top-n classification instead")
    ratios = [score.as_integer_ratio() for _, score in ranking]
    scale = max(den for _, den in ratios)
    scores = [num * (scale // den) for num, den in ratios]
    n, total, prefix = len(scores), sum(scores), 0
    best_k, best_num, best_den = 0, -1, 1
    for k in range(1, n):
        prefix += scores[k - 1]
        num, den = (n * prefix - k * total) ** 2, k * (n - k)
        if num * best_den > best_num * den:
            best_k, best_num, best_den = k, num, den
    return {word_id: (1 if i < best_k else 0)
            for i, (word_id, _) in enumerate(ranking)}


def average_binary(labels_morph: Mapping[str, int],
                   labels_synt: Mapping[str, int]) -> dict[str, int]:
    """Combine two binary labelings as their average rounded half up:
    a word is changed (1) when either labeling says so. Every label is
    0 or 1: the label file reader checks it."""
    check_same_words(labels_morph, labels_synt, "the first labeling", "the second")
    return {word_id: max(labels_morph[word_id], labels_synt[word_id])
            for word_id in labels_morph}
