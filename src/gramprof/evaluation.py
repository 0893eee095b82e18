"""Rankings, binary labels and the task metrics that score them.

Labels (changed 1, stable 0) come from a fixed ratio (the top share of
the ranking) or from an automatic change point: the single split of
the descending score sequence minimising the total within-segment
squared deviation from the segment means. Spearman correlation scores
a ranking against graded gold, accuracy and macro-averaged F1 score
labels against binary gold. Metrics refuse mismatched word sets
outright instead of silently evaluating on the intersection; partial
overlap almost always means a broken answer file and intersecting
would inflate scores.
"""

from __future__ import annotations

import logging
from collections import namedtuple
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DataError, decimal_ratio, finite, read_tsv, zero_or_one

logger = logging.getLogger(__name__)


class GoldRecord(namedtuple("GoldRecord", "binary graded", defaults=(None, None))):
    """One word's gold values; ``load_gold`` keys it by the word id."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if self.binary is None and self.graded is None:
            raise DataError("gold record has neither a binary label nor a graded score")


def check_same_words(a: Iterable[str], b: Iterable[str], side_a: str, side_b: str) -> None:
    """DataError if ``a`` and ``b`` hold different words. For each side it
    says how many words only that side holds and names the first five in
    sorted order, so the message stays one short line."""
    a, b = set(a), set(b)
    if a != b:
        sides = "; ".join(
            f"{len(only)} only in {side} ({', '.join(map(repr, sorted(only)[:5]))}"
            f"{', ...' if len(only) > 5 else ''})"
            for side, only in ((side_a, a - b), (side_b, b - a)) if only)
        raise DataError(f"word sets differ: {sides}")


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


def average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks; tied values share the mean of their positions.

    The mean of the positions ``i+1 .. j`` is ``(i + j + 1) / 2``, an
    integer or a half, so every rank is an exact float. The values must
    be totally ordered (no NaN).
    """
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(order)
    start = 0
    for end in range(1, len(order) + 1):
        if end == len(order) or values[order[end]] != values[order[start]]:
            rank = (start + end + 1) / 2
            for i in order[start:end]:
                ranks[i] = rank
            start = end
    return ranks


def rank_correlation(x: Sequence[float], y: Sequence[float]) -> Optional[float]:
    """Pearson correlation of the average ranks of ``x`` and ``y``, or
    None when either side has constant ranks.

    numpy is imported here, not at module level, so that importing
    gramprof stays cheap for the commands that never correlate. The
    coefficient is ``np.corrcoef``'s: a pure-Python Pearson would sum in
    another order and move the last bits of reported values.
    """
    ranks_x = average_ranks(x)
    ranks_y = average_ranks(y)
    if min(ranks_x) == max(ranks_x) or min(ranks_y) == max(ranks_y):
        return None
    import numpy as np
    return float(np.corrcoef(ranks_x, ranks_y)[0, 1])


def spearman(pred: Mapping[str, float], gold: Mapping[str, float]) -> float:
    """Spearman rank correlation with average ranks for ties.

    Both mappings must cover exactly the same words (N >= 2). Raises
    when either side has no rank variance, where the coefficient is
    undefined.
    """
    check_same_words(pred, gold, "prediction", "gold")
    if len(pred) < 2:
        raise DataError("spearman needs at least 2 words")
    word_ids = sorted(pred)
    rho = rank_correlation([pred[w] for w in word_ids], [gold[w] for w in word_ids])
    if rho is None:
        raise DataError("spearman is undefined: constant ranks on one side")
    return rho


def accuracy(pred: Mapping[str, int], gold: Mapping[str, int]) -> float:
    """Fraction of words whose binary label matches the gold label."""
    check_same_words(pred, gold, "prediction", "gold")
    matches = sum(1 for word_id in pred if pred[word_id] == gold[word_id])
    return matches / len(pred)


def per_class_f1(pred: Mapping[str, int], gold: Mapping[str, int]
                 ) -> dict[int, float]:
    """F1 for each of the classes 0 and 1.

    A class absent from both prediction and gold has no precision or
    recall; its F1 is 0 by convention, and ``macro_f1`` logs it.
    """
    check_same_words(pred, gold, "prediction", "gold")
    f1 = {}
    for cls in (0, 1):
        tp = sum(1 for w in pred if pred[w] == cls and gold[w] == cls)
        fp = sum(1 for w in pred if pred[w] == cls and gold[w] != cls)
        fn = sum(1 for w in pred if pred[w] != cls and gold[w] == cls)
        if tp == 0:
            f1[cls] = 0.0
        else:
            f1[cls] = 2 * tp / (2 * tp + fp + fn)
    return f1


def macro_f1(pred: Mapping[str, int], gold: Mapping[str, int]) -> float:
    """Unweighted mean of the per-class F1 scores over classes {0, 1}.
    A class absent from both sides has F1 0, which is logged."""
    f1 = per_class_f1(pred, gold)
    for cls in sorted({0, 1} - set(pred.values()) - set(gold.values())):
        logger.warning("class %d absent from both prediction and gold; "
                       "its F1 counts as 0", cls)
    return (f1[0] + f1[1]) / 2.0


def load_gold(path) -> dict[str, GoldRecord]:
    """Read a gold file: ``word_id<TAB>binary<TAB>graded`` per line,
    ``-`` for an absent value. ``#`` comments and blank lines allowed.
    A binary label is exactly ``0`` or ``1``; a graded score is finite."""
    def parse(columns: list[str]) -> GoldRecord:
        _, binary, graded = columns
        return GoldRecord(None if binary == "-" else zero_or_one(binary, "binary label"),
                          None if graded == "-" else finite(graded, "graded score"))

    return read_tsv(path, "gold file", parse, "word_id<TAB>binary<TAB>graded",
                    DataError, 3, 3)


def binary_gold(records: Mapping[str, GoldRecord]) -> dict[str, int]:
    labels = {w: r.binary for w, r in records.items() if r.binary is not None}
    if not labels:
        raise DataError("gold data contains no binary labels")
    return labels


def graded_gold(records: Mapping[str, GoldRecord]) -> dict[str, float]:
    scores = {w: r.graded for w, r in records.items() if r.graded is not None}
    if not scores:
        raise DataError("gold data contains no graded scores")
    return scores
