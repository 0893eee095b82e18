"""Task metrics: Spearman correlation for graded change, accuracy and
macro-averaged F1 for binary change.

Metrics refuse mismatched word sets outright instead of silently
evaluating on the intersection; partial overlap almost always means a
broken answer file and intersecting would inflate scores.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np
from scipy.stats import rankdata

from .errors import DataError
from .tsv import read_tsv

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GoldRecord:
    word_id: str
    binary: Optional[int] = None
    graded: Optional[float] = None

    def __post_init__(self):
        if self.binary is None and self.graded is None:
            raise DataError(f"gold record {self.word_id!r} has neither a binary "
                            f"label nor a graded score")
        if self.binary is not None and self.binary not in (0, 1):
            raise DataError(f"gold record {self.word_id!r}: binary label must be 0 or 1")


def _check_keys(pred: Mapping, gold: Mapping, what: str) -> None:
    if set(pred) != set(gold):
        missing = sorted(set(pred) ^ set(gold))
        raise DataError(f"{what}: prediction and gold word sets differ: {missing}")


def spearman(pred: Mapping[str, float], gold: Mapping[str, float]) -> float:
    """Spearman rank correlation with average ranks for ties.

    Both mappings must cover exactly the same words (N >= 2). Raises
    when either side has no rank variance, where the coefficient is
    undefined.
    """
    _check_keys(pred, gold, "spearman")
    if len(pred) < 2:
        raise DataError("spearman needs at least 2 words")
    word_ids = sorted(pred)
    ranks_pred = rankdata([pred[w] for w in word_ids], method="average")
    ranks_gold = rankdata([gold[w] for w in word_ids], method="average")
    if np.ptp(ranks_pred) == 0 or np.ptp(ranks_gold) == 0:
        raise DataError("spearman is undefined: constant ranks on one side")
    return float(np.corrcoef(ranks_pred, ranks_gold)[0, 1])


def accuracy(pred: Mapping[str, int], gold: Mapping[str, int]) -> float:
    """Fraction of words whose binary label matches the gold label."""
    _check_keys(pred, gold, "accuracy")
    if not pred:
        raise DataError("accuracy of an empty prediction set is undefined")
    matches = sum(1 for word_id in pred if pred[word_id] == gold[word_id])
    return matches / len(pred)


def per_class_f1(pred: Mapping[str, int], gold: Mapping[str, int]
                 ) -> dict[int, float]:
    """F1 for each of the classes 0 and 1.

    A class absent from both prediction and gold has no precision or
    recall; its F1 is 0 by convention (logged, and flagged by report
    writers).
    """
    _check_keys(pred, gold, "F1")
    f1 = {}
    for cls in (0, 1):
        tp = sum(1 for w in pred if pred[w] == cls and gold[w] == cls)
        fp = sum(1 for w in pred if pred[w] == cls and gold[w] != cls)
        fn = sum(1 for w in pred if pred[w] != cls and gold[w] == cls)
        if tp == fp == fn == 0:
            logger.warning("class %d absent from both prediction and gold; "
                           "its F1 counts as 0", cls)
            f1[cls] = 0.0
        elif tp == 0:
            f1[cls] = 0.0
        else:
            f1[cls] = 2 * tp / (2 * tp + fp + fn)
    return f1


def macro_f1(pred: Mapping[str, int], gold: Mapping[str, int]) -> float:
    """Unweighted mean of the per-class F1 scores over classes {0, 1}."""
    f1 = per_class_f1(pred, gold)
    return (f1[0] + f1[1]) / 2.0


def load_gold(path) -> dict[str, GoldRecord]:
    """Read a gold file: ``word_id<TAB>binary<TAB>graded`` per line,
    ``-`` for an absent value. ``#`` comments and blank lines allowed."""
    def parse(columns: list[str]) -> GoldRecord:
        word_id, binary, graded = columns
        return GoldRecord(word_id, None if binary == "-" else int(binary),
                          None if graded == "-" else float(graded))

    return read_tsv(path, parse, "word_id<TAB>binary<TAB>graded", DataError, 3, 3)


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
