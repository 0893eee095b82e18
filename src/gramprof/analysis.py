"""Which grammatical categories carry the change signal?

Two complementary views over a word x category matrix of cosine
distances: a standardized logistic regression against binary gold
labels (positive weights mark useful categories) and per-category
Spearman correlations against graded gold scores with a two-tailed
significance test. Also provides the per-period value distribution of
one category for one word (timeline), the raw material for usage
plots.

numpy and scipy are imported inside the functions that compute with
them, so that importing this module (and the CLI) stays cheap.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import namedtuple
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import ConfigError, DataError
from .evaluation import accuracy, average_ranks, check_same_words, macro_f1, rank_correlation
from .profiles import Profile, separate_categories, warn_malformed_feats
from .scoring import MethodConfig, score_period_pair
# bench/spans.py patches these two names on this module by attribute, so
# they stay bound here although build_feature_matrix no longer calls them.
from .scoring import score_basic, score_separated  # noqa: F401

if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)

SYNTAX_COLUMN = "syntax"
LOGREG_L2_INVERSE_STRENGTH = 1.0
LOGREG_TOLERANCE = 1e-8
LOGREG_MAX_ITERATIONS = 100000


class FeatureMatrix(namedtuple("FeatureMatrix", "word_ids columns values missing")):
    """Per-word, per-category cosine distances.

    ``values[i, j]`` is the distance of word ``word_ids[i]`` for
    category ``columns[j]``; the last column is the syntactic distance.
    ``missing[i, j]`` marks cells where the word expresses the category
    in neither period (the value there is 0). ``values`` and ``missing``
    are numpy arrays.
    """

    __slots__ = ()


def build_feature_matrix(profiles: Mapping[tuple[str, str], Profile],
                         pair: tuple[str, str], config: MethodConfig
                         ) -> FeatureMatrix:
    """Assemble the word x category distance matrix for one period pair.

    The cells are the per-category and syntactic distances of the
    ``combination --separate`` score (filtering after separation), with
    the syntactic distance as its own last column. A category a word
    expresses in neither period yields a 0 cell flagged as missing, and
    so does syntax for a word with no dependency relation in either
    period.
    """
    import numpy as np
    period_a, period_b = pair
    # Through the class, not _replace, so that the fields are checked.
    scores = score_period_pair(profiles, pair, MethodConfig(
        **{**config._asdict(), "feature_kind": "combination", "separation": True}))
    per_word: dict[str, dict[str, float]] = {}
    for word_id, score in scores.items():
        if SYNTAX_COLUMN in score.per_category:
            raise DataError(f"word {word_id!r} has a FEATS category named "
                            f"{SYNTAX_COLUMN!r}, which collides with the syntax column")
        cells = per_word[word_id] = dict(score.per_category)
        if profiles[(word_id, period_a)].synt or profiles[(word_id, period_b)].synt:
            cells[SYNTAX_COLUMN] = score.d_synt
    word_ids = list(per_word)
    columns = sorted(set().union(*per_word.values()) - {SYNTAX_COLUMN}) + [SYNTAX_COLUMN]
    values = np.zeros((len(word_ids), len(columns)))
    missing = np.ones((len(word_ids), len(columns)), dtype=bool)
    for i, word_id in enumerate(word_ids):
        for j, column in enumerate(columns):
            if column in per_word[word_id]:
                values[i, j] = per_word[word_id][column]
                missing[i, j] = False
    return FeatureMatrix(word_ids, columns, values, missing)


def standardize(matrix: FeatureMatrix) -> tuple[FeatureMatrix, list[str]]:
    """Zero-center each column and scale it to unit variance
    (population variance, divisor N).

    Constant columns (all values equal) cannot be scaled; they become
    all-zero and are returned as the flagged list.
    """
    if len(matrix.word_ids) < 2:
        raise DataError("standardization needs at least 2 rows")
    values = matrix.values.copy()
    constant = []
    for j, column in enumerate(matrix.columns):
        cells = values[:, j]
        # A column of equal values can have a std of 1e-17 rather than
        # 0 (0.1 at 7 rows), so it is caught by its values.
        if (cells == cells[0]).all():
            values[:, j] = 0.0
            constant.append(column)
        else:  # population std, ddof=0
            values[:, j] = (cells - cells.mean()) / cells.std()
    out = FeatureMatrix(list(matrix.word_ids), list(matrix.columns), values,
                        matrix.missing.copy())
    return out, constant


class LogregResult(namedtuple("LogregResult", "columns coefficients intercept train_accuracy "
                                              "train_macro_f1 iterations converged")):
    __slots__ = ()

    @property
    def positive_categories(self) -> list[str]:
        """Columns with positive weight, strongest first."""
        order = sorted(
            (j for j in range(len(self.columns)) if self.coefficients[j] > 0),
            key=lambda j: (-self.coefficients[j], self.columns[j]),
        )
        return [self.columns[j] for j in order]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    import numpy as np
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    ez = np.exp(z[~positive])
    out[~positive] = ez / (1.0 + ez)
    return out


def train_logreg(matrix: FeatureMatrix, labels: Mapping[str, int],
                 l2_inverse_strength: float = LOGREG_L2_INVERSE_STRENGTH
                 ) -> LogregResult:
    """Fit binary logistic regression by full-batch gradient descent.

    The loss is the mean negative log-likelihood plus an L2 penalty of
    1/(2C) * ||w||^2 on the weights only (C = ``l2_inverse_strength``),
    so duplicating every row leaves the optimum unchanged. Gradient
    descent uses a fixed step of 1/L with L an upper bound on the loss
    curvature, and stops when the gradient max-norm drops below
    LOGREG_TOLERANCE or after LOGREG_MAX_ITERATIONS steps.
    """
    import numpy as np
    check_same_words(matrix.word_ids, labels, "feature matrix", "labels")
    y = np.array([labels[w] for w in matrix.word_ids], dtype=np.float64)
    if len(np.unique(y)) < 2:
        raise DataError("labels contain a single class; nothing to separate")
    X = matrix.values
    n, d = X.shape
    lam = 1.0 / l2_inverse_strength

    design = np.hstack([X, np.ones((n, 1))])
    curvature = np.linalg.eigvalsh(design.T @ design / (4.0 * n)).max() + lam
    step = 1.0 / curvature

    w = np.zeros(d)
    b = 0.0
    iterations = 0
    converged = False
    for iterations in range(1, LOGREG_MAX_ITERATIONS + 1):
        p = _sigmoid(X @ w + b)
        residual = p - y
        grad_w = X.T @ residual / n + lam * w
        grad_b = residual.mean()
        if max(np.abs(grad_w).max(initial=0.0), abs(grad_b)) < LOGREG_TOLERANCE:
            converged = True
            break
        w -= step * grad_w
        b -= step * grad_b
    if not converged:
        logger.warning("logistic regression hit the %d-iteration cap (gradient "
                       "max-norm still above %g)", LOGREG_MAX_ITERATIONS, LOGREG_TOLERANCE)

    predicted = _sigmoid(X @ w + b) >= 0.5
    pred_labels = {word: int(predicted[i]) for i, word in enumerate(matrix.word_ids)}
    true_labels = {word: int(labels[word]) for word in matrix.word_ids}
    return LogregResult(
        columns=list(matrix.columns),
        coefficients=w,
        intercept=b,
        train_accuracy=accuracy(pred_labels, true_labels),
        train_macro_f1=macro_f1(pred_labels, true_labels),
        iterations=iterations,
        converged=converged,
    )


CategoryCorrelation = namedtuple("CategoryCorrelation", "rho p_value significant n note",
                                 defaults=("",))


def spearman_p_value(rho: float, n: int) -> float:
    """Two-tailed p-value of a Spearman coefficient over n >= 3
    observations, via the t approximation with n-2 degrees of freedom.

    ``stdtr(df, -|t|)`` is the Student-t survival function at ``|t|``,
    the value ``scipy.stats.t.sf`` returns, without the cost of
    importing ``scipy.stats``."""
    if 1.0 - rho * rho <= 0.0:
        return 0.0
    from scipy.special import stdtr
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return 2.0 * float(stdtr(n - 2, -abs(t)))


def exact_spearman_p_value(x: Sequence[float], y: Sequence[float]) -> float:
    """Two-tailed permutation p-value: the share of permutations of y
    whose |rho| reaches the observed |rho|. Only feasible for n <= 10,
    and neither x nor y may be constant.

    Permuting values permutes their ranks, and rank means and variances
    are permutation invariant, so only the rank dot product has to be
    recomputed per permutation. Average ranks are integers or halves,
    so doubled centred ranks are integers and compare exactly.
    """
    n = len(x)
    if n > 10:
        raise ConfigError("exact permutation p-values are limited to n <= 10")
    ranks_x = average_ranks(x)
    ranks_y = average_ranks(y)
    centered_x = tuple(int(2 * r) - (n + 1) for r in ranks_x)
    centered_y = tuple(int(2 * r) - (n + 1) for r in ranks_y)
    observed = abs(sum(a * b for a, b in zip(centered_x, centered_y)))
    count = 0
    for permuted in itertools.permutations(centered_y):
        dot = sum(a * b for a, b in zip(centered_x, permuted))
        count += (abs(dot) >= observed)
    return count / math.factorial(n)


def category_correlations(matrix: FeatureMatrix, gold_graded: Mapping[str, float],
                          missing_as_absent: bool = False,
                          exact_p: bool = False) -> dict[str, CategoryCorrelation]:
    """Spearman correlation of each category's distances with the gold
    graded change scores, with significance at p < 0.05: column ->
    CategoryCorrelation, in column order.

    With ``missing_as_absent`` a word that never expresses a category is
    dropped from that category's test instead of contributing a 0 cell.
    """
    import numpy as np
    check_same_words(matrix.word_ids, gold_graded, "feature matrix", "gold")
    if len(matrix.word_ids) < 5:
        raise DataError("category correlations need at least 5 words")
    gold = np.array([gold_graded[w] for w in matrix.word_ids], dtype=np.float64)
    results = {}
    for j, column in enumerate(matrix.columns):
        cells = matrix.values[:, j]
        gold_cells = gold
        if missing_as_absent:
            keep = ~matrix.missing[:, j]
            cells = cells[keep]
            gold_cells = gold[keep]
        cells, gold_cells = cells.tolist(), gold_cells.tolist()
        n = len(cells)
        if n < 5:
            results[column] = CategoryCorrelation(None, None, False, n,
                                                  note="insufficient data")
            continue
        rho = rank_correlation(cells, gold_cells)
        if rho is None:
            results[column] = CategoryCorrelation(None, None, False, n,
                                                  note="constant values")
            continue
        if exact_p:
            p = exact_spearman_p_value(cells, gold_cells)
        else:
            p = spearman_p_value(rho, n)
        results[column] = CategoryCorrelation(rho, p, p < 0.05, n)
    return results


TimelineRow = namedtuple("TimelineRow", "period value count proportion")


def timeline(profiles_by_period: Mapping[str, Profile], category: str
             ) -> list[TimelineRow]:
    """Distribution of one category's values per period for one word.

    ``profiles_by_period`` maps period label -> Profile in display
    order. Every period gets a row for every value seen anywhere
    (zero-filled); proportions are per-period relative frequencies.
    The special category name ``syntax`` tabulates dependency
    relations, and is refused for a word with a FEATS category of that
    name. Malformed FEATS entries are reported first.
    """
    warn_malformed_feats(profiles_by_period.values())
    per_period_counts: dict[str, dict[str, int]] = {}
    available: set[str] = set()
    for period, profile in profiles_by_period.items():
        separated = separate_categories(profile)
        available.update(separated)
        if profile.synt:
            available.add(SYNTAX_COLUMN)
        if category == SYNTAX_COLUMN:
            if SYNTAX_COLUMN in separated:
                raise DataError(f"this word has a FEATS category named {SYNTAX_COLUMN!r}, "
                                f"which collides with the syntax column")
            per_period_counts[period] = dict(profile.synt)
        else:
            per_period_counts[period] = separated.get(category, {})
    if all(not counts for counts in per_period_counts.values()):
        raise DataError(
            f"category {category!r} not found for this word; available: "
            f"{', '.join(sorted(available)) or 'none'}"
        )
    values = sorted(set().union(*per_period_counts.values()))
    rows = []
    for period, counts in per_period_counts.items():
        total = sum(counts.values())
        for value in values:
            count = counts.get(value, 0)
            proportion = count / total if total else 0.0
            rows.append(TimelineRow(period, value, count, proportion))
    return rows
