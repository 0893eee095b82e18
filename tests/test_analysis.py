import logging
import math
import random

import numpy as np
import pytest

from gramprof import analysis
from gramprof.analysis import (FeatureMatrix, build_feature_matrix,
                               category_correlations, exact_spearman_p_value,
                               spearman_p_value, standardize, timeline,
                               train_logreg)
from gramprof.errors import ConfigError, DataError
from gramprof.profiles import Profile
from gramprof.scoring import MethodConfig

from oracles import exact_spearman_p_oracle, student_t_two_tailed_oracle

UNIT_COLUMN = 1.224744871391589  # sqrt(3/2): standardized [1, 2, 3]


def matrix_from(values, columns=None, word_ids=None, missing=None):
    values = np.asarray(values, dtype=np.float64)
    n, d = values.shape
    return FeatureMatrix(
        word_ids=word_ids or [f"w{i:03d}" for i in range(n)],
        columns=columns or [f"c{j}" for j in range(d)],
        values=values,
        missing=np.zeros_like(values, dtype=bool) if missing is None else missing,
    )


# ----------------------------------------------------------------------
# standardization

def test_standardize_small_column():
    matrix = matrix_from([[1.0], [2.0], [3.0]])
    out, constant = standardize(matrix)
    assert constant == []
    np.testing.assert_allclose(out.values[:, 0],
                               [-UNIT_COLUMN, 0.0, UNIT_COLUMN], atol=1e-12)


def test_standardize_idempotent():
    rng = np.random.default_rng(15)
    matrix = matrix_from(rng.random((10, 3)))
    once, _ = standardize(matrix)
    twice, _ = standardize(once)
    np.testing.assert_allclose(once.values, twice.values, atol=1e-9)


def test_standardize_constant_column_flagged():
    matrix = matrix_from([[0.5, 1.0], [0.5, 2.0], [0.5, 3.0]],
                         columns=["flat", "varies"])
    out, constant = standardize(matrix)
    assert constant == ["flat"]
    assert np.all(out.values[:, 0] == 0.0)


@pytest.mark.parametrize("value, rows", [(0.1, 7), (0.7, 100), (0.9, 2999), (0.3, 2999)])
def test_standardize_flags_a_constant_column_whose_float_std_is_not_0(value, rows):
    values = np.column_stack([np.full(rows, value), np.arange(rows, dtype=np.float64)])
    assert values[:, 0].std() != 0.0  # the rounding this test is about
    out, constant = standardize(matrix_from(values, columns=["flat", "varies"]))
    assert constant == ["flat"]
    assert np.all(out.values[:, 0] == 0.0)


def test_constant_column_gets_no_weight():
    rng = random.Random(21)
    word_ids = [f"w{i:02d}" for i in range(20)]
    labels = {w: int(i < 8) for i, w in enumerate(word_ids)}
    syntax = [0.6 + rng.random() * 0.3 if labels[w] else rng.random() * 0.5 for w in word_ids]
    matrix = matrix_from([[0.1, d] for d in syntax], columns=["Case", "syntax"],
                         word_ids=word_ids)
    standardized, constant = standardize(matrix)
    assert constant == ["Case"]
    result = train_logreg(standardized, labels)
    assert result.coefficients[0] == 0.0
    assert result.positive_categories == ["syntax"]


def test_standardize_moments():
    rng = np.random.default_rng(16)
    matrix = matrix_from(rng.random((40, 5)))
    out, _ = standardize(matrix)
    for j in range(5):
        assert abs(out.values[:, j].mean()) < 1e-9
        assert abs(out.values[:, j].var() - 1.0) < 1e-9


def test_standardize_needs_two_rows():
    with pytest.raises(DataError):
        standardize(matrix_from([[1.0]]))


# ----------------------------------------------------------------------
# feature matrix assembly

def small_profiles():
    profiles = {}
    profiles[("lass", "old")] = Profile({"Number=Sing": 70, "Number=Plur": 30},
                                        {"nsubj": 100}, 100)
    profiles[("lass", "new")] = Profile({"Number=Sing": 95, "Number=Plur": 5},
                                        {"nsubj": 60, "obj": 40}, 100)
    profiles[("walk", "old")] = Profile({"Tense=Past": 10}, {"root": 10}, 10)
    profiles[("walk", "new")] = Profile({"Tense=Pres": 10}, {"root": 10}, 10)
    return profiles


def test_build_feature_matrix():
    matrix = build_feature_matrix(small_profiles(), ("old", "new"), MethodConfig())
    assert matrix.columns == ["Number", "Tense", "syntax"]
    assert matrix.word_ids == ["lass", "walk"]
    lass, walk = 0, 1
    number, tense, syntax = 0, 1, 2
    assert matrix.missing[lass, tense] and not matrix.missing[lass, number]
    assert matrix.values[lass, tense] == 0.0
    assert matrix.missing[walk, number]
    assert matrix.values[walk, tense] == 1.0  # Past -> Pres is orthogonal
    assert not matrix.missing[lass, syntax]
    assert np.all((matrix.values >= 0) & (matrix.values <= 1))


def test_feats_category_named_like_the_syntax_column_is_rejected():
    profiles = small_profiles()
    profiles[("lass", "old")] = Profile({"Number=Sing|syntax=Yes": 70, "Number=Plur": 30},
                                        {"nsubj": 100}, 100)
    with pytest.raises(DataError, match="word 'lass' has a FEATS category named 'syntax'"):
        build_feature_matrix(profiles, ("old", "new"), MethodConfig())


def test_feature_matrix_columns_are_the_categories_its_words_express():
    lass_only = {key: p for key, p in small_profiles().items() if key[0] == "lass"}
    matrix = build_feature_matrix(lass_only, ("old", "new"), MethodConfig())
    assert matrix.word_ids == ["lass"]
    assert matrix.columns == ["Number", "syntax"]  # only walk expresses Tense


# ----------------------------------------------------------------------
# logistic regression

def separable_matrix(rng, n_per_class=10, noise_columns=2):
    rows = []
    labels = {}
    word_ids = []
    for i in range(2 * n_per_class):
        word = f"w{i:03d}"
        word_ids.append(word)
        changed = i < n_per_class
        labels[word] = int(changed)
        informative = rng.uniform(0.7, 0.9) if changed else rng.uniform(0.0, 0.2)
        rows.append([informative] + [rng.random() for _ in range(noise_columns)])
    matrix = matrix_from(rows, columns=["signal"]
                         + [f"noise{j}" for j in range(noise_columns)],
                         word_ids=word_ids)
    return matrix, labels


def test_logreg_finds_informative_column():
    rng = random.Random(17)
    matrix, labels = separable_matrix(rng)
    standardized, _ = standardize(matrix)
    result = train_logreg(standardized, labels)
    assert result.converged
    assert result.positive_categories[0] == "signal"
    assert result.coefficients[0] > 0
    assert result.train_accuracy == 1.0
    assert result.train_macro_f1 == 1.0


def test_logreg_no_signal_predicts_majority():
    word_ids = [f"w{i}" for i in range(10)]
    labels = {w: int(i < 3) for i, w in enumerate(word_ids)}
    matrix = matrix_from(np.zeros((10, 2)), word_ids=word_ids)
    result = train_logreg(matrix, labels)
    assert np.all(np.abs(result.coefficients) < 1e-6)
    assert result.train_accuracy == 0.7


def test_logreg_label_flip_negates_coefficients():
    rng = random.Random(18)
    matrix, labels = separable_matrix(rng)
    standardized, _ = standardize(matrix)
    result = train_logreg(standardized, labels)
    flipped = train_logreg(standardized, {w: 1 - v for w, v in labels.items()})
    np.testing.assert_allclose(result.coefficients, -flipped.coefficients,
                               atol=1e-6)
    assert abs(result.intercept + flipped.intercept) < 1e-6


def test_logreg_row_duplication_invariance():
    rng = random.Random(19)
    matrix, labels = separable_matrix(rng, n_per_class=5, noise_columns=1)
    standardized, _ = standardize(matrix)
    result = train_logreg(standardized, labels)

    doubled_values = np.vstack([standardized.values, standardized.values])
    doubled_ids = standardized.word_ids + [w + "x" for w in standardized.word_ids]
    doubled = matrix_from(doubled_values, columns=list(standardized.columns),
                          word_ids=doubled_ids)
    doubled_labels = dict(labels)
    doubled_labels.update({w + "x": v for w, v in labels.items()})
    doubled_result = train_logreg(doubled, doubled_labels)
    np.testing.assert_allclose(result.coefficients, doubled_result.coefficients,
                               atol=1e-6)


def test_logreg_iteration_cap_warns_and_reports_not_converged(monkeypatch, caplog):
    monkeypatch.setattr(analysis, "LOGREG_MAX_ITERATIONS", 3)
    matrix, labels = separable_matrix(random.Random(17))
    standardized, _ = standardize(matrix)
    with caplog.at_level(logging.WARNING, logger="gramprof.analysis"):
        result = train_logreg(standardized, labels)
    assert not result.converged and result.iterations == 3
    assert [r.getMessage() for r in caplog.records] == [
        "logistic regression hit the 3-iteration cap (gradient max-norm still above 1e-08)"]


def test_logreg_single_class_rejected():
    matrix = matrix_from([[0.1], [0.2]], word_ids=["a", "b"])
    with pytest.raises(DataError):
        train_logreg(matrix, {"a": 1, "b": 1})


def test_logreg_word_mismatch_rejected():
    matrix = matrix_from([[0.1], [0.2]], word_ids=["a", "b"])
    with pytest.raises(DataError):
        train_logreg(matrix, {"a": 1, "c": 0})


# ----------------------------------------------------------------------
# per-category correlations

def test_p_value_for_moderate_rho():
    p = spearman_p_value(0.402, 32)
    t = 0.402 * math.sqrt(30 / (1 - 0.402 ** 2))
    assert t == pytest.approx(2.4047, abs=1e-4)
    assert p == pytest.approx(student_t_two_tailed_oracle(t, 30), abs=1e-12)
    assert p == pytest.approx(0.0225, abs=5e-4)
    assert p < 0.05


def test_p_value_matches_oracle_randomly():
    rng = random.Random(20)
    for _ in range(100):
        rho = rng.uniform(-0.999, 0.999)
        n = rng.randrange(5, 120)
        t = rho * math.sqrt((n - 2) / (1 - rho * rho))
        assert spearman_p_value(rho, n) \
            == pytest.approx(student_t_two_tailed_oracle(t, n - 2), abs=1e-10)


def test_p_value_bit_identical_to_scipy_stats_t_tail():
    scipy_stats = pytest.importorskip("scipy.stats")
    rhos = [k / 100 for k in range(-99, 100)] + [-0.999999, 0.999999, 1e-9]
    for n in range(3, 501):
        ts = np.array([rho * math.sqrt((n - 2) / (1.0 - rho * rho)) for rho in rhos])
        expected = 2.0 * scipy_stats.t.sf(np.abs(ts), n - 2)
        actual = np.array([spearman_p_value(rho, n) for rho in rhos])
        assert actual.tobytes() == expected.tobytes(), n


def test_p_value_monotone_in_rho():
    previous = 1.1
    for rho in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        p = spearman_p_value(rho, 20)
        assert p < previous
        previous = p
    assert spearman_p_value(1.0, 20) == 0.0


def test_correlation_identical_column_is_significant():
    gold = {f"w{i}": float(i) for i in range(6)}
    values = np.array([[float(i), 0.3] for i in range(6)])
    matrix = matrix_from(values, columns=["tracks_gold", "flat"],
                         word_ids=list(gold))
    results = category_correlations(matrix, gold)
    assert list(results) == ["tracks_gold", "flat"]
    tracked = results["tracks_gold"]
    assert tracked.rho == pytest.approx(1.0)
    assert tracked.significant
    flat = results["flat"]
    assert flat.rho is None and not flat.significant and flat.note


def test_correlation_false_positive_rate():
    rng = np.random.default_rng(21)
    gold = {f"w{i}": float(v) for i, v in enumerate(rng.random(12))}
    significant = 0
    trials = 1500
    for _ in range(trials):
        matrix = matrix_from(rng.random((12, 1)), columns=["noise"],
                             word_ids=list(gold))
        result = category_correlations(matrix, gold)["noise"]
        significant += int(result.significant)
    rate = significant / trials
    assert 0.01 < rate < 0.10  # nominal 5% under the null


def test_correlation_needs_five_words():
    gold = {f"w{i}": float(i) for i in range(4)}
    matrix = matrix_from(np.random.default_rng(0).random((4, 1)),
                         word_ids=list(gold))
    with pytest.raises(DataError):
        category_correlations(matrix, gold)


def test_correlation_missing_as_absent():
    gold = {f"w{i}": float(i) for i in range(8)}
    values = np.zeros((8, 1))
    values[:4, 0] = [0.9, 0.7, 0.5, 0.3]
    missing = np.zeros((8, 1), dtype=bool)
    missing[4:, 0] = True
    matrix = matrix_from(values, columns=["partial"], word_ids=list(gold),
                         missing=missing)
    kept = category_correlations(matrix, gold, missing_as_absent=False)["partial"]
    assert kept.n == 8
    dropped = category_correlations(matrix, gold, missing_as_absent=True)["partial"]
    assert dropped.n == 4
    assert dropped.note == "insufficient data"


def test_correlation_invariant_under_monotone_gold_transform():
    rng = np.random.default_rng(22)
    gold_values = rng.random(10)
    gold = {f"w{i}": float(v) for i, v in enumerate(gold_values)}
    stretched = {w: math.exp(4 * v) for w, v in gold.items()}
    matrix = matrix_from(rng.random((10, 2)), word_ids=list(gold))
    original = category_correlations(matrix, gold)
    transformed = category_correlations(matrix, stretched)
    assert original.keys() == transformed.keys()
    for column, before in original.items():
        assert before.rho == pytest.approx(transformed[column].rho, abs=1e-12)


def test_exact_p_value():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert exact_spearman_p_value(x, x) == pytest.approx(2 / 120)
    with pytest.raises(ConfigError):
        exact_spearman_p_value(np.arange(11.0), np.arange(11.0))


def test_exact_p_value_matches_the_rational_oracle_with_ties():
    rng = random.Random(24)
    checked = 0
    for _ in range(40):
        n = rng.randrange(3, 7)
        x = [rng.randrange(0, 3) for _ in range(n)]
        y = [rng.randrange(0, 4) for _ in range(n)]
        if len(set(x)) == 1 or len(set(y)) == 1:
            continue
        assert exact_spearman_p_value(x, y) == float(exact_spearman_p_oracle(x, y))
        checked += 1
    assert checked > 25


def test_exact_p_roughly_tracks_t_approximation():
    rng = np.random.default_rng(23)
    x = rng.random(7)
    y = rng.random(7)
    from gramprof.evaluation import rank_correlation
    rho = rank_correlation(x, y)
    exact = exact_spearman_p_value(x, y)
    approx = spearman_p_value(rho, 7)
    assert abs(exact - approx) < 0.15


# ----------------------------------------------------------------------
# timeline

def lass_profiles():
    return {
        "old": Profile({"Number=Sing": 338, "Number=Plur": 114},
                       {"nsubj": 452}, 452),
        "new": Profile({"Number=Sing": 90, "Number=Plur": 10},
                       {"nsubj": 100}, 100),
    }


def test_timeline_proportions():
    rows = timeline(lass_profiles(), "Number")
    assert [(r.period, r.value) for r in rows] == [
        ("old", "Plur"), ("old", "Sing"), ("new", "Plur"), ("new", "Sing")]
    by_period = {}
    for row in rows:
        by_period.setdefault(row.period, 0.0)
        by_period[row.period] += row.proportion
    for total in by_period.values():
        assert total == pytest.approx(1.0, abs=1e-12)
    old_plur = rows[0]
    assert old_plur.count == 114
    assert old_plur.proportion == pytest.approx(114 / 452)


def test_timeline_zero_fills_absent_value():
    profiles = lass_profiles()
    profiles["new"].morph = {"Number=Sing": 100}
    rows = timeline(profiles, "Number")
    new_plur = next(r for r in rows if r.period == "new" and r.value == "Plur")
    assert new_plur.count == 0
    assert new_plur.proportion == 0.0


def test_timeline_single_period():
    rows = timeline({"only": Profile({"Case=Nom": 5}, {"root": 5}, 5)}, "Case")
    assert len(rows) == 1


def test_timeline_syntax():
    rows = timeline(lass_profiles(), "syntax")
    assert {r.value for r in rows} == {"nsubj"}
    assert all(r.proportion == 1.0 for r in rows)


def test_timeline_unknown_category_lists_available():
    with pytest.raises(DataError) as err:
        timeline(lass_profiles(), "Tense")
    assert "Number" in str(err.value)
    assert "syntax" in str(err.value)
