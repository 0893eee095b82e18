import random

import pytest

from gramprof.evaluation import average_binary, classify_changepoint, classify_topn, rank_words
from gramprof.errors import DataError

from oracles import best_split_oracle, topn_count_oracle


def ranking_of(scores):
    return rank_words(scores)


def test_rank_words_descending():
    assert rank_words({"a": 0.2, "b": 0.9}) == [("b", 0.9), ("a", 0.2)]


def test_rank_words_tie_breaks_by_word_id():
    assert rank_words({"b": 0.5, "a": 0.5}) == [("a", 0.5), ("b", 0.5)]


def test_rank_words_singleton():
    assert rank_words({"only": 0.1}) == [("only", 0.1)]


def test_rank_words_empty():
    with pytest.raises(DataError):
        rank_words({})


def test_rank_words_is_permutation():
    rng = random.Random(7)
    for _ in range(50):
        scores = {f"w{i}": rng.random() for i in range(rng.randrange(1, 30))}
        ranking = rank_words(scores)
        assert {word for word, _ in ranking} == set(scores)
        values = [score for _, score in ranking]
        assert values == sorted(values, reverse=True)


def test_classify_topn_ratio_43_of_37():
    ranking = [(f"w{i:02d}", 1.0 - i / 100) for i in range(37)]
    labels = classify_topn(ranking, 0.43)
    assert sum(labels.values()) == 16
    assert all(labels[w] == 1 for w, _ in ranking[:16])


def test_classify_topn_extremes():
    ranking = [(f"w{i}", 1.0 - i / 10) for i in range(5)]
    assert sum(classify_topn(ranking, 0.0).values()) == 0
    assert sum(classify_topn(ranking, 1.0).values()) == 5


def test_classify_topn_count_property():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randrange(1, 60)
        ratio = rng.random()
        ranking = [(f"w{i:03d}", rng.random()) for i in range(n)]
        ranking.sort(key=lambda item: (-item[1], item[0]))
        labels = classify_topn(ranking, ratio)
        assert sum(labels.values()) == topn_count_oracle(ratio, n)


def test_classify_topn_reads_the_ratio_as_its_decimal():
    """0.29 * 50 is 14.499999999999998 in floats, but 0.29 of 50 words
    is 14.5, which rounds half up to 15."""
    assert sum(classify_topn([(f"w{i:02d}", 1.0) for i in range(50)], 0.29).values()) == 15
    for n in range(1, 201):
        ranking = [(f"w{i:03d}", 1.0 - i / 1000) for i in range(n)]
        for hundredths in range(1, 100):
            ratio = hundredths / 100
            labels = classify_topn(ranking, ratio)
            count = topn_count_oracle(ratio, n)
            assert [labels[w] for w, _ in ranking] == [1] * count + [0] * (n - count), \
                (ratio, n)


def test_changepoint_two_level_example():
    ranking = ranking_of({"a": 0.9, "b": 0.85, "c": 0.2, "d": 0.15, "e": 0.1})
    labels = classify_changepoint(ranking)
    assert labels == {"a": 1, "b": 1, "c": 0, "d": 0, "e": 0}


def test_changepoint_linear_scores_match_oracle():
    scores = [0.5, 0.4, 0.3, 0.2]
    ranking = [(f"w{i}", s) for i, s in enumerate(scores)]
    labels = classify_changepoint(ranking)
    expected_split = best_split_oracle(scores)
    assert expected_split == 2
    assert sum(labels.values()) == expected_split


def test_changepoint_plateaus():
    ranking = [(f"w{i}", s) for i, s in enumerate([1, 1, 1, 0, 0, 0])]
    labels = classify_changepoint(ranking)
    assert [labels[w] for w, _ in ranking] == [1, 1, 1, 0, 0, 0]


def test_changepoint_needs_three_words():
    with pytest.raises(DataError):
        classify_changepoint([("a", 1.0), ("b", 0.0)])


def test_changepoint_labels_are_a_prefix():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randrange(3, 40)
        ranking = rank_words({f"w{i:02d}": rng.random() for i in range(n)})
        labels = classify_changepoint(ranking)
        sequence = [labels[w] for w, _ in ranking]
        assert sorted(sequence, reverse=True) == sequence
        assert 1 <= sum(sequence) <= n - 1


def test_changepoint_matches_exhaustive_oracle():
    rng = random.Random(10)
    for _ in range(200):
        n = rng.randrange(3, 13)
        scores = sorted((round(rng.random(), 3) for _ in range(n)), reverse=True)
        ranking = [(f"w{i:02d}", s) for i, s in enumerate(scores)]
        labels = classify_changepoint(ranking)
        assert sum(labels.values()) == best_split_oracle(scores)


def test_changepoint_splits_where_both_segments_are_flat():
    # [1, 1, 0, 0]: the middle split costs 0, every other split more
    ranking = [(f"w{i}", s) for i, s in enumerate([1.0, 1.0, 0.0, 0.0])]
    assert [label for _, label in sorted(classify_changepoint(ranking).items())] \
        == [1, 1, 0, 0]


def test_changepoint_matches_exhaustive_oracle_on_tied_scores():
    """Scores with one or two decimals repeat and their segment costs
    tie or nearly tie, which a float cost comparison can misorder
    (e.g. [0.8, 0.5, 0.4, 0.2, 0.1]); the exact search must pick the
    oracle's lowest-index argmin at every length up to 200."""
    rng = random.Random(13)
    sizes = [3 + trial % 10 for trial in range(400)] + list(range(25, 201, 58))
    for trial, n in enumerate(sizes):
        digits = 1 + trial % 2
        scores = sorted((round(rng.random(), digits) for _ in range(n)), reverse=True)
        ranking = [(f"w{i:03d}", s) for i, s in enumerate(scores)]
        assert sum(classify_changepoint(ranking).values()) == best_split_oracle(scores)


def test_changepoint_matches_exhaustive_oracle_on_extreme_and_tied_scores():
    """Scaled to integers by the largest power-of-two denominator, the
    search stays exact across 5e-324, 1e300, negative scores, thirds and
    exact ties: its split is the oracle's lowest-index argmin."""
    rng = random.Random(14)
    pool = [0.0, 5e-324, 1e-300, 1e300, -1e300, -5e-324, 1 / 3, -1 / 3, 2 / 3, 0.5, -0.5,
            1.0, 3.0]
    for trial in range(600):
        n = 3 + trial % 12
        draw = rng.sample(pool, rng.randrange(1, 5))
        scores = sorted((rng.choice(draw) for _ in range(n)), reverse=True)
        ranking = [(f"w{i:02d}", s) for i, s in enumerate(scores)]
        assert sum(classify_changepoint(ranking).values()) == best_split_oracle(scores), \
            scores


def test_rank_and_topn_invariant_under_monotone_transform():
    rng = random.Random(12)
    for _ in range(50):
        scores = {f"w{i:02d}": rng.random() for i in range(20)}
        transformed = {w: 3.0 * s ** 3 + 1.0 for w, s in scores.items()}
        assert [w for w, _ in rank_words(scores)] \
            == [w for w, _ in rank_words(transformed)]
        assert classify_topn(rank_words(scores), 0.43) \
            == classify_topn(rank_words(transformed), 0.43)


def test_average_binary():
    assert average_binary({"a": 1}, {"a": 1}) == {"a": 1}
    assert average_binary({"a": 0}, {"a": 0}) == {"a": 0}
    assert average_binary({"a": 1}, {"a": 0}) == {"a": 1}
    assert average_binary({"a": 0}, {"a": 1}) == {"a": 1}


def test_average_binary_key_mismatch():
    with pytest.raises(DataError) as err:
        average_binary({"a": 1, "b": 0}, {"a": 1, "c": 0})
    assert "b" in str(err.value) and "c" in str(err.value)
