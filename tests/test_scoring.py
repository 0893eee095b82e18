import random

import numpy as np
import pytest

from gramprof.errors import ConfigError, DataError
from gramprof.profiles import Profile, build_vectors, separate_categories
from gramprof.scoring import (MethodConfig, combine_append_max, combine_average,
                              cosine_distance, filter_rare, score_basic,
                              score_separated, score_word_pair, score_period_pair)

from oracles import cosine_distance_oracle

from test_profiles import VERB_MORPH

# frozen from the exact-rational oracle: 1 - 56600 / sqrt(127240 * 50000)
NOUN_COUNTS_DISTANCE = 0.2903902095519114
# frozen from the oracle: 1 - 3200/6800 = 9/17
FLIPPED_NUMBER_DISTANCE = 0.5294117647058824


def default_config(**overrides):
    settings = dict(feature_kind="morphology", separation=False,
                    filter_threshold=0.05)
    settings.update(overrides)
    return MethodConfig(**settings)


# ----------------------------------------------------------------------
# cosine distance

def test_cosine_identity():
    assert cosine_distance([3, 1, 4], [3, 1, 4]) == 0.0


def test_cosine_orthogonal():
    assert cosine_distance([1, 0], [0, 1]) == 1.0


def test_cosine_frozen_example():
    assert abs(cosine_distance([338, 114], [100, 200]) - NOUN_COUNTS_DISTANCE) < 1e-12
    assert abs(cosine_distance_oracle([338, 114], [100, 200])
               - NOUN_COUNTS_DISTANCE) < 1e-15


def test_cosine_zero_profile_rules():
    assert cosine_distance([1, 2], [0, 0]) == 1.0
    assert cosine_distance([0, 0], [1, 2], zero_profile_distance=0.7) == 0.7
    assert cosine_distance([0, 0], [0, 0]) == 0.0
    assert cosine_distance([], []) == 0.0


def test_cosine_length_mismatch():
    with pytest.raises(ValueError):
        cosine_distance([1, 2], [1])


def test_cosine_matches_oracle_random():
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randrange(1, 30)
        v_a = [rng.randrange(0, 500) for _ in range(n)]
        v_b = [rng.randrange(0, 500) for _ in range(n)]
        assert abs(cosine_distance(v_a, v_b)
                   - cosine_distance_oracle(v_a, v_b)) < 1e-12


def test_cosine_bit_identical_to_float64_formula():
    # score files print 6 decimals, but the analysis reports print full
    # floats: the count-vector cosine must equal the float64 reference
    # 1 - dot / (norm_a * norm_b) bit for bit
    rng = random.Random(44)
    for _ in range(2000):
        n = rng.randrange(1, 12)
        v_a = [rng.randrange(0, 5000) for _ in range(n)]
        v_b = [rng.randrange(1, 5000) for _ in range(n)]
        if not any(v_a) or v_a == v_b:
            continue
        a = np.asarray(v_a, dtype=np.float64)
        b = np.asarray(v_b, dtype=np.float64)
        similarity = float(np.dot(a, b)) / (float(np.linalg.norm(a))
                                            * float(np.linalg.norm(b)))
        assert cosine_distance(v_a, v_b) == min(1.0, max(0.0, 1.0 - similarity))


def test_cosine_symmetry_and_bounds():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randrange(1, 20)
        v_a = [rng.randrange(0, 100) for _ in range(n)]
        v_b = [rng.randrange(0, 100) for _ in range(n)]
        d_ab = cosine_distance(v_a, v_b)
        d_ba = cosine_distance(v_b, v_a)
        assert d_ab == d_ba
        assert 0.0 <= d_ab <= 1.0


def test_cosine_scale_invariance():
    rng = random.Random(43)
    for _ in range(200):
        n = rng.randrange(1, 20)
        v_a = [rng.randrange(1, 100) for _ in range(n)]
        v_b = [rng.randrange(1, 100) for _ in range(n)]
        scale = rng.choice([2, 3, 10, 250])
        scaled = [scale * v for v in v_a]
        assert abs(cosine_distance(v_a, v_b)
                   - cosine_distance(scaled, v_b)) < 1e-12


# ----------------------------------------------------------------------
# filtering

def test_filter_below_threshold_removed():
    # joint count 4 against 5% of 100 usages: strictly below, removed
    a, b = filter_rare({"x": 2, "keep": 58}, {"x": 2, "keep": 38}, 60, 40, 0.05)
    assert "x" not in a and "x" not in b
    assert "keep" in a and "keep" in b


def test_filter_exactly_at_threshold_survives():
    a, b = filter_rare({"x": 3}, {"x": 2}, 60, 40, 0.05)
    assert a == {"x": 3} and b == {"x": 2}


def test_filter_zero_threshold_keeps_everything():
    counts_a = {"x": 1, "y": 9}
    counts_b = {"z": 1}
    a, b = filter_rare(counts_a, counts_b, 10, 1, 0.0)
    assert a == counts_a and b == counts_b


def test_filter_zero_totals_is_identity():
    a, b = filter_rare({"x": 1}, {}, 0, 0, 0.05)
    assert a == {"x": 1} and b == {}


def test_filter_removes_from_both_sides():
    a, b = filter_rare({"x": 1}, {"x": 1, "y": 98}, 1, 99, 0.05)
    assert a == {} and b == {"y": 98}


def test_filter_per_period_reading():
    # joint count 6: below 5% of period a's 200 usages, not below 5% of
    # period b's 100
    a, b = filter_rare({"x": 3, "pad": 197}, {"x": 3, "pad": 97}, 200, 100, 0.05,
                       per_period=True)
    assert "x" not in a
    assert b["x"] == 3


def test_filter_monotone_in_threshold():
    rng = random.Random(44)
    for _ in range(100):
        keys = [f"k{i}" for i in range(rng.randrange(1, 8))]
        counts_a = {k: rng.randrange(0, 30) for k in keys}
        counts_b = {k: rng.randrange(0, 30) for k in keys}
        counts_a = {k: v for k, v in counts_a.items() if v}
        counts_b = {k: v for k, v in counts_b.items() if v}
        total_a = sum(counts_a.values())
        total_b = sum(counts_b.values())
        previous = None
        for threshold in (0.0, 0.02, 0.05, 0.1, 0.3, 0.9):
            a, b = filter_rare(counts_a, counts_b, total_a, total_b, threshold)
            surviving = set(a) | set(b)
            if previous is not None:
                assert surviving <= previous
            previous = surviving


def test_filter_bad_threshold():
    with pytest.raises(ConfigError):
        filter_rare({}, {}, 1, 1, 1.5)


# ----------------------------------------------------------------------
# basic scoring

def test_score_basic_identical_profiles():
    profile = Profile("w", "a", {"Number=Sing": 5}, {"nsubj": 5}, 5)
    other = Profile("w", "b", {"Number=Sing": 5}, {"nsubj": 5}, 5)
    assert score_basic(profile, other, "morphology", default_config()) == 0.0
    assert score_basic(profile, other, "syntax", default_config()) == 0.0


def test_score_basic_word_vanished():
    present = Profile("w", "a", {"Number=Sing": 5}, {"nsubj": 5}, 5)
    absent = Profile("w", "b", {}, {}, 0)
    assert score_basic(present, absent, "morphology", default_config()) == 1.0


def test_score_basic_rare_forms_filtered_to_zero_distance():
    # the two single-occurrence word forms fall below the 5% cutoff in
    # both periods; the surviving features coincide, so no change
    profile_a = Profile("circle", "a", dict(VERB_MORPH), {"root": 102}, 102)
    profile_b = Profile("circle", "b", dict(VERB_MORPH), {"root": 102}, 102)
    assert score_basic(profile_a, profile_b, "morphology", default_config()) == 0.0
    filtered_a, _ = filter_rare(profile_a.morph, profile_b.morph, 102, 102, 0.05)
    assert set(filtered_a) == {
        "Tense=Pres|VerbForm=Part", "Mood=Ind|Tense=Past|VerbForm=Fin",
        "Tense=Past|VerbForm=Part|Voice=Pass", "VerbForm=Inf",
    }


def test_score_basic_mismatched_words():
    with pytest.raises(ValueError):
        score_basic(Profile("a", "x"), Profile("b", "y"), "morphology",
                    default_config())


# ----------------------------------------------------------------------
# category separation

def flipped_number_profiles():
    profile_a = Profile("w", "a", {"Number=Sing": 80, "Number=Plur": 20},
                        {"nsubj": 100}, 100)
    profile_b = Profile("w", "b", {"Number=Sing": 20, "Number=Plur": 80},
                        {"nsubj": 100}, 100)
    return separate_categories(profile_a), separate_categories(profile_b)


def test_score_separated_flipped_number():
    cat_a, cat_b = flipped_number_profiles()
    per_category, aggregate = score_separated(cat_a, cat_b, default_config())
    assert abs(per_category["Number"] - FLIPPED_NUMBER_DISTANCE) < 1e-12
    assert abs(aggregate - FLIPPED_NUMBER_DISTANCE) < 1e-12
    v_a, v_b = build_vectors(cat_a.categories["Number"], cat_b.categories["Number"])
    assert abs(cosine_distance_oracle(v_a, v_b) - FLIPPED_NUMBER_DISTANCE) < 1e-15


def test_score_separated_max_ignores_stable_category():
    profile_a = Profile("w", "a",
                        {"Case=Nom|Number=Sing": 80, "Case=Nom|Number=Plur": 20},
                        {"nsubj": 100}, 100)
    profile_b = Profile("w", "b",
                        {"Case=Nom|Number=Sing": 20, "Case=Nom|Number=Plur": 80},
                        {"nsubj": 100}, 100)
    per_category, aggregate = score_separated(separate_categories(profile_a),
                                              separate_categories(profile_b),
                                              default_config())
    assert per_category["Case"] == 0.0
    assert abs(aggregate - FLIPPED_NUMBER_DISTANCE) < 1e-12


def test_score_separated_identical_profiles():
    cat = separate_categories(
        Profile("w", "a", dict(VERB_MORPH), {"root": 102}, 102))
    per_category, aggregate = score_separated(cat, cat, default_config())
    assert all(d == 0.0 for d in per_category.values())
    assert aggregate == 0.0


def test_score_separated_mean_aggregation():
    cat_a, cat_b = flipped_number_profiles()
    # add a stable category so max and mean differ
    cat_a.categories["Case"] = {"Nom": 50, "Acc": 50}
    cat_b.categories["Case"] = {"Nom": 50, "Acc": 50}
    _, aggregate_max = score_separated(cat_a, cat_b, default_config())
    _, aggregate_mean = score_separated(cat_a, cat_b,
                                        default_config(aggregation="mean"))
    assert abs(aggregate_max - FLIPPED_NUMBER_DISTANCE) < 1e-12
    assert abs(aggregate_mean - FLIPPED_NUMBER_DISTANCE / 2) < 1e-12
    assert aggregate_max >= aggregate_mean >= 0.0


def test_score_separated_category_in_one_period_only():
    profile_a = Profile("w", "a", {"Number=Sing|Voice=Pass": 40}, {"root": 40}, 40)
    profile_b = Profile("w", "b", {"Number=Sing": 40}, {"root": 40}, 40)
    per_category, aggregate = score_separated(separate_categories(profile_a),
                                              separate_categories(profile_b),
                                              default_config())
    assert per_category["Voice"] == 1.0
    assert per_category["Number"] == 0.0
    assert aggregate == 1.0


def test_score_separated_filtering_happens_after_separation():
    # rare combined forms survive as category mass: the single
    # Tense=Past|VerbForm=Part occurrence is dropped by whole-form
    # filtering but still feeds the Tense distribution
    morph_a = {"Tense=Pres|VerbForm=Part": 95, "Tense=Past|VerbForm=Part": 5}
    morph_b = {"Tense=Pres|VerbForm=Part": 5, "Tense=Past|VerbForm=Part": 95}
    profile_a = Profile("w", "a", morph_a, {"root": 100}, 100)
    profile_b = Profile("w", "b", morph_b, {"root": 100}, 100)
    per_category, _ = score_separated(separate_categories(profile_a),
                                      separate_categories(profile_b),
                                      default_config())
    assert per_category["Tense"] > 0.5
    assert per_category["VerbForm"] == 0.0


def test_score_separated_no_categories():
    empty = separate_categories(Profile("w", "a", {}, {"root": 3}, 3))
    per_category, aggregate = score_separated(empty, empty, default_config())
    assert per_category == {}
    assert aggregate is None


# ----------------------------------------------------------------------
# combinations

def test_combine_average():
    assert combine_average(0.2, 0.4) == pytest.approx(0.3)
    assert combine_average(0.0, 0.0) == 0.0
    assert combine_average(1.0, 0.0) == 0.5
    assert combine_average(None, 0.4) == 0.4
    assert combine_average(0.2, None) == 0.2
    with pytest.raises(DataError):
        combine_average(None, None)


def test_combine_append_max():
    assert combine_append_max({"Tense": 0.1, "Number": 0.3}, 0.5) == 0.5
    assert combine_append_max({"Tense": 0.6}, 0.2) == 0.6
    assert combine_append_max({}, 0.4) == 0.4
    with pytest.raises(DataError):
        combine_append_max({}, None)


def test_combination_dominates_morphology_max():
    rng = random.Random(45)
    for _ in range(100):
        per_category = {f"c{i}": rng.random() for i in range(rng.randrange(1, 5))}
        d_synt = rng.random()
        assert combine_append_max(per_category, d_synt) >= max(per_category.values())


# ----------------------------------------------------------------------
# method dispatch

def test_method_config_validation():
    with pytest.raises(ConfigError):
        MethodConfig(feature_kind="combination", separation=False)
    with pytest.raises(ConfigError):
        MethodConfig(filter_threshold=1.0)
    with pytest.raises(ConfigError):
        MethodConfig(filter_threshold=-0.1)
    with pytest.raises(ConfigError):
        MethodConfig(zero_profile_distance=1.5)
    with pytest.raises(ConfigError):
        MethodConfig(feature_kind="frequency")
    with pytest.raises(ConfigError):
        MethodConfig(aggregation="median")


def word_profiles():
    profile_a = Profile("w", "a", {"Number=Sing": 80, "Number=Plur": 20},
                        {"nsubj": 60, "obj": 40}, 100)
    profile_b = Profile("w", "b", {"Number=Sing": 20, "Number=Plur": 80},
                        {"nsubj": 100}, 100)
    return profile_a, profile_b


def test_score_word_pair_morphology():
    profile_a, profile_b = word_profiles()
    score = score_word_pair(profile_a, profile_b, default_config())
    assert score.d_synt is None
    assert abs(score.aggregate - FLIPPED_NUMBER_DISTANCE) < 1e-12
    assert score.period_pair == ("a", "b")


def test_score_word_pair_syntax():
    profile_a, profile_b = word_profiles()
    score = score_word_pair(profile_a, profile_b,
                            default_config(feature_kind="syntax"))
    assert score.d_morph is None
    expected = cosine_distance_oracle([60, 40], [100, 0])
    assert abs(score.aggregate - expected) < 1e-12


def test_score_word_pair_average():
    profile_a, profile_b = word_profiles()
    morph = score_word_pair(profile_a, profile_b, default_config()).aggregate
    synt = score_word_pair(profile_a, profile_b,
                           default_config(feature_kind="syntax")).aggregate
    average = score_word_pair(profile_a, profile_b,
                              default_config(feature_kind="average"))
    assert abs(average.aggregate - (morph + synt) / 2) < 1e-12


def test_score_word_pair_combination():
    profile_a, profile_b = word_profiles()
    config = default_config(feature_kind="combination", separation=True)
    score = score_word_pair(profile_a, profile_b, config)
    assert score.per_category["Number"] == pytest.approx(FLIPPED_NUMBER_DISTANCE)
    assert score.aggregate == max(list(score.per_category.values()) + [score.d_synt])


def test_score_word_pair_separated_morphology_fallback():
    # no morphological features in either period: the zero-profile
    # policy decides the rank
    profile_a = Profile("w", "a", {}, {"root": 3}, 3)
    profile_b = Profile("w", "b", {}, {"root": 3}, 3)
    config = default_config(separation=True)
    score = score_word_pair(profile_a, profile_b, config)
    assert score.aggregate == config.zero_profile_distance


def test_score_word_pair_symmetry():
    profile_a, profile_b = word_profiles()
    for config in (default_config(),
                   default_config(feature_kind="syntax"),
                   default_config(feature_kind="average"),
                   default_config(separation=True),
                   default_config(feature_kind="combination", separation=True)):
        forward = score_word_pair(profile_a, profile_b, config).aggregate
        backward = score_word_pair(profile_b, profile_a, config).aggregate
        assert forward == pytest.approx(backward, abs=1e-12)


def test_score_period_pair_sorted_and_complete():
    profiles = {}
    for word in ("b", "a", "c"):
        profiles[(word, "old")] = Profile(word, "old", {"Number=Sing": 2},
                                          {"nsubj": 2}, 2)
        profiles[(word, "new")] = Profile(word, "new", {"Number=Plur": 2},
                                          {"obj": 2}, 2)
    scores = score_period_pair(profiles, ("old", "new"), default_config())
    assert [s.word_id for s in scores] == ["a", "b", "c"]


def test_score_period_pair_missing_profile():
    profiles = {("a", "old"): Profile("a", "old")}
    with pytest.raises(DataError):
        score_period_pair(profiles, ("old", "new"), default_config())


def test_method_describe_is_deterministic():
    config = default_config(feature_kind="combination", separation=True)
    assert config.describe() == MethodConfig(
        feature_kind="combination", separation=True).describe()
    assert "combination" in config.describe()
