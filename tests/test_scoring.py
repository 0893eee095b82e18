import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest

from gramprof.decision import classify_topn
from gramprof.errors import ConfigError, DataError, decimal_ratio
from gramprof.profiles import Profile, build_vectors, separate_categories
from gramprof.scoring import (MethodConfig, cosine_distance, filter_rare, score_basic,
                              score_separated, score_word_pair, score_period_pair)

import synth
from oracles import cosine_distance_oracle, filter_keeps_oracle

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


def cosine_distance_generator_form(v_a, v_b, zero_profile_distance=1.0):
    """cosine_distance's formula with each sum written as a generator
    expression over the elements, in the same order."""
    squared_a = sum(x * x for x in v_a)
    squared_b = sum(x * x for x in v_b)
    if squared_a == 0 and squared_b == 0:
        return 0.0
    if squared_a == 0 or squared_b == 0:
        return zero_profile_distance
    dot = sum(x * y for x, y in zip(v_a, v_b))
    if dot * dot == squared_a * squared_b:
        return 0.0
    similarity = float(dot) / (math.sqrt(squared_a) * math.sqrt(squared_b))
    return min(1.0, max(0.0, 1.0 - similarity))


def test_cosine_integer_lists_and_tuples_match_generator_form_bit_for_bit():
    rng = random.Random(44)
    for _ in range(300):
        n = rng.randrange(1, 15)
        v_a = [rng.randrange(0, 100) for _ in range(n)]
        v_b = [rng.choice([0, rng.randrange(0, 100), 3 * x]) for x in v_a]
        for a, b in ((v_a, v_b), (tuple(v_a), v_b), (v_a, tuple(v_b)),
                     (tuple(v_a), list(v_a))):
            distance = cosine_distance(a, b)
            assert distance.hex() == cosine_distance_generator_form(a, b).hex()
            assert abs(distance - cosine_distance_oracle(a, b)) <= 1e-12
    assert cosine_distance((1, 5), [1, 5]) == 0.0


def test_cosine_of_proportional_counts_is_exactly_zero():
    # one period's counts k times the other's: the profile only grew
    assert cosine_distance([1, 1], [2, 2]) == 0.0
    rng = random.Random(45)
    for _ in range(2000):
        v = [rng.randrange(0, 50) for _ in range(rng.randrange(1, 12))]
        k = rng.randrange(2, 6)
        assert cosine_distance(v, [k * x for x in v]) == 0.0
        assert cosine_distance([k * x for x in v], v) == 0.0


def test_cosine_clamps_round_off_below_zero():
    # not proportional, yet 1 - similarity rounds to -2**-52
    v_a, v_b = [612484, 9863], [2449937, 39452]
    dot = sum(x * y for x, y in zip(v_a, v_b))
    assert dot * dot != sum(x * x for x in v_a) * sum(x * x for x in v_b)
    raw = 1.0 - dot / (math.sqrt(sum(x * x for x in v_a)) * math.sqrt(sum(x * x for x in v_b)))
    assert raw < 0.0
    assert cosine_distance(v_a, v_b) == 0.0


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


@pytest.mark.parametrize("total", [100, 200, 300, 400, 600, 700, 800, 900])
def test_filter_exactly_at_decimal_threshold_survives(total):
    # 0.07 * total is 7.000000000000001 etc. in floats, just above the count
    at = 7 * total // 100
    assert filter_rare({"x": at}, {}, total, 0, 0.07) == ({"x": at}, {})
    assert filter_rare({"x": at}, {"y": 1}, total, 1, 0.07,
                       per_period=True) == ({"x": at}, {"y": 1})
    assert filter_rare({"x": at - 1}, {}, total, 0, 0.07) == ({}, {})


def test_filter_matches_fraction_oracle_at_the_boundary():
    for hundredths in range(1, 31):
        threshold = hundredths / 100
        for total in range(1, 1001):
            for joint in {int(threshold * total), int(threshold * total) + 1}:
                keep = filter_keeps_oracle(joint, total, threshold)
                a, _ = filter_rare({"x": joint}, {}, total, 0, threshold)
                assert ("x" in a) == keep, (threshold, total, joint)
                a, _ = filter_rare({"x": joint}, {}, total, 5, threshold, per_period=True)
                assert ("x" in a) == keep, (threshold, total, joint)


def test_decimal_ratio_reduces_to_the_fraction_of_str():
    """The integer parse of ``str(x)``, reduced, is the exact rational
    of the decimal ``str`` writes, on edge values, random shares and
    random finite bit patterns."""
    rng = random.Random(46)
    patterns = (struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
                for _ in range(10_000))
    values = [0.0, -0.0, 5e-324, 1e-05, 0.07, 0.999999, 1.0, 1e16, 1.5e-07, 1.2345e+20,
              *(rng.random() for _ in range(10_000)),
              *(x for x in patterns if math.isfinite(x))]
    assert len(values) > 19_000
    for x in values:
        num, den = decimal_ratio(x)
        divisor = math.gcd(num, den)
        assert (num // divisor, den // divisor) == Fraction(str(x)).as_integer_ratio(), x


@pytest.mark.parametrize("share", [0.05, 0.07, 0.29, 0.3])
def test_a_numpy_float64_share_reads_like_the_python_float(share):
    """numpy 2 writes ``repr(np.float64(0.07))`` as ``np.float64(0.07)``;
    the share is read from ``str``, so a float64 filter threshold gives
    the same scores, and a float64 ratio the same top-n labels."""
    store = synth.random_store(random.Random(47), 60, ["a", "b"])
    ranking = [(f"w{i:02d}", 1.0 - i / 100) for i in range(50)]
    for separation in (False, True):
        decimal_ratio.cache_clear()  # equal keys: the float64 must be parsed itself
        from_float64 = score_period_pair(store.profiles, ("a", "b"), MethodConfig(
            separation=separation, filter_threshold=np.float64(share)))
        assert decimal_ratio.cache_info().currsize == 1
        assert from_float64 == score_period_pair(store.profiles, ("a", "b"), MethodConfig(
            separation=separation, filter_threshold=share))
    decimal_ratio.cache_clear()
    assert classify_topn(ranking, np.float64(share)) == classify_topn(ranking, share)


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


# ----------------------------------------------------------------------
# basic scoring

def test_score_basic_identical_profiles():
    profile = Profile({"Number=Sing": 5}, {"nsubj": 5}, 5)
    other = Profile({"Number=Sing": 5}, {"nsubj": 5}, 5)
    assert score_basic(profile.morph, other.morph, 5, 5, default_config()) == 0.0
    assert score_basic(profile.synt, other.synt, 5, 5, default_config()) == 0.0


def test_score_basic_word_vanished():
    assert score_basic({"Number=Sing": 5}, {}, 5, 0, default_config()) == 1.0
    assert score_basic({"Number=Sing": 5}, {}, 5, 0,
                       default_config(zero_profile_distance=0.25)) == 0.25


def test_score_basic_rare_forms_filtered_to_zero_distance():
    # the two single-occurrence word forms fall below the 5% cutoff in
    # both periods; the surviving features coincide, so no change
    assert score_basic(dict(VERB_MORPH), dict(VERB_MORPH), 102, 102,
                       default_config()) == 0.0
    filtered_a, _ = filter_rare(VERB_MORPH, VERB_MORPH, 102, 102, 0.05)
    assert set(filtered_a) == {
        "Tense=Pres|VerbForm=Part", "Mood=Ind|Tense=Past|VerbForm=Fin",
        "Tense=Past|VerbForm=Part|Voice=Pass", "VerbForm=Inf",
    }


def test_score_basic_equals_oracle_on_filtered_tables():
    rng = random.Random(47)
    for per_period in (False, True):
        config = default_config(filter_threshold=0.1, per_period_filter=per_period)
        for _ in range(200):
            counts_a = {f"f{i}": rng.randrange(1, 40) for i in rng.sample(range(8), 4)}
            counts_b = {f"f{i}": rng.randrange(1, 40) for i in rng.sample(range(8), 4)}
            total_a, total_b = sum(counts_a.values()), sum(counts_b.values())
            kept_a = {k: v for k, v in counts_a.items() if filter_keeps_oracle(
                v + counts_b.get(k, 0), total_a if per_period else total_a + total_b, 0.1)}
            kept_b = {k: v for k, v in counts_b.items() if filter_keeps_oracle(
                v + counts_a.get(k, 0), total_b if per_period else total_a + total_b, 0.1)}
            keys = sorted(kept_a.keys() | kept_b.keys())
            expected = cosine_distance_oracle([kept_a.get(k, 0) for k in keys],
                                              [kept_b.get(k, 0) for k in keys])
            assert abs(score_basic(counts_a, counts_b, total_a, total_b, config)
                       - expected) < 1e-12


# ----------------------------------------------------------------------
# category separation

def flipped_number_profiles():
    profile_a = Profile({"Number=Sing": 80, "Number=Plur": 20},
                        {"nsubj": 100}, 100)
    profile_b = Profile({"Number=Sing": 20, "Number=Plur": 80},
                        {"nsubj": 100}, 100)
    return profile_a, profile_b


def test_score_separated_flipped_number():
    profile_a, profile_b = flipped_number_profiles()
    per_category, aggregate = score_separated(profile_a, profile_b, default_config())
    assert abs(per_category["Number"] - FLIPPED_NUMBER_DISTANCE) < 1e-12
    assert abs(aggregate - FLIPPED_NUMBER_DISTANCE) < 1e-12
    v_a, v_b = build_vectors(separate_categories(profile_a)["Number"],
                             separate_categories(profile_b)["Number"])
    assert abs(cosine_distance_oracle(v_a, v_b) - FLIPPED_NUMBER_DISTANCE) < 1e-15


def test_score_separated_max_ignores_stable_category():
    profile_a = Profile({"Case=Nom|Number=Sing": 80, "Case=Nom|Number=Plur": 20},
                        {"nsubj": 100}, 100)
    profile_b = Profile({"Case=Nom|Number=Sing": 20, "Case=Nom|Number=Plur": 80},
                        {"nsubj": 100}, 100)
    per_category, aggregate = score_separated(profile_a, profile_b, default_config())
    assert per_category["Case"] == 0.0
    assert abs(aggregate - FLIPPED_NUMBER_DISTANCE) < 1e-12


def test_score_separated_identical_profiles():
    profile = Profile(dict(VERB_MORPH), {"root": 102}, 102)
    per_category, aggregate = score_separated(profile, profile, default_config())
    assert set(per_category) == {"Mood", "Tense", "VerbForm", "Voice"}
    assert all(d == 0.0 for d in per_category.values())
    assert aggregate == 0.0


def test_score_separated_mean_aggregation():
    # the flipped Number of flipped_number_profiles plus a stable Case,
    # so max and mean differ
    profile_a = Profile({"Case=Nom|Number=Sing": 40, "Case=Acc|Number=Sing": 40,
                         "Case=Nom|Number=Plur": 10, "Case=Acc|Number=Plur": 10},
                        {"nsubj": 100}, 100)
    profile_b = Profile({"Case=Nom|Number=Sing": 10, "Case=Acc|Number=Sing": 10,
                         "Case=Nom|Number=Plur": 40, "Case=Acc|Number=Plur": 40},
                        {"nsubj": 100}, 100)
    per_category, aggregate_max = score_separated(profile_a, profile_b, default_config())
    _, aggregate_mean = score_separated(profile_a, profile_b,
                                        default_config(aggregation="mean"))
    assert per_category["Case"] == 0.0
    assert abs(aggregate_max - FLIPPED_NUMBER_DISTANCE) < 1e-12
    assert abs(aggregate_mean - FLIPPED_NUMBER_DISTANCE / 2) < 1e-12
    assert aggregate_max >= aggregate_mean >= 0.0


def test_score_separated_category_in_one_period_only():
    profile_a = Profile({"Number=Sing|Voice=Pass": 40}, {"root": 40}, 40)
    profile_b = Profile({"Number=Sing": 40}, {"root": 40}, 40)
    per_category, aggregate = score_separated(profile_a, profile_b, default_config())
    assert per_category["Voice"] == 1.0
    assert per_category["Number"] == 0.0
    assert aggregate == 1.0


def test_score_separated_filtering_happens_after_separation():
    # rare combined forms survive as category mass: the single
    # Tense=Past|VerbForm=Part occurrence is dropped by whole-form
    # filtering but still feeds the Tense distribution
    morph_a = {"Tense=Pres|VerbForm=Part": 95, "Tense=Past|VerbForm=Part": 5}
    morph_b = {"Tense=Pres|VerbForm=Part": 5, "Tense=Past|VerbForm=Part": 95}
    profile_a = Profile(morph_a, {"root": 100}, 100)
    profile_b = Profile(morph_b, {"root": 100}, 100)
    per_category, _ = score_separated(profile_a, profile_b, default_config())
    assert per_category["Tense"] > 0.5
    assert per_category["VerbForm"] == 0.0


def test_score_separated_no_categories():
    empty = Profile({}, {"root": 3}, 3)
    per_category, aggregate = score_separated(empty, empty, default_config())
    assert per_category == {}
    assert aggregate is None


# ----------------------------------------------------------------------
# combinations

def test_combine_average():
    # the mean of the two distances ...
    profile_a, profile_b = word_profiles()
    average = default_config(feature_kind="average")
    score = score_word_pair(profile_a, profile_b, average)
    assert abs(score.d_morph - FLIPPED_NUMBER_DISTANCE) < 1e-12
    assert abs(score.d_synt - cosine_distance_oracle([60, 40], [100, 0])) < 1e-12
    assert score.aggregate == (score.d_morph + score.d_synt) / 2.0
    same = score_word_pair(profile_a, profile_a, average)
    assert (same.d_morph, same.d_synt, same.aggregate) == (0.0, 0.0, 0.0)
    # ... or the syntactic one when no morphological category exists
    profile_a = Profile({}, {"nsubj": 60, "obj": 40}, 100)
    profile_b = Profile({}, {"nsubj": 100}, 100)
    score = score_word_pair(profile_a, profile_b,
                            default_config(feature_kind="average", separation=True))
    assert score.d_morph is None and score.per_category == {}
    assert score.aggregate == score.d_synt
    assert abs(score.d_synt - cosine_distance_oracle([60, 40], [100, 0])) < 1e-12


def test_combine_append_max():
    config = default_config(feature_kind="combination", separation=True)
    # syntax wins: Number flips, and the one dependency relation changes
    profile_a, profile_b = flipped_number_profiles()
    new_role = Profile(dict(profile_b.morph), {"obj": 100}, 100)
    score = score_word_pair(profile_a, new_role, config)
    assert score.d_synt == 1.0 and score.aggregate == 1.0
    # a category wins over a stable syntax
    score = score_word_pair(profile_a, profile_b, config)
    assert score.d_synt == 0.0
    assert abs(score.aggregate - FLIPPED_NUMBER_DISTANCE) < 1e-12
    # no category: the syntactic distance alone
    no_morph = Profile({}, {"nsubj": 60, "obj": 40}, 100)
    score = score_word_pair(no_morph, Profile({}, {"nsubj": 100}, 100), config)
    assert score.per_category == {}
    assert score.aggregate == score.d_synt
    assert abs(score.d_synt - cosine_distance_oracle([60, 40], [100, 0])) < 1e-12


def test_combination_dominates_morphology_max():
    rng = random.Random(45)
    combination = default_config(feature_kind="combination", separation=True)
    separated_max = default_config(separation=True)
    feats = ["Number=Sing", "Number=Plur", "Case=Nom|Number=Sing", "Tense=Past", "_"]
    for _ in range(100):
        profiles = []
        for _ in range(2):
            profile = Profile()
            for _ in range(rng.randrange(1, 40)):
                profile.add_token(rng.choice(feats), rng.choice(["nsubj", "obj", "root"]))
            profiles.append(profile)
        score = score_word_pair(*profiles, combination)
        morphology = score_word_pair(*profiles, separated_max)
        assert score.per_category == morphology.per_category
        assert score.aggregate == max([*score.per_category.values(), score.d_synt])
        if score.per_category:
            assert score.aggregate >= morphology.aggregate


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
    profile_a = Profile({"Number=Sing": 80, "Number=Plur": 20},
                        {"nsubj": 60, "obj": 40}, 100)
    profile_b = Profile({"Number=Sing": 20, "Number=Plur": 80},
                        {"nsubj": 100}, 100)
    return profile_a, profile_b


def test_score_word_pair_morphology():
    profile_a, profile_b = word_profiles()
    score = score_word_pair(profile_a, profile_b, default_config())
    assert score.d_synt is None
    assert abs(score.aggregate - FLIPPED_NUMBER_DISTANCE) < 1e-12


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
    profile_a = Profile({}, {"root": 3}, 3)
    profile_b = Profile({}, {"root": 3}, 3)
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
        profiles[(word, "old")] = Profile({"Number=Sing": 2}, {"nsubj": 2}, 2)
        profiles[(word, "new")] = Profile({"Number=Plur": 2}, {"obj": 2}, 2)
    scores = score_period_pair(profiles, ("old", "new"), default_config())
    assert list(scores) == ["a", "b", "c"]
    assert all(score == score_word_pair(profiles[(word, "old")], profiles[(word, "new")],
                                        default_config())
               for word, score in scores.items())


def test_score_period_pair_missing_profile():
    profiles = {("a", "old"): Profile()}
    with pytest.raises(DataError):
        score_period_pair(profiles, ("old", "new"), default_config())

