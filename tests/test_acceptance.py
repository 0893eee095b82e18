"""Acceptance suite: one test per acceptance criterion, each checked at
its stated tolerance against an independent oracle where one is
required.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail
line per criterion. Criterion 7 needs externally supplied pre-tagged
corpora (see README, "Reproducing the reference results") and is
skipped unless GRAMPROF_SEMEVAL_DIR points at them; it runs the
harness of ``demos/semeval_reproduction.py``.
"""

import io
import os
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from gramprof.analysis import build_feature_matrix, category_correlations, \
    standardize, train_logreg
from gramprof.evaluation import classify_changepoint, graded_gold, rank_words, spearman
from gramprof.profiles import Profile, extract_profiles, separate_categories
from gramprof.scoring import (MethodConfig, cosine_distance, filter_rare, score_basic,
                              score_separated, score_period_pair, score_word_pair)

from oracles import best_split_oracle, cosine_distance_oracle, spearman_oracle
from synth import synthetic_corpus_pair

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "demos"))
from semeval_reproduction import (BEST_CONFIG, EXPECTED_SPEARMAN,  # noqa: E402
                                  SPEARMAN_TOLERANCE, run_language)

SEPARATED_MAX = MethodConfig(feature_kind="morphology", separation=True,
                             aggregation="max", filter_threshold=0.05)


def report(criterion, message):
    print(f"[criterion {criterion}] PASS - {message}")


def test_criterion_1_category_separation_reference_counts():
    """The combined-FEATS excerpt of an English verb splits into the
    exact per-category counts."""
    morph = {
        "Tense=Pres|VerbForm=Part": 50,
        "Mood=Ind|Tense=Past|VerbForm=Fin": 24,
        "Tense=Past|VerbForm=Part|Voice=Pass": 17,
        "VerbForm=Inf": 9,
        "Mood=Ind|Tense=Pres|VerbForm=Fin": 1,
        "Tense=Past|VerbForm=Part": 1,
    }
    profile = Profile(morph=morph, synt={"root": 102}, total=102)
    assert separate_categories(profile) == {
        "Tense": {"Past": 42, "Pres": 51},
        "VerbForm": {"Part": 68, "Fin": 25, "Inf": 9},
        "Mood": {"Ind": 25},
        "Voice": {"Pass": 17},
    }
    report(1, "category separation reproduces the reference counts exactly")


def test_criterion_2_cosine_matches_high_precision_oracle():
    """1000 random non-negative integer vector pairs, lengths 1-50:
    agreement with the exact-rational oracle to 1e-12."""
    rng = random.Random(20210)
    worst = 0.0
    for _ in range(1000):
        n = rng.randrange(1, 51)
        v_a = [rng.randrange(0, 1000) for _ in range(n)]
        v_b = [rng.randrange(0, 1000) for _ in range(n)]
        diff = float(abs(cosine_distance(v_a, v_b) - cosine_distance_oracle(v_a, v_b)))
        worst = max(worst, diff)
        assert diff < 1e-12
    report(2, f"cosine distance within 1e-12 of the oracle "
              f"(worst difference {worst:.2e})")


def test_criterion_3_spearman_matches_brute_force_oracle():
    """500 random score/gold pairs with injected ties, N up to 100:
    agreement with a sort-based average-rank Pearson oracle to 1e-9."""
    rng = random.Random(20211)
    checked = 0
    worst = 0.0
    while checked < 500:
        n = rng.randrange(2, 101)
        pred = [round(rng.random(), 3) for _ in range(n)]
        gold = [rng.randrange(0, 11) / 10 for _ in range(n)]  # heavy ties
        if len(set(pred)) < 2 or len(set(gold)) < 2:
            continue
        pred_map = {f"w{i:03d}": v for i, v in enumerate(pred)}
        gold_map = {f"w{i:03d}": v for i, v in enumerate(gold)}
        diff = abs(spearman(pred_map, gold_map) - spearman_oracle(pred, gold))
        worst = max(worst, diff)
        assert diff < 1e-9
        checked += 1
    report(3, f"spearman within 1e-9 of the oracle (worst difference {worst:.2e})")


def test_criterion_4_changepoint_equals_exhaustive_search():
    """1000 random descending lists with N <= 12: the detected split
    equals the exact exhaustive argmin with lowest-index ties."""
    rng = random.Random(20212)
    for trial in range(1000):
        n = 3 + trial % 10  # covers N = 3..12
        scores = sorted((round(rng.random(), 4) for _ in range(n)), reverse=True)
        ranking = [(f"w{i:02d}", s) for i, s in enumerate(scores)]
        labels = classify_changepoint(ranking)
        split = sum(labels.values())
        assert split == best_split_oracle(scores)
        sequence = [labels[w] for w, _ in ranking]
        assert sequence == sorted(sequence, reverse=True)
    report(4, "change-point split matches exact exhaustive search on all "
              "1000 lists")


def test_criterion_5_synthetic_signal_detection():
    """100 random corpus pairs, 5 planted changed words vs 5 stable
    words (1000 occurrences each): the separated-max method ranks all
    changed words on top in at least 95 trials."""
    successes = 0
    trials = 100
    for trial in range(trials):
        rng = np.random.default_rng(50_000 + trial)
        text_before, text_after, targets, changed = synthetic_corpus_pair(rng)
        profiles = extract_profiles(
            {"before": [io.StringIO(text_before)],
             "after": [io.StringIO(text_after)]},
            targets,
        )
        scores = score_period_pair(profiles, ("before", "after"), SEPARATED_MAX)
        ranking = rank_words({word: s.aggregate for word, s in scores.items()})
        top = {word for word, _ in ranking[:len(changed)]}
        successes += (top == set(changed))
    assert successes >= 95
    report(5, f"changed words ranked above stable words in {successes}/100 trials")


def random_valid_profile(rng):
    """Token-wise construction, so the counting invariants hold."""
    categories = ["Case", "Gender", "Mood", "Number", "Tense"]
    values = ["A", "B", "C", "D"]
    deprels = ["nsubj", "obj", "obl", "root", "nmod"]
    profile = Profile()
    for _ in range(rng.randrange(1, 120)):
        if rng.random() < 0.15:
            feats = "_"
        else:
            keys = rng.sample(categories, rng.randrange(1, 4))
            feats = "|".join(f"{k}={rng.choice(values)}" for k in sorted(keys))
        profile.add_token(feats, rng.choice(deprels))
    return profile


def test_criterion_6_property_suite():
    """1000 random profiles: count preservation under separation,
    filter monotonicity, and the bounds / symmetry / scale-invariance /
    aggregation-dominance invariants of every scoring method."""
    rng = random.Random(20213)
    all_methods = [
        MethodConfig(feature_kind="morphology", filter_threshold=0.05),
        MethodConfig(feature_kind="syntax", filter_threshold=0.05),
        MethodConfig(feature_kind="average", filter_threshold=0.05),
        SEPARATED_MAX,
        MethodConfig(feature_kind="combination", separation=True,
                     filter_threshold=0.05),
    ]
    for _ in range(500):
        profile_a = random_valid_profile(rng)
        profile_b = random_valid_profile(rng)
        for profile in (profile_a, profile_b):
            # the counting invariants the store loader checks
            assert min([*profile.morph.values(), *profile.synt.values()], default=1) >= 1
            assert sum(profile.synt.values()) == profile.total
            assert sum(profile.morph.values()) <= profile.total
            separated = separate_categories(profile)
            for category, value_counts in separated.items():
                expected = sum(
                    count for feats, count in profile.morph.items()
                    if any(pair.split("=")[0] == category
                           for pair in feats.split("|"))
                )
                assert sum(value_counts.values()) == expected

        # filter monotonicity
        surviving_before = None
        for threshold in (0.0, 0.01, 0.03, 0.05, 0.1, 0.25, 0.6):
            f_a, f_b = filter_rare(profile_a.morph, profile_b.morph,
                                   profile_a.total, profile_b.total, threshold)
            surviving = set(f_a) | set(f_b)
            if surviving_before is not None:
                assert surviving <= surviving_before
            surviving_before = surviving

        # bounds and symmetry for every method
        for config in all_methods:
            forward = score_word_pair(profile_a, profile_b, config)
            backward = score_word_pair(profile_b, profile_a, config)
            assert 0.0 <= forward.aggregate <= 1.0
            assert abs(forward.aggregate - backward.aggregate) < 1e-12
            for distance in forward.per_category.values():
                assert 0.0 <= distance <= 1.0

        # scale invariance of the cosine stage (no filtering involved)
        unfiltered = MethodConfig(feature_kind="morphology", filter_threshold=0.0)
        scale = rng.choice([2, 3, 7, 50])
        scaled_a = Profile(
            morph={k: scale * v for k, v in profile_a.morph.items()},
            synt={k: scale * v for k, v in profile_a.synt.items()},
            total=scale * profile_a.total,
        )
        for table in ("morph", "synt"):
            assert abs(score_basic(getattr(profile_a, table), getattr(profile_b, table),
                                   profile_a.total, profile_b.total, unfiltered)
                       - score_basic(getattr(scaled_a, table), getattr(profile_b, table),
                                     scaled_a.total, profile_b.total, unfiltered)) < 1e-12

        # aggregation dominance and the append-max lower bound
        per_category, aggregate_max = score_separated(profile_a, profile_b, SEPARATED_MAX)
        _, aggregate_mean = score_separated(
            profile_a, profile_b, MethodConfig(feature_kind="morphology", separation=True,
                                               aggregation="mean", filter_threshold=0.05))
        if aggregate_max is not None:
            assert aggregate_max >= aggregate_mean >= 0.0
            combination = score_word_pair(profile_a, profile_b, MethodConfig(
                feature_kind="combination", separation=True, filter_threshold=0.05))
            assert combination.per_category == per_category
            assert combination.aggregate >= aggregate_max
    report(6, "all counting, filtering and scoring invariants hold on 1000 "
              "random profiles")


SEMEVAL_DIR = os.environ.get("GRAMPROF_SEMEVAL_DIR")


@pytest.mark.skipif(
    not SEMEVAL_DIR,
    reason="set GRAMPROF_SEMEVAL_DIR to a directory with per-language "
           "dataset.yml files (pre-tagged corpora + gold data) to run the "
           "published-number reproduction",
)
def test_criterion_7_published_spearman_reproduction():
    """Optional, external data: per-language graded-task Spearman under
    the best configuration must match the published values within 0.03,
    as the reproduction demo computes and checks them; every one of its
    four languages must be there.
    """
    results = {}
    for language, expected in EXPECTED_SPEARMAN.items():
        dataset_dir = Path(SEMEVAL_DIR) / language
        assert dataset_dir.is_dir(), f"{language}: no {dataset_dir}"
        predicted, gold = run_language(dataset_dir, BEST_CONFIG)
        rho = spearman(predicted, graded_gold(gold))
        results[language] = rho
        assert abs(rho - expected) <= SPEARMAN_TOLERANCE, (
            f"{language}: got {rho:.3f}, published {expected:.3f}"
        )
    summary = ", ".join(f"{lang}={rho:.3f}" for lang, rho in results.items())
    report(7, f"published Spearman reproduced within ±{SPEARMAN_TOLERANCE}: "
              f"{summary}")


def test_criterion_8_analysis_sanity_on_synthetic_data():
    """On the criterion-5 corpora: the regression puts its largest
    positive weight on the planted category every trial, the planted
    category's correlation is significant every trial, and at least 90%
    of pure-noise category tests are non-significant over 100 trials."""
    analysis_config = MethodConfig(feature_kind="combination", separation=True,
                                   filter_threshold=0.05)
    trials = 100
    noise_total = 0
    noise_non_significant = 0
    for trial in range(trials):
        rng = np.random.default_rng(80_000 + trial)
        text_before, text_after, targets, changed = synthetic_corpus_pair(rng)
        profiles = extract_profiles(
            {"before": [io.StringIO(text_before)],
             "after": [io.StringIO(text_after)]},
            targets,
        )
        matrix = build_feature_matrix(profiles, ("before", "after"),
                                      analysis_config)
        changed_set = set(changed)
        binary = {w: int(w in changed_set) for w in matrix.word_ids}
        graded = {w: float(w in changed_set) for w in matrix.word_ids}

        standardized, _ = standardize(matrix)
        result = train_logreg(standardized, binary)
        assert result.positive_categories[0] == "Number", (
            f"trial {trial}: top category {result.positive_categories[:3]}"
        )

        correlations = category_correlations(matrix, graded)
        assert correlations["Number"].significant, (
            f"trial {trial}: planted category p={correlations['Number'].p_value}"
        )
        for column, r in correlations.items():
            if column == "Number":
                continue
            noise_total += 1
            noise_non_significant += (not r.significant)
    rate = noise_non_significant / noise_total
    assert rate >= 0.9
    report(8, f"planted category found in all {trials} trials; "
              f"{rate:.0%} of noise-category tests non-significant")
