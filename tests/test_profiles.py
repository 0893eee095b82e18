import io
import random

import pytest

from gramprof.conllu import TargetSpec
from gramprof.errors import ConfigError, DataError
from gramprof.profiles import (Profile, ProfileStore, build_vectors,
                               extract_profiles, merge_profiles, separate_categories)

# combined-FEATS counts of an English verb in one period; the per-category
# splits below are the hand-checked reference
VERB_MORPH = {
    "Tense=Pres|VerbForm=Part": 50,
    "Mood=Ind|Tense=Past|VerbForm=Fin": 24,
    "Tense=Past|VerbForm=Part|Voice=Pass": 17,
    "VerbForm=Inf": 9,
    "Mood=Ind|Tense=Pres|VerbForm=Fin": 1,
    "Tense=Past|VerbForm=Part": 1,
}
VERB_CATEGORIES = {
    "Tense": {"Past": 42, "Pres": 51},
    "VerbForm": {"Part": 68, "Fin": 25, "Inf": 9},
    "Mood": {"Ind": 25},
    "Voice": {"Pass": 17},
}


def token_line(lemma, upos="NOUN", feats="_", deprel="nsubj"):
    return f"1\t{lemma}\t{lemma}\t{upos}\t_\t{feats}\t0\t{deprel}\t_\t_\n\n"


def corpus_text(entries):
    """entries: list of (lemma, feats, deprel) one-token sentences."""
    return "".join(token_line(lemma, feats=feats, deprel=deprel)
                   for lemma, feats, deprel in entries)


def test_extract_counts_noun_example():
    entries = [("lass", "Number=Sing", "nsubj")] * 338 \
        + [("lass", "Number=Plur", "nsubj")] * 114
    corpora = {
        "old": [io.StringIO(corpus_text(entries))],
        "new": [io.StringIO("")],
    }
    profiles = extract_profiles(corpora, [TargetSpec("lass", "lass")])
    profile = profiles[("lass", "old")]
    assert profile.morph == {"Number=Sing": 338, "Number=Plur": 114}
    assert profile.synt == {"nsubj": 452}
    assert profile.total == 452


def test_absent_target_empty_profile():
    corpora = {
        "old": [io.StringIO(token_line("walk"))],
        "new": [io.StringIO(token_line("walk"))],
    }
    profiles = extract_profiles(corpora, [TargetSpec("lass", "lass"),
                                          TargetSpec("walk", "walk")])
    assert profiles[("lass", "old")].total == 0
    assert profiles[("lass", "old")].morph == {}
    assert profiles[("lass", "old")].synt == {}
    assert profiles[("walk", "new")].total == 1


def test_empty_feats_counts_toward_total_and_syntax():
    corpora = {
        "old": [io.StringIO(token_line("it", feats="_", deprel="obj"))],
        "new": [io.StringIO("")],
    }
    profiles = extract_profiles(corpora, [TargetSpec("it", "it")])
    profile = profiles[("it", "old")]
    assert profile.morph == {}
    assert profile.synt == {"obj": 1}
    assert profile.total == 1


def test_extract_requires_two_periods():
    with pytest.raises(ConfigError):
        extract_profiles({"only": []}, [TargetSpec("x", "x")])


def test_extract_unreadable_corpus_names_period_and_path():
    corpora = {"old": ["/nonexistent/path.conllu"], "new": []}
    with pytest.raises(ConfigError) as err:
        extract_profiles(corpora, [TargetSpec("x", "x")])
    assert "old" in str(err.value)
    assert "/nonexistent/path.conllu" in str(err.value)


def test_extract_strip_subtypes():
    text = token_line("stab", deprel="obl:tmod") + token_line("stab", deprel="obl")
    corpora = {"old": [io.StringIO(text)], "new": [io.StringIO("")]}
    profiles = extract_profiles(corpora, [TargetSpec("stab", "stab")],
                                strip_subtypes=True)
    assert profiles[("stab", "old")].synt == {"obl": 2}


def test_separate_categories_reference_counts():
    profile = Profile("circle", "t1", morph=dict(VERB_MORPH),
                      synt={"root": 102}, total=102)
    separated = separate_categories(profile)
    assert separated.categories == VERB_CATEGORIES
    assert separated.synt == {"root": 102}
    assert separated.total == 102


def test_separate_categories_empty():
    assert separate_categories(Profile("x", "t")).categories == {}


def test_separate_categories_single_key():
    profile = Profile("x", "t", morph={"Number=Sing": 3}, synt={"root": 3}, total=3)
    assert separate_categories(profile).categories == {"Number": {"Sing": 3}}


def test_separate_categories_skips_malformed_key():
    profile = Profile("x", "t", morph={"Number=Sing|Broken": 2},
                      synt={"root": 2}, total=2)
    assert separate_categories(profile).categories == {"Number": {"Sing": 2}}


def test_count_preservation_random():
    rng = random.Random(11)
    categories = ["Number", "Case", "Tense", "Gender"]
    values = ["A", "B", "C"]
    for _ in range(200):
        morph = {}
        for _ in range(rng.randrange(0, 8)):
            keys = rng.sample(categories, rng.randrange(1, len(categories) + 1))
            feats = "|".join(f"{k}={rng.choice(values)}" for k in sorted(keys))
            morph[feats] = morph.get(feats, 0) + rng.randrange(1, 50)
        total = sum(morph.values()) + rng.randrange(0, 5)
        profile = Profile("w", "t", morph=morph, synt={"root": total}, total=total)
        separated = separate_categories(profile)
        for category, value_counts in separated.categories.items():
            expected = sum(
                count for feats, count in morph.items()
                if any(feats_key == category
                       for feats_key in (pair.split("=")[0]
                                         for pair in feats.split("|")))
            )
            assert sum(value_counts.values()) == expected


def test_build_vectors_union_and_zero_fill():
    vec_a, vec_b = build_vectors({"Sing": 338, "Plur": 114}, {"Sing": 100})
    assert vec_a == [114, 338]
    assert vec_b == [0, 100]


def test_build_vectors_empty():
    assert build_vectors({}, {}) == ([], [])


def test_build_vectors_identical():
    counts = {"a": 1, "b": 2}
    vec_a, vec_b = build_vectors(counts, counts)
    assert vec_a == vec_b


def test_merge_is_shard_sum():
    rng = random.Random(5)
    entries = [(f"w{rng.randrange(3)}", rng.choice(["Number=Sing", "Number=Plur", "_"]),
                rng.choice(["nsubj", "obj"])) for _ in range(300)]
    targets = [TargetSpec(f"w{i}", f"w{i}") for i in range(3)]
    split = len(entries) // 2

    whole = extract_profiles(
        {"a": [io.StringIO(corpus_text(entries))], "b": [io.StringIO("")]}, targets)
    shard_1 = extract_profiles(
        {"a": [io.StringIO(corpus_text(entries[:split]))], "b": [io.StringIO("")]},
        targets)
    shard_2 = extract_profiles(
        {"a": [io.StringIO(corpus_text(entries[split:]))], "b": [io.StringIO("")]},
        targets)

    for key in whole:
        merged = merge_profiles(shard_1[key], shard_2[key])
        assert merged.morph == whole[key].morph
        assert merged.synt == whole[key].synt
        assert merged.total == whole[key].total


def test_merge_rejects_different_words():
    with pytest.raises(ValueError):
        merge_profiles(Profile("a", "t"), Profile("b", "t"))


def make_store():
    profiles = {
        ("lass", "old"): Profile("lass", "old", {"Number=Sing": 2}, {"nsubj": 3}, 3),
        ("lass", "new"): Profile("lass", "new", {}, {"obj": 1}, 1),
        ("stab", "old"): Profile("stab", "old", {}, {}, 0),
        ("stab", "new"): Profile("stab", "new", {"Number=Sing": 1}, {"nsubj": 1}, 1),
    }
    return ProfileStore(periods=["old", "new"], profiles=profiles,
                        options={"dataset": "toy"})


def test_store_round_trip():
    store = make_store()
    buffer = io.StringIO()
    store.save(buffer)
    loaded = ProfileStore.load(io.StringIO(buffer.getvalue()))
    assert loaded.periods == store.periods
    assert loaded.options == store.options
    assert loaded.profiles == store.profiles


def test_store_save_deterministic():
    first, second = io.StringIO(), io.StringIO()
    make_store().save(first)
    make_store().save(second)
    assert first.getvalue() == second.getvalue()


def test_store_rejects_wrong_format():
    with pytest.raises(DataError):
        ProfileStore.load(io.StringIO('{"format": "something-else", "version": 1}\n'))


def test_store_rejects_bad_counts():
    store = make_store()
    store.profiles[("lass", "old")].total = 99  # breaks the synt-sum invariant
    buffer = io.StringIO()
    store.save(buffer)
    with pytest.raises(DataError):
        ProfileStore.load(io.StringIO(buffer.getvalue()))


def test_profile_validate():
    Profile("w", "t", {"Number=Sing": 1}, {"nsubj": 2}, 2).validate()
    with pytest.raises(DataError):
        Profile("w", "t", {"Number=Sing": 3}, {"nsubj": 2}, 2).validate()
    with pytest.raises(DataError):
        Profile("w", "t", {}, {"nsubj": 0}, 0).validate()
