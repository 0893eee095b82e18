import gzip
import io
import json
import random
import sys
from pathlib import Path

import pytest

from gramprof import profiles as profiles_module
from gramprof.cli import main
from gramprof.conllu import DEPREL, FEATS, TargetIndex, TargetSpec, open_corpus, parse_conllu
from gramprof.errors import ConfigError, DataError
from gramprof.profiles import (Profile, ProfileStore, build_vectors, extract_profiles,
                               separate_categories, warn_malformed_feats)
from oracles import extract_oracle, malformed_feats_warnings_oracle, separate_categories_oracle
from synth import ODD_FEATS, random_store

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402

BATCH = profiles_module._DECODE_BATCH_LINES

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
        "new": [io.StringIO(token_line("other"))],
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
        "new": [io.StringIO(token_line("other"))],
    }
    profiles = extract_profiles(corpora, [TargetSpec("it", "it")])
    profile = profiles[("it", "old")]
    assert profile.morph == {}
    assert profile.synt == {"obj": 1}
    assert profile.total == 1


def test_extract_requires_two_periods():
    with pytest.raises(ConfigError):
        extract_profiles({"only": []}, [TargetSpec("x", "x")])


def test_extract_requires_a_target():
    corpora = {"a": [io.StringIO(token_line("lass"))], "b": [io.StringIO(token_line("lass"))]}
    with pytest.raises(ConfigError, match="^no targets given$"):
        extract_profiles(corpora, [])


def test_extract_unreadable_corpus_names_period_and_path():
    corpora = {"old": ["/nonexistent/path.conllu"], "new": []}
    with pytest.raises(ConfigError) as err:
        extract_profiles(corpora, [TargetSpec("x", "x")])
    assert "old" in str(err.value)
    assert "/nonexistent/path.conllu" in str(err.value)


def test_extract_strip_subtypes():
    text = token_line("stab", deprel="obl:tmod") + token_line("stab", deprel="obl")
    corpora = {"old": [io.StringIO(text)], "new": [io.StringIO(token_line("other"))]}
    profiles = extract_profiles(corpora, [TargetSpec("stab", "stab")],
                                strip_subtypes=True)
    assert profiles[("stab", "old")].synt == {"obl": 2}


def test_extract_fails_a_period_without_tokens(tmp_path):
    empty = tmp_path / "new.conllu"
    empty.write_text("# only a comment\n\n", encoding="utf-8")
    corpora = {"old": [io.StringIO(token_line("lass"))], "new": [empty, io.StringIO("")]}
    with pytest.raises(DataError) as err:
        extract_profiles(corpora, [TargetSpec("lass", "lass")])
    assert str(err.value) == \
        f"period 'new' has no token lines in its corpus files: {empty}, <stream>"


@pytest.mark.parametrize("text, warnings", [
    (token_line("walk"), ["2 tokens but no target matched"]),
    (token_line("lass", feats="Number=Sing", deprel="_"),
     ["every matched token has DEPREL '_'"]),
    (token_line("lass", feats="_") + token_line("walk", feats="Number=Sing"),
     ["every matched token has FEATS '_'"]),
    (token_line("lass", feats="_", deprel="_"),
     ["every matched token has DEPREL '_'", "every matched token has FEATS '_'"]),
    (token_line("lass", feats="Number=Sing") + token_line("lass", deprel="_"), []),
], ids=["no-match", "deprel", "feats", "both", "none"])
def test_suspect_period_warns_once_per_case(caplog, text, warnings):
    corpora = {"old": [io.StringIO(token_line("lass", feats="Number=Sing"))],
               "new": [io.StringIO(text), io.StringIO(text)]}
    with caplog.at_level("WARNING", logger="gramprof.profiles"):
        extract_profiles(corpora, [TargetSpec("lass", "lass")])
    messages = [r.getMessage() for r in caplog.records if r.name == "gramprof.profiles"]
    assert len(messages) == len(warnings)
    for message, warning in zip(messages, warnings):
        assert message.startswith("period 'new': ") and warning in message


def test_equal_keys_are_one_object_within_a_call_only():
    text = "".join(token_line(lemma, feats=feats, deprel=deprel)
                   for lemma in ("lass", "stab")
                   for feats, deprel in [("Number=Sing", "obl:tmod"),
                                         ("Case=Nom|Number=Plur", "obl")])
    targets = [TargetSpec("lass", "lass"), TargetSpec("stab", "stab")]

    def keys(table):
        profiles = extract_profiles({p: [io.StringIO(text)] for p in ("old", "new")},
                                    targets, strip_subtypes=True)
        return [key for p in profiles.values() for key in getattr(p, table)]

    for table in ("morph", "synt"):
        first, second = keys(table), keys(table)
        assert len(first) == len(second) > len(set(first))
        assert len({id(key) for key in first}) == len(set(first))
        assert not {id(key) for key in first} & {id(key) for key in second}


# random corpora for the extraction oracle: lemmas equal under case
# folding ("straße", "STRASSE"), POS filters, subtyped and plain relations
ORACLE_LEMMAS = ["lass", "Lass", "stab", "STAB", "straße", "STRASSE", "walk", "obl"]
ORACLE_UPOS = ["NOUN", "VERB", "ADJ", "PROPN"]
ORACLE_FEATS = ["_", "Number=Sing", "Number=Plur", "Case=Nom|Number=Sing", "Tense=Past"]
ORACLE_DEPRELS = ["obl", "obl:tmod", "nmod", "nmod:poss", "nsubj", "root", "_"]
ORACLE_FILTERS = [None, frozenset({"NOUN"}), frozenset({"VERB", "ADJ"}),
                  frozenset({"NOUN", "PROPN"})]


def random_conllu(rng, n_sentences):
    """CONLL-U text with comments, multiword ranges, empty nodes and
    malformed lines; its first token line is a plain token."""
    lines = []
    for _ in range(n_sentences):
        if rng.random() < 0.3:
            lines.append("# sent_id = s")
        for i in range(1, rng.randint(1, 6) + 1):
            token_id = str(i) if rng.random() < 0.8 or not lines \
                else rng.choice([f"{i}-{i + 1}", f"{i}.1"])
            columns = [token_id, rng.choice(ORACLE_LEMMAS), rng.choice(ORACLE_LEMMAS),
                       rng.choice(ORACLE_UPOS), "_", rng.choice(ORACLE_FEATS), "0",
                       rng.choice(ORACLE_DEPRELS), "_", "_"]
            if lines and rng.random() < 0.03:
                columns = columns[:9]
            lines.append("\t".join(columns))
        lines.append("")
    return "\n".join(lines) + "\n"


def random_oracle_targets(rng):
    targets, rules = [], set()
    for number in rng.sample(range(100), rng.randint(1, 8)):
        lemma, allowed = rng.choice(ORACLE_LEMMAS), rng.choice(ORACLE_FILTERS)
        if (lemma.casefold(), allowed) not in rules:
            rules.add((lemma.casefold(), allowed))
            targets.append((f"w{number:02d}", lemma, allowed))
    return targets


def profile_counts(profiles):
    return {key: (p.total, p.morph, p.synt) for key, p in profiles.items()}


@pytest.mark.parametrize("case_fold", [False, True], ids=["exact", "case-fold"])
@pytest.mark.parametrize("match_form", [False, True], ids=["lemma", "form"])
@pytest.mark.parametrize("strip", [False, True], ids=["subtypes", "strip"])
def test_extract_matches_oracle_on_random_corpora(case_fold, match_form, strip):
    rng = random.Random(f"{case_fold}:{match_form}:{strip}")
    matched = 0
    for _ in range(25):
        targets = random_oracle_targets(rng)
        texts = {period: [random_conllu(rng, rng.randint(1, 12))
                          for _ in range(rng.randint(1, 3))]
                 for period in ("old", "mid", "new")}
        profiles = extract_profiles(
            {period: [io.StringIO(text) for text in each] for period, each in texts.items()},
            [TargetSpec(*target) for target in targets], case_fold=case_fold,
            match_form=match_form, strip_subtypes=strip)
        assert profile_counts(profiles) == extract_oracle(
            texts, targets, case_fold=case_fold, match_form=match_form,
            strip_subtypes=strip)
        matched += sum(p.total for p in profiles.values())
    assert matched > 100


def test_match_and_extract_on_gz_rows_match_oracle(tmp_path):
    # --match-form and --case-fold over files half of them .gz: the hits
    # TargetIndex.match yields on parse_conllu's rows, counted here by
    # their FEATS and DEPREL columns, and extract_profiles' counts both
    # equal the oracle's.
    rng = random.Random("gz-rows")
    texts = {period: [random_conllu(rng, 40) for _ in range(4)] for period in ("old", "new")}
    files = {}
    for period, each in texts.items():
        files[period] = []
        for number, text in enumerate(each):
            path = tmp_path / f"{period}_{number}.conllu"
            if number % 2:
                path = path.with_suffix(".conllu.gz")
                path.write_bytes(gzip.compress(text.encode("utf-8")))
            else:
                path.write_text(text, encoding="utf-8")
            files[period].append(path)
    targets = [("w1", "lass", None), ("w2", "STAB", frozenset({"NOUN"})),
               ("w3", "stab", None), ("w4", "Straße", frozenset({"VERB", "ADJ"}))]
    specs = [TargetSpec(*target) for target in targets]
    expected = extract_oracle(texts, targets, case_fold=True, match_form=True)

    index = TargetIndex(specs, case_fold=True, match_form=True)
    hits = {key: [0, {}, {}] for key in expected}
    for period, paths in files.items():
        for path in paths:
            with open_corpus(path) as f:
                for sentence in parse_conllu(f):
                    for word_id, token in index.match(sentence):
                        assert type(token) is list and len(token) == 10
                        entry = hits[(word_id, period)]
                        entry[0] += 1
                        entry[2][token[DEPREL]] = entry[2].get(token[DEPREL], 0) + 1
                        if token[FEATS] != "_":
                            entry[1][token[FEATS]] = entry[1].get(token[FEATS], 0) + 1
    assert {key: tuple(entry) for key, entry in hits.items()} == expected

    profiles = extract_profiles(files, specs, case_fold=True, match_form=True)
    assert profile_counts(profiles) == expected
    assert sum(total for total, _, _ in expected.values()) > 50


def test_extract_matches_oracle_on_a_generated_dense_corpus(tmp_path):
    truth = gen.generate("extract-dense", 3, tmp_path, 2000)
    targets = []
    for line in (tmp_path / "targets.tsv").read_text(encoding="utf-8").splitlines():
        if not line.startswith("#"):
            word_id, lemma, *upos = line.split("\t")
            targets.append((word_id, lemma, frozenset(upos[0].split(",")) if upos else None))
    files = {period: sorted(tmp_path.glob(f"{period}_*")) for period in truth["periods"]}
    assert all(any(f.suffix == ".gz" for f in each) for each in files.values())
    profiles = extract_profiles(files, [TargetSpec(*target) for target in targets],
                                case_fold=True, strip_subtypes=True)
    texts = {period: [gzip.decompress(f.read_bytes()).decode("utf-8") if f.suffix == ".gz"
                      else f.read_text(encoding="utf-8") for f in each]
             for period, each in files.items()}
    expected = extract_oracle(texts, targets, case_fold=True, strip_subtypes=True)
    assert profile_counts(profiles) == expected
    assert expected == {(word_id, period): (r["total"], r["morph"], r["synt"])
                        for word_id, periods in truth["profiles"].items()
                        for period, r in periods.items()}


def test_separate_categories_reference_counts():
    profile = Profile(morph=dict(VERB_MORPH),
                      synt={"root": 102}, total=102)
    assert separate_categories(profile) == VERB_CATEGORIES


def test_separate_categories_empty():
    assert separate_categories(Profile()) == {}


def test_separate_categories_single_key():
    profile = Profile(morph={"Number=Sing": 3}, synt={"root": 3}, total=3)
    assert separate_categories(profile) == {"Number": {"Sing": 3}}


def test_separate_categories_skips_malformed_key():
    profile = Profile(morph={"Number=Sing|Broken": 2}, synt={"root": 2}, total=2)
    assert separate_categories(profile) == {"Number": {"Sing": 2}}


# FEATS strings shared across profiles: repeated keys, a value holding
# "=", an empty value, "_", and malformed entries (no "=", empty key,
# empty item)
FEATS_POOL = ["Number=Sing", "Case=Nom|Number=Plur", "Case=Nom|Case=Acc",
              "Case=Acc|Case=Acc", "Tense=Past|VerbForm=Part|Voice=Pass", "Foo=a=b",
              "Polite=", "_", "Number=Sing|Oops", "=x|Case=Dat", "Gender=Fem||Case=Nom",
              "Broken"]


def separates_like_the_oracle(profiles, caplog):
    """Check separate_categories against the oracle on each profile in
    turn, and that it logs nothing."""
    caplog.clear()
    with caplog.at_level("DEBUG"):
        for profile in profiles:
            assert separate_categories(profile) == separate_categories_oracle(profile.morph)[0]
    assert caplog.records == []


def test_separate_categories_matches_oracle_in_any_call_order(caplog):
    rng = random.Random(23)
    profiles = []
    for i in range(60):
        morph = {feats: rng.randrange(1, 40)
                 for feats in rng.sample(FEATS_POOL, rng.randrange(0, 6))}
        total = sum(morph.values()) + rng.randrange(0, 5)
        profiles.append(Profile(morph, {"root": total}, total))
    assert {feats for p in profiles for feats in p.morph} == set(FEATS_POOL)
    for _ in range(4):
        rng.shuffle(profiles)
        separates_like_the_oracle(profiles, caplog)


def warnings_of(profiles, caplog):
    caplog.clear()
    with caplog.at_level("DEBUG"):
        warn_malformed_feats(profiles)
    return [(r.levelname, r.getMessage()) for r in caplog.records]


def test_each_report_warns_once_per_malformed_entry_of_each_distinct_string(caplog):
    first = Profile({"Number=Sing|Oops": 2, "Case=Nom": 1}, {"root": 3}, 3)
    second = Profile({"Number=Sing|Oops": 5, "Oops": 1, "=x||Case=Dat": 1}, {"root": 7}, 7)
    expected = [("WARNING", f"skipping malformed FEATS entry {item!r} in {feats!r}")
                for feats, item in [("=x||Case=Dat", "=x"), ("=x||Case=Dat", ""),
                                    ("Number=Sing|Oops", "Oops"), ("Oops", "Oops")]]
    for _ in range(3):
        assert warnings_of([second, first, second], caplog) == expected
    assert warnings_of([first], caplog) == expected[2:3]
    assert warnings_of([first, Profile()], caplog) == expected[2:3]
    assert warnings_of([], caplog) == []


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
        profile = Profile(morph=morph, synt={"root": total}, total=total)
        separated = separate_categories(profile)
        for category, value_counts in separated.items():
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


def make_store():
    profiles = {
        ("lass", "old"): Profile({"Number=Sing": 2}, {"nsubj": 3}, 3),
        ("lass", "new"): Profile({}, {"obj": 1}, 1),
        ("stab", "old"): Profile({}, {}, 0),
        ("stab", "new"): Profile({"Number=Sing": 1}, {"nsubj": 1}, 1),
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
    # a token without FEATS leaves lass/old's morphology counts below its total
    lass = loaded.profiles[("lass", "old")]
    assert sum(lass.morph.values()) < lass.total


def test_store_save_deterministic():
    first, second = io.StringIO(), io.StringIO()
    make_store().save(first)
    make_store().save(second)
    assert first.getvalue() == second.getvalue()


def test_store_save_rejects_a_key_outside_its_periods():
    store = ProfileStore(periods=["a", "b"], profiles={
        ("w", "a"): Profile({}, {}, 0), ("w", "b"): Profile({}, {}, 0),
        ("w", "c"): Profile({}, {}, 0)})
    buffer = io.StringIO()
    with pytest.raises(DataError, match=r"^profile key \('w', 'c'\): period not in \['a', 'b'\]$"):
        store.save(buffer)
    assert buffer.getvalue() == ""


@pytest.mark.parametrize("word_id", ["x\ty", "", " w", "w\n", "w\r"],
                         ids=["tab", "empty", "leading-space", "lf", "cr"])
def test_store_save_rejects_a_key_that_is_not_a_word_id(word_id):
    """A key ``load`` would reject is refused before anything is written."""
    store = ProfileStore(periods=["a", "b"], profiles={
        ("ok", "a"): Profile({}, {"nsubj": 1}, 1), ("ok", "b"): Profile({}, {}, 0),
        (word_id, "a"): Profile({}, {}, 0), (word_id, "b"): Profile({}, {}, 0)})
    buffer = io.StringIO()
    with pytest.raises(DataError) as caught:
        store.save(buffer)
    assert str(caught.value) == (
        f"profile key {(word_id, 'a')!r}: word id {word_id!r} is empty or has "
        f"surrounding whitespace, tab, CR or LF")
    assert buffer.getvalue() == ""


def test_store_save_rejects_a_word_id_that_is_not_a_string():
    store = ProfileStore(periods=["a", "b"], profiles={
        (5, "a"): Profile({}, {}, 0), (5, "b"): Profile({}, {}, 0)})
    buffer = io.StringIO()
    with pytest.raises(DataError, match=r"^profile key \(5, 'a'\): word id is not a string$"):
        store.save(buffer)
    assert buffer.getvalue() == ""


# Each store is one that ``load`` rejects; ``save`` refuses it with the
# same message. A grid gap leaves word 'w' without a profile in 'b'.
@pytest.mark.parametrize("periods, profiles, options, message", [
    (["a"], {("w", "a"): Profile()}, {},
     "profile store header lists periods ['a']; a store needs at least two"),
    (["a", "a"], {("w", "a"): Profile()}, {},
     "profile store header lists period 'a' more than once"),
    (["a", ["b"]], {("w", "a"): Profile()}, {},
     "profile store header: periods must be a list of strings, got ['a', ['b']]"),
    (None, {("w", "a"): Profile()}, {},
     "profile store header: periods must be a list of strings, got None"),
    (["a", "b"], {("w", "a"): Profile(), ("w", "b"): Profile()}, [1],
     "profile store header: options must be an object, got [1]"),
    (["a", "b"], {}, {}, "profile store has a header but no record"),
    (["a", "b"], {("v", "a"): Profile(), ("v", "b"): Profile(), ("w", "a"): Profile()}, {},
     "profile store: missing profile for word 'w' in period 'b'"),
    (["a", "b"], {("x", "a"): Profile(), ("x", "b"): Profile(), (5, "a"): Profile(),
                  (5, "b"): Profile()}, {},
     "profile key (5, 'a'): word id is not a string"),
], ids=["one-period", "repeated-period", "period-not-string", "periods-none",
        "options-not-object", "no-profile", "grid-gap", "mixed-word-id-types"])
def test_store_save_refuses_what_load_rejects(periods, profiles, options, message):
    buffer = io.StringIO()
    with pytest.raises(DataError) as caught:
        ProfileStore(periods, profiles, options).save(buffer)
    assert str(caught.value) == message
    assert buffer.getvalue() == ""


def test_store_rejects_wrong_format():
    with pytest.raises(DataError):
        ProfileStore.load(io.StringIO('{"format": "something-else", "version": 1}\n'))


def replace_in_line(number, old, new):
    """An edit of a saved store's lines: ``old`` becomes ``new`` in line
    ``number`` (1-based)."""
    def edit(lines):
        assert old in lines[number - 1]
        return lines[:number - 1] + [lines[number - 1].replace(old, new)] + lines[number:]
    return edit


# make_store saves the header, then lass/old, lass/new, stab/old and
# stab/new on lines 2-5
@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines + [lines[-1].replace('"period": "new"', '"period": "mid"')],
     "line 6: period 'mid' is not one of the header's periods"),
    (lambda lines: lines[:-1], "missing profile for word 'stab' in period 'new'"),
    (lambda lines: [lines[0].replace('["old", "new"]', '["old", 2]')] + lines[1:],
     "periods must be a list of strings"),
    (lambda lines: ['["grammatical-profile-store"]\n'] + lines[1:], "not a profile store"),
    (lambda lines: [lines[0].replace('{"dataset": "toy"}', '[1]')] + lines[1:],
     "options must be an object"),
    (replace_in_line(4, '"synt": {}', '"synt": {"nsubj": 2}'),
     "^profile store line 4: syntax counts do not sum to total$"),
    (replace_in_line(3, '"synt": {"obj": 1}', '"synt": {"nsubj": 0, "obj": 1}'),
     "^profile store line 3: zero or negative count$"),
    (replace_in_line(5, '"morph": {"Number=Sing": 1}', '"morph": {"Number=Sing": 2}'),
     "^profile store line 5: morphology counts exceed total$"),
    (lambda lines: [], "^profile store is empty$"),
    (lambda lines: ["not json\n"] + lines[1:], "^profile store header is not valid JSON: "),
    (replace_in_line(1, '"version": 1', '"version": 2'),
     "^unsupported profile store version 2$"),
    (replace_in_line(2, ', "word_id": "lass"', ""),
     "^profile store line 2: bad record: 'word_id'$"),
    (lambda lines: [lines[0].replace('["old", "new"]', '["old"]')]
     + [line for line in lines[1:] if '"period": "old"' in line],
     r"^profile store header lists periods \['old'\]; a store needs at least two$"),
    (lambda lines: lines[:1], "^profile store has a header but no record$"),
    (replace_in_line(2, '"word_id": "lass"', '"word_id": "la\\tss"'),
     r"^profile store line 2: word id 'la\\tss' is empty or has surrounding whitespace, "),
    (replace_in_line(3, '"word_id": "lass"', '"word_id": "lass "'),
     "^profile store line 3: word id 'lass ' is empty or has surrounding whitespace, "),
    (replace_in_line(4, '"word_id": "stab"', '"word_id": ""'),
     "^profile store line 4: word id '' is empty or has surrounding whitespace, "),
], ids=["unknown-period", "grid-gap", "period-not-string", "header-not-object",
        "options-not-object", "synt-sum-not-total", "zero-count", "morph-exceeds-total",
        "empty", "header-not-json", "version-2", "no-word-id", "one-period", "header-only",
        "word-id-with-tab", "word-id-with-space", "empty-word-id"])
def test_store_rejects_bad_header_and_grid(edit, message):
    buffer = io.StringIO()
    make_store().save(buffer)
    text = "".join(edit(buffer.getvalue().splitlines(keepends=True)))
    with pytest.raises(DataError, match=message):
        ProfileStore.load(io.StringIO(text))


# ----------------------------------------------------------------------
# loading in batches


def store_lines(store):
    """The saved store as a list of lines, header first."""
    buffer = io.StringIO()
    store.save(buffer)
    return buffer.getvalue().splitlines(keepends=True)


def load_line_by_line(text):
    """Reference reader: one json.loads per non-blank line after the
    header. Returns (periods, options, profiles)."""
    lines = text.splitlines(keepends=True)
    header = json.loads(lines[0])
    profiles = {}
    for line in lines[1:]:
        if line.strip():
            r = json.loads(line)
            profiles[(r["word_id"], r["period"])] = Profile(r["morph"], r["synt"], r["total"])
    return header["periods"], header["options"], profiles


def bad_record_message(line_number, line):
    """The error for a line that does not decode on its own."""
    with pytest.raises(json.JSONDecodeError) as err:
        json.loads(line)
    return f"profile store line {line_number}: bad record: {err.value}"


def test_batched_load_equals_line_by_line_reference():
    rng = random.Random(5)
    lines = store_lines(random_store(rng, 3 * BATCH // 2 + 40, ["c1", "c2"]))
    assert len(lines) - 1 > 3 * BATCH
    text = lines[0]
    for i, line in enumerate(lines[1:]):
        if i % BATCH == 0 or rng.random() < 0.02:
            text += rng.choice(["\n", "  \n", "\t\n"])
        text += line
    loaded = ProfileStore.load(io.StringIO(text))
    assert (loaded.periods, loaded.options, loaded.profiles) == load_line_by_line(text)


@pytest.mark.parametrize("corrupt", [
    lambda line: line[:25] + "\n",
    lambda line: line.replace('"total": ', '"total": "').replace(', "word_id"',
                                                                '", "word_id"'),
], ids=["json", "type"])
def test_bad_record_in_second_batch_names_its_line(corrupt):
    lines = store_lines(random_store(random.Random(6), BATCH, ["c1", "c2"]))
    lines.insert(BATCH // 2, "\n")
    bad = BATCH + BATCH // 3  # 0-based index: a record line of the second batch
    lines[bad] = corrupt(lines[bad])
    with pytest.raises(DataError, match=f"^profile store line {bad + 1}: bad record: "):
        ProfileStore.load(io.StringIO("".join(lines)))


def test_first_bad_line_of_a_batch_wins_over_a_later_json_error():
    lines = store_lines(random_store(random.Random(7), 20, ["c1", "c2"]))
    record = json.loads(lines[2])
    record["total"] = str(record["total"])
    lines[2] = json.dumps(record) + "\n"  # line 3: a count that is not an integer
    lines[8] = lines[8][:30] + "\n"  # line 9: not JSON
    with pytest.raises(DataError, match="^profile store line 3: bad record: word_id and "
                                        "period must be strings"):
        ProfileStore.load(io.StringIO("".join(lines)))


def truncate_last_line(lines):
    return lines[:-1] + [lines[-1][:len(lines[-1]) // 2]], len(lines)


def split_one_record(lines, at=BATCH + 10):
    line = lines[at]
    cut = line.index(', "period"') + 1
    return lines[:at] + [line[:cut] + "\n", line[cut:]] + lines[at + 1:], at + 1


def join_two_records(lines, at=BATCH + 10, separator=""):
    joined = lines[at].rstrip("\n") + separator + lines[at + 1]
    return lines[:at] + [joined] + lines[at + 2:], at + 1


def join_two_records_with_a_comma(lines):
    # the batch still decodes, to one value more than it has lines
    return join_two_records(lines, separator=", ")


def join_two_records_and_split_one(lines, at=BATCH + 20):
    # in one batch: the joined line holds one record more, and a record is
    # split over two lines at a comma that becomes the line break; joined
    # with commas, the batch holds every record whole, one per line
    lines, line_number = join_two_records_with_a_comma(lines)
    line = lines[at]
    cut = line.index(', "period"')
    lines = lines[:at] + [line[:cut] + "\n", line[cut + 1:]] + lines[at + 1:]
    second_batch = lines[BATCH + 1:2 * BATCH + 1]
    assert len(json.loads("[" + ",".join(second_batch) + "]")) == len(second_batch)
    return lines, line_number


def pretty_print_records(lines):
    records = "".join(json.dumps(json.loads(line), indent=2, sort_keys=True) + "\n"
                      for line in lines[1:])
    return [lines[0]] + records.splitlines(keepends=True), 2


@pytest.mark.parametrize("corrupt", [truncate_last_line, split_one_record,
                                     join_two_records, join_two_records_with_a_comma,
                                     join_two_records_and_split_one, pretty_print_records],
                         ids=["truncated-last-line", "record-split-over-two-lines",
                              "two-records-on-one-line", "two-records-and-a-comma",
                              "two-records-and-a-comma-and-a-split-record",
                              "pretty-printed"])
def test_corrupt_store_layouts_exit_1_naming_the_line(tmp_path, capsys, corrupt):
    lines, line_number = corrupt(store_lines(random_store(random.Random(8), BATCH,
                                                          ["c1", "c2"])))
    path = tmp_path / "store.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main(["score", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"error: {path}: " + bad_record_message(line_number, lines[line_number - 1])
            in captured.err)
    assert captured.err.count(str(path)) == 1


@pytest.mark.parametrize("value, message", [
    ("1" + "0" * 5000, "Exceeds the limit"),
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
], ids=["5001-digit-count", "deep-nesting"])
def test_value_json_cannot_build_names_its_line(tmp_path, capsys, value, message):
    lines = store_lines(random_store(random.Random(11), 20, ["c1", "c2"]))
    lines[5] = lines[5].replace('"total": ', '"total": ' + value + ', "was": ', 1)
    path = tmp_path / "store.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main(["score", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"profile store line 6: bad record: {message}" in captured.err


def test_loaded_tables_share_one_object_per_distinct_key():
    store = random_store(random.Random(9), 200, ["c1", "c2"])
    assert len(store.profiles) <= BATCH  # one decode batch
    loaded = ProfileStore.load(io.StringIO("".join(store_lines(store))))
    for table in ("morph", "synt"):
        keys = [key for p in loaded.profiles.values() for key in getattr(p, table)]
        assert len({id(key) for key in keys}) == len(set(keys))


def test_separation_is_silent_and_each_report_matches_the_oracle(caplog):
    store = random_store(random.Random(10), 80, ["c1", "c2"])
    profiles = list(store.profiles.values())
    assert set(ODD_FEATS) <= {feats for p in profiles for feats in p.morph}
    expected = malformed_feats_warnings_oracle(profiles)
    assert len(expected) == len(set(expected)) > 0
    for _ in range(2):
        separates_like_the_oracle(profiles, caplog)
        assert warnings_of(profiles, caplog) == [("WARNING", line) for line in expected]
    middle = len(profiles) // 2
    assert [message for _, message in warnings_of(profiles[middle:], caplog)] == \
        malformed_feats_warnings_oracle(profiles[middle:])
