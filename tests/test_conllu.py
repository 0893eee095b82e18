import gzip
import io
import random

import pytest

from gramprof.conllu import (TargetIndex, TargetSpec, Token, load_targets,
                             open_corpus, parse_conllu, parse_feats,
                             strip_deprel_subtype)
from gramprof.errors import ConfigError, ConlluParseError

SAMPLE = """\
# sent_id = 1
# text = Lasses sang
1\tLasses\tlass\tNOUN\tNN\tNumber=Plur\t2\tnsubj\t_\t_
2\tsang\tsing\tVERB\tVBD\tMood=Ind|Tense=Past|VerbForm=Fin\t0\troot\t_\t_

1\tA\ta\tDET\tDT\t_\t2\tdet\t_\t_
2\tstab\tstab\tNOUN\tNN\tNumber=Sing\t0\troot\t_\t_
"""

MWT_SAMPLE = """\
1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_
1\tdo\tdo\tAUX\t_\t_\t3\taux\t_\t_
2\tn't\tnot\tPART\t_\t_\t3\tadvmod\t_\t_
3\tgo\tgo\tVERB\t_\tVerbForm=Inf\t0\troot\t_\t_
3.1\tghost\tghost\tNOUN\t_\t_\t_\t_\t_\t_
"""


def parse_text(text, **kwargs):
    return list(parse_conllu(io.StringIO(text), **kwargs))


def match(sentence, targets, **kwargs):
    return list(TargetIndex(targets, **kwargs).match(sentence))


def test_parse_two_sentences():
    sentences = parse_text(SAMPLE)
    assert len(sentences) == 2
    assert len(sentences[0]) == 2
    first = sentences[0][0]
    assert first == Token("Lasses", "lass", "NOUN", "Number=Plur", "nsubj")
    assert sentences[0][1].feats == "Mood=Ind|Tense=Past|VerbForm=Fin"


def test_empty_feats_token():
    sentences = parse_text(SAMPLE)
    det = sentences[1][0]
    assert det.feats == "_"
    assert parse_feats(det.feats) == []


def test_parse_feats_pairs():
    assert parse_feats("Mood=Ind|Tense=Past|VerbForm=Fin") == [
        ("Mood", "Ind"), ("Tense", "Past"), ("VerbForm", "Fin")]


def test_parse_feats_skips_malformed_entry(caplog):
    assert parse_feats("Number=Sing|Oops") == [("Number", "Sing")]


def test_multiword_ranges_and_empty_nodes_skipped():
    sentences = parse_text(MWT_SAMPLE)
    assert len(sentences) == 1
    assert [t.form for t in sentences[0]] == ["do", "n't", "go"]


def test_malformed_line_strict():
    bad = "1\tonly\tnine\tN\t_\t_\t0\troot\t_\n"
    with pytest.raises(ConlluParseError) as err:
        parse_text(bad, errors="strict")
    assert err.value.line_number == 1
    assert "9" in str(err.value)


def test_malformed_line_skipped_by_default():
    text = SAMPLE + "\nbroken line without tabs\n"
    sentences = parse_text(text)
    assert len(sentences) == 2


def test_non_integer_head_still_yields_token():
    line = "1\tword\tword\tNOUN\t_\t_\t_\tdep\t_\t_\n"
    [sentence] = parse_text(line)
    assert sentence == [Token("word", "word", "NOUN", "_", "dep")]


def test_round_trip():
    rng = random.Random(97)
    feats_pool = ["_", "Number=Sing", "Case=Nom|Number=Plur",
                  "Gender=Fem|Mood=Ind|Tense=Past"]
    for _ in range(50):
        sentence = [
            Token(
                form=f"w{i}", lemma=f"l{rng.randrange(5)}",
                upos=rng.choice(["NOUN", "VERB", "ADJ"]),
                feats=rng.choice(feats_pool),
                deprel=rng.choice(["nsubj", "obj", "obl:tmod", "root"]),
            )
            for i in range(rng.randrange(1, 6))
        ]
        text = "".join(
            f"{i}\t{t.form}\t{t.lemma}\t{t.upos}\t_\t{t.feats}\t{rng.randrange(0, 4)}"
            f"\t{t.deprel}\t_\t_\n"
            for i, t in enumerate(sentence, start=1)
        )
        assert parse_text(text) == [sentence]


def test_matching_order_independent():
    sentences = parse_text(SAMPLE)
    targets = [TargetSpec("lass", "lass"), TargetSpec("stab_nn", "stab",
                                                      frozenset({"NOUN"}))]
    index = TargetIndex(targets)
    forward = [m for s in sentences for m in index.match(s)]
    backward = [m for s in reversed(sentences) for m in index.match(s)]
    assert sorted(forward) == sorted(backward)
    assert {word_id for word_id, _ in forward} == {"lass", "stab_nn"}


def test_upos_filter_excludes():
    sentence = [Token("stabbed", "stab", "VERB", "Tense=Past", "root")]
    matches = match(sentence, [TargetSpec("stab_nn", "stab", frozenset({"NOUN"}))])
    assert matches == []


def test_case_folding():
    sentence = [Token("Lass", "Lass", "NOUN", "_", "root")]
    assert match(sentence, [TargetSpec("lass", "lass")]) == []
    matches = match(sentence, [TargetSpec("lass", "lass")], case_fold=True)
    assert [word_id for word_id, _ in matches] == ["lass"]


def test_match_on_form():
    sentence = [Token("went", "go", "VERB", "_", "root")]
    matches = match(sentence, [TargetSpec("went", "went")], match_field="form")
    assert [word_id for word_id, _ in matches] == ["went"]
    assert match(sentence, [TargetSpec("go", "go")], match_field="form") == []


def test_filtered_target_takes_precedence():
    sentence = [Token("stab", "stab", "NOUN", "_", "root")]
    targets = [TargetSpec("stab_any", "stab"),
               TargetSpec("stab_nn", "stab", frozenset({"NOUN"}))]
    assert match(sentence, targets) == [("stab_nn", sentence[0])]


def test_duplicate_rule_rejected():
    targets = [TargetSpec("a", "walk"), TargetSpec("b", "walk")]
    with pytest.raises(ConfigError):
        TargetIndex(targets)


def test_duplicate_word_id_rejected():
    targets = [TargetSpec("a", "walk"), TargetSpec("a", "run")]
    with pytest.raises(ConfigError):
        TargetIndex(targets)


def test_empty_lemma_rejected():
    with pytest.raises(ConfigError):
        TargetSpec("a", "")


def test_strip_deprel_subtype():
    assert strip_deprel_subtype("obl:tmod") == "obl"
    assert strip_deprel_subtype("nsubj") == "nsubj"
    assert strip_deprel_subtype("acl:relcl:extra") == "acl"


def test_load_targets(tmp_path):
    path = tmp_path / "targets.tsv"
    path.write_text(
        "# comment\n"
        "stab_nn\tstab\tNOUN\n"
        "walk\twalk\n"
        "go_v\tgo\tVERB,AUX\n",
        encoding="utf-8",
    )
    targets = load_targets(path)
    assert targets[0] == TargetSpec("stab_nn", "stab", frozenset({"NOUN"}))
    assert targets[1].upos_filter is None
    assert targets[2].upos_filter == frozenset({"VERB", "AUX"})


def test_load_targets_bad_column_count(tmp_path):
    path = tmp_path / "targets.tsv"
    path.write_text("only_one_column\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_targets(path)


def test_open_corpus_gzip(tmp_path):
    path = tmp_path / "corpus.conllu.gz"
    with gzip.open(path, "wt", encoding="utf-8") as f:
        f.write(SAMPLE)
    with open_corpus(path) as f:
        sentences = list(parse_conllu(f))
    assert len(sentences) == 2
