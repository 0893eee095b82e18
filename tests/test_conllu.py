import gzip
import io
import random
import re

import pytest

from gramprof.conllu import (FEATS, FORM, TargetIndex, TargetSpec, load_targets,
                             open_corpus, parse_conllu, parse_feats,
                             strip_deprel_subtype)
from gramprof.errors import ConfigError, ConlluParseError

from oracles import conllu_oracle

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


def row(form, lemma, upos, feats, deprel, token_id="1", head="0"):
    """A token as parse_conllu yields it: the 10 cells of its line, the
    last (MISC) with the line ending."""
    return [token_id, form, lemma, upos, "_", feats, head, deprel, "_", "_\n"]


def lines_of(text):
    """``text`` cut after each "\n", as a text stream reads it."""
    return re.split(r"(?<=\n)", text)


def match(sentence, targets, **kwargs):
    return list(TargetIndex(targets, **kwargs).match(sentence))


def test_parse_two_sentences():
    sentences = parse_text(SAMPLE)
    assert len(sentences) == 2
    assert len(sentences[0]) == 2
    first = sentences[0][0]
    assert first == ["1", "Lasses", "lass", "NOUN", "NN", "Number=Plur", "2", "nsubj",
                     "_", "_\n"]
    assert sentences[0][1][FEATS] == "Mood=Ind|Tense=Past|VerbForm=Fin"


def test_empty_feats_token():
    sentences = parse_text(SAMPLE)
    det = sentences[1][0]
    assert det[FEATS] == "_"
    assert parse_feats(det[FEATS]) == ((), ())
    assert parse_feats("") == ((), ())


def test_parse_feats_pairs():
    assert parse_feats("Mood=Ind|Tense=Past|VerbForm=Fin") == (
        (("Mood", "Ind"), ("Tense", "Past"), ("VerbForm", "Fin")), ())
    assert parse_feats("Foo=a=b|Polite=") == ((("Foo", "a=b"), ("Polite", "")), ())


def test_parse_feats_skips_malformed_entry(caplog):
    with caplog.at_level("DEBUG"):
        for _ in range(2):
            assert parse_feats("Number=Sing|Oops|=x||Case=Dat|_") == (
                (("Number", "Sing"), ("Case", "Dat")), ("Oops", "=x", "", "_"))
    assert caplog.records == []


def test_multiword_ranges_and_empty_nodes_skipped():
    sentences = parse_text(MWT_SAMPLE)
    assert len(sentences) == 1
    assert [t[FORM] for t in sentences[0]] == ["do", "n't", "go"]


def test_malformed_line_strict():
    bad = "1\tonly\tnine\tN\t_\t_\t0\troot\t_\n"
    with pytest.raises(ConlluParseError) as err:
        parse_text(bad, strict=True)
    assert err.value.line_number == 1
    assert "9" in str(err.value)


def test_malformed_line_skipped_by_default():
    text = SAMPLE + "\nbroken line without tabs\n"
    sentences = parse_text(text)
    assert len(sentences) == 2


def random_conllu_lines(rng, n):
    """Lines of every shape the reader distinguishes: token lines with
    plain, range (3-4), empty-node (5.1) and empty ids; lines with 1, 9
    and 11 columns; comments with and without 9 tabs; blank and
    whitespace-only lines; ``\\n``, ``\\r\\n`` and missing line endings."""
    def cell():
        return rng.choice(["a", "Lass", "_", "x-y", "1.5", "#", " ", "\r", "Number=Sing"])

    lines = []
    for _ in range(n):
        kind = rng.randrange(8)
        if kind < 3:
            token_id = rng.choice(["1", "2", "3-4", "5.1", "", "#1", "10"])
            line = "\t".join([token_id] + [cell() for _ in range(9)])
        elif kind == 3:
            line = "\t".join(cell() for _ in range(rng.choice([1, 9, 11])))
        elif kind == 4:
            line = "# " + ("\t" * 9 if rng.random() < 0.5 else "text = x")
        elif kind == 5:
            line = rng.choice(["", " ", "\r"])
        else:
            line = "\t".join(["7"] + [cell() for _ in range(8)] + ["\r"])
        lines.append(line + rng.choice(["\n", "\n", "\r\n", ""]))
    return lines


@pytest.mark.parametrize("seed", range(3))
def test_parser_matches_line_oracle(seed, caplog):
    rng = random.Random(seed)
    for _ in range(300):
        lines = random_conllu_lines(rng, rng.randrange(0, 30))
        expected, malformed = conllu_oracle(lines)

        caplog.clear()
        with caplog.at_level("WARNING", logger="gramprof.conllu"):
            assert list(parse_conllu(lines)) == expected
        warned = [r.getMessage() for r in caplog.records]
        assert len(warned) == len(malformed)
        assert all(msg.startswith(f"skipping malformed CONLL-U line {n}:")
                   for msg, n in zip(warned, malformed))

        if malformed:
            with pytest.raises(ConlluParseError) as err:
                list(parse_conllu(lines, strict=True))
            assert err.value.line_number == malformed[0]
        else:
            assert list(parse_conllu(lines, strict=True)) == expected

        # A plain string is split at "\n" only, so a "\r" inside a cell
        # stays in its line.
        text = "".join(lines)
        assert list(parse_conllu(text)) == conllu_oracle(lines_of(text))[0]


@pytest.mark.parametrize("suffix", ["", ".gz"], ids=["plain", "gz"])
def test_each_token_is_its_line_split_at_tabs(tmp_path, suffix):
    text = SAMPLE + "\n" + MWT_SAMPLE + "\n1\tlast\tlast\tX\t_\t_\t0\troot\t_\tNoEnd"
    path = tmp_path / f"corpus.conllu{suffix}"
    with (gzip.open(path, "wt", encoding="utf-8") if suffix
          else open(path, "w", encoding="utf-8")) as f:
        f.write(text)
    with open_corpus(path) as f:
        tokens = [token for sentence in parse_conllu(f) for token in sentence]
    kept = [line for line in lines_of(text)
            if line[:1].isdigit() and not re.match(r"\d+[-.]", line)]
    assert len(kept) == 8
    assert all(type(token) is list and len(token) == 10 for token in tokens)
    assert tokens == [line.split("\t") for line in kept]
    assert [token[9] for token in tokens] == ["_\n"] * 7 + ["NoEnd"]


def test_plain_string_splits_only_at_newline(caplog):
    # str.splitlines() would also break at U+2028, \x85, \x1c-\x1e, \x0b,
    # \x0c and a lone \r, and turn this token line into malformed lines.
    for char in ("\u2028", "\u2029", "\x85", "\x1c", "\x0b", "\x0c", "\r"):
        form = f"A{char}b"
        with caplog.at_level("WARNING", logger="gramprof.conllu"):
            sentences = list(parse_conllu(f"1\t{form}\ta\tNOUN\t_\t_\t0\troot\t_\t_\n"))
        assert sentences == [[row(form, "a", "NOUN", "_", "root")]]
    assert not caplog.records


def test_non_integer_head_still_yields_token():
    line = "1\tword\tword\tNOUN\t_\t_\t_\tdep\t_\t_\n"
    [sentence] = parse_text(line)
    assert sentence == [row("word", "word", "NOUN", "_", "dep", head="_")]


def test_round_trip():
    rng = random.Random(97)
    feats_pool = ["_", "Number=Sing", "Case=Nom|Number=Plur",
                  "Gender=Fem|Mood=Ind|Tense=Past"]
    for _ in range(50):
        sentence = [
            row(form=f"w{i}", lemma=f"l{rng.randrange(5)}",
                upos=rng.choice(["NOUN", "VERB", "ADJ"]),
                feats=rng.choice(feats_pool),
                deprel=rng.choice(["nsubj", "obj", "obl:tmod", "root"]),
                token_id=str(i), head=str(rng.randrange(0, 4)))
            for i in range(1, rng.randrange(2, 7))
        ]
        text = "".join("\t".join(token) for token in sentence)
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
    sentence = [row("stabbed", "stab", "VERB", "Tense=Past", "root")]
    matches = match(sentence, [TargetSpec("stab_nn", "stab", frozenset({"NOUN"}))])
    assert matches == []


def test_case_folding():
    sentence = [row("Lass", "Lass", "NOUN", "_", "root")]
    assert match(sentence, [TargetSpec("lass", "lass")]) == []
    matches = match(sentence, [TargetSpec("lass", "lass")], case_fold=True)
    assert [word_id for word_id, _ in matches] == ["lass"]
    # the target's lemma is folded too
    lower = [row("lass", "lass", "NOUN", "_", "root")]
    matches = match(lower, [TargetSpec("Lass", "Lass")], case_fold=True)
    assert [word_id for word_id, _ in matches] == ["Lass"]


def test_match_on_form():
    sentence = [row("went", "go", "VERB", "_", "root")]
    matches = match(sentence, [TargetSpec("went", "went")], match_form=True)
    assert [word_id for word_id, _ in matches] == ["went"]
    assert match(sentence, [TargetSpec("go", "go")], match_form=True) == []


def test_filtered_target_takes_precedence():
    sentence = [row("stab", "stab", "NOUN", "_", "root")]
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


@pytest.mark.parametrize("word_id", ["", " a", "a\u00a0", "a\tb", "a\nb", "a\rb"])
def test_word_id_is_one_tsv_cell(word_id):
    with pytest.raises(ConfigError, match="^word id .* is empty or has surrounding whitespace"):
        TargetSpec(word_id, "a")


def test_pos_filter_without_a_tag_rejected():
    with pytest.raises(ConfigError, match="POS filter with no tag"):
        TargetSpec("a", "a", frozenset())


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
