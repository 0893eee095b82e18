import argparse
import ast
import builtins
import gzip
import inspect
import json
import logging
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gramprof
from gramprof import cli
from gramprof.analysis import LOGREG_L2_INVERSE_STRENGTH
from gramprof.cli import main
from gramprof.decision import classify_changepoint, rank_words
from gramprof.profiles import Profile, ProfileStore
from gramprof.scoring import AGGREGATIONS, FEATURE_KINDS, MethodConfig, score_period_pair
import synth
from oracles import malformed_feats_warnings_oracle

OLD_CORPUS = """\
# period one
1\tlasses\tlass\tNOUN\t_\tNumber=Plur\t2\tnsubj\t_\t_
2\tsang\tsing\tVERB\t_\tMood=Ind|Tense=Past|VerbForm=Fin\t0\troot\t_\t_

1\tlasses\tlass\tNOUN\t_\tNumber=Plur\t0\troot\t_\t_

1\tlass\tlass\tNOUN\t_\tNumber=Sing\t0\troot\t_\t_

1\tstab\tstab\tNOUN\t_\tNumber=Sing\t0\troot\t_\t_

1\tstab\tstab\tVERB\t_\tVerbForm=Inf\t0\troot\t_\t_

1\twalked\twalk\tVERB\t_\tTense=Past\t0\troot\t_\t_

1\twalked\twalk\tVERB\t_\tTense=Past\t0\troot\t_\t_
"""

NEW_CORPUS = """\
1\tlass\tlass\tNOUN\t_\tNumber=Sing\t0\troot\t_\t_

1\tlass\tlass\tNOUN\t_\tNumber=Sing\t0\troot\t_\t_

1\tlass\tlass\tNOUN\t_\tNumber=Sing\t2\tobl:tmod\t_\t_

1\tstab\tstab\tNOUN\t_\tNumber=Sing\t0\troot\t_\t_

1\twalked\twalk\tVERB\t_\tTense=Past\t0\troot\t_\t_

1\twalked\twalk\tVERB\t_\tTense=Past\t0\troot\t_\t_
"""

TARGETS = "lass\tlass\nstab_nn\tstab\tNOUN\nwalk\twalk\n"

GOLD = "lass\t1\t0.9\nstab_nn\t0\t0.2\nwalk\t0\t0.1\n"


@pytest.fixture
def dataset(tmp_path):
    (tmp_path / "old.conllu").write_text(OLD_CORPUS, encoding="utf-8")
    (tmp_path / "new.conllu").write_text(NEW_CORPUS, encoding="utf-8")
    (tmp_path / "targets.tsv").write_text(TARGETS, encoding="utf-8")
    (tmp_path / "gold.tsv").write_text(GOLD, encoding="utf-8")
    (tmp_path / "dataset.yml").write_text(
        "name: toy\n"
        "targets: targets.tsv\n"
        "gold: gold.tsv\n"
        "periods:\n"
        "  - label: old\n"
        "    paths: [old.conllu]\n"
        "  - label: new\n"
        "    paths: [new.conllu]\n",
        encoding="utf-8",
    )
    return tmp_path


def run(argv):
    return main([str(a) for a in argv])


def extract(dataset, store_name="store.jsonl"):
    store = dataset / store_name
    code = run(["extract", "-c", dataset / "dataset.yml", "-o", store])
    assert code == 0
    return store


def test_extract_reports_match_counts(dataset, capsys):
    extract(dataset)
    out = capsys.readouterr().out
    assert "lass: old=3  new=3" in out
    assert "stab_nn: old=1  new=1" in out


def test_extract_to_stdout_writes_only_the_store(dataset, capsys):
    stored = extract(dataset)
    capsys.readouterr()
    assert run(["extract", "-c", dataset / "dataset.yml", "-o", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.out == stored.read_text(encoding="utf-8")
    assert "lass: old=3  new=3" in captured.err
    piped = dataset / "piped.jsonl"
    piped.write_text(captured.out, encoding="utf-8")
    assert run(["score", piped]) == 0


def test_extract_store_cardinality(dataset):
    store_path = extract(dataset)
    with open(store_path, encoding="utf-8") as f:
        store = ProfileStore.load(f)
    assert len(store.profiles) == 6  # 3 targets x 2 periods
    assert store.periods == ["old", "new"]


def test_extract_warns_about_unmatched_target(dataset, caplog):
    targets = dataset / "targets.tsv"
    targets.write_text(TARGETS + "ghost\tghost\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        extract(dataset)
    assert any("ghost" in record.message for record in caplog.records)


def test_extract_counts_targets_missing_from_some_periods_and_names_five(dataset, caplog):
    old = (dataset / "old.conllu").read_text(encoding="utf-8")
    extra = "".join(f"\n1\tx{i}\tx{i}\tNOUN\t_\tNumber=Sing\t0\troot\t_\t_\n"
                    for i in range(1, 7))
    (dataset / "old.conllu").write_text(old + extra, encoding="utf-8")
    (dataset / "targets.tsv").write_text(
        TARGETS + "ghost\tghost\n" + "".join(f"x{i}\tx{i}\n" for i in range(1, 7)),
        encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        extract(dataset)
    assert [r.getMessage() for r in caplog.records] == [
        "target 'ghost' matched nothing in any period",
        "targets matching nothing in some but not all periods: 6 "
        "('x1', 'x2', 'x3', 'x4', 'x5', ...)"]


def test_extract_missing_corpus_exits_2(dataset, capsys):
    (dataset / "old.conllu").unlink()
    code = run(["extract", "-c", dataset / "dataset.yml", "-o", dataset / "s.jsonl"])
    assert code == 2
    assert "old.conllu" in capsys.readouterr().err


def test_score_ranks_changed_word_highest(dataset, capsys):
    store = extract(dataset)
    capsys.readouterr()
    code = run(["score", store, "--features", "morphology", "--separate"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    rows = [line.split("\t") for line in lines]
    assert rows[0][0] == "lass"
    assert all(len(r) == 2 for r in rows)
    assert {r[0] for r in rows} == {"lass", "stab_nn", "walk"}
    # scores are printed with 6 decimals
    assert all(len(r[1].split(".")[1]) == 6 for r in rows)


def test_score_is_byte_deterministic(dataset):
    store = extract(dataset)
    out_1 = dataset / "scores1.tsv"
    out_2 = dataset / "scores2.tsv"
    argv = ["score", store, "--features", "combination", "--separate",
            "--filter", "0.05"]
    assert run(argv + ["-o", out_1]) == 0
    assert run(argv + ["-o", out_2]) == 0
    assert out_1.read_bytes() == out_2.read_bytes()


def test_score_ties_a_proportional_profile_with_an_unchanged_one_by_word_id(
        tmp_path, capsys):
    # z's new counts are twice its old ones: the profile only grew, so z
    # is at distance exactly 0 like the unchanged a, and follows it
    old = {"a": {"Number=Sing": 3, "Number=Plur": 2},
           "m": {"Number=Sing": 4, "Number=Plur": 1},
           "z": {"Number=Sing": 1, "Number=Plur": 1}}
    new = {"a": old["a"], "m": {"Number=Sing": 1, "Number=Plur": 4},
           "z": {"Number=Sing": 2, "Number=Plur": 2}}
    store = ProfileStore(["old", "new"], {
        (word_id, period): Profile(dict(counts),
                                   {"nsubj": sum(counts.values())}, sum(counts.values()))
        for period, words in (("old", old), ("new", new))
        for word_id, counts in words.items()})
    with open(tmp_path / "store.jsonl", "w", encoding="utf-8") as f:
        store.save(f)
    assert run(["score", tmp_path / "store.jsonl"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["a\t0.000000", "z\t0.000000"]
    assert lines[0].startswith("m\t")


def test_score_explain_columns(dataset, capsys):
    store = extract(dataset)
    capsys.readouterr()
    code = run(["score", store, "--features", "combination", "--separate",
                "--explain"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    header = lines[0].split("\t")
    assert header[:4] == ["word_id", "score", "d_morph", "d_synt"]
    assert "Number" in header


def test_score_combination_requires_separate(dataset, capsys):
    store = extract(dataset)
    code = run(["score", store, "--features", "combination"])
    assert code == 2
    assert "separation" in capsys.readouterr().err


def test_score_filter_out_of_range(dataset):
    store = extract(dataset)
    assert run(["score", store, "--filter", "1.5"]) == 2


def test_score_unknown_pair(dataset):
    store = extract(dataset)
    assert run(["score", store, "--pair", "old", "future"]) == 2


def test_classify_ratio(dataset, capsys):
    store = extract(dataset)
    scores = dataset / "scores.tsv"
    run(["score", store, "-o", scores])
    capsys.readouterr()
    code = run(["classify", scores, "--ratio", "0.43"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    labels = dict(line.split("\t") for line in lines)
    assert sum(int(v) for v in labels.values()) == 1  # round(0.43 * 3) = 1


def test_classify_changepoint(dataset, capsys):
    store = extract(dataset)
    scores = dataset / "scores.tsv"
    run(["score", store, "--separate", "-o", scores])
    capsys.readouterr()
    code = run(["classify", scores, "--changepoint"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    labels = dict(line.split("\t") for line in lines)
    assert labels["lass"] == "1"


def test_classify_changepoint_two_level_file(dataset, capsys):
    scores = dataset / "scores.tsv"
    scores.write_text("a\t0.9\nb\t0.85\nc\t0.2\nd\t0.15\ne\t0.1\n",
                      encoding="utf-8")
    code = run(["classify", scores, "--changepoint"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    labels = dict(line.split("\t") for line in lines)
    assert sum(int(v) for v in labels.values()) == 2
    assert labels["a"] == "1" and labels["b"] == "1"


def test_classify_requires_exactly_one_mode(dataset):
    store = extract(dataset)
    scores = dataset / "scores.tsv"
    run(["score", store, "-o", scores])
    with pytest.raises(SystemExit) as err:
        run(["classify", scores, "--ratio", "0.43", "--changepoint"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run(["classify", scores])
    assert err.value.code == 2


def test_evaluate_binary(dataset, capsys):
    labels = dataset / "labels.tsv"
    labels.write_text("lass\t1\nstab_nn\t0\nwalk\t0\n", encoding="utf-8")
    code = run(["evaluate", labels, dataset / "gold.tsv", "--task", "binary"])
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy" in out and "1.0000" in out


def test_evaluate_graded_json_lines(dataset, capsys):
    scores = dataset / "scores.tsv"
    scores.write_text("lass\t0.9\nstab_nn\t0.5\nwalk\t0.1\n", encoding="utf-8")
    code = run(["evaluate", scores, dataset / "gold.tsv", "--task", "graded",
                "--format", "json-lines"])
    assert code == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.strip().split("\n")]
    metrics = {row["metric"]: row["value"] for row in rows}
    assert metrics["spearman"] == pytest.approx(1.0)
    assert metrics["n"] == 3


def test_evaluate_word_mismatch_is_data_error(dataset, capsys):
    scores = dataset / "scores.tsv"
    scores.write_text("lass\t0.9\nstab_nn\t0.5\nsomething\t0.1\n", encoding="utf-8")
    code = run(["evaluate", scores, dataset / "gold.tsv", "--task", "graded"])
    assert code == 1
    assert "differ" in capsys.readouterr().err


MANY_WORDS = [f"w{i:04d}" for i in range(3000)]


@pytest.mark.parametrize("argv, err", [
    (["evaluate", "{scores}", "{gold}", "--task", "graded"],
     "3000 only in prediction ('w0000', 'w0001', 'w0002', 'w0003', 'w0004', ...); "
     "7 only in gold ('lass', 'prop', 'record_vb', 'sing', 'stab_nn', ...)"),
    (["evaluate", "{labels}", "{gold}", "--task", "binary"],
     "3000 only in prediction ('w0000', 'w0001', 'w0002', 'w0003', 'w0004', ...); "
     "7 only in gold ('lass', 'prop', 'record_vb', 'sing', 'stab_nn', ...)"),
    (["combine-labels", "{labels}", "{few_labels}"],
     "2990 only in the first labeling ('w0010', 'w0011', 'w0012', 'w0013', 'w0014', ...); "
     "1 only in the second ('lass')"),
], ids=["evaluate-graded", "evaluate-binary", "combine-labels"])
def test_word_set_mismatch_counts_each_side_on_one_short_line(tmp_path, capsys, argv, err):
    paths = {"scores": tmp_path / "scores.tsv", "labels": tmp_path / "labels.tsv",
             "few_labels": tmp_path / "few.tsv", "gold": DEMO / "gold.tsv"}
    paths["scores"].write_text("".join(f"{w}\t{i / 3000}\n" for i, w in enumerate(MANY_WORDS)),
                               encoding="utf-8")
    paths["labels"].write_text("".join(f"{w}\t{i % 2}\n" for i, w in enumerate(MANY_WORDS)),
                               encoding="utf-8")
    paths["few_labels"].write_text("".join(f"{w}\t1\n" for w in MANY_WORDS[:10] + ["lass"]),
                                   encoding="utf-8")
    assert run([arg.format(**paths) for arg in argv]) == 1
    assert capsys.readouterr().err == f"error: word sets differ: {err}\n"


def test_timeline_of_an_unknown_word_counts_the_store_words(tmp_path, capsys):
    store = synth.random_store(random.Random(5), 3000, ["old", "new"])
    with open(tmp_path / "store.jsonl", "w", encoding="utf-8") as f:
        store.save(f)
    assert run(["timeline", tmp_path / "store.jsonl", "lass", "Number"]) == 1
    assert capsys.readouterr().err == ("error: word 'lass' not in store; its 3000 words begin "
                                       "'w0000', 'w0001', 'w0002', 'w0003', 'w0004'\n")


@pytest.mark.parametrize("argv, labels", [
    (["--changepoint"], "a\t1\nb\t0\nc\t0\nd\t0\n"),
    (["--ratio", "0.5"], "a\t1\nb\t1\nc\t0\nd\t0\n"),
], ids=["changepoint", "ratio"])
def test_classify_warns_when_every_score_is_equal(tmp_path, capsys, caplog, argv, labels):
    """All-equal scores carry no ranking: the tie rule labels by word id,
    and one warning says so."""
    scores = tmp_path / "scores.tsv"
    scores.write_text("c\t0.000000\na\t0.000000\nd\t0.000000\nb\t0.000000\n",
                      encoding="utf-8")
    assert outcome(["classify", scores, *argv], capsys, caplog) == (0, labels, "", [
        ("WARNING", f"{scores}: all 4 scores equal 0.0, so the labels follow word-id "
                    f"order only")])


def test_evaluate_binary_warns_once_about_a_class_absent_from_both(tmp_path, caplog):
    (tmp_path / "pred.tsv").write_text("a\t1\nb\t1\n", encoding="utf-8")
    (tmp_path / "gold.tsv").write_text("a\t1\t-\nb\t1\t-\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        assert run(["evaluate", tmp_path / "pred.tsv", tmp_path / "gold.tsv",
                    "--task", "binary"]) == 0
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == \
        ["class 0 absent from both prediction and gold; its F1 counts as 0"]


def test_analyze_logreg(dataset, capsys):
    store = extract(dataset)
    capsys.readouterr()
    code = run(["analyze", store, dataset / "gold.tsv", "--report", "logreg"])
    assert code == 0
    out = capsys.readouterr().out
    assert "category" in out
    assert "train_accuracy" in out


def test_analyze_correlation_needs_five_words(dataset, capsys):
    store = extract(dataset)
    code = run(["analyze", store, dataset / "gold.tsv", "--report", "correlation"])
    assert code == 1  # only 3 words in the toy set


def test_timeline_csv(dataset, capsys):
    store = extract(dataset)
    capsys.readouterr()
    code = run(["timeline", store, "lass", "Number"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "period,value,count,proportion"
    assert lines[1].startswith("old,Plur,2,0.666667")
    assert any(line.startswith("new,Sing,3,1.000000") for line in lines)


def test_timeline_syntax_refuses_a_feats_category_named_syntax(tmp_path, capsys):
    """``syntax`` names the DEPREL table, so a word with a FEATS category
    of that name is refused, as analyze refuses it; its other
    categories still work."""
    store = tmp_path / "store.jsonl"
    store.write_text(
        '{"format": "grammatical-profile-store", "periods": ["a", "b"], "version": 1}\n'
        '{"morph": {"syntax=X|Case=Nom": 2}, "period": "a", "synt": {"nsubj": 2}, '
        '"total": 2, "word_id": "w"}\n'
        '{"morph": {"Case=Acc": 1}, "period": "b", "synt": {"obj": 1}, "total": 1, '
        '"word_id": "w"}\n', encoding="utf-8")
    capsys.readouterr()
    assert run(["timeline", store, "w", "syntax"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: this word has a FEATS category named 'syntax', "
                            "which collides with the syntax column\n")
    assert run(["timeline", store, "w", "Case"]) == 0
    assert capsys.readouterr().out == ("period,value,count,proportion\n"
                                       "a,Acc,0,0.000000\na,Nom,2,1.000000\n"
                                       "b,Acc,1,1.000000\nb,Nom,0,0.000000\n")


def test_timeline_unknown_word(dataset, capsys):
    store = extract(dataset)
    code = run(["timeline", store, "nope", "Number"])
    assert code == 1
    assert "lass" in capsys.readouterr().err


def test_rank_top_k(dataset, capsys):
    scores = dataset / "scores.tsv"
    scores.write_text("a\t0.1\nb\t0.9\nc\t0.5\n", encoding="utf-8")
    code = run(["rank", scores, "--top", "2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines == ["b\t0.900000", "c\t0.500000"]


def test_combine_labels(dataset, capsys):
    first = dataset / "a.tsv"
    second = dataset / "b.tsv"
    first.write_text("x\t1\ny\t0\n", encoding="utf-8")
    second.write_text("x\t0\ny\t0\n", encoding="utf-8")
    code = run(["combine-labels", first, second])
    assert code == 0
    assert capsys.readouterr().out == "x\t1\ny\t0\n"


def test_full_pipeline_deterministic(dataset):
    artifacts = []
    for suffix in ("one", "two"):
        store = dataset / f"store_{suffix}.jsonl"
        scores = dataset / f"scores_{suffix}.tsv"
        labels = dataset / f"labels_{suffix}.tsv"
        assert run(["extract", "-c", dataset / "dataset.yml", "-o", store]) == 0
        assert run(["score", store, "--features", "combination", "--separate",
                    "-o", scores]) == 0
        assert run(["classify", scores, "--ratio", "0.43", "-o", labels]) == 0
        artifacts.append((store.read_bytes(), scores.read_bytes(),
                          labels.read_bytes()))
    assert artifacts[0] == artifacts[1]


def test_dataset_pairs_key_warns_and_changes_nothing(dataset, caplog):
    plain = extract(dataset, "plain.jsonl")
    config = dataset / "dataset.yml"
    config.write_text(config.read_text(encoding="utf-8") + "pairs:\n  - [old, old]\n",
                      encoding="utf-8")
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        with_pairs = extract(dataset, "pairs.jsonl")
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "'pairs' key is not read" in warnings[0] and "--pair" in warnings[0]
    assert with_pairs.read_bytes() == plain.read_bytes()


OLD_AND_NEW = ("periods:\n  - label: old\n    paths: [old.conllu]\n"
               "  - label: new\n    paths: [new.conllu]\n")


# malformed periods, then the other ways a dataset config is rejected
@pytest.mark.parametrize("text, message", [
    ("targets: targets.tsv\nperiods: abc\n", "'label' and 'paths'"),
    ("targets: targets.tsv\nperiods: null\n", "'label' and 'paths'"),
    ("targets: targets.tsv\nperiods: [old.conllu, new.conllu]\n", "'label' and 'paths'"),
    ("targets: targets.tsv\nperiods:\n  old: [old.conllu]\n  new: [new.conllu]\n",
     "'label' and 'paths'"),
    ("targets: targets.tsv\nperiods: [unclosed\n", " is not valid YAML: "),
    ("- targets.tsv\n- old.conllu\n", ": expected a mapping at the top level"),
    (OLD_AND_NEW, ": missing required key 'targets'"),
    ("targets: none.tsv\n" + OLD_AND_NEW, ": target file not found: "),
    ("targets: targets.tsv\n" + OLD_AND_NEW[:OLD_AND_NEW.index("  - label: new")],
     ": dataset needs at least 2 periods"),
    ("targets: targets.tsv\n" + OLD_AND_NEW.replace("label: new", "label: old"),
     ": duplicate period labels"),
    ("targets: targets.tsv\n" + OLD_AND_NEW.replace("[new.conllu]", "[]"),
     ": period 'new' needs a non-empty 'paths' list"),
], ids=["string", "null", "list-of-paths", "mapping", "yaml-syntax", "top-level-list",
        "no-targets-key", "no-targets-file", "one-period", "repeated-label", "empty-paths"])
def test_malformed_dataset_periods_exit_2(dataset, capsys, text, message):
    config = dataset / "bad.yml"
    config.write_text(text, encoding="utf-8")
    assert run(["extract", "-c", config, "-o", dataset / "store.jsonl"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {config}") and message in err
    assert not (dataset / "store.jsonl").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        run(["--version"])
    assert err.value.code == 0
    assert "gramprof" in capsys.readouterr().out


def test_verbose_flag_takes_effect_on_every_call_in_one_process(dataset, caplog):
    argv = ["extract", "-c", dataset / "dataset.yml", "-o", dataset / "store.jsonl"]
    for verbose in (["-v"], [], ["-v"], []):  # ends plain: the root level is WARNING again
        caplog.clear()
        assert run([*verbose, *argv]) == 0
        assert [r.getMessage() for r in caplog.records if r.levelname == "INFO"] == \
            [f"wrote 6 profiles to {dataset / 'store.jsonl'}"] * len(verbose)


def test_seed_flag_accepted(dataset, capsys):
    scores = dataset / "scores.tsv"
    scores.write_text("a\t0.1\nb\t0.9\n", encoding="utf-8")
    assert run(["--seed", "7", "rank", scores]) == 0


@pytest.mark.parametrize("argv", [
    ["evaluate", "{labels}", "{d}/nogold.tsv", "--task", "binary"],
    ["analyze", "{store}", "{d}/nogold.tsv", "--report", "logreg"],
    ["extract", "-c", "{d}/dataset.yml", "-o", "{d}/nodir/store.jsonl"],
    ["score", "{store}", "-o", "{d}/nodir/scores.tsv"],
    ["classify", "{scores}", "--ratio", "0.43", "-o", "{d}/nodir/labels.tsv"],
    ["timeline", "{store}", "lass", "Number", "-o", "{d}/nodir/lass.csv"],
    ["combine-labels", "{labels}", "{labels}", "-o", "{d}/nodir/labels.tsv"],
], ids=lambda argv: argv[0])
def test_missing_input_or_output_directory_exits_2(dataset, capsys, argv):
    paths = {"d": dataset, "store": extract(dataset),
             "scores": dataset / "scores.tsv", "labels": dataset / "labels.tsv"}
    paths["scores"].write_text("lass\t0.9\nstab_nn\t0.5\nwalk\t0.1\n", encoding="utf-8")
    paths["labels"].write_text("lass\t1\nstab_nn\t0\nwalk\t0\n", encoding="utf-8")
    capsys.readouterr()
    assert run([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("nogold" in err or "nodir" in err)


@pytest.mark.parametrize("command", [["score"],
                                     ["analyze", "{gold}", "--report", "logreg"],
                                     ["timeline", "lass", "Number"]],
                         ids=lambda command: command[0])
def test_store_missing_a_record_exits_1(dataset, capsys, command):
    store = extract(dataset)
    lines = store.read_text(encoding="utf-8").splitlines(keepends=True)
    store.write_text("".join(line for line in lines if '"walk"' not in line
                             or '"new"' not in line), encoding="utf-8")
    capsys.readouterr()
    argv = [command[0], store] + [a.format(gold=dataset / "gold.tsv") for a in command[1:]]
    assert run(argv) == 1
    assert "missing profile for word 'walk'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", [["classify", "--changepoint"], ["rank"],
                                     ["evaluate", "{gold}", "--task", "graded"]],
                         ids=lambda command: command[0])
def test_non_finite_score_is_rejected(dataset, capsys, command, value):
    scores = dataset / "scores.tsv"
    scores.write_text(f"lass\t0.9\nstab_nn\t{value}\nwalk\t0.1\n", encoding="utf-8")
    argv = [command[0], scores] + [a.format(gold=dataset / "gold.tsv")
                                   for a in command[1:]]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "not finite" in err


def rewrite_record(store, word_id, period, change):
    """Pass the store record of (word_id, period) through ``change``
    and write the store back; returns the record's line number."""
    lines = store.read_text(encoding="utf-8").splitlines(keepends=True)
    for number, line in enumerate(lines[1:], start=2):
        record = json.loads(line)
        if (record["word_id"], record["period"]) == (word_id, period):
            lines[number - 1] = json.dumps(change(record)) + "\n"
            store.write_text("".join(lines), encoding="utf-8")
            return number
    raise AssertionError(f"no record for {word_id}/{period}")


def set_in(record, table, key, value):
    if key is None:
        record[table] = value
    else:
        record[table][key] = value
    return record


# lass/old holds morph {Number=Plur: 2, Number=Sing: 1}, synt {nsubj: 1,
# root: 2} and total 3; int() of each bad value below keeps those sums
@pytest.mark.parametrize("table, key, value", [
    ("morph", "Number=Plur", 2.7),
    ("morph", "Number=Sing", True),
    ("morph", "Number=Sing", "1"),
    ("morph", None, []),
    ("total", None, 3.9),
], ids=["float", "true", "string", "list", "total"])
@pytest.mark.parametrize("command", [["score"], ["timeline", "lass", "Number"]],
                         ids=lambda command: command[0])
def test_store_count_that_is_not_an_integer_exits_1(dataset, capsys, command,
                                                    table, key, value):
    store = extract(dataset)
    number = rewrite_record(store, "lass", "old",
                            lambda record: set_in(record, table, key, value))
    capsys.readouterr()
    assert run([command[0], store, *command[1:]]) == 1
    assert f"profile store line {number}: bad record" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["classify", "{bad}", "--ratio", "2"],
    ["rank", "{bad}", "--top", "0"],
    ["score", "{bad}", "--filter", "2"],
], ids=lambda argv: argv[0])
def test_usage_error_wins_over_bad_input(dataset, capsys, argv):
    bad = dataset / "bad.tsv"
    bad.write_text("lass\tnot-a-number\n", encoding="utf-8")
    assert run([arg.format(bad=bad) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_store_header_repeating_a_period_exits_1(dataset, capsys):
    store = extract(dataset)
    lines = store.read_text(encoding="utf-8").splitlines(keepends=True)
    header = json.loads(lines[0])
    header["periods"] = ["old", "old"]
    store.write_text(json.dumps(header) + "\n" + "".join(
        line for line in lines[1:] if '"period": "new"' not in line), encoding="utf-8")
    capsys.readouterr()
    assert run(["score", store]) == 1
    assert "period 'old' more than once" in capsys.readouterr().err


def test_store_record_with_unknown_period_exits_1(dataset, capsys):
    store = extract(dataset)
    lines = store.read_text(encoding="utf-8").splitlines(keepends=True)
    store.write_text("".join(lines) + lines[-1].replace('"period": "new"', '"period": "later"'),
                     encoding="utf-8")
    capsys.readouterr()
    assert run(["score", store]) == 1
    assert (f"profile store line {len(lines) + 1}: period 'later' is not one of "
            f"the header's periods") in capsys.readouterr().err


DEMO = Path(__file__).resolve().parents[1] / "demos" / "data"


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """The README quick-start store, scores and labels of the bundled
    demo data."""
    d = tmp_path_factory.mktemp("demo")
    paths = {"data": DEMO, "d": d, "store": d / "store.jsonl",
             "scores": d / "scores.tsv", "labels": d / "labels.tsv"}
    assert run(["extract", "-c", DEMO / "dataset.yml", "-o", paths["store"]]) == 0
    assert run(["score", paths["store"], "--features", "combination", "--separate",
                "-o", paths["scores"]]) == 0
    assert run(["classify", paths["scores"], "--changepoint", "-o", paths["labels"]]) == 0
    return paths


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", [
    ["evaluate", "{scores}", "{gold}", "--task", "graded"],
    ["analyze", "{store}", "{gold}", "--report", "correlation"],
], ids=lambda command: command[0])
def test_non_finite_gold_score_is_rejected(demo, tmp_path, capsys, command, value):
    lines = (DEMO / "gold.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    word_id, binary, _ = lines[1].split("\t")
    lines[1] = f"{word_id}\t{binary}\t{value}\n"
    gold = tmp_path / "gold.tsv"
    gold.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert run([arg.format(gold=gold, **demo) for arg in command]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "not finite" in err


@pytest.mark.parametrize("output_format", ["text", "json-lines"])
def test_exact_p_report_writes_plain_booleans(demo, capsys, output_format):
    capsys.readouterr()
    assert run(["analyze", demo["store"], DEMO / "gold.tsv", "--report", "correlation",
                "--exact-p", "--format", output_format]) == 0
    lines = capsys.readouterr().out.splitlines()
    if output_format == "json-lines":
        assert {type(json.loads(line)["significant"]) for line in lines} == {bool}
    else:
        assert [line.split()[3] for line in lines[1:]] == ["no"] * (len(lines) - 1)


# and a store of three periods, where --pair must choose two
@pytest.mark.parametrize("command, message", [
    (["score", "{store}", "--pair", "old", "old"],
     "--pair must name two different periods, got 'old' twice"),
    (["analyze", "{store}", "{data}/gold.tsv", "--report", "logreg", "--pair", "old", "old"],
     "--pair must name two different periods, got 'old' twice"),
    (["score", "{three}"], "store has periods ['a', 'b', 'c']; select two with --pair"),
], ids=["score", "analyze", "three-periods"])
def test_pair_naming_one_period_twice_exits_2(demo, tmp_path, capsys, command, message):
    three = tmp_path / "three.jsonl"
    with open(three, "w", encoding="utf-8") as f:
        synth.random_store(random.Random(3), 4, ["a", "b", "c"]).save(f)
    capsys.readouterr()
    assert run([arg.format(three=three, **demo) for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err


# 1e-320 and 5e-324 are positive, but the penalty weight 1/C overflows to inf
@pytest.mark.parametrize("value", ["nan", "0", "-1", "1e-320", "5e-324"])
def test_analyze_l2_must_be_positive(demo, capsys, value):
    capsys.readouterr()
    assert run(["analyze", demo["store"], DEMO / "gold.tsv", "--report", "logreg",
                "--l2", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "inverse regularization strength must be positive" in captured.err


@pytest.mark.parametrize("value", ["0", "-1", "nan", "1e-320"])
def test_analyze_l2_is_checked_before_the_store_is_read(tmp_path, capsys, value):
    corrupt = tmp_path / "corrupt.jsonl"
    corrupt.write_text("not json\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["analyze", corrupt, DEMO / "gold.tsv", "--report", "logreg",
                "--l2", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--l2: the inverse regularization strength must be positive" in captured.err


def python_env():
    """The environment for a fresh interpreter that imports this gramprof."""
    src = str(Path(gramprof.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


# In a fresh interpreter: imports gramprof; with "cli" or "run" also
# gramprof.cli, and with "run" runs the CLI command given by the other
# arguments. Prints the modules loaded since before "import gramprof", then
# those loaded before it, so that what the interpreter's start-up (a site
# hook, say) already loaded neither passes nor fails a row.
MODULES_PROBE = """\
import sys
before = set(sys.modules)
import contextlib, io
import gramprof
mode, argv = sys.argv[1], sys.argv[2:]
if mode != "import":
    from gramprof.cli import main
if mode == "run":
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        sys.exit(f"exit {code}")
print(" ".join(m for m in sys.modules if m not in before))
print(" ".join(before))
"""

WATCHED = ["numpy", "scipy", "yaml", "dataclasses", "fractions", "decimal", "gzip", "json",
           "csv", "pathlib"]


def loads_only(*needed):
    """A row's needed modules, and as the absent ones every other watched module."""
    return list(needed), [m for m in WATCHED if m not in needed]


@pytest.fixture(scope="module")
def gz_data(tmp_path_factory):
    """The demo dataset with its old corpus gzipped."""
    d = demo_copy(tmp_path_factory.mktemp("gz"))
    (d / "old.conllu.gz").write_bytes(gzip.compress((d / "old.conllu").read_bytes()))
    yml = (d / "dataset.yml").read_text(encoding="utf-8")
    (d / "dataset.yml").write_text(yml.replace("[old.conllu]", "[old.conllu.gz]"),
                                   encoding="utf-8")
    return d


RUN = ["run"]
EXTRACT_LOADS = ["yaml", "json", "pathlib"]
STORE_LOADS = ["json"]


@pytest.mark.parametrize("argv, needed, absent", [
    pytest.param(["import"], *loads_only(), id="import"),
    pytest.param(["cli"], *loads_only(), id="import-cli"),
    pytest.param(RUN + ["extract", "-c", "{data}/dataset.yml", "-o", "{d}/again.jsonl"],
                 *loads_only(*EXTRACT_LOADS), id="extract"),
    pytest.param(RUN + ["extract", "-c", "{gz}/dataset.yml", "-o", "{d}/again-gz.jsonl"],
                 *loads_only(*EXTRACT_LOADS, "gzip"), id="extract-gz"),
    pytest.param(RUN + ["score", "{store}", "--features", "combination", "--separate"],
                 *loads_only(*STORE_LOADS), id="score"),
    pytest.param(RUN + ["classify", "{scores}", "--changepoint"], *loads_only(),
                 id="classify"),
    pytest.param(RUN + ["classify", "{scores}", "--ratio", "0.43"], *loads_only(),
                 id="classify-ratio"),
    pytest.param(RUN + ["timeline", "{store}", "lass", "Number"], *loads_only("json", "csv"),
                 id="timeline"),
    pytest.param(RUN + ["rank", "{scores}"], *loads_only(), id="rank"),
    pytest.param(RUN + ["combine-labels", "{labels}", "{labels}"], *loads_only(),
                 id="combine-labels"),
    pytest.param(RUN + ["evaluate", "{labels}", "{data}/gold.tsv", "--task", "binary"],
                 *loads_only(), id="evaluate-binary"),
    pytest.param(RUN + ["evaluate", "{labels}", "{data}/gold.tsv", "--task", "binary",
                        "--format", "json-lines"], *loads_only("json"), id="evaluate-json-lines"),
    pytest.param(RUN + ["evaluate", "{scores}", "{data}/gold.tsv", "--task", "graded"],
                 *loads_only("numpy"), id="evaluate"),
    pytest.param(RUN + ["analyze", "{store}", "{data}/gold.tsv", "--report", "logreg"],
                 *loads_only("numpy", *STORE_LOADS), id="analyze-logreg"),
    # scipy.special itself loads dataclasses, csv and more; not scipy.stats, fractions or decimal
    pytest.param(RUN + ["analyze", "{store}", "{data}/gold.tsv", "--report", "correlation"],
                 ["numpy", "scipy.special", *STORE_LOADS],
                 ["scipy.stats", "yaml", "gzip", "fractions", "decimal"],
                 id="analyze"),
    pytest.param(RUN + ["analyze", "{store}", "{data}/gold.tsv", "--report", "correlation",
                        "--exact-p"], *loads_only("numpy", *STORE_LOADS), id="analyze-exact-p"),
])
def test_commands_import_only_what_they_use(demo, gz_data, argv, needed, absent):
    done = subprocess.run([sys.executable, "-c", MODULES_PROBE,
                           *(arg.format(gz=gz_data, **demo) for arg in argv)],
                          env=python_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded, preloaded = (set(line.split()) for line in done.stdout.split("\n")[:2])
    assert set(needed) <= loaded | preloaded
    assert not loaded & set(absent)


def random_store(path, rng, n_words):
    """A two-period store of words with 1-30 random tokens per period,
    so that many scores tie exactly or nearly."""
    feats = ["_", "Number=Sing", "Number=Plur", "Case=Nom|Number=Sing",
             "Case=Acc|Number=Plur", "Tense=Past|VerbForm=Fin"]
    deprels = ["nsubj", "obj", "obl", "root"]
    profiles = {}
    for i in range(n_words):
        for period in ("old", "new"):
            profile = profiles[(f"w{i:03d}", period)] = Profile()
            for _ in range(rng.randrange(1, 31)):
                profile.add_token(rng.choice(feats), rng.choice(deprels))
    store = ProfileStore(periods=["old", "new"], profiles=profiles)
    with open(path, "w", encoding="utf-8") as f:
        store.save(f)
    return store


@pytest.mark.parametrize("flags, config", [
    pytest.param([], MethodConfig(), id="morphology"),
    pytest.param(["--features", "syntax"], MethodConfig(feature_kind="syntax"),
                 id="syntax"),
    pytest.param(["--features", "average"], MethodConfig(feature_kind="average"),
                 id="average"),
    pytest.param(["--separate"], MethodConfig(separation=True), id="separate"),
    pytest.param(["--separate", "--aggregate", "mean"],
                 MethodConfig(separation=True, aggregation="mean"), id="separate-mean"),
    pytest.param(["--features", "combination", "--separate"],
                 MethodConfig(feature_kind="combination", separation=True),
                 id="combination"),
])
def test_cli_changepoint_labels_equal_library_on_full_precision(tmp_path, capsys,
                                                                flags, config):
    store = random_store(tmp_path / "store.jsonl", random.Random(41), 300)
    scores = score_period_pair(store.profiles, ("old", "new"), config)
    expected = classify_changepoint(rank_words({w: s.aggregate for w, s in scores.items()}))
    assert run(["score", tmp_path / "store.jsonl", *flags,
                "-o", tmp_path / "scores.tsv"]) == 0
    capsys.readouterr()
    assert run(["classify", tmp_path / "scores.tsv", "--changepoint"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert {w: int(v) for w, v in (line.split("\t") for line in lines)} == expected


def test_changepoint_on_a_tie_made_by_six_decimals(tmp_path, capsys):
    """0.5000002 and 0.4999999 both print as 0.500000. At full precision
    the best split labels a, b and c changed. On the printed scores the
    splits after a and after c tie exactly, and the lowest split wins:
    only a is labelled changed."""
    full = {"a": 1.0, "b": 0.5000002, "c": 0.4999999, "d": 0.0}
    assert classify_changepoint(rank_words(full)) == {"a": 1, "b": 1, "c": 1, "d": 0}
    scores = tmp_path / "scores.tsv"
    scores.write_text("".join(f"{w}\t{v:.6f}\n" for w, v in rank_words(full)),
                      encoding="utf-8")
    assert run(["classify", scores, "--changepoint"]) == 0
    assert capsys.readouterr().out == "a\t1\nb\t0\nc\t0\nd\t0\n"


def non_utf8_copy(source, target):
    """Copy ``source`` to ``target`` with a byte that is not UTF-8 in a
    comment line at its end."""
    target.write_bytes(Path(source).read_bytes() + b"# \xff\n")
    return target


@pytest.fixture
def broken(demo, tmp_path):
    """Argument templates' paths: the demo dataset copied into a fresh
    directory, and one input of each kind that fails while it is read."""
    for name in ("dataset.yml", "targets.tsv", "gold.tsv", "old.conllu", "new.conllu"):
        (tmp_path / name).write_bytes((DEMO / name).read_bytes())
    yml = (DEMO / "dataset.yml").read_text(encoding="utf-8")
    paths = dict(demo, d=tmp_path, gz=tmp_path / "old.conllu.gz")
    whole = gzip.compress((DEMO / "old.conllu").read_bytes(), mtime=0)
    paths["gz"].write_bytes(whole[:len(whole) // 2])
    (tmp_path / "corrupt.conllu.gz").write_bytes(  # a deflate stream zlib rejects
        whole[:100] + bytes(b ^ 0x5A for b in whole[100:200]) + whole[200:])
    for name, text in [("corpus", yml.replace("[old.conllu]", "[bad.conllu]")),
                       ("gz", yml.replace("[old.conllu]", "[old.conllu.gz]")),
                       ("corrupt", yml.replace("[old.conllu]", "[corrupt.conllu.gz]")),
                       ("targets", yml.replace("targets.tsv", "bad.tsv"))]:
        (tmp_path / f"{name}.yml").write_text(text, encoding="utf-8")
    non_utf8_copy(DEMO / "dataset.yml", tmp_path / "bad.yml")
    non_utf8_copy(DEMO / "targets.tsv", tmp_path / "bad.tsv")
    non_utf8_copy(DEMO / "old.conllu", tmp_path / "bad.conllu")
    for name in ("store", "scores", "labels"):
        paths[f"bad_{name}"] = non_utf8_copy(demo[name], tmp_path / f"bad_{name}")
    paths["bad_gold"] = non_utf8_copy(DEMO / "gold.tsv", tmp_path / "bad_gold.tsv")
    return paths


def run_process(argv, stdout=subprocess.DEVNULL):
    """Run ``python -m gramprof argv`` in a fresh interpreter; returns
    (exit code, stderr)."""
    done = subprocess.run([sys.executable, "-m", "gramprof", *argv], env=python_env(),
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)
    return done.returncode, done.stderr


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full on this system")

# (argv, exit code, the file the error line names or None, where stdout
# goes): inputs that fail while they are read, outputs that cannot be
# written, and inputs or outputs that cannot be opened
FAILURES = [
    pytest.param(["extract", "-c", "{d}/bad.yml", "-o", "{d}/out"], 2, "{d}/bad.yml",
                 None, id="yaml"),
    pytest.param(["extract", "-c", "{d}/targets.yml", "-o", "{d}/out"], 2,
                 "{d}/bad.tsv", None, id="targets"),
    pytest.param(["extract", "-c", "{d}/corpus.yml", "-o", "{d}/out"], 1,
                 "{d}/bad.conllu", None, id="corpus"),
    pytest.param(["extract", "-c", "{d}/gz.yml", "-o", "{d}/out"], 1, "{gz}", None,
                 id="truncated-gz"),
    pytest.param(["extract", "-c", "{d}/corrupt.yml", "-o", "{d}/out"], 1,
                 "{d}/corrupt.conllu.gz", None, id="corrupt-gz"),
    pytest.param(["score", "{bad_store}"], 1, "{bad_store}", None, id="store"),
    pytest.param(["evaluate", "{scores}", "{bad_gold}", "--task", "graded"], 1,
                 "{bad_gold}", None, id="gold"),
    pytest.param(["rank", "{bad_scores}"], 1, "{bad_scores}", None, id="scores"),
    pytest.param(["combine-labels", "{labels}", "{bad_labels}"], 1, "{bad_labels}",
                 None, id="labels"),
    pytest.param(["score", "{store}", "-o", "/dev/full"], 2, None, None,
                 id="score-o-full", marks=needs_dev_full),
    pytest.param(["extract", "-c", "{d}/dataset.yml", "-o", "/dev/full"], 2, None,
                 None, id="extract-o-full", marks=needs_dev_full),
    pytest.param(["rank", "{scores}"], 2, None, "/dev/full", id="rank-stdout-full",
                 marks=needs_dev_full),
    pytest.param(["evaluate", "{labels}", "{d}/gold.tsv", "--task", "binary"], 2,
                 None, "/dev/full", id="evaluate-stdout-full", marks=needs_dev_full),
    pytest.param(["score", "{store}"], 2, None, "pipe", id="score-closed-pipe"),
    pytest.param(["rank", "{d}/none.tsv"], 2, "{d}/none.tsv", None, id="unopenable"),
    pytest.param(["score", "{store}", "-o", "{d}"], 2, None, None, id="o-directory"),
]


@pytest.mark.parametrize("argv, code, names, stdout", FAILURES)
def test_io_failure_is_one_error_line_with_its_exit_code(broken, argv, code, names,
                                                         stdout):
    argv = [arg.format(**broken) for arg in argv]
    if stdout == "pipe":  # a reader that has gone away, as after `| head -1`
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = run_process(argv, stdout=write_end)
        finally:
            os.close(write_end)
    elif stdout is not None:
        with open(stdout, "w") as sink:
            result = run_process(argv, stdout=sink)
    else:
        result = run_process(argv)
    assert result[0] == code, result[1]
    errors = [line for line in result[1].splitlines() if line.startswith("error:")]
    assert len(errors) == 1, result[1]
    if names is None:
        assert "cannot write output" in errors[0]
    else:
        assert names.format(**broken) in errors[0]
    assert "Traceback" not in result[1] and "Exception ignored" not in result[1]


# The only places in the package that open a file or catch OSError: the
# shared reader, the corpus opener it is given, the output stream and the
# handler of write failures.
IO_SITES = {("errors.py", "reading"), ("conllu.py", "open_corpus"),
            ("cli.py", "_output"), ("cli.py", "main")}


def io_sites(node, function=None):
    """(innermost enclosing function, line) of every ``open`` name or
    attribute and every ``except`` of an OSError class under ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.Name) and node.id == "open" \
            or isinstance(node, ast.Attribute) and node.attr == "open":
        yield function, node.lineno
    if isinstance(node, ast.ExceptHandler) and node.type is not None:
        for name in ast.walk(node.type):
            cls = getattr(builtins, name.id, None) if isinstance(name, ast.Name) else None
            if isinstance(cls, type) and issubclass(cls, OSError):
                yield function, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from io_sites(child, function)


def test_files_are_opened_and_os_errors_caught_only_in_the_io_helpers():
    package = Path(gramprof.__file__).resolve().parent
    stray = [f"{path.name}:{line} in {function}"
             for path in sorted(package.glob("*.py"))
             for function, line in io_sites(ast.parse(path.read_text(encoding="utf-8")))
             if (path.name, function) not in IO_SITES]
    assert stray == []


def suffixed_store(rng, n_words):
    """synth.random_store with ``_nn`` appended to the even word ids and
    ``_vb`` to the odd ones, and random gold values for each word."""
    store = synth.random_store(rng, n_words, ["old", "new"])
    suffix = {w: w + ("_nn" if i % 2 == 0 else "_vb") for i, w in enumerate(store.word_ids)}
    store.profiles = {(suffix[w], p): q for (w, p), q in store.profiles.items()}
    return store, {w: (rng.randrange(2), rng.random()) for w in store.word_ids}


def verbs_and(nouns):
    """A store of the ``nouns`` profiles ({word_id: (old, new)}) plus five
    ``_vb`` words whose distances all differ, and gold values for each
    word that hold both binary classes within either suffix."""
    profiles = {(w, "old"): old for w, (old, new) in nouns.items()}
    profiles.update(((w, "new"), new) for w, (old, new) in nouns.items())
    for i in range(5):
        profiles[(f"v{i}_vb", "old")] = Profile({"Tense=Past": 5, "Tense=Pres": 1 + i},
                                                {"obj": 6 + i}, 6 + i)
        profiles[(f"v{i}_vb", "new")] = Profile({"Tense=Pres": 5}, {"obj": 2, "nsubj": 3}, 5)
    store = ProfileStore(["old", "new"], profiles)
    return store, {w: (i % 2, i / 10) for i, w in enumerate(store.word_ids)}


def constant_nouns():
    """Five ``_nn`` words, each with the same proportions in both periods,
    so that every one of their distances is 0."""
    return verbs_and({f"n{i}_nn": (Profile({"Case=Nom|Number=Sing": 2 + i}, {"nsubj": 2 + i},
                                           2 + i),
                                   Profile({"Case=Nom|Number=Sing": 4}, {"nsubj": 4}, 4))
                      for i in range(5)})


def nouns_absent_from_new():
    """Five ``_nn`` words none of which occurs in period new."""
    return verbs_and({f"n{i}_nn": (Profile({"Number=Sing": 3}, {"nsubj": 3}, 3), Profile())
                      for i in range(5)})


SUBSET_INPUTS = {"random": lambda: suffixed_store(random.Random(11), 40),
                 "constant": constant_nouns, "empty-period": nouns_absent_from_new}


def write_store_and_gold(store, gold, words, directory):
    """``store`` and ``gold`` restricted to ``words``, saved as
    ``directory/store.jsonl`` and ``directory/gold.tsv``."""
    directory.mkdir()
    with open(directory / "store.jsonl", "w", encoding="utf-8") as f:
        ProfileStore(store.periods, {key: p for key, p in store.profiles.items()
                                     if key[0] in words}).save(f)
    (directory / "gold.tsv").write_text("".join(f"{w}\t{gold[w][0]}\t{gold[w][1]!r}\n"
                                                for w in words), encoding="utf-8")
    return directory / "store.jsonl", directory / "gold.tsv"


def outcome(argv, capsys, caplog):
    """Exit code, stdout, stderr and logged records of an in-process call;
    the records are what a shell run prints on stderr before its error."""
    capsys.readouterr()
    caplog.clear()
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, [(r.levelname, r.getMessage())
                                              for r in caplog.records]


@pytest.mark.parametrize("output_format", ["text", "json-lines"])
@pytest.mark.parametrize("report", ["logreg", "correlation"])
@pytest.mark.parametrize("kind", SUBSET_INPUTS)
def test_analyze_subset_suffix_is_analyze_of_a_store_of_those_words(tmp_path, capsys, caplog,
                                                                    kind, report,
                                                                    output_format):
    store, gold = SUBSET_INPUTS[kind]()
    nouns = [w for w in store.word_ids if w.endswith("_nn")]
    assert 5 <= len(nouns) < len(store.word_ids)
    whole = write_store_and_gold(store, gold, store.word_ids, tmp_path / "whole")
    alone = write_store_and_gold(store, gold, nouns, tmp_path / "nouns")
    flags = ["--report", report, "--format", output_format]
    subset = outcome(["analyze", *whole, *flags, "--subset-suffix", "_nn"], capsys, caplog)
    assert subset == outcome(["analyze", *alone, *flags], capsys, caplog)
    code, out, err, logged = subset
    if kind == "empty-period":
        assert (code, out, err) == (1, "", "error: period 'new': no target word occurs in "
                                           "it, so the pair 'old'-'new' cannot be scored\n")
        return
    assert (code, err) == (0, "")
    categories = ["Case", "Number", "syntax"]
    if kind == "constant" and report == "logreg":
        assert [message for _, message in logged] == [
            f"category {c!r} has constant distances; weight is uninformative"
            for c in categories]
    if kind == "constant" and output_format == "json-lines":
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["category"] for r in rows if "category" in r] == categories
        if report == "correlation":
            assert {r["note"] for r in rows} == {"constant values"}


def test_analyze_subset_suffix_that_matches_no_word_exits_1(tmp_path, capsys):
    store, gold = suffixed_store(random.Random(11), 10)
    paths = write_store_and_gold(store, gold, store.word_ids, tmp_path / "whole")
    capsys.readouterr()
    assert run(["analyze", *paths, "--report", "correlation", "--subset-suffix", "_xx"]) == 1
    assert capsys.readouterr().err == "error: no words match suffix '_xx'\n"


@pytest.mark.parametrize("argv, code, reports", [
    (["score", "{store}", "--features", "combination", "--separate"], 0, "store"),
    (["score", "{store}", "--features", "average", "--separate"], 0, "store"),
    (["analyze", "{store}", "{gold}", "--report", "correlation"], 0, "store"),
    (["timeline", "{store}", "{word}", "Case"], 0, "word"),
    (["timeline", "{store}", "{word}", "Nope"], 1, "word"),
    (["score", "{store}", "--features", "syntax", "--separate"], 0, None),
    (["score", "{store}"], 0, None),
], ids=["combination", "average", "analyze", "timeline", "timeline-unknown-category",
        "syntax-separate", "morphology"])
def test_repeated_calls_print_the_same_feats_warnings(tmp_path, capsys, caplog, argv, code,
                                                      reports):
    store = synth.random_store(random.Random(10), 80, ["c1", "c2"])
    gold = {w: (i % 2, i / 80) for i, w in enumerate(store.word_ids)}
    paths = write_store_and_gold(store, gold, store.word_ids, tmp_path / "d")
    profiles = {w: [store.profiles[(w, period)] for period in store.periods] for w in gold}
    word = next(w for w in gold if malformed_feats_warnings_oracle(profiles[w]))
    reported = {"store": store.profiles.values(), "word": profiles[word], None: []}[reports]
    expected = [("WARNING", line) for line in malformed_feats_warnings_oracle(reported)]
    argv = [a.format(store=paths[0], gold=paths[1], word=word) for a in argv]
    for _ in range(2):
        returned, _, _, logged = outcome(argv, capsys, caplog)
        assert returned == code
        assert [r for r in logged if "FEATS" in r[1]] == expected


def tsv_of_json_lines(lines, tables):
    """The TSV report holding the rows of a json-lines report: a header
    line before each table (a column list of ``tables``, chosen by the
    row's first column), floats to 4 decimals, booleans as yes/no and
    null as ``-``."""
    def cell(value):
        if value is None:
            return "-"
        if isinstance(value, bool):
            return "yes" if value else "no"
        return f"{value:.4f}" if isinstance(value, float) else str(value)

    out, header = [], None
    for line in lines:
        row = json.loads(line)
        columns = next(columns for columns in tables if columns[0] in row)
        if columns != header:
            out.append("\t".join(columns))
            header = columns
        out.append("\t".join(cell(row.get(column)) for column in columns))
    return out


REPORT_TABLES = [["metric", "value"], ["category", "coefficient", "positive"],
                 ["category", "rho", "p_value", "significant", "n", "note"]]


@pytest.mark.parametrize("argv, tables", [
    (["evaluate", "{labels}", "{data}/gold.tsv", "--task", "binary"], REPORT_TABLES[:1]),
    (["evaluate", "{scores}", "{data}/gold.tsv", "--task", "graded"], REPORT_TABLES[:1]),
    (["analyze", "{store}", "{data}/gold.tsv", "--report", "logreg"], REPORT_TABLES[:2]),
    (["analyze", "{store}", "{data}/gold.tsv", "--report", "correlation"],
     REPORT_TABLES[2:]),
], ids=["evaluate-binary", "evaluate-graded", "analyze-logreg", "analyze-correlation"])
def test_tsv_report_holds_the_json_lines_rows(demo, capsys, argv, tables):
    argv = [arg.format(**demo) for arg in argv]
    capsys.readouterr()
    assert run(argv + ["--format", "json-lines"]) == 0
    expected = tsv_of_json_lines(capsys.readouterr().out.splitlines(), tables)
    assert run(argv + ["--format", "tsv"]) == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_store_with_a_duplicate_record_exits_1(dataset, capsys):
    store = extract(dataset)
    lines = store.read_text(encoding="utf-8").splitlines(keepends=True)
    store.write_text("".join(lines) + lines[1], encoding="utf-8")
    record = json.loads(lines[1])
    capsys.readouterr()
    assert run(["score", store]) == 1
    assert (f"profile store line {len(lines) + 1}: duplicate record "
            f"{(record['word_id'], record['period'])}") in capsys.readouterr().err


@pytest.mark.parametrize("flags, config", [
    (["--filter-per-period"], MethodConfig(per_period_filter=True)),
    (["--zero-distance", "0.3"], MethodConfig(zero_profile_distance=0.3)),
], ids=["filter-per-period", "zero-distance"])
def test_score_filter_flags_equal_library(tmp_path, capsys, flags, config):
    store = synth.random_store(random.Random(12), 300, ["old", "new"])
    with open(tmp_path / "store.jsonl", "w", encoding="utf-8") as f:
        store.save(f)

    def ranking(config):
        scores = score_period_pair(store.profiles, ("old", "new"), config)
        aggregates = {word_id: s.aggregate for word_id, s in scores.items()}
        return "".join(f"{w}\t{v:.6f}\n" for w, v in rank_words(aggregates))

    assert ranking(config) != ranking(MethodConfig())
    capsys.readouterr()
    assert run(["score", tmp_path / "store.jsonl", *flags]) == 0
    assert capsys.readouterr().out == ranking(config)


def test_public_surface_is_what_the_cli_calls():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}

    def functions(names, owner):
        return {name for name in names if inspect.isfunction(getattr(owner, name))}

    assert functions(gramprof.__all__, gramprof) == functions(imported, cli) - {"reading"}


def test_method_flags_take_names_and_defaults_from_the_library():
    parser = cli.build_parser()
    assert cli._method_config(parser.parse_args(["score", "x"])) == MethodConfig()
    analyze = parser.parse_args(["analyze", "x", "g", "--report", "logreg"])
    assert cli._method_config(analyze) == MethodConfig()
    assert analyze.l2 == LOGREG_L2_INVERSE_STRENGTH
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    choices = {action.dest: action.choices for action in commands["score"]._actions}
    assert choices["feature_kind"] is FEATURE_KINDS
    assert choices["aggregation"] is AGGREGATIONS


DEMO_FILES = ("dataset.yml", "targets.tsv", "gold.tsv", "old.conllu", "new.conllu")


def demo_copy(target, prefix=None, name=None):
    """The demo dataset copied into ``target``; ``prefix`` bytes go in
    front of file ``name``."""
    target.mkdir(exist_ok=True)
    for each in DEMO_FILES:
        data = (DEMO / each).read_bytes()
        (target / each).write_bytes(prefix + data if each == name else data)
    return target


def test_extract_warns_once_about_targets_missing_from_some_periods(tmp_path, capsys,
                                                                     caplog):
    """A target lemmatised otherwise in one period only scores the
    zero-profile distance; extract's report stays as it was, and one
    warning after it names the target."""
    d = demo_copy(tmp_path / "data")
    new = (d / "new.conllu").read_text(encoding="utf-8")
    (d / "new.conllu").write_text(new.replace("\tlass\tNOUN", "\tlasss\tNOUN"),
                                  encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        assert run(["extract", "-c", d / "dataset.yml", "-o", tmp_path / "store.jsonl"]) == 0
    golden = (Path(__file__).parent / "golden" / "demos" / "extract.out").read_text("utf-8")
    assert "lass: old=150  new=120\n" in golden
    assert capsys.readouterr().out == golden.replace("lass: old=150  new=120",
                                                     "lass: old=150  new=0")
    assert [r.getMessage() for r in caplog.records] == [
        "targets matching nothing in some but not all periods: 1 ('lass')"]


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("name, argv", [
    ("targets.tsv", ["extract", "-c", "{d}/dataset.yml", "-o", "{d}/out"]),
    ("old.conllu", ["extract", "-c", "{d}/dataset.yml", "-o", "{d}/out", "--strict"]),
    ("gold.tsv", ["evaluate", "{scores}", "{d}/gold.tsv", "--task", "graded"]),
], ids=["targets", "corpus", "gold"])
def test_byte_order_mark_reads_as_the_file_without_it(demo, tmp_path, name, argv):
    results = []
    for d in (demo_copy(tmp_path / "plain"), demo_copy(tmp_path / "bom", BOM, name)):
        with open(d / "stdout", "w", encoding="utf-8") as sink:
            code, err = run_process([a.format(**dict(demo, d=d)) for a in argv], stdout=sink)
        assert code == 0, err
        written = (d / "out").read_bytes() if (d / "out").exists() else None
        results.append(((d / "stdout").read_bytes(), written))
    assert results[1] == results[0]


EXTRACT = ["extract", "-c", "{d}/dataset.yml", "-o", "{d}/out"]
EVALUATE_GRADED = ["evaluate", "{scores}", "{d}/gold.tsv", "--task", "graded"]
COMMENTS_ONLY = "# a comment\n\n# another\n"
ANALYZE = ["analyze", "{store}", "{d}/gold.tsv"]


def without_binary_labels(text):
    return text.replace("\t1\t", "\t-\t").replace("\t0\t", "\t-\t")


def without_graded_scores(text):
    return "".join(line.rsplit("\t", 1)[0] + "\t-\n" for line in text.splitlines())


def with_first_label_2(text):
    first, rest = text.split("\n", 1)
    return first.split("\t")[0] + "\t2\n" + rest


# (file, its new text from the demo file's text, argv, exit code, error
# message): a rejected record names its file and line; a file without
# records names the file; a gold file without the task's values says so
@pytest.mark.parametrize("name, edit, argv, code, message", [
    ("targets.tsv", lambda text: text + "w1\t\t\n", EXTRACT, 2, "{file}: line {last}: "),
    ("labels.tsv", with_first_label_2, ["evaluate", "{d}/labels.tsv", "{d}/gold.tsv",
                                        "--task", "binary"], 1,
     "{file}: line 1: label '2' is not 0 or 1"),
    ("labels.tsv", with_first_label_2, ["combine-labels", "{d}/labels.tsv", "{labels}"], 1,
     "{file}: line 1: label '2' is not 0 or 1"),
    ("targets.tsv", lambda text: text + "walk_any\twalk\t,\n", EXTRACT, 2,
     "{file}: line {last}: "),
    ("gold.tsv", lambda text: text + "w\t-\t-\n", EVALUATE_GRADED, 1,
     "{file}: line {last}: "),
    ("gold.tsv", lambda text: text + "w\t2\t0.5\n", EVALUATE_GRADED, 1,
     "{file}: line {last}: "),
    ("targets.tsv", lambda text: text + "\tlass\n", EXTRACT, 2,
     "{file}: line {last}: word id '' is empty or has surrounding whitespace, "
     "tab, CR or LF"),
    ("targets.tsv", lambda text: COMMENTS_ONLY, EXTRACT, 2,
     "{file}: no word_id<TAB>lemma[<TAB>upos1,upos2] lines found"),
    ("gold.tsv", lambda text: COMMENTS_ONLY, EVALUATE_GRADED, 1,
     "{file}: no word_id<TAB>binary<TAB>graded lines found"),
    ("scores.tsv", lambda text: COMMENTS_ONLY, ["rank", "{d}/scores.tsv"], 1,
     "{file}: no word_id<TAB>score lines found"),
    ("scores.tsv", lambda text: "# a\n\n  \n\t\n# b\n", ["rank", "{d}/scores.tsv"], 1,
     "{file}: no word_id<TAB>score lines found"),
    ("gold.tsv", without_binary_labels,
     ["evaluate", "{labels}", "{d}/gold.tsv", "--task", "binary"], 1,
     "{file}: gold data contains no binary labels"),
    ("gold.tsv", without_graded_scores, EVALUATE_GRADED, 1,
     "{file}: gold data contains no graded scores"),
    ("gold.tsv", without_binary_labels, ANALYZE + ["--report", "logreg"], 1,
     "{file}: gold data contains no binary labels"),
    ("gold.tsv", without_graded_scores, ANALYZE + ["--report", "correlation"], 1,
     "{file}: gold data contains no graded scores"),
    ("gold.tsv", lambda text: text + "w\t+1\t0.5\n", EVALUATE_GRADED, 1,
     "{file}: line {last}: binary label '+1' is not 0 or 1"),
    ("gold.tsv", lambda text: text + "w\t+1\t0.5\n", ANALYZE + ["--report", "logreg"], 1,
     "{file}: line {last}: binary label '+1' is not 0 or 1"),
    ("targets.tsv", lambda text: text + "lass \tlast\n", EXTRACT, 2,
     "{file}: line {last}: duplicate word 'lass'"),
    ("scores.tsv", lambda text: text + "w\t1_0\n", ["rank", "{d}/scores.tsv"], 1,
     "{file}: line {last}: score '1_0' is not a decimal literal"),
    ("scores.tsv", lambda text: text + "w\t 2 \n",
     ["classify", "{d}/scores.tsv", "--changepoint"], 1,
     "{file}: line {last}: score ' 2 ' is not a decimal literal"),
    ("scores.tsv", lambda text: text + "w\t\uff11\n",
     ["evaluate", "{d}/scores.tsv", "{d}/gold.tsv", "--task", "graded"], 1,
     "{file}: line {last}: score '\uff11' is not a decimal literal"),
    ("gold.tsv", lambda text: text + "w\t1\t\u0661\n", EVALUATE_GRADED, 1,
     "{file}: line {last}: graded score '\u0661' is not a decimal literal"),
    ("scores.tsv", lambda text: text + "\t0.5\n", ["rank", "{d}/scores.tsv"], 1,
     "{file}: line {last}: word id '' is empty"),
    ("scores.tsv", lambda text: text + "a\tabc\n", ["rank", "{d}/scores.tsv"], 1,
     "{file}: line {last}: score 'abc' is not a decimal literal"),
    ("gold.tsv", lambda text: text + "w\t1\tabc\n", EVALUATE_GRADED, 1,
     "{file}: line {last}: graded score 'abc' is not a decimal literal"),
    ("scores.tsv", lambda text: text + "a\tnan\n", ["rank", "{d}/scores.tsv"], 1,
     "{file}: line {last}: score 'nan' is not finite"),
    ("scores.tsv", lambda text: text + "a\tinf\n", ["rank", "{d}/scores.tsv"], 1,
     "{file}: line {last}: score 'inf' is not finite"),
    ("scores.tsv", lambda text: text + "a\t-Infinity\n",
     ["classify", "{d}/scores.tsv", "--changepoint"], 1,
     "{file}: line {last}: score '-Infinity' is not finite"),
], ids=["empty-lemma", "label-not-0-or-1", "combined-label-not-0-or-1",
        "empty-pos-filter", "no-gold-value", "binary-not-0-or-1",
        "empty-word-id", "targets-without-records", "gold-without-records",
        "scores-without-records", "scores-with-whitespace-only-lines",
        "gold-without-binary-labels", "gold-without-graded-scores",
        "analyze-gold-without-binary-labels", "analyze-gold-without-graded-scores",
        "gold-binary-signed", "analyze-gold-binary-signed", "target-id-repeated-with-space",
        "score-with-underscore", "score-with-spaces", "score-full-width-digit",
        "gold-arabic-indic-digit", "score-empty-word-id", "score-not-a-number",
        "gold-not-a-number", "score-nan", "score-inf", "score-minus-infinity"])
def test_rejected_record_names_its_file_and_line(demo, tmp_path, capsys, name, edit,
                                                  argv, code, message):
    d = demo_copy(tmp_path)
    for each in ("scores", "labels"):
        (d / f"{each}.tsv").write_bytes(demo[each].read_bytes())
    text = edit((d / name).read_text(encoding="utf-8"))
    (d / name).write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run([a.format(**dict(demo, d=d)) for a in argv]) == code
    assert ("error: " + message.format(file=d / name, last=text.count("\n"))
            in capsys.readouterr().err)


def test_whitespace_only_line_in_targets_is_blank(tmp_path):
    stores = []
    for name, blank in (("plain", ""), ("spaces", "  \t \n")):
        d = demo_copy(tmp_path / name)
        lines = (d / "targets.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        assert not lines[2].startswith("#")
        (d / "targets.tsv").write_text("".join(lines[:2]) + blank + "".join(lines[2:]),
                                       encoding="utf-8")
        assert run([a.format(d=d) for a in EXTRACT]) == 0
        stores.append((d / "out").read_bytes())
    assert stores[1] == stores[0]


@pytest.mark.parametrize("argv", [
    ["rank", "{gold}"],
    ["classify", "{gold}", "--changepoint"],
    ["combine-labels", "{gold}", "{gold}"],
], ids=["rank", "classify", "combine-labels"])
def test_gold_file_is_not_a_score_or_label_file(capsys, argv):
    capsys.readouterr()
    assert run([a.format(gold=DEMO / "gold.tsv") for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{DEMO / 'gold.tsv'}: line 1: expected word_id<TAB>" in captured.err
    assert "got 3 columns" in captured.err


@pytest.mark.parametrize("corpus", ["old.conllu", "old.conllu.gz"])
def test_corpus_errors_name_the_file(tmp_path, capsys, caplog, corpus):
    d = demo_copy(tmp_path)
    bad = b"not a token line\n" + (DEMO / "old.conllu").read_bytes() + b"also bad\n"
    lines = bad.count(b"\n")
    (d / corpus).write_bytes(gzip.compress(bad) if corpus.endswith(".gz") else bad)
    yml = (d / "dataset.yml").read_text(encoding="utf-8")
    (d / "dataset.yml").write_text(yml.replace("[old.conllu]", f"[{corpus}]"),
                                   encoding="utf-8")
    capsys.readouterr()
    argv = ["extract", "-c", d / "dataset.yml", "-o", d / "out"]
    assert run([*argv, "--strict"]) == 1
    assert (f"error: {d / corpus}: line 1: expected 10 columns, got 1"
            in capsys.readouterr().err)
    with caplog.at_level(logging.WARNING, logger="gramprof.conllu"):
        assert run(argv) == 0
    assert [r.getMessage() for r in caplog.records if r.name == "gramprof.conllu"] == [
        f"skipping malformed CONLL-U {d / corpus}: line {n}: expected 10 columns, "
        f"got 1" for n in (1, lines)]


@pytest.mark.parametrize("periods", [
    "  - label: old\n    paths: [old.conllu]\n  - label: new\n    paths: [old.conllu]\n",
    "  - label: old\n    paths: [old.conllu, ./old.conllu]\n"
    "  - label: new\n    paths: [new.conllu]\n",
], ids=["in-two-periods", "twice-in-one-period"])
def test_corpus_listed_twice_exits_2(tmp_path, periods):
    d = demo_copy(tmp_path)
    yml = (d / "dataset.yml").read_text(encoding="utf-8")
    (d / "dataset.yml").write_text(yml[:yml.index("periods:")] + "periods:\n" + periods,
                                   encoding="utf-8")
    code, err = run_process(["extract", "-c", str(d / "dataset.yml"), "-o", str(d / "out")])
    assert code == 2, err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "old.conllu is listed twice" in errors[0], err
    assert not (d / "out").exists()


def unparsed(conllu: bytes) -> bytes:
    """``conllu`` with DEPREL ``_`` on every token line."""
    lines = conllu.decode("utf-8").split("\n")
    for i, line in enumerate(lines):
        columns = line.split("\t")
        if len(columns) == 10 and not line.startswith("#"):
            columns[7] = "_"
            lines[i] = "\t".join(columns)
    return "\n".join(lines).encode("utf-8")


@pytest.mark.parametrize("new, code, message", [
    (b"", 1, "error: period 'new' has no token lines in its corpus files: {new}"),
    (b"Plain text, not CONLL-U.\nA second line of it.\n", 1,
     "error: period 'new' has no token lines in its corpus files: {new}"),
    (unparsed((DEMO / "new.conllu").read_bytes()), 0,
     "WARNING: period 'new': every matched token has DEPREL '_'"),
], ids=["empty", "plain-text", "unparsed"])
def test_period_that_cannot_give_a_profile(tmp_path, new, code, message):
    d = demo_copy(tmp_path)
    (d / "new.conllu").write_bytes(new)
    result, err = run_process(["extract", "-c", str(d / "dataset.yml"), "-o", str(d / "out")])
    assert result == code, err
    lines = err.splitlines()
    assert len([line for line in lines if line.startswith("error:")]) == code
    assert len([line for line in lines
                if line.startswith(message.format(new=d / "new.conllu"))]) == 1, err
    assert (d / "out").exists() == (code == 0)


@pytest.mark.parametrize("argv", [
    ["score", "{store}"],
    ["analyze", "{store}", "{gold}", "--report", "logreg"],
], ids=["score", "analyze"])
@pytest.mark.parametrize("empty", ["new", "none"])
def test_pair_with_a_period_no_word_occurs_in_exits_1(tmp_path, argv, empty):
    # Every word's profile in that period is empty: each would get the
    # zero-profile distance and the ranking would say nothing.
    counts = {"old": {"a": 3, "b": 2}, "new": {"a": 0 if empty == "new" else 2, "b": 0}}
    store = ProfileStore(["old", "new"], {
        (word_id, period): Profile({"Number=Sing": n} if n else {},
                                   {"nsubj": n} if n else {}, n)
        for period, totals in counts.items() for word_id, n in totals.items()})
    with open(tmp_path / "store.jsonl", "w", encoding="utf-8") as f:
        store.save(f)
    (tmp_path / "gold.tsv").write_text("a\t1\t0.9\nb\t0\t0.1\n", encoding="utf-8")
    code, err = run_process([a.format(store=tmp_path / "store.jsonl", gold=tmp_path / "gold.tsv")
                             for a in argv])
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if empty == "none":
        assert code == 0 and not errors, err
        return
    assert code == 1, err
    assert errors == ["error: period 'new': no target word occurs in it, "
                      "so the pair 'old'-'new' cannot be scored"], err


@pytest.mark.parametrize("periods, totals, message", [
    (["old"], {"old": 3}, "header lists periods ['old']; a store needs at least two"),
    (["old", "new"], {}, "profile store has a header but no record"),
    (["old", "new"], {"old": 3, "new": 0}, "period 'new': no target word occurs in it, "
                                           "so the pair 'old'-'new' cannot be scored"),
], ids=["one-period", "header-only", "no-word-in-new"])
def test_store_that_cannot_give_a_ranking_exits_1_in_process(tmp_path, capsys, periods,
                                                             totals, message):
    path = tmp_path / "store.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        ProfileStore(periods, {(w, period): Profile({}, {"nsubj": n} if n else {}, n)
                               for period, n in totals.items() for w in ("a", "b")}).save(f)
    capsys.readouterr()
    assert run(["score", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.endswith(f"{message}\n")


def test_read_failure_exits_1_naming_the_file_in_process(tmp_path, capsys):
    scores = tmp_path / "scores.tsv"
    scores.write_bytes(b"a\t0.5\n# \xff\n")
    capsys.readouterr()
    assert run(["rank", scores]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: error reading score file {scores}: 'utf-8' codec "
                                   f"can't decode byte 0xff")
