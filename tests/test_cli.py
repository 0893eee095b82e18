import json
import logging

import pytest

from gramprof.cli import DatasetSpec, main
from gramprof.errors import ConfigError
from gramprof.profiles import ProfileStore

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


def test_dataset_spec_default_pairs():
    spec = DatasetSpec(
        name="three-bins",
        periods=[("p1", ["a.conllu"]), ("p2", ["b.conllu"]), ("p3", ["c.conllu"])],
        targets_path="targets.tsv",
    )
    assert spec.pairs == [("p1", "p2"), ("p2", "p3"), ("p1", "p3")]
    two = DatasetSpec(name="two", periods=[("p1", ["a"]), ("p2", ["b"])],
                      targets_path="t")
    assert two.pairs == [("p1", "p2")]


def test_dataset_spec_rejects_unknown_pair_label():
    with pytest.raises(ConfigError):
        DatasetSpec(name="bad", periods=[("p1", ["a"]), ("p2", ["b"])],
                    targets_path="t", pairs=[("p1", "p9")])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        run(["--version"])
    assert err.value.code == 0
    assert "gramprof" in capsys.readouterr().out


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
                                     ["analyze", "{gold}", "--report", "logreg"]],
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
