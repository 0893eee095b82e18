"""The benchmark's tracer (bench/spans.py) patches gramprof attributes
by name and counts tokens, sentences and malformed lines on the items
``parse_conllu`` yields to ``extract_profiles``, and calls to the
``separate_categories``, ``filter_rare`` and ``cosine_distance`` globals
of ``scoring`` and ``analysis``. Running it here makes a rename in src,
or an extraction or scoring path that bypasses those calls, fail the
test suite instead of only a traced benchmark run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import gen  # noqa: E402
import spans  # noqa: E402
from gramprof import analysis, cli, scoring  # noqa: E402
from oracles import separate_categories_oracle  # noqa: E402


def test_tracer_patches_and_restores_gramprof():
    originals = (cli.score_period_pair, scoring.cosine_distance, analysis.score_basic)
    with spans.traced(spans.Recorder(0)):
        assert cli.score_period_pair is not originals[0]
        assert scoring.cosine_distance is not originals[1]
    assert (cli.score_period_pair, scoring.cosine_distance,
            analysis.score_basic) == originals


def test_traced_extract_counts_equal_generator_truth(tmp_path):
    truth = gen.generate("extract-dense", 5, tmp_path / "in", 3000)
    rec = spans.Recorder(0)
    with spans.traced(rec):
        assert cli.main(["extract", "-c", str(tmp_path / "in" / "dataset.yml"),
                         "-o", str(tmp_path / "store.jsonl"),
                         "--case-fold", "--strip-deprel-subtype"]) == 0
    tokens = sum(truth["tokens"].values())
    assert rec.counts["conllu.tokens"] == tokens
    assert rec.counts["conllu.sentences"] == sum(truth["sentences"].values())
    assert rec.counts["conllu.malformed_lines"] == sum(truth["malformed"].values()) > 0
    assert rec.counts["match.scanned"] == tokens
    assert rec.counts["match.matched"] == sum(
        record["total"] for periods in truth["profiles"].values()
        for record in periods.values())


def test_traced_separated_score_separates_each_profile_once(tmp_path):
    truth = gen.generate("rescore-sweep", 5, tmp_path / "in", 40)
    store = str(tmp_path / "store.jsonl")
    assert cli.main(["extract", "-c", str(tmp_path / "in" / "dataset.yml"),
                     "-o", store]) == 0
    rec = spans.Recorder(0)
    with spans.traced(rec):
        assert cli.main(["score", store, "--features", "combination", "--separate",
                         "-o", str(tmp_path / "scores.tsv")]) == 0
    words = len(truth["profiles"])
    assert words == 40
    metrics = spans.pass_metrics(rec)
    assert metrics["profiles.separate_categories.calls"] == 2 * words
    # every distance goes through one filter_rare and one cosine_distance:
    # the syntactic one plus one per category seen in either period
    distances = sum(
        1 + len(set().union(*(separate_categories_oracle(record["morph"])[0]
                              for record in periods.values())))
        for periods in truth["profiles"].values())
    assert distances > 3 * words
    assert metrics["scoring.filter_rare.calls"] == distances
    assert metrics["scoring.cosine_distance.calls"] == distances
