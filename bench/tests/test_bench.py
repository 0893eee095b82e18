"""Tests of the benchmark's own code: generator, oracles and span
arithmetic.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import json
import random
import sys
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
from oracles import best_split_oracle  # noqa: E402

SMALL = {"extract-zipf": 3000, "extract-dense": 3000, "rescore-sweep": 40}


def tree_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_generator_is_deterministic_for_a_seed(tmp_path, workload):
    gen.generate(workload, 7, tmp_path / "a", SMALL[workload])
    gen.generate(workload, 7, tmp_path / "b", SMALL[workload])
    gen.generate(workload, 8, tmp_path / "c", SMALL[workload])
    first = tree_bytes(tmp_path / "a")
    assert first == tree_bytes(tmp_path / "b")
    assert first != tree_bytes(tmp_path / "c")


def store_lines(truth: dict) -> list[str]:
    """A store in gramprof's format holding exactly the truth's counts."""
    header = {"format": "grammatical-profile-store", "version": 1,
              "periods": truth["periods"], "options": {}}
    lines = [json.dumps(header, sort_keys=True)]
    for word_id in sorted(truth["profiles"]):
        for period in truth["periods"]:
            p = truth["profiles"][word_id][period]
            lines.append(json.dumps({"word_id": word_id, "period": period, **p},
                                    sort_keys=True))
    return lines


def test_store_oracle_rejects_one_changed_count(tmp_path):
    truth = gen.generate("extract-dense", 3, tmp_path / "in", SMALL["extract-dense"])
    store = tmp_path / "store.jsonl"
    lines = store_lines(truth)
    store.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert checks.check_store(store, truth) == []

    record = json.loads(lines[1])
    feats = sorted(record["morph"])[0]
    record["morph"][feats] += 1
    store.write_text("\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n",
                     encoding="utf-8")
    assert checks.check_store(store, truth)

    store.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    assert checks.check_store(store, truth)


def test_store_oracle_accepts_gramprof_extraction(tmp_path):
    """The truth models POS filters, case folding, subtype stripping,
    .gz input and the skipped lines exactly as gramprof reads them."""
    from gramprof.cli import main

    inputs = tmp_path / "in"
    truth = gen.generate("extract-dense", 5, inputs, SMALL["extract-dense"])
    store = tmp_path / "store.jsonl"
    assert main(["extract", "-c", str(inputs / "dataset.yml"), "-o", str(store),
                 "--case-fold", "--strip-deprel-subtype"]) == 0
    assert sum(truth["malformed"].values()) > 0
    assert sum(truth["multiword"].values()) > 0
    assert sum(truth["empty_nodes"].values()) > 0
    assert checks.check_store(store, truth) == []


def test_changepoint_reference_matches_exhaustive_oracle():
    rng = random.Random(11)
    for trial in range(500):
        n = 3 + trial % 10
        digits = 1 if trial % 3 == 0 else 4   # coarse values force exact ties
        scores = sorted((round(rng.random(), digits) for _ in range(n)), reverse=True)
        assert checks.best_split(scores) == best_split_oracle(scores)


def test_self_time_on_hand_built_tree():
    # root [0, 10]
    #   a [1, 4]       grandchild g [2, 3]
    #   b [3, 6]       overlaps a: the union [1, 6] counts once
    #   c [9, 12]      runs past the root: clipped to [9, 10]
    # d [20, 25]       a second root with no children
    parent = array("i", [-1, 0, 1, 0, 0, -1])
    start = array("d", [0.0, 1.0, 2.0, 3.0, 9.0, 20.0])
    end = array("d", [10.0, 4.0, 3.0, 6.0, 12.0, 25.0])
    assert spans.self_times(parent, start, end) == [4.0, 2.0, 1.0, 3.0, 3.0, 5.0]


def test_self_time_children_in_any_order():
    parent = [-1, 0, 0, 0]
    start = [0.0, 6.0, 1.0, 2.0]
    end = [8.0, 7.0, 3.0, 4.0]
    assert spans.self_times(parent, start, end) == [4.0, 1.0, 2.0, 2.0]


def test_traced_run_reports_exactly_the_listed_per_layer_metrics():
    import run

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        listed = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    reported = set(spans.pass_metrics(spans.Recorder(0))) - {"trace.self_sum_s"}
    reported |= {"import.scipy_stats_s", "trace.overhead_s"}
    assert reported == set(listed)
    assert all(run.unit_of(name) == unit for name, unit in listed.items())
