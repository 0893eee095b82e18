import logging
import math
import random
import re

import pytest

from gramprof.errors import DataError
from gramprof.evaluation import (GoldRecord, accuracy, average_ranks, binary_gold,
                                 graded_gold, load_gold, macro_f1, per_class_f1,
                                 spearman)

from oracles import average_ranks_oracle, spearman_oracle

# frozen from the oracle: ranks (1,2,3,4) against tied gold ranks
# (1, 2.5, 2.5, 4) give 4.5 / sqrt(22.5)
TIED_GOLD_RHO = 0.9486832980505138


def as_maps(pred_values, gold_values):
    pred = {f"w{i:03d}": v for i, v in enumerate(pred_values)}
    gold = {f"w{i:03d}": v for i, v in enumerate(gold_values)}
    return pred, gold


def test_spearman_perfect_agreement():
    pred, gold = as_maps([0.1, 0.4, 0.2, 0.9], [1.0, 4.0, 2.0, 9.0])
    assert spearman(pred, gold) == pytest.approx(1.0)


def test_spearman_reversed():
    pred, gold = as_maps([1, 2, 3, 4], [4, 3, 2, 1])
    assert spearman(pred, gold) == pytest.approx(-1.0)


def test_spearman_tied_gold_frozen_value():
    pred, gold = as_maps([1, 2, 3, 4], [1, 2, 2, 4])
    assert spearman(pred, gold) == pytest.approx(TIED_GOLD_RHO, abs=1e-12)
    assert spearman_oracle([1, 2, 3, 4], [1, 2, 2, 4]) \
        == pytest.approx(TIED_GOLD_RHO, abs=1e-12)


def test_spearman_key_mismatch():
    with pytest.raises(DataError):
        spearman({"a": 1.0, "b": 2.0}, {"a": 1.0, "c": 2.0})


def test_spearman_too_few():
    with pytest.raises(DataError):
        spearman({"a": 1.0}, {"a": 1.0})


def test_spearman_constant_side():
    pred, gold = as_maps([1, 2, 3], [5, 5, 5])
    with pytest.raises(DataError):
        spearman(pred, gold)


def test_spearman_symmetric_and_matches_oracle():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randrange(2, 40)
        pred_values = [round(rng.random(), 2) for _ in range(n)]
        gold_values = [rng.randrange(0, 6) / 5 for _ in range(n)]
        if len(set(pred_values)) < 2 or len(set(gold_values)) < 2:
            continue
        pred, gold = as_maps(pred_values, gold_values)
        rho = spearman(pred, gold)
        assert rho == pytest.approx(spearman(gold, pred), abs=1e-12)
        assert rho == pytest.approx(spearman_oracle(pred_values, gold_values),
                                    abs=1e-9)
        assert -1.0 <= rho <= 1.0 + 1e-12


def test_average_ranks_equal_oracle_and_rankdata_bit_for_bit():
    np = pytest.importorskip("numpy")
    rankdata = pytest.importorskip("scipy.stats").rankdata
    rng = random.Random(31)
    for n in range(1, 201):
        levels = rng.choice([1, 2, 3, 5, n // 3 + 1, n])
        values = [rng.randrange(levels) / rng.choice([1, 4, 10]) for _ in range(n)]
        if rng.random() < 0.5:
            values = [v - 0.5 for v in values] + [-0.0, 0.0][:rng.randrange(3)]
        ranks = average_ranks(values)
        assert ranks == average_ranks_oracle(values)
        assert np.array(ranks).tobytes() \
            == rankdata(values, method="average").tobytes()


def test_spearman_invariant_under_monotone_transform():
    pred, gold = as_maps([0.3, 0.1, 0.9, 0.5], [0.2, 0.1, 0.8, 0.4])
    rho = spearman(pred, gold)
    stretched = {w: math.exp(5 * v) for w, v in gold.items()}
    assert spearman(pred, stretched) == pytest.approx(rho, abs=1e-12)


def test_accuracy():
    pred, gold = as_maps([1, 0, 1], [1, 0, 1])
    assert accuracy(pred, gold) == 1.0
    pred, gold = as_maps([1, 0, 1], [0, 1, 0])
    assert accuracy(pred, gold) == 0.0


def test_accuracy_14_of_18():
    pred, gold = as_maps([1] * 14 + [0] * 4, [1] * 14 + [1] * 4)
    assert accuracy(pred, gold) == pytest.approx(14 / 18)
    assert f"{accuracy(pred, gold):.3f}" == "0.778"


def test_accuracy_complement_sums_to_one():
    rng = random.Random(14)
    for _ in range(50):
        n = rng.randrange(1, 30)
        pred, gold = as_maps([rng.randrange(2) for _ in range(n)],
                             [rng.randrange(2) for _ in range(n)])
        flipped = {w: 1 - v for w, v in pred.items()}
        assert accuracy(pred, gold) + accuracy(flipped, gold) == pytest.approx(1.0)


def test_accuracy_key_mismatch():
    with pytest.raises(DataError):
        accuracy({"a": 1}, {"b": 1})


def test_macro_f1_perfect():
    pred, gold = as_maps([1, 0, 1, 0], [1, 0, 1, 0])
    assert macro_f1(pred, gold) == 1.0


def test_macro_f1_all_ones_vs_half():
    pred, gold = as_maps([1, 1, 1, 1], [1, 1, 0, 0])
    # class 1: precision 1/2, recall 1 -> 2/3; class 0: no predictions -> 0
    assert macro_f1(pred, gold) == pytest.approx(1 / 3)


def test_macro_f1_complement_is_zero():
    pred, gold = as_maps([1, 0, 1], [0, 1, 0])
    assert macro_f1(pred, gold) == 0.0


def test_macro_f1_class_absent_from_both(caplog):
    pred, gold = as_maps([1, 1], [1, 1])
    with caplog.at_level(logging.WARNING):
        f1 = per_class_f1(pred, gold)
        assert not caplog.records  # macro_f1 alone logs the absent class
        assert macro_f1(pred, gold) == 0.5
    assert f1[1] == 1.0
    assert f1[0] == 0.0
    assert [r.getMessage() for r in caplog.records] == \
        ["class 0 absent from both prediction and gold; its F1 counts as 0"]


def test_gold_record_validation():
    GoldRecord(binary=1)
    GoldRecord(graded=0.5)
    with pytest.raises(DataError):
        GoldRecord()


def test_load_gold(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text(
        "# word binary graded\n"
        "lass\t1\t0.82\n"
        "walk\t0\t0.05\n"
        "stab\t-\t0.31\n"
        "prop\t1\t-\n",
        encoding="utf-8",
    )
    records = load_gold(path)
    assert records["lass"] == GoldRecord(1, 0.82)
    assert records["stab"].binary is None
    assert records["prop"].graded is None
    assert binary_gold(records) == {"lass": 1, "walk": 0, "prop": 1}
    assert graded_gold(records) == {"lass": 0.82, "walk": 0.05, "stab": 0.31}


def test_load_gold_rejects_bad_lines(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("lass\t1\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_gold(path)
    path.write_text("lass\t1\t0.5\nlass\t0\t0.1\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_gold(path)


# the binary column holds exactly 0, 1 or -, as a label file holds 0 or 1
@pytest.mark.parametrize("binary", ["2", "+1", " 0", "01", "1.0", ""])
def test_load_gold_rejects_a_binary_label_that_is_not_0_or_1(tmp_path, binary):
    path = tmp_path / "gold.tsv"
    path.write_text(f"walk\t0\t0.1\nlass\t{binary}\t0.5\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line 2: binary label "
                                        f"'{re.escape(binary)}' is not 0 or 1$"):
        load_gold(path)
