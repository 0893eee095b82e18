"""Output checks for the benchmark, independent of gramprof's code.

Each check returns a list of problems (empty when the output is
correct). Numbers are compared against references computed here: the
generator's exact counts, an exact ``Fraction`` best-split search, and
plain-Python Spearman and F1.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

from workloads import SCORE_VARIANTS

MAX_PROBLEMS = 5


def read_lines(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


def check_store(path: Path, truth: dict) -> list[str]:
    """The store holds exactly the generator's counts for every target
    and period."""
    lines = read_lines(path)
    if not lines:
        return ["store is empty"]
    header = json.loads(lines[0])
    problems = []
    if header.get("periods") != truth["periods"]:
        problems.append(f"store periods {header.get('periods')} != {truth['periods']}")
    seen = set()
    for line in lines[1:]:
        record = json.loads(line)
        key = (record["word_id"], record["period"])
        if key in seen:
            problems.append(f"duplicate record {key}")
        seen.add(key)
        expected = truth["profiles"].get(key[0], {}).get(key[1])
        if expected is None:
            problems.append(f"unexpected record {key}")
            continue
        for field in ("total", "morph", "synt"):
            if record[field] != expected[field]:
                problems.append(f"{key} {field} differs from the generator's counts")
    missing = {(w, p) for w, periods in truth["profiles"].items() for p in periods} - seen
    if missing:
        problems.append(f"{len(missing)} (word, period) records missing, e.g. {min(missing)}")
    return problems[:MAX_PROBLEMS]


def check_extract_report(path: Path, truth: dict) -> list[str]:
    """``extract`` prints one ``word: period=total ...`` line per target."""
    expected = [f"{w}: " + "  ".join(f"{p}={truth['profiles'][w][p]['total']}"
                                    for p in truth["periods"])
                for w in sorted(truth["profiles"])]
    return [] if read_lines(path) == expected else ["extract report differs from totals"]


def read_ranking(path: Path) -> tuple[list[tuple[str, float]], list[str]]:
    rows, problems = [], []
    for number, line in enumerate(read_lines(path), start=1):
        columns = line.split("\t")
        if len(columns) != 2:
            problems.append(f"line {number}: expected 2 columns")
            continue
        rows.append((columns[0], float(columns[1])))
    return rows, problems


def check_ranking(path: Path, word_ids: set[str]) -> list[str]:
    """Every target once, finite scores in [0, 1], in descending order.
    Ties are broken on the full-precision scores, which the 6-decimal
    file does not show, so only the printed order is checked."""
    rows, problems = read_ranking(path)
    words = [w for w, _ in rows]
    if set(words) != word_ids or len(words) != len(word_ids):
        problems.append(f"covers {len(set(words))} of {len(word_ids)} targets "
                        f"({len(words)} rows)")
    for w, s in rows:
        if not (math.isfinite(s) and 0.0 <= s <= 1.0):
            problems.append(f"{w}: score {s} outside [0, 1]")
    if any(a < b for (_, a), (_, b) in zip(rows, rows[1:])):
        problems.append("not in descending score order")
    return problems[:MAX_PROBLEMS]


def check_explain(path: Path, plain: Path) -> list[str]:
    """``score --explain`` of the combination method: header row, the
    same ranking as the plain output, and each score the maximum of the
    per-category and syntax distances."""
    lines = read_lines(path)
    header = lines[0].split("\t") if lines else []
    problems = []
    if header[:4] != ["word_id", "score", "d_morph", "d_synt"] \
            or header[4:] != sorted(header[4:]):
        problems.append(f"unexpected header {header[:6]}")
    if [line.split("\t")[:2] for line in lines[1:]] != \
            [line.split("\t") for line in read_lines(plain)]:
        problems.append("ranking differs from the plain combination output")
    for line in lines[1:]:
        cells = line.split("\t")
        if len(cells) != len(header):
            problems.append(f"{cells[0]}: {len(cells)} cells for {len(header)} columns")
            continue
        values = [float(c) for c in cells[1:] if c != "-"]
        if any(not (math.isfinite(v) and 0.0 <= v <= 1.0) for v in values):
            problems.append(f"{cells[0]}: value outside [0, 1]")
        parts = [float(c) for c in cells[3:] if c != "-"]
        if parts and float(cells[1]) != max(parts):
            problems.append(f"{cells[0]}: score is not the maximum distance")
    return problems[:MAX_PROBLEMS]


def best_split(scores: list[float]) -> int:
    """Exact single-split change point of a score sequence: the k in
    1..N-1 minimising the within-segment squared deviation, lowest k on
    ties. With prefix sums S_k, cost(k) = sum(x^2) - S_k^2/k -
    (S_N - S_k)^2/(N - k), so the best k maximises the last two
    terms."""
    values = [Fraction(s) for s in scores]
    n = len(values)
    total = sum(values)
    best_k, best_gain, prefix = None, None, Fraction(0)
    for k in range(1, n):
        prefix += values[k - 1]
        gain = prefix * prefix / k + (total - prefix) ** 2 / (n - k)
        if best_gain is None or gain > best_gain:
            best_k, best_gain = k, gain
    return best_k


def read_labels(path: Path) -> list[tuple[str, int]]:
    return [(w, int(label)) for w, label in (line.split("\t") for line in read_lines(path))]


def check_labels(path: Path, ranking: list[tuple[str, float]], changed: int) -> list[str]:
    """Labels in ranking order, the top ``changed`` words labelled 1."""
    expected = [(w, int(i < changed)) for i, (w, _) in enumerate(ranking)]
    got = read_labels(path)
    if got == expected:
        return []
    return [f"{sum(label for _, label in got)} words labelled changed, expected {changed}"]


def top_share(ratio: str, n: int) -> int:
    """round(ratio * n), halves up, in exact decimal arithmetic."""
    return math.floor(Fraction(ratio) * n + Fraction(1, 2))


def average_ranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j + 2) / 2
        i = j + 1
    return ranks


def spearman(pred: dict[str, float], gold: dict[str, float]) -> float:
    words = sorted(pred)
    x = average_ranks([pred[w] for w in words])
    y = average_ranks([gold[w] for w in words])
    mx, my = math.fsum(x) / len(x), math.fsum(y) / len(y)
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    return cov / math.sqrt(math.fsum((a - mx) ** 2 for a in x)
                           * math.fsum((b - my) ** 2 for b in y))


def macro_f1(pred: dict[str, int], gold: dict[str, int]) -> Fraction:
    f1 = []
    for cls in (0, 1):
        tp = sum(1 for w in pred if pred[w] == cls and gold[w] == cls)
        fp = sum(1 for w in pred if pred[w] == cls and gold[w] != cls)
        fn = sum(1 for w in pred if pred[w] != cls and gold[w] == cls)
        f1.append(Fraction(2 * tp, 2 * tp + fp + fn) if tp else Fraction(0))
    return (f1[0] + f1[1]) / 2


def read_metrics(path: Path) -> dict[str, float]:
    return {row["metric"]: row["value"] for row in map(json.loads, read_lines(path))}


def read_gold(path: Path) -> tuple[dict[str, int], dict[str, float]]:
    binary, graded = {}, {}
    for line in read_lines(path):
        word, b, g = line.split("\t")
        binary[word], graded[word] = int(b), float(g)
    return binary, graded


def check_value(name: str, got, expected: float, tolerance: float) -> list[str]:
    if got is None or abs(got - expected) > tolerance:
        return [f"{name} {got} != reference {expected}"]
    return []


def categories_of(morph: dict[str, int]) -> dict[str, dict[str, int]]:
    """Split combined FEATS counts into per-category value counts."""
    out: dict[str, dict[str, int]] = {}
    for feats, count in morph.items():
        for item in feats.split("|"):
            key, _, value = item.partition("=")
            values = out.setdefault(key, {})
            values[value] = values.get(value, 0) + count
    return out


def check_logreg(path: Path, columns: list[str]) -> list[str]:
    rows = [json.loads(line) for line in read_lines(path)]
    weights = {r["category"]: r for r in rows if "category" in r}
    summary = {r["metric"]: r["value"] for r in rows if "metric" in r}
    problems = []
    if sorted(weights) != sorted(columns):
        problems.append(f"coefficients for {sorted(weights)} != columns {sorted(columns)}")
    for name, r in weights.items():
        if not math.isfinite(r["coefficient"]) or r["positive"] != (r["coefficient"] > 0):
            problems.append(f"{name}: bad coefficient row {r}")
    if not (isinstance(summary.get("iterations"), int) and summary["iterations"] > 0):
        problems.append(f"iterations {summary.get('iterations')!r}")
    if not 0.0 <= summary.get("train_accuracy", -1) <= 1.0:
        problems.append(f"train_accuracy {summary.get('train_accuracy')!r}")
    return problems[:MAX_PROBLEMS]


def check_correlation(path: Path, columns: list[str], n_words: int) -> list[str]:
    rows = [json.loads(line) for line in read_lines(path)]
    problems = []
    if [r["category"] for r in rows] != columns:
        problems.append("correlation rows do not follow the matrix columns")
    for r in rows:
        if r["n"] != n_words:
            problems.append(f"{r['category']}: n {r['n']} != {n_words}")
        if r["rho"] is not None and not -1.0 <= r["rho"] <= 1.0:
            problems.append(f"{r['category']}: rho {r['rho']}")
        if r["p_value"] is not None and (not 0.0 <= r["p_value"] <= 1.0
                                         or r["significant"] != (r["p_value"] < 0.05)):
            problems.append(f"{r['category']}: p {r['p_value']} / {r['significant']}")
    return problems[:MAX_PROBLEMS]


def check_timeline(path: Path, truth: dict, word: str, category: str) -> list[str]:
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    per_period = {p: categories_of(truth["profiles"][word][p]["morph"]).get(category, {})
                  for p in truth["periods"]}
    values = sorted(set().union(*per_period.values()))
    expected = [["period", "value", "count", "proportion"]]
    for p in truth["periods"]:
        total = sum(per_period[p].values())
        for v in values:
            count = per_period[p].get(v, 0)
            expected.append([p, v, str(count), f"{count / total if total else 0.0:.6f}"])
    return [] if rows == expected else [f"timeline of {word}/{category} differs"]


def check_rescore(out: Path, inputs: Path, truth: dict, word: str) -> tuple[dict, dict]:
    """Problems per call label of a rescore-sweep pass, plus the quality
    figures that ``evaluate`` reported."""
    words = set(truth["profiles"])
    problems: dict[str, list[str]] = {}
    for variant in SCORE_VARIANTS:
        problems[f"score.{variant}"] = check_ranking(out / f"score.{variant}.tsv", words)
    ranking_path = out / "score.combination.tsv"
    problems["score.explain"] = check_explain(out / "score.explain.tsv", ranking_path)
    rows, _ = read_ranking(ranking_path)
    # classify and rank re-rank the printed scores: descending, ties by word_id
    ranking = sorted(rows, key=lambda row: (-row[1], row[0]))
    problems["classify.changepoint"] = check_labels(
        out / "labels.changepoint.tsv", ranking, best_split([s for _, s in ranking]))
    problems["classify.ratio"] = check_labels(out / "labels.ratio.tsv", ranking,
                                              top_share("0.43", len(ranking)))

    gold_binary, gold_graded = read_gold(inputs / "gold.tsv")
    binary = read_metrics(out / "evaluate.binary.out")
    graded = read_metrics(out / "evaluate.graded.out")
    labels = dict(read_labels(out / "labels.ratio.tsv"))
    f1 = macro_f1(labels, gold_binary)
    rho = spearman(dict(ranking), gold_graded)
    problems["evaluate.binary"] = check_value("macro_f1", binary.get("macro_f1"),
                                              float(f1), 1e-12)
    problems["evaluate.graded"] = check_value("spearman", graded.get("spearman"), rho, 1e-9)

    categories = set()
    for periods in truth["profiles"].values():
        for p in periods.values():
            categories.update(categories_of(p["morph"]))
    columns = sorted(categories) + ["syntax"]
    problems["analyze.logreg"] = check_logreg(out / "analyze.logreg.out", columns)
    problems["analyze.correlation"] = check_correlation(out / "analyze.correlation.out",
                                                        columns, len(words))
    problems["timeline"] = check_timeline(out / "timeline.csv", truth, word, "Number")
    top = [f"{w}\t{s:.6f}" for w, s in ranking[:10]]
    problems["rank"] = [] if read_lines(out / "rank.out") == top else ["rank != top 10"]
    quality = {"graded_spearman": graded.get("spearman"),
               "binary_macro_f1": binary.get("macro_f1")}
    return problems, quality
