"""Command-line pipeline: extract -> score -> classify -> evaluate,
plus the category-importance reports, per-word timelines and top-k
ranking views.

Every subcommand is deterministic: identical inputs and flags produce
byte-identical outputs. Exit codes: 0 success, 1 data errors, 2
usage or configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator, Optional, TextIO

from . import __version__
from .analysis import (LOGREG_L2_INVERSE_STRENGTH, build_feature_matrix,
                       category_correlations, standardize, timeline, train_logreg)
from .conllu import load_targets
from .decision import average_binary, classify_changepoint, classify_topn, rank_words
from .errors import ConfigError, DataError, GramprofError, reading
from .evaluation import accuracy, binary_gold, graded_gold, load_gold, macro_f1, \
    per_class_f1, spearman
from .profiles import ProfileStore, extract_profiles
from .scoring import AGGREGATIONS, FEATURE_KINDS, MethodConfig, score_period_pair
from .tsv import finite, read_tsv, zero_or_one

logger = logging.getLogger(__name__)

# Each method flag's dest is the MethodConfig field it sets and defaults to.
_METHOD_DEFAULTS = MethodConfig()


@dataclass
class DatasetSpec:
    """A dataset description: corpora per period, the target list and
    optional gold data. Which two periods are compared is chosen when
    scoring (``_resolve_pair``), not here."""

    name: str
    periods: dict[str, list[str]]  # label -> corpus paths, in config order
    targets_path: str
    gold_path: Optional[str] = None


def load_dataset_spec(path) -> DatasetSpec:
    """Read a dataset description from a YAML file. Relative paths are
    resolved against the file's directory. A dataset has at least two
    periods with distinct labels, and a corpus file may appear only once
    in it."""
    import yaml
    path = Path(path)
    with reading(path, "config", ConfigError) as f:
        try:
            raw = yaml.safe_load(f)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config {path} is not valid YAML: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: expected a mapping at the top level")
    if "pairs" in raw:
        logger.warning("config %s: the 'pairs' key is not read; score and analyze "
                       "compare the store's two periods or the two that --pair names",
                       path)
    base = path.parent

    def resolve(p) -> str:
        return str((base / str(p)))

    try:
        periods: dict[str, list[str]] = {}
        for entry in raw["periods"]:
            paths = entry["paths"]
            if not isinstance(paths, list) or not paths:
                raise ConfigError(f"config {path}: period {entry.get('label')!r} "
                                  f"needs a non-empty 'paths' list")
            label = str(entry["label"])
            if label in periods:
                raise ConfigError(f"config {path}: duplicate period labels")
            periods[label] = [resolve(p) for p in paths]
        spec = DatasetSpec(
            name=str(raw.get("name", path.stem)),
            periods=periods,
            targets_path=resolve(raw["targets"]),
            gold_path=resolve(raw["gold"]) if raw.get("gold") else None,
        )
    except KeyError as exc:
        raise ConfigError(f"config {path}: missing required key {exc}")
    except TypeError as exc:
        raise ConfigError(f"config {path}: 'periods' must be a list of entries "
                          f"with 'label' and 'paths' ({exc})")
    if len(spec.periods) < 2:
        raise ConfigError(f"config {path}: dataset needs at least 2 periods")
    seen: dict[Path, str] = {}
    for label, paths in spec.periods.items():
        for p in paths:
            if not Path(p).exists():
                raise ConfigError(f"config {path}: corpus file not found: {p}")
            file = Path(p).resolve()
            if file in seen:
                raise ConfigError(f"config {path}: corpus file {p} is listed twice "
                                  f"(periods {seen[file]!r} and {label!r})")
            seen[file] = label
    if not Path(spec.targets_path).exists():
        raise ConfigError(f"config {path}: target file not found: {spec.targets_path}")
    return spec


# ----------------------------------------------------------------------
# small I/O helpers

@contextmanager
def _output(path: Optional[str]) -> Iterator[TextIO]:
    """Stdout when ``path`` is None or ``-``, else the file, closed on
    exit. A failure to open or write it reaches ``main`` as OSError."""
    if path is None or path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as stream:
        yield stream


@contextmanager
def _naming(path) -> Iterator[None]:
    """A DataError raised inside names the input file ``path`` first."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _parse_score(columns: list[str]) -> float:
    return finite(columns[1], "score")


def _parse_label(columns: list[str]) -> int:
    return zero_or_one(columns[1], "label")


def _read_score_tsv(path) -> dict[str, float]:
    """Read ``word_id<TAB>score`` lines; scores must be finite."""
    return read_tsv(path, "score file", _parse_score, "word_id<TAB>score", DataError,
                    2, 2)


def _read_label_tsv(path) -> dict[str, int]:
    """Read ``word_id<TAB>{0|1}`` lines."""
    return read_tsv(path, "label file", _parse_label, "word_id<TAB>0|1", DataError,
                    2, 2)


def _load_store(path) -> ProfileStore:
    with reading(path, "profile store", DataError) as f, _naming(path):
        return ProfileStore.load(f)


def _resolve_pair(store: ProfileStore, pair: Optional[list[str]]) -> tuple[str, str]:
    """The two periods to compare: ``--pair`` or the store's only two.
    The one place a period pair is chosen and checked."""
    if pair:
        a, b = pair
    elif len(store.periods) == 2:
        a, b = store.periods
    else:
        raise ConfigError(f"store has periods {store.periods}; select two "
                          f"with --pair")
    for label in (a, b):
        if label not in store.periods:
            raise ConfigError(f"period {label!r} not in store (has {store.periods})")
    if a == b:
        raise ConfigError(f"--pair must name two different periods, got {a!r} twice")
    return a, b


def _method_config(args) -> MethodConfig:
    """MethodConfig from the method flags the command has; the fields
    it has no flag for keep their defaults."""
    return MethodConfig(**{f.name: getattr(args, f.name)
                           for f in fields(MethodConfig) if hasattr(args, f.name)})


def _emit_report(rows: list[dict], stream: TextIO, output_format: str,
                 column_order: list[str]) -> None:
    """Write report rows as an aligned text table, TSV, or JSON lines."""
    if output_format == "json-lines":
        for row in rows:
            stream.write(json.dumps(row, sort_keys=True) + "\n")
        return
    cells = [[_format_cell(row.get(c)) for c in column_order] for row in rows]
    if output_format == "tsv":
        stream.write("\t".join(column_order) + "\n")
        for row_cells in cells:
            stream.write("\t".join(row_cells) + "\n")
        return
    widths = [max(len(column_order[i]),
                  max((len(c[i]) for c in cells), default=0))
              for i in range(len(column_order))]
    stream.write("  ".join(column_order[i].ljust(widths[i])
                           for i in range(len(column_order))).rstrip() + "\n")
    for row_cells in cells:
        stream.write("  ".join(row_cells[i].ljust(widths[i])
                               for i in range(len(column_order))).rstrip() + "\n")


def _format_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


# ----------------------------------------------------------------------
# subcommands

def cmd_extract(args) -> int:
    spec = load_dataset_spec(args.config)
    targets = load_targets(spec.targets_path)
    profiles = extract_profiles(
        spec.periods, targets,
        case_fold=args.case_fold,
        match_form=args.match_form,
        strip_subtypes=args.strip_deprel_subtype,
        strict=args.strict,
    )
    store = ProfileStore(
        periods=list(spec.periods),
        profiles=profiles,
        options={
            "dataset": spec.name,
            "case_fold": args.case_fold,
            "match_field": "form" if args.match_form else "lemma",
            "strip_deprel_subtype": args.strip_deprel_subtype,
        },
    )
    with _output(args.output) as stream:
        store.save(stream)
    # The store may be on stdout; the report must not follow it there.
    report = sys.stderr if args.output == "-" else sys.stdout
    for word_id in store.word_ids:
        totals = [profiles[(word_id, period)].total for period in store.periods]
        counts = "  ".join(f"{period}={total}"
                           for period, total in zip(store.periods, totals))
        print(f"{word_id}: {counts}", file=report)
        if not any(totals):
            logger.warning("target %r matched nothing in any period", word_id)
    logger.info("wrote %d profiles to %s", len(profiles), args.output)
    return 0


def cmd_score(args) -> int:
    config = _method_config(args)
    store = _load_store(args.store)
    pair = _resolve_pair(store, args.pair)
    scores = score_period_pair(store.profiles, pair, config)
    ranking = rank_words({word_id: round(s.aggregate, 6) for word_id, s in scores.items()})
    with _output(args.output) as stream:
        if args.explain:
            categories = sorted({c for s in scores.values() for c in s.per_category})
            header = ["word_id", "score", "d_morph", "d_synt"] + categories
            stream.write("\t".join(header) + "\n")
            for word_id, aggregate in ranking:
                s = scores[word_id]
                row = [word_id, f"{aggregate:.6f}",
                       "-" if s.d_morph is None else f"{s.d_morph:.6f}",
                       "-" if s.d_synt is None else f"{s.d_synt:.6f}"]
                row += [f"{s.per_category[c]:.6f}" if c in s.per_category else "-"
                        for c in categories]
                stream.write("\t".join(row) + "\n")
        else:
            for word_id, aggregate in ranking:
                stream.write(f"{word_id}\t{aggregate:.6f}\n")
    return 0


def cmd_classify(args) -> int:
    if not args.changepoint and not 0.0 <= args.ratio <= 1.0:
        raise ConfigError(f"--ratio must be in [0, 1], got {args.ratio}")
    ranking = rank_words(_read_score_tsv(args.ranking))
    if args.changepoint:
        labels = classify_changepoint(ranking)
    else:
        labels = classify_topn(ranking, args.ratio)
    with _output(args.output) as stream:
        for word_id, _ in ranking:
            stream.write(f"{word_id}\t{labels[word_id]}\n")
    return 0


def cmd_evaluate(args) -> int:
    gold_records = load_gold(args.gold)
    rows: list[dict]
    if args.task == "binary":
        pred = _read_label_tsv(args.pred)
        with _naming(args.gold):
            gold = binary_gold(gold_records)
        f1 = per_class_f1(pred, gold)
        rows = [
            {"metric": "accuracy", "value": accuracy(pred, gold)},
            {"metric": "macro_f1", "value": macro_f1(pred, gold)},
            {"metric": "f1_class_0", "value": f1[0]},
            {"metric": "f1_class_1", "value": f1[1]},
            {"metric": "n", "value": len(pred)},
        ]
    else:
        pred = _read_score_tsv(args.pred)
        with _naming(args.gold):
            gold = graded_gold(gold_records)
        rows = [
            {"metric": "spearman", "value": spearman(pred, gold)},
            {"metric": "n", "value": len(pred)},
        ]
    _emit_report(rows, sys.stdout, args.format, ["metric", "value"])
    return 0


def cmd_analyze(args) -> int:
    config = _method_config(args)
    if args.report == "logreg" and not args.l2 > 0:  # also rejects NaN
        raise ConfigError(f"--l2: the inverse regularization strength must be positive, "
                          f"got {args.l2}")
    store = _load_store(args.store)
    pair = _resolve_pair(store, args.pair)
    gold_records = load_gold(args.gold)
    profiles, suffix = store.profiles, args.subset_suffix
    if suffix:
        # A subset analysis is the analysis of a store and a gold file
        # holding only the words with the suffix.
        profiles = {key: p for key, p in profiles.items() if key[0].endswith(suffix)}
        if not profiles:
            raise DataError(f"no words match suffix {suffix!r}")
        gold_records = {w: r for w, r in gold_records.items() if w.endswith(suffix)}
    matrix = build_feature_matrix(profiles, pair, config)

    if args.report == "logreg":
        with _naming(args.gold):
            gold = binary_gold(gold_records)
        standardized, constant = standardize(matrix)
        for column in constant:
            logger.warning("category %r has constant distances; weight is "
                           "uninformative", column)
        result = train_logreg(standardized, gold,
                              l2_inverse_strength=args.l2)
        rows = [{"category": column,
                 "coefficient": float(result.coefficients[j]),
                 "positive": bool(result.coefficients[j] > 0)}
                for j, column in enumerate(result.columns)]
        rows.sort(key=lambda r: (-r["coefficient"], r["category"]))
        _emit_report(rows, sys.stdout, args.format,
                     ["category", "coefficient", "positive"])
        summary = [
            {"metric": "top_categories",
             "value": ", ".join(result.positive_categories) or "-"},
            {"metric": "train_accuracy", "value": result.train_accuracy},
            {"metric": "train_macro_f1", "value": result.train_macro_f1},
            {"metric": "iterations", "value": result.iterations},
        ]
        _emit_report(summary, sys.stdout, args.format, ["metric", "value"])
    else:
        with _naming(args.gold):
            gold = graded_gold(gold_records)
        results = category_correlations(
            matrix, gold,
            missing_as_absent=args.missing_as_absent,
            exact_p=args.exact_p,
        )
        rows = []
        for column, r in results.items():
            # text report mimics the usual presentation: '-' when not
            # significant; machine formats keep the value
            display_rho = r.rho if (args.format != "text" or r.significant) else None
            rows.append({
                "category": column,
                "rho": display_rho,
                "p_value": r.p_value,
                "significant": r.significant,
                "n": r.n,
                "note": r.note or None,
            })
        _emit_report(rows, sys.stdout, args.format,
                     ["category", "rho", "p_value", "significant", "n", "note"])
    return 0


def cmd_timeline(args) -> int:
    store = _load_store(args.store)
    word_ids = store.word_ids
    if args.word not in set(word_ids):
        raise DataError(f"word {args.word!r} not in store; its {len(word_ids)} words "
                        f"begin {', '.join(map(repr, word_ids[:5])) or '-'}")
    profiles_by_period = {period: store.profiles[(args.word, period)]
                          for period in store.periods}
    rows = timeline(profiles_by_period, args.category)
    with _output(args.output) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["period", "value", "count", "proportion"])
        for row in rows:
            writer.writerow([row.period, row.value, row.count,
                             f"{row.proportion:.6f}"])
    return 0


def cmd_rank(args) -> int:
    if args.top < 1:
        raise ConfigError("--top must be at least 1")
    for word_id, score in rank_words(_read_score_tsv(args.ranking))[:args.top]:
        print(f"{word_id}\t{score:.6f}")
    return 0


def cmd_combine_labels(args) -> int:
    labels_a = _read_label_tsv(args.labels_a)
    labels_b = _read_label_tsv(args.labels_b)
    combined = average_binary(labels_a, labels_b)
    with _output(args.output) as stream:
        for word_id in sorted(combined):
            stream.write(f"{word_id}\t{combined[word_id]}\n")
    return 0


# ----------------------------------------------------------------------
# parser

def _add_filter_flags(parser) -> None:
    parser.add_argument("--filter", dest="filter_threshold", type=float,
                        default=_METHOD_DEFAULTS.filter_threshold, metavar="SHARE",
                        help="drop features rarer than this share of the word's "
                             "usages (default %(default)s)")
    parser.add_argument("--filter-per-period", dest="per_period_filter",
                        action="store_true",
                        help="compare feature counts against each period's own "
                             "total instead of the summed totals")
    parser.add_argument("--zero-distance", dest="zero_profile_distance", type=float,
                        default=_METHOD_DEFAULTS.zero_profile_distance, metavar="D",
                        help="distance for a profile present in only one period "
                             "(default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gramprof",
        description="Detect lexical semantic change from pre-tagged diachronic "
                    "corpora using grammatical profiles.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--seed", type=int, default=None,
                        help="accepted for harness compatibility; the pipeline "
                             "is deterministic and ignores it")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("extract", help="count grammatical profiles from corpora")
    p.add_argument("-c", "--config", required=True, help="dataset YAML file")
    p.add_argument("-o", "--output", required=True, help="profile store to write")
    p.add_argument("--match-form", action="store_true",
                   help="match targets on surface form instead of lemma")
    p.add_argument("--case-fold", action="store_true",
                   help="case-insensitive target matching")
    p.add_argument("--strip-deprel-subtype", action="store_true",
                   help="truncate dependency relations at ':' (obl:tmod -> obl)")
    p.add_argument("--strict", action="store_true",
                   help="abort on malformed CONLL-U lines instead of skipping")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("score", help="compute change scores for a period pair")
    p.add_argument("store", help="profile store from 'extract'")
    p.add_argument("-o", "--output", default=None, help="ranking TSV (default stdout)")
    p.add_argument("--features", dest="feature_kind", choices=FEATURE_KINDS,
                   default=_METHOD_DEFAULTS.feature_kind,
                   help="feature set (default %(default)s)")
    p.add_argument("--separate", dest="separation", action="store_true",
                   help="score each morphological category separately")
    p.add_argument("--aggregate", dest="aggregation", choices=AGGREGATIONS,
                   default=_METHOD_DEFAULTS.aggregation,
                   help="how to aggregate per-category distances "
                        "(default %(default)s)")
    _add_filter_flags(p)
    p.add_argument("--pair", nargs=2, metavar=("A", "B"), default=None,
                   help="period labels to compare (default: the store's two "
                        "periods)")
    p.add_argument("--explain", action="store_true",
                   help="add per-category distance columns")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("classify", help="binary labels from a score ranking")
    p.add_argument("ranking", help="ranking TSV from 'score'")
    p.add_argument("-o", "--output", default=None, help="label TSV (default stdout)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ratio", type=float, default=None, metavar="R",
                       help="label the top share as changed (e.g. 0.43)")
    group.add_argument("--changepoint", action="store_true",
                       help="find the split automatically by change-point "
                            "detection")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evaluate", help="score predictions against gold data")
    p.add_argument("pred", help="prediction TSV")
    p.add_argument("gold", help="gold TSV (word_id, binary, graded; '-' for "
                                "absent)")
    p.add_argument("--task", choices=["binary", "graded"], required=True)
    p.add_argument("--format", choices=["text", "tsv", "json-lines"],
                   default="text")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze", help="category-importance reports")
    p.add_argument("store", help="profile store from 'extract'")
    p.add_argument("gold", help="gold TSV")
    p.add_argument("--report", choices=["logreg", "correlation"], required=True)
    p.add_argument("--pair", nargs=2, metavar=("A", "B"), default=None)
    _add_filter_flags(p)
    p.add_argument("--l2", type=float, default=LOGREG_L2_INVERSE_STRENGTH, metavar="C",
                   help="inverse L2 regularization strength for the logistic "
                        "regression (default %(default)s)")
    p.add_argument("--missing-as-absent", action="store_true",
                   help="drop words lacking a category from that category's "
                        "correlation instead of treating the distance as 0")
    p.add_argument("--exact-p", action="store_true",
                   help="exact permutation p-values (n <= 10 only)")
    p.add_argument("--subset-suffix", default=None, metavar="SUFFIX",
                   help="restrict the analysis to word_ids with this suffix "
                        "(e.g. _nn)")
    p.add_argument("--format", choices=["text", "tsv", "json-lines"],
                   default="text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("timeline", help="value distribution of one category "
                                        "over periods for one word")
    p.add_argument("store", help="profile store from 'extract'")
    p.add_argument("word", help="target word_id")
    p.add_argument("category", help="morphological category (or 'syntax')")
    p.add_argument("-o", "--output", default=None, help="CSV (default stdout)")
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("rank", help="show the top of a score ranking")
    p.add_argument("ranking", help="ranking TSV from 'score'")
    p.add_argument("--top", type=int, default=10, metavar="K",
                   help="number of words to show (default %(default)s)")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("combine-labels",
                       help="merge two binary labelings (1 wins on disagreement)")
    p.add_argument("labels_a", help="label TSV")
    p.add_argument("labels_b", help="label TSV")
    p.add_argument("-o", "--output", default=None, help="label TSV (default stdout)")
    p.set_defaults(func=cmd_combine_labels)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except GramprofError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    except OSError as exc:
        # errors.reading turns input failures into GramprofError, so this
        # is a failed write: a full disk, a closed pipe, a bad -o path.
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
