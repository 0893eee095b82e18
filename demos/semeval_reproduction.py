#!/usr/bin/env python3
"""Reproduce the reference graded-change results on user-supplied data.

The shared-task corpora and their taggings are not bundled with this
repository. To run this harness, prepare a directory like

    <data-dir>/
      english/dataset.yml     # periods, targets, gold (see README)
      german/dataset.yml
      latin/dataset.yml
      swedish/dataset.yml
      italian/dataset.yml     # optional, binary task only

where each dataset.yml points at pre-tagged CONLL-U corpora (UDPipe 2.5
taggings: english-lines, german-gsd, latin-proiel, swedish-lines,
italian-isdt) plus target and gold files. Then:

    python3 demos/semeval_reproduction.py --data <data-dir>

For each of the four ranking-task languages the harness extracts
profiles, scores them with the best configuration (category separation,
5% rare-feature filtering, syntax appended before taking the maximum)
and compares the Spearman correlation against the expected reference
value with a tolerance of ±0.03. When an italian/ directory is present
it also runs the binary task (basic averaged distances, no filtering,
automatic change-point split) and reports accuracy against its
reference value.

The same check is wired into the test suite as acceptance criterion 7:

    GRAMPROF_SEMEVAL_DIR=<data-dir> pytest tests/test_acceptance.py -v -s
"""

import argparse
import sys
from pathlib import Path

from gramprof import (MethodConfig, accuracy, binary_gold, classify_changepoint,
                      extract_profiles, graded_gold, load_gold, load_targets,
                      rank_words, score_period_pair, spearman)
from gramprof.cli import load_dataset_spec

EXPECTED_SPEARMAN = {
    "english": 0.320,
    "german": 0.298,
    "latin": 0.525,
    "swedish": 0.334,
}
SPEARMAN_TOLERANCE = 0.03
EXPECTED_ITALIAN_ACCURACY = 0.778

BEST_CONFIG = MethodConfig(feature_kind="combination", separation=True,
                           filter_threshold=0.05)
ITALIAN_CONFIG = MethodConfig(feature_kind="average", separation=False,
                              filter_threshold=0.0)


def run_language(dataset_dir, config):
    spec = load_dataset_spec(dataset_dir / "dataset.yml")
    targets = load_targets(spec.targets_path)
    profiles = extract_profiles(dict(spec.periods), targets)
    a, b = spec.period_labels  # every shared-task dataset has two periods
    scores = score_period_pair(profiles, (a, b), config)
    gold = load_gold(spec.gold_path)
    return {s.word_id: s.aggregate for s in scores}, gold


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--data", required=True,
                        help="directory with per-language dataset.yml files")
    parser.add_argument("--languages", nargs="*",
                        default=sorted(EXPECTED_SPEARMAN),
                        help="ranking-task languages to check "
                             "(default: all four)")
    args = parser.parse_args(argv)
    data_dir = Path(args.data)

    failures = 0
    results = []
    for language in args.languages:
        expected = EXPECTED_SPEARMAN[language]
        dataset_dir = data_dir / language
        if not dataset_dir.is_dir():
            print(f"{language:<10} SKIPPED (no {dataset_dir})")
            continue
        predicted, gold = run_language(dataset_dir, BEST_CONFIG)
        rho = spearman(predicted, graded_gold(gold))
        ok = abs(rho - expected) <= SPEARMAN_TOLERANCE
        failures += (not ok)
        results.append(rho)
        print(f"{language:<10} spearman {rho:+.3f}  expected {expected:+.3f} "
              f"±{SPEARMAN_TOLERANCE}  {'OK' if ok else 'MISMATCH'}")
    if results:
        print(f"{'mean':<10} spearman {sum(results) / len(results):+.3f}")

    italian_dir = data_dir / "italian"
    if italian_dir.is_dir():
        predicted, gold = run_language(italian_dir, ITALIAN_CONFIG)
        labels = classify_changepoint(rank_words(predicted))
        acc = accuracy(labels, binary_gold(gold))
        print(f"{'italian':<10} accuracy {acc:.3f}  reference "
              f"{EXPECTED_ITALIAN_ACCURACY:.3f} (binary task, informational)")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
