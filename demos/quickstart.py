#!/usr/bin/env python3
"""Library walkthrough on the bundled demo corpora.

Two small pre-tagged corpora live in demos/data: an "old" and a "new"
period. Three of the seven target words were built with a planted
usage shift (a number flip, a syntactic-role shift and a tense shift);
the other four only differ by sampling noise. This script walks the
whole pipeline: profiles -> category separation -> change scores ->
ranking -> automatic binary classification -> evaluation.

Run from the repository root:  python3 demos/quickstart.py
"""

from pathlib import Path

from gramprof import (MethodConfig, accuracy, binary_gold, classify_changepoint,
                      extract_profiles, graded_gold, load_gold, load_targets,
                      rank_words, score_period_pair, spearman)
from gramprof.profiles import separate_categories

DATA = Path(__file__).parent / "data"


def banner(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


banner("1. Count grammatical profiles per target word and period")
targets = load_targets(DATA / "targets.tsv")
profiles = extract_profiles(
    {"old": [DATA / "old.conllu"], "new": [DATA / "new.conllu"]},
    targets,
)
lass_old = profiles[("lass", "old")]
lass_new = profiles[("lass", "new")]
print(f"'lass' in the old period: {lass_old.total} occurrences")
print(f"  morphology: {lass_old.morph}")
print(f"  syntax:     {lass_old.synt}")
print(f"'lass' in the new period: {lass_new.total} occurrences")
print(f"  morphology: {lass_new.morph}")
print("The singular/plural balance flips between the periods - that is the")
print("planted change this walkthrough is meant to recover.")

banner("2. Separate combined feature strings into per-category counts")
separated = separate_categories(profiles[("record_vb", "old")])
for category, values in sorted(separated.items()):
    print(f"  {category}: {values}")
print("Each combined FEATS string contributes its count to every category")
print("it mentions, so sparse word-form distributions become dense")
print("per-category distributions.")

banner("3. Score change: cosine distance between the period profiles")
config = MethodConfig(feature_kind="combination", separation=True,
                      filter_threshold=0.05)
scores = score_period_pair(profiles, ("old", "new"), config)
ranking = rank_words({s.word_id: s.aggregate for s in scores})
print(f"method: {config}")
for word, value in ranking:
    detail = scores[[s.word_id for s in scores].index(word)]
    cats = ", ".join(f"{c}={d:.3f}" for c, d in sorted(detail.per_category.items()))
    print(f"  {value:.4f}  {word:<10} (synt={detail.d_synt:.3f}; {cats})")

banner("4. Split the ranking into changed vs stable automatically")
labels = classify_changepoint(ranking)
for word, value in ranking:
    marker = "CHANGED" if labels[word] else "stable"
    print(f"  {value:.4f}  {word:<10} -> {marker}")

banner("5. Evaluate against the gold annotation")
gold = load_gold(DATA / "gold.tsv")
acc = accuracy(labels, binary_gold(gold))
rho = spearman({w: v for w, v in ranking}, graded_gold(gold))
print(f"binary accuracy:     {acc:.3f}")
print(f"graded correlation:  {rho:.3f} (Spearman)")
print()
print("The planted shifts (lass, stab_nn, record_vb) surface at the top of")
print("the ranking from morphosyntactic evidence alone - no word meanings")
print("were consulted at any point.")
