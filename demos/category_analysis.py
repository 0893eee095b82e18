#!/usr/bin/env python3
"""Which grammatical category carries the change signal?

This script plants a change in exactly one morphological category
(grammatical number) for half of a synthetic vocabulary, leaves two
other categories and the dependency relations untouched, and then asks
the analysis tools to find the culprit:

  * a standardized logistic regression over per-category distances
    (positive weights = useful categories), and
  * per-category rank correlations with the gold change scores plus a
    significance test.

Run from the repository root:  python3 demos/category_analysis.py
"""

import io

import numpy as np

from gramprof import (MethodConfig, TargetSpec, extract_profiles,
                      build_feature_matrix, category_correlations, standardize,
                      timeline, train_logreg)

rng = np.random.default_rng(7)

NUMBER = ["Sing", "Plur"]
CASE = ["Nom", "Acc", "Dat"]
DEPRELS = ["nsubj", "obj", "obl"]


def distribution(size):
    weights = 0.5 + rng.random(size)
    return weights / weights.sum()


def tokens(lemma, n, number_p, case_p, deprel_p):
    numbers = rng.choice(2, size=n, p=number_p)
    cases = rng.choice(3, size=n, p=case_p)
    deprels = rng.choice(3, size=n, p=deprel_p)
    out = []
    for k in range(n):
        feats = f"Case={CASE[cases[k]]}|Number={NUMBER[numbers[k]]}"
        out.append(f"{k + 1}\t{lemma}\t{lemma}\tNOUN\t_\t{feats}\t0"
                   f"\t{DEPRELS[deprels[k]]}\t_\t_\n")
    out.append("\n")
    return "".join(out)


print("Building two synthetic corpora: 6 words flip their number")
print("distribution (80/20 -> 20/80), 6 words stay put. Case and the")
print("dependency relations never change beyond sampling noise.")
print()

before, after, targets, changed = [], [], [], set()
for i in range(12):
    lemma = f"word{i:02d}"
    targets.append(TargetSpec(lemma, lemma))
    case_p, deprel_p = distribution(3), distribution(3)
    if i < 6:
        changed.add(lemma)
        before.append(tokens(lemma, 1000, np.array([0.8, 0.2]), case_p, deprel_p))
        after.append(tokens(lemma, 1000, np.array([0.2, 0.8]), case_p, deprel_p))
    else:
        number_p = distribution(2)
        before.append(tokens(lemma, 1000, number_p, case_p, deprel_p))
        after.append(tokens(lemma, 1000, number_p, case_p, deprel_p))

profiles = extract_profiles(
    {"before": [io.StringIO("".join(before))],
     "after": [io.StringIO("".join(after))]},
    targets,
)

config = MethodConfig(feature_kind="combination", separation=True,
                      filter_threshold=0.05)
matrix = build_feature_matrix(profiles, ("before", "after"), config)
print(f"feature matrix: {len(matrix.word_ids)} words x {matrix.columns}")
print()

gold_binary = {w: int(w in changed) for w in matrix.word_ids}
gold_graded = {w: float(w in changed) for w in matrix.word_ids}

print("--- logistic regression over standardized per-category distances ---")
standardized, constant = standardize(matrix)
result = train_logreg(standardized, gold_binary)
for j, column in enumerate(result.columns):
    label = " <-- planted" if column == "Number" else ""
    print(f"  {column:<10} weight {result.coefficients[j]:+.3f}{label}")
print(f"  positive categories (strongest first): {result.positive_categories}")
print(f"  train accuracy {result.train_accuracy:.3f}, "
      f"macro-F1 {result.train_macro_f1:.3f}, "
      f"{result.iterations} iterations")
print()

print("--- per-category correlation with the gold change scores ---")
for column, r in category_correlations(matrix, gold_graded).items():
    mark = "SIGNIFICANT" if r.significant else "-"
    rho = "n/a " if r.rho is None else f"{r.rho:+.3f}"
    p = "n/a   " if r.p_value is None else f"{r.p_value:.4f}"
    print(f"  {column:<10} rho {rho}  p {p}  {mark}")
print()

word = sorted(changed)[0]
print(f"--- number distribution of '{word}' over time ---")
for row in timeline({p: profiles[(word, p)] for p in ("before", "after")},
                    "Number"):
    print(f"  {row.period:<8} {row.value:<5} {row.count:>5}  "
          f"({row.proportion:.1%})")
print()
print("Only the planted category ends up with a large positive weight and a")
print("significant correlation; the untouched categories read as noise.")
