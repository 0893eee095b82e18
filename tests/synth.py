"""Synthetic test data: diachronic corpus pairs with a planted change
signal, and random profile stores.

Changed words flip their grammatical number distribution between the
two periods; stable words keep per-word distributions fixed and only
vary by multinomial sampling noise. Two extra morphological categories
(case, definiteness) and the dependency relation are sampled from
per-word distributions shared across periods, so they carry no change
signal.
"""

import numpy as np

from gramprof.conllu import TargetSpec
from gramprof.profiles import Profile, ProfileStore

NUMBER_VALUES = ["Sing", "Plur"]
CASE_VALUES = ["Nom", "Acc", "Dat"]
DEFINITE_VALUES = ["Def", "Ind"]
DEPRELS = ["nsubj", "obj", "obl"]

CHANGED_NUMBER_BEFORE = [0.8, 0.2]
CHANGED_NUMBER_AFTER = [0.2, 0.8]


def _random_distribution(rng, size):
    """A distribution with every probability comfortably above the 5%
    rare-feature cutoff."""
    weights = 0.5 + rng.random(size)
    return weights / weights.sum()


def _tokens_for_word(rng, lemma, n, number_p, case_p, definite_p, deprel_p):
    numbers = rng.choice(len(NUMBER_VALUES), size=n, p=number_p)
    cases = rng.choice(len(CASE_VALUES), size=n, p=case_p)
    definites = rng.choice(len(DEFINITE_VALUES), size=n, p=definite_p)
    deprels = rng.choice(len(DEPRELS), size=n, p=deprel_p)
    lines = []
    for k in range(n):
        feats = (f"Case={CASE_VALUES[cases[k]]}"
                 f"|Definite={DEFINITE_VALUES[definites[k]]}"
                 f"|Number={NUMBER_VALUES[numbers[k]]}")
        lines.append(f"{k + 1}\t{lemma}\t{lemma}\tNOUN\t_\t{feats}\t0"
                     f"\t{DEPRELS[deprels[k]]}\t_\t_\n")
    return lines


def synthetic_corpus_pair(rng, n_changed=5, n_stable=5, occurrences=1000):
    """Build two CONLL-U corpus texts with planted semantic change.

    Returns (text_before, text_after, targets, changed_ids).
    """
    text_before, text_after = [], []
    targets = []
    changed_ids = []
    for i in range(n_changed + n_stable):
        lemma = f"word{i:02d}"
        targets.append(TargetSpec(lemma, lemma))
        changed = i < n_changed
        if changed:
            changed_ids.append(lemma)
            number_before = np.array(CHANGED_NUMBER_BEFORE)
            number_after = np.array(CHANGED_NUMBER_AFTER)
        else:
            number_before = number_after = _random_distribution(rng, 2)
        case_p = _random_distribution(rng, 3)
        definite_p = _random_distribution(rng, 2)
        deprel_p = _random_distribution(rng, 3)
        text_before.extend(_tokens_for_word(rng, lemma, occurrences, number_before,
                                            case_p, definite_p, deprel_p))
        text_before.append("\n")
        text_after.extend(_tokens_for_word(rng, lemma, occurrences, number_after,
                                           case_p, definite_p, deprel_p))
        text_after.append("\n")
    return "".join(text_before), "".join(text_after), targets, changed_ids


# FEATS categories and values of random_store; one value holds "=".
STORE_CATEGORIES = {
    "Case": ["Nom", "Acc", "Dat", "Gen"],
    "Gender": ["Fem", "Masc", "Neut"],
    "Number": ["Sing", "Plur"],
    "Tense": ["Past", "Pres"],
    "Foo": ["a=b", "c"],
}
# FEATS strings that random_store mixes in: a value holding "=", an empty
# value, a category repeated within one string, "_", and malformed entries
# (no "=", an empty key, an empty item)
ODD_FEATS = ["Foo=a=b", "Polite=", "Case=Nom|Case=Acc", "Case=Acc|Case=Acc", "_",
             "Number=Sing|Oops", "=x|Case=Dat", "Gender=Fem||Case=Nom", "Broken"]
STORE_DEPRELS = ["nsubj", "obj", "obl", "nmod", "root"]


def random_feats(rng):
    """One FEATS string: mostly 1-3 categories in sorted order, sometimes
    one of ODD_FEATS."""
    if rng.random() < 0.1:
        return rng.choice(ODD_FEATS)
    keys = sorted(rng.sample(sorted(STORE_CATEGORIES), rng.randrange(1, 4)))
    return "|".join(f"{key}={rng.choice(STORE_CATEGORIES[key])}" for key in keys)


def random_store(rng, words, periods):
    """A valid ProfileStore of ``words`` words, each with a profile in
    every one of the ``periods`` labels, drawn with ``rng`` (a
    ``random.Random``). About one profile in ten is empty; the others
    hold up to 7 FEATS strings and 1-3 dependency relations."""
    profiles = {}
    for i in range(words):
        word_id = f"w{i:04d}"
        for period in periods:
            morph, synt, total = {}, {}, 0
            if rng.random() >= 0.1:
                for _ in range(rng.randrange(0, 8)):
                    feats = random_feats(rng)
                    morph[feats] = morph.get(feats, 0) + rng.randrange(1, 30)
                total = sum(morph.values()) + rng.randrange(1, 5)
                deprels = rng.sample(STORE_DEPRELS, min(total, rng.randrange(1, 4)))
                cuts = sorted(rng.sample(range(1, total), len(deprels) - 1))
                synt = {deprel: high - low for deprel, low, high
                        in zip(deprels, [0, *cuts], [*cuts, total])}
            profiles[(word_id, period)] = Profile(morph, synt, total)
    return ProfileStore(periods=list(periods), profiles=profiles,
                        options={"dataset": "random"})
