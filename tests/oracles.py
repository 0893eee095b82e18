"""Independent reference implementations used to cross-check the
package's numerics.

These deliberately avoid numpy/scipy and the package's own code paths:
exact rational arithmetic (fractions) plus 50-digit floats (mpmath)
where a square root or a distribution tail is unavoidable.
"""

import itertools
import math
from fractions import Fraction

import mpmath

mpmath.mp.dps = 50


def cosine_distance_oracle(v_a, v_b, zero_profile_distance=1.0):
    """Cosine distance with an exact rational dot product and a
    high-precision square root, as a 50-digit mpmath number; exactly 0
    for proportional integer vectors, whose squared norms multiply to a
    perfect square."""
    assert len(v_a) == len(v_b)
    dot = sum(Fraction(a) * Fraction(b) for a, b in zip(v_a, v_b))
    norm2_a = sum(Fraction(a) * Fraction(a) for a in v_a)
    norm2_b = sum(Fraction(b) * Fraction(b) for b in v_b)
    if norm2_a == 0 and norm2_b == 0:
        return 0.0
    if norm2_a == 0 or norm2_b == 0:
        return zero_profile_distance
    norm2 = norm2_a * norm2_b
    similarity = mpmath.mpf(dot.numerator) / dot.denominator / mpmath.sqrt(
        mpmath.mpf(norm2.numerator) / norm2.denominator)
    return 1 - similarity


def average_ranks_oracle(values):
    """1-based ranks with ties averaged, materialized by sorting."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + 1 + j + 1) / 2.0
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def pearson_oracle(x, y):
    n = len(x)
    mean_x = math.fsum(x) / n
    mean_y = math.fsum(y) / n
    cov = math.fsum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    var_x = math.fsum((a - mean_x) ** 2 for a in x)
    var_y = math.fsum((b - mean_y) ** 2 for b in y)
    return cov / math.sqrt(var_x * var_y)


def spearman_oracle(x, y):
    return pearson_oracle(average_ranks_oracle(x), average_ranks_oracle(y))


def split_cost_oracle(scores, k):
    """Exact L2 cost of splitting scores at index k (both segments'
    squared deviation from their mean), as a Fraction."""

    def segment(values):
        values = [Fraction(v) for v in values]
        mean = sum(values) / len(values)
        return sum((v - mean) ** 2 for v in values)

    return segment(scores[:k]) + segment(scores[k:])


def best_split_oracle(scores):
    """Exhaustive single-split search with exact arithmetic; ties go to
    the lowest index."""
    best_k, best_cost = None, None
    for k in range(1, len(scores)):
        cost = split_cost_oracle(scores, k)
        if best_cost is None or cost < best_cost:
            best_k, best_cost = k, cost
    return best_k


def filter_keeps_oracle(joint, total, threshold):
    """Whether a joint count survives the rare-feature filter: it is not
    strictly below the threshold (read as the decimal it is written as)
    times the total, in exact rationals."""
    return not Fraction(joint) < Fraction(str(threshold)) * total


def filtered_distance_oracle(counts_a, counts_b, total_a, total_b, config):
    """One distance of README's method: drop every feature whose
    occurrence sum over the two periods is below the filter share of the
    word's total usages (of each period's own total, per table, with
    ``per_period_filter``), then take the cosine distance of what is
    left, aligned on the features."""
    keys = sorted(counts_a.keys() | counts_b.keys())
    joint = {key: counts_a.get(key, 0) + counts_b.get(key, 0) for key in keys}
    if config.per_period_filter:
        totals = total_a, total_b
    else:
        totals = total_a + total_b, total_a + total_b
    kept = [{key: count for key, count in counts.items()
             if filter_keeps_oracle(joint[key], total, config.filter_threshold)}
            for counts, total in zip((counts_a, counts_b), totals)]
    return cosine_distance_oracle([kept[0].get(key, 0) for key in keys],
                                  [kept[1].get(key, 0) for key in keys],
                                  config.zero_profile_distance)


def method_oracle(profile_a, profile_b, config):
    """A word's change score under ``config`` (a MethodConfig), from
    README's "Method variants": ``morphology`` is the distance of the
    combined-FEATS tables, ``syntax`` that of the DEPREL tables and
    ``average`` their mean. With separation the morphology distance is
    the max (or mean) of the per-category distances, each category
    filtered on its own against the word's totals; a word that expresses
    no category in either period has none, and then ``morphology``
    scores the zero-profile distance and ``average`` the syntax
    distance. ``combination`` is the max of the per-category distances
    and the syntax distance. Exact rationals, with 50-digit square roots
    and means."""
    def distance(counts_a, counts_b):
        return filtered_distance_oracle(counts_a, counts_b, profile_a.total, profile_b.total,
                                        config)

    d_synt = distance(profile_a.synt, profile_b.synt)
    categories = []
    if not config.separation:
        d_morph = distance(profile_a.morph, profile_b.morph)
    else:
        separated_a = separate_categories_oracle(profile_a.morph)[0]
        separated_b = separate_categories_oracle(profile_b.morph)[0]
        categories = [distance(separated_a.get(name, {}), separated_b.get(name, {}))
                      for name in separated_a.keys() | separated_b.keys()]
        if not categories:
            d_morph = None
        elif config.aggregation == "max":
            d_morph = max(categories)
        else:
            d_morph = mpmath.fsum(categories) / len(categories)
    if config.feature_kind == "syntax":
        return d_synt
    if config.feature_kind == "combination":
        return max([*categories, d_synt])
    if d_morph is None:
        return config.zero_profile_distance if config.feature_kind == "morphology" else d_synt
    if config.feature_kind == "morphology":
        return d_morph
    return (d_morph + d_synt) / 2


def topn_count_oracle(ratio, n):
    """How many of n words the top-n rule labels changed: ratio times n,
    with the ratio read as the decimal it is written as, rounded half up
    in exact rationals."""
    return math.floor(Fraction(str(ratio)) * n + Fraction(1, 2))


def conllu_oracle(lines):
    """Line-by-line CONLL-U reader: strip the line ending, end the
    sentence on a blank line, skip ``#`` comments, split into columns,
    record lines without exactly 10 columns as malformed, skip ids with
    ``-`` or ``.``. Returns (sentences of tokens, 1-based numbers of the
    malformed lines); a token is its line, ending included, split at
    tabs."""
    sentences, sentence, malformed = [], [], []
    for number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line:
            if sentence:
                sentences.append(sentence)
                sentence = []
            continue
        if line.startswith("#"):
            continue
        columns = line.split("\t")
        if len(columns) != 10:
            malformed.append(number)
            continue
        if "-" in columns[0] or "." in columns[0]:
            continue
        sentence.append(raw.split("\t"))
    if sentence:
        sentences.append(sentence)
    return sentences, malformed


def separate_categories_oracle(morph):
    """Per-category value counts of a combined-FEATS table: each
    ``K=V`` entry of a FEATS string adds the string's count to cell
    (K, V). ``_`` and the empty string hold no entry; an entry without
    ``=`` or with an empty key is dropped. Returns (categories, the
    dropped entries in order)."""
    categories, dropped = {}, []
    for feats, count in morph.items():
        if feats in ("_", ""):
            continue
        for item in feats.split("|"):
            if "=" not in item or item.startswith("="):
                dropped.append(item)
                continue
            key, value = item.split("=", 1)
            cell = categories.setdefault(key, {})
            cell[value] = cell.get(value, 0) + count
    return categories, dropped


def malformed_feats_warnings_oracle(profiles):
    """The FEATS warnings of one report on ``profiles``: for each distinct
    FEATS string, in sorted order, one line per entry it drops."""
    strings = sorted({feats for profile in profiles for feats in profile.morph})
    return [f"skipping malformed FEATS entry {item!r} in {feats!r}"
            for feats in strings for item in separate_categories_oracle({feats: 1})[1]]


def student_t_two_tailed_oracle(t, df):
    """Two-tailed tail probability of Student's t via the regularized
    incomplete beta function."""
    t = mpmath.mpf(abs(t))
    df = mpmath.mpf(df)
    x = df / (df + t * t)
    return float(mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, x, regularized=True))


def exact_spearman_p_oracle(x, y):
    """Two-tailed permutation p-value as an exact fraction: the share of
    orderings of y whose rank covariance with x is at least the observed
    one in absolute value, in rational arithmetic."""
    ranks_x = [Fraction(r) for r in average_ranks_oracle(x)]
    mean = Fraction(len(x) + 1, 2)

    def covariance(ys):
        ranks_y = [Fraction(r) for r in average_ranks_oracle(ys)]
        return abs(sum((a - mean) * (b - mean) for a, b in zip(ranks_x, ranks_y)))

    observed = covariance(y)
    orderings = list(itertools.permutations(y))
    return Fraction(sum(covariance(ys) >= observed for ys in orderings), len(orderings))


def extract_oracle(corpora, targets, case_fold=False, match_form=False,
                   strip_subtypes=False):
    """Per-word, per-period counts of matched tokens, from the documented
    rules. ``corpora`` maps period -> list of CONLL-U texts; ``targets``
    holds (word_id, lemma, set of UPOS or None) triples.

    Each text is read by ``conllu_oracle``, so malformed lines, multiword
    ranges and empty nodes hold no token. A token's lemma (its form with
    ``match_form``), case-folded with ``case_fold`` like every target
    lemma, matches each target with that lemma whose UPOS set is None or
    holds the token's UPOS. Of those, a target with a UPOS set wins over
    one without, then the lowest word_id. The winner counts the token
    once in its total, once under its DEPREL (cut at the first ``:``
    with ``strip_subtypes``) and, unless FEATS is ``_`` or empty, once
    under its FEATS string. Returns {(word_id, period): (total, morph,
    synt)} for every target and period."""
    def key(text):
        return text.casefold() if case_fold else text

    by_key = {}
    for word_id, lemma, allowed in targets:
        by_key.setdefault(key(lemma), []).append((word_id, allowed))
    counts = {(word_id, period): [0, {}, {}]
              for period in corpora for word_id, _, _ in targets}
    for period, texts in corpora.items():
        for text in texts:
            sentences, _ = conllu_oracle(text.split("\n"))
            for columns in (t for s in sentences for t in s):
                form, lemma, upos, feats, deprel = (columns[i] for i in (1, 2, 3, 5, 7))
                candidates = sorted((allowed is None, word_id) for word_id, allowed
                                    in by_key.get(key(form if match_form else lemma), [])
                                    if allowed is None or upos in allowed)
                if not candidates:
                    continue
                entry = counts[(candidates[0][1], period)]
                entry[0] += 1
                if strip_subtypes:
                    deprel = deprel.split(":")[0]
                entry[2][deprel] = entry[2].get(deprel, 0) + 1
                if feats not in ("_", ""):
                    entry[1][feats] = entry[1].get(feats, 0) + 1
    return {k: tuple(v) for k, v in counts.items()}
