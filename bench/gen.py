"""Seeded input generator for the gramprof benchmark.

Writes the CONLL-U corpora, target list, dataset YAML and (for
``rescore-sweep``) gold file of one workload, plus ``truth.json``: the
exact FEATS and DEPREL counts each target must receive per period under
the extraction options the workload uses, and the number of tokens,
sentences and malformed lines the reader must see. The truth is derived
from the documented matching rules, not from gramprof code.

Usage: python3 bench/gen.py --workload NAME --seed N --out DIR
"""

from __future__ import annotations

import argparse
import gzip
import json
import random
import sys
from itertools import accumulate
from pathlib import Path

GEN_VERSION = 1
DENSE_VARIANT_BITS = 6
DENSE_VARIANTS = 1 << DENSE_VARIANT_BITS  # (upos, feats, deprel) draws per dense slot

CATEGORIES = {
    "Number": ["Sing", "Plur"],
    "Case": ["Nom", "Acc", "Gen", "Dat"],
    "Gender": ["Masc", "Fem", "Neut"],
    "Definite": ["Def", "Ind"],
    "Degree": ["Pos", "Cmp", "Sup"],
    "Tense": ["Past", "Pres"],
    "Mood": ["Ind", "Sub", "Imp"],
    "VerbForm": ["Fin", "Inf", "Part"],
    "Person": ["1", "2", "3"],
}
POS_CATEGORIES = {
    "NOUN": ["Case", "Definite", "Gender", "Number"],
    "PROPN": ["Case", "Number"],
    "ADJ": ["Degree", "Gender", "Number"],
    "VERB": ["Mood", "Number", "Person", "Tense", "VerbForm"],
}
DEPRELS = ["nsubj", "obj", "obl", "obl:tmod", "nmod", "nmod:poss", "amod",
           "advmod", "acl:relcl", "compound:prt", "conj", "root", "iobj",
           "xcomp"]
FUNCTION_WORDS = [("the", "DET", "Definite=Def|PronType=Art", "det"),
                  ("of", "ADP", "_", "case"),
                  ("and", "CCONJ", "_", "cc"),
                  ("quickly", "ADV", "_", "advmod")]
SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
NON_ASCII_LEMMAS = ["straße", "café", "öl", "señor", "naïve", "fjärd", "œuvre",
                    "größe", "élan", "mañana"]


class Truth:
    """Expected store counts plus reader-level counts per period."""

    def __init__(self, periods):
        self.periods = list(periods)
        self.profiles: dict[str, dict[str, list]] = {}
        self.tokens = {p: 0 for p in periods}
        self.sentences = {p: 0 for p in periods}
        self.malformed = {p: 0 for p in periods}
        self.multiword = {p: 0 for p in periods}
        self.empty_nodes = {p: 0 for p in periods}

    def add_target(self, word_id):
        self.profiles[word_id] = {p: [0, {}, {}] for p in self.periods}

    def count(self, word_id, period, feats, deprel):
        entry = self.profiles[word_id][period]
        entry[0] += 1
        entry[2][deprel] = entry[2].get(deprel, 0) + 1
        if feats != "_":
            entry[1][feats] = entry[1].get(feats, 0) + 1

    def to_json(self):
        return {
            "periods": self.periods,
            "tokens": self.tokens,
            "sentences": self.sentences,
            "malformed": self.malformed,
            "multiword": self.multiword,
            "empty_nodes": self.empty_nodes,
            "profiles": {w: {p: {"total": t, "morph": m, "synt": s}
                             for p, (t, m, s) in periods.items()}
                         for w, periods in self.profiles.items()},
        }


class TargetRules:
    """The documented matching rule: a token matches the first
    candidate for its (optionally case-folded) lemma, filtered targets
    before unfiltered ones, ties by word_id."""

    def __init__(self, specs, case_fold):
        self.case_fold = case_fold
        self.by_lemma: dict[str, list] = {}
        for word_id, lemma, upos in specs:
            key = lemma.casefold() if case_fold else lemma
            self.by_lemma.setdefault(key, []).append((word_id, upos))
        for candidates in self.by_lemma.values():
            candidates.sort(key=lambda c: (c[1] is None, c[0]))

    def target_of(self, lemma, upos):
        key = lemma.casefold() if self.case_fold else lemma
        for word_id, allowed in self.by_lemma.get(key, ()):
            if allowed is None or upos in allowed:
                return word_id
        return None


def pseudo_lemmas(rng, n, exclude=()):
    seen = set(exclude)
    out = []
    while len(out) < n:
        word = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 4)))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def random_weights(rng, n, spread=1.0):
    return [0.2 + rng.random() ** spread for _ in range(n)]


def feats_pool(rng, upos, size):
    """Distinct combined FEATS strings for a part of speech."""
    categories = POS_CATEGORIES[upos]
    pool = set()
    for _ in range(size * 3):
        used = [c for c in categories if rng.random() < 0.75] or categories[:1]
        pool.add("|".join(f"{c}={rng.choice(CATEGORIES[c])}" for c in sorted(used)))
        if len(pool) >= size:
            break
    return sorted(pool)


def token_line(index, form, lemma, upos, feats, head, deprel):
    return f"{index}\t{form}\t{lemma}\t{upos}\t_\t{feats}\t{head}\t{deprel}\t_\t_"


def write_text(path, chunks):
    if str(path).endswith(".gz"):
        data = gzip.compress("".join(chunks).encode("utf-8"), compresslevel=6, mtime=0)
        Path(path).write_bytes(data)
        return
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.writelines(chunks)


def write_dataset(out, name, periods, gold=False):
    lines = [f"name: {name}", "targets: targets.tsv"]
    if gold:
        lines.append("gold: gold.tsv")
    lines.append("periods:")
    for label, files in periods:
        lines.append(f"  - label: {label}")
        lines.append(f"    paths: [{', '.join(files)}]")
    (out / "dataset.yml").write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_targets(out, specs):
    rows = ["# word_id\tlemma\t[upos list]"]
    for word_id, lemma, upos in specs:
        rows.append(f"{word_id}\t{lemma}" + (f"\t{','.join(sorted(upos))}" if upos else ""))
    (out / "targets.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# extract-zipf: realistic density, ~10% of tokens are targets

def gen_extract_zipf(rng, out, tokens_per_period=1_000_000, vocabulary=20_000,
                     n_targets=50, target_share=0.10):
    """Two periods; Zipfian background vocabulary; 50 targets."""
    periods = ["p1", "p2"]
    truth = Truth(periods)
    target_lemmas = [f"tgt{i:02d}" for i in range(n_targets)]
    lemmas = pseudo_lemmas(rng, vocabulary, exclude=target_lemmas)
    tails = []
    weights = []
    for rank, lemma in enumerate(lemmas, start=1):
        upos = rng.choice(["NOUN", "VERB", "ADJ", "PROPN"])
        pool = feats_pool(rng, upos, 4)
        for v in range(4):
            feats = pool[v % len(pool)] if v < 3 else "_"
            tails.append(f"{lemma}\t{lemma}\t{upos}\t_\t{feats}\t0\t{rng.choice(DEPRELS)}\t_\t_")
            weights.append(1.0 / rank ** 1.05)
    cum_tails = list(accumulate(weights))

    specs = [(w, w, None) for w in target_lemmas]
    for word_id, _, _ in specs:
        truth.add_target(word_id)
    target_cum = list(accumulate(1.0 / (i + 1) ** 0.7 for i in range(n_targets)))
    target_dist = []
    for word_id in target_lemmas:
        pool = feats_pool(rng, "NOUN", 8) + ["_"]
        per_period = []
        for _ in periods:
            fw = list(accumulate(random_weights(rng, len(pool))))
            dw = list(accumulate(random_weights(rng, 6)))
            deprels = rng.sample(DEPRELS, 6)
            per_period.append((pool, fw, deprels, dw))
        target_dist.append(per_period)

    files = []
    for p_index, period in enumerate(periods):
        chunks = []
        produced = 0
        sentence_id = 0
        while produced < tokens_per_period:
            sentence_id += 1
            length = rng.randint(5, 25)
            if rng.random() < 0.3:
                chunks.append(f"# sent_id = {period}-{sentence_id}\n")
            if rng.random() < 0.1:
                chunks.append(f"# text = sentence {sentence_id} of {period}\n")
            picks = rng.choices(tails, cum_weights=cum_tails, k=length)
            lines = []
            for i, tail in enumerate(picks, start=1):
                if rng.random() < target_share:
                    t = rng.choices(range(n_targets), cum_weights=target_cum)[0]
                    pool, fw, deprels, dw = target_dist[t][p_index]
                    feats = rng.choices(pool, cum_weights=fw)[0]
                    deprel = rng.choices(deprels, cum_weights=dw)[0]
                    word_id = target_lemmas[t]
                    truth.count(word_id, period, feats, deprel)
                    lines.append(token_line(i, word_id, word_id, "NOUN", feats, 0, deprel))
                else:
                    lines.append(f"{i}\t{tail}")
            chunks.append("\n".join(lines) + "\n\n")
            produced += length
        truth.tokens[period] = produced
        truth.sentences[period] = sentence_id
        name = f"{period}.conllu"
        write_text(out / name, chunks)
        files.append((period, [name]))
    write_targets(out, specs)
    write_dataset(out, "extract-zipf", files)
    return truth


# ----------------------------------------------------------------------
# extract-dense: almost every token is a target occurrence

def dense_targets(rng, n_slots):
    """Target specs with POS filters, lemmas shared between a filtered
    and an unfiltered target, capitalised and non-ASCII lemmas."""
    lemmas = NON_ASCII_LEMMAS + pseudo_lemmas(rng, n_slots, exclude=NON_ASCII_LEMMAS)
    lemmas = lemmas[:n_slots]
    specs = []
    slots = []  # (lemma, [(upos, weight)])
    for lemma in lemmas:
        kind = rng.random()
        shown = lemma.capitalize() if rng.random() < 0.03 else lemma
        if kind < 0.60:
            specs.append((lemma, shown, None))
            slots.append((lemma, [("NOUN", 0.7), ("ADJ", 0.3)]))
        elif kind < 0.80:
            upos = rng.choice(["NOUN", "VERB", "ADJ"])
            specs.append((f"{lemma}_{upos.lower()}", shown, frozenset([upos])))
            other = "VERB" if upos != "VERB" else "NOUN"
            slots.append((lemma, [(upos, 0.95), (other, 0.05)]))
        elif kind < 0.85:
            specs.append((f"{lemma}_np", shown, frozenset(["NOUN", "PROPN"])))
            slots.append((lemma, [("NOUN", 0.5), ("PROPN", 0.45), ("ADJ", 0.05)]))
        else:
            specs.append((lemma, shown, None))
            specs.append((f"{lemma}_vb", shown, frozenset(["VERB"])))
            if rng.random() < 0.3:
                specs.append((f"{lemma}_vbx", shown, frozenset(["VERB", "ADJ"])))
            slots.append((lemma, [("VERB", 0.5), ("NOUN", 0.3), ("ADJ", 0.2)]))
    return specs, slots


def gen_extract_dense(rng, out, tokens_per_period=100_000, n_slots=2000,
                      files_per_period=3):
    """Three periods of several files each, the last one gzipped."""
    periods = ["t1", "t2", "t3"]
    truth = Truth(periods)
    specs, slots = dense_targets(rng, n_slots)
    rules = TargetRules(specs, case_fold=True)
    for word_id, _, _ in specs:
        truth.add_target(word_id)
    slot_cum = list(accumulate(random_weights(rng, len(slots), spread=3.0)))
    slot_tokens = []
    for lemma, pos_weights in slots:
        pos = [u for u, _ in pos_weights]
        pos_cum = list(accumulate(w for _, w in pos_weights))
        pools = {u: feats_pool(rng, u, rng.randint(4, 14)) + ["_"] for u in pos}
        feats_cum = {u: list(accumulate(random_weights(rng, len(pools[u])))) for u in pos}
        deprels = rng.sample(DEPRELS, 8)
        deprel_cum = list(accumulate(random_weights(rng, 8)))
        variants = []
        for upos in rng.choices(pos, cum_weights=pos_cum, k=DENSE_VARIANTS):
            feats = rng.choices(pools[upos], cum_weights=feats_cum[upos])[0]
            deprel = rng.choices(deprels, cum_weights=deprel_cum)[0]
            variants.append((upos, feats, deprel))
        spellings = [lemma] * 8 + [lemma.capitalize(), lemma.upper()]
        slot_tokens.append((lemma, variants, spellings))

    files = []
    for period in periods:
        chunks_per_file = [[] for _ in range(files_per_period)]
        produced = 0
        sentence_id = 0
        while produced < tokens_per_period:
            sentence_id += 1
            chunks = chunks_per_file[sentence_id % files_per_period]
            if rng.random() < 0.5:
                chunks.append(f"# sent_id = {period}-{sentence_id}\n")
            length = rng.randint(8, 20)
            lines = []
            valid = 0
            picks = rng.choices(slot_tokens, cum_weights=slot_cum, k=length)
            for i, (lemma, variants, spellings) in enumerate(picks, start=1):
                if rng.random() < 0.03:
                    function_lemma, upos, feats, deprel = rng.choice(FUNCTION_WORDS)
                    lines.append(token_line(i, function_lemma, function_lemma, upos, feats,
                                            i - 1, deprel))
                    valid += 1
                    continue
                upos, feats, deprel = variants[rng.getrandbits(DENSE_VARIANT_BITS)]
                form = spellings[int(rng.random() * 10)]
                token_lemma = spellings[int(rng.random() * 10)]
                line = token_line(i, form, token_lemma, upos, feats, i - 1, deprel)
                extra = rng.random()
                if extra < 0.002:
                    # malformed: a dropped or space-joined column, still
                    # carrying the target lemma; the reader skips it
                    columns = line.split("\t")
                    lines.append("\t".join(columns[:9]) if rng.random() < 0.5
                                 else " ".join(columns))
                    truth.malformed[period] += 1
                    continue
                if extra < 0.022:
                    # a multiword range carrying a target lemma: must be skipped
                    lines.append(f"{i}-{i + 1}\t{form}s\t{lemma}\t{upos}\t_\t{feats}"
                                 f"\t_\t{deprel}\t_\t_")
                    truth.multiword[period] += 1
                lines.append(line)
                valid += 1
                word_id = rules.target_of(token_lemma, upos)
                if word_id is not None:
                    truth.count(word_id, period, feats, deprel.split(":", 1)[0])
                if 0.022 <= extra < 0.042:
                    # an empty node carrying a target lemma: must be skipped
                    lines.append(f"{i}.1\t{form}\t{lemma}\t{upos}\t_\t{feats}\t_\t_"
                                 f"\t{i}:conj\t_")
                    truth.empty_nodes[period] += 1
            chunks.append("\n".join(lines) + "\n\n")
            produced += valid
            truth.tokens[period] += valid
            if valid:
                truth.sentences[period] += 1
        names = []
        for k, chunks in enumerate(chunks_per_file):
            name = f"{period}_{k}.conllu" + (".gz" if k == files_per_period - 1 else "")
            write_text(out / name, chunks)
            names.append(name)
        files.append((period, names))
    write_targets(out, specs)
    write_dataset(out, "extract-dense", files)
    return truth


# ----------------------------------------------------------------------
# rescore-sweep: a dense two-period store with a planted graded change

def rescore_word(rng, upos):
    """Per-category value distributions for one word."""
    categories = [c for c in POS_CATEGORIES[upos] if rng.random() < 0.8] \
        or POS_CATEGORIES[upos][:1]
    return {c: random_weights(rng, len(CATEGORIES[c])) for c in categories}


def shifted(rng, weights, amount):
    """Move ``amount`` of the probability mass onto a random value."""
    total = sum(weights)
    target = rng.randrange(len(weights))
    return [(1 - amount) * w / total + (amount if i == target else 0.0)
            for i, w in enumerate(weights)]


def gen_rescore_sweep(rng, out, n_words=3000):
    """Two periods; every word's change is graded in [0, 1]."""
    periods = ["c1", "c2"]
    truth = Truth(periods)
    lemmas = pseudo_lemmas(rng, n_words)
    specs = []
    gold_rows = []
    chunks = {p: [] for p in periods}
    for lemma in lemmas:
        upos = "NOUN" if rng.random() < 0.6 else "VERB"
        word_id = f"{lemma}_{'nn' if upos == 'NOUN' else 'vb'}"
        specs.append((word_id, lemma, frozenset([upos])))
        truth.add_target(word_id)
        graded = rng.betavariate(0.7, 1.6)
        before = rescore_word(rng, upos)
        after = {c: list(w) for c, w in before.items()}
        for c in rng.sample(sorted(before), k=min(2, len(before))):
            after[c] = shifted(rng, before[c], graded)
        deprels = rng.sample(DEPRELS, 6)
        deprel_before = random_weights(rng, 6)
        deprel_after = shifted(rng, deprel_before, graded / 2)
        bare_share = rng.random() * 0.1
        for period, dist, dep in (("c1", before, deprel_before), ("c2", after, deprel_after)):
            n = min(int(15 + rng.paretovariate(2.0) * 40), 800)
            if rng.random() < 0.01:
                n = 0  # the word appears or disappears
            columns = [[f"{c}={v}" for v in rng.choices(CATEGORIES[c],
                                                        cum_weights=list(accumulate(w)), k=n)]
                       for c, w in sorted(dist.items())]
            all_feats = ["|".join(values) for values in zip(*columns)] if columns else []
            all_deprels = rng.choices(deprels, cum_weights=list(accumulate(dep)), k=n)
            lines = []
            for i in range(1, n + 1):
                feats = "_" if rng.random() < bare_share else all_feats[i - 1]
                deprel = all_deprels[i - 1]
                truth.count(word_id, period, feats, deprel)
                lines.append(token_line(i, lemma, lemma, upos, feats, 0, deprel))
                if i % 12 == 0 or i == n:
                    chunks[period].append("\n".join(lines) + "\n\n")
                    truth.sentences[period] += 1
                    lines = []
            truth.tokens[period] += n
        gold_rows.append(f"{word_id}\t{int(graded >= 0.25)}\t{graded:.4f}")
    files = []
    for period in periods:
        name = f"{period}.conllu"
        write_text(out / name, chunks[period])
        files.append((period, [name]))
    write_targets(out, specs)
    (out / "gold.tsv").write_text("\n".join(gold_rows) + "\n", encoding="utf-8")
    write_dataset(out, "rescore-sweep", files, gold=True)
    return truth


GENERATORS = {
    "extract-zipf": gen_extract_zipf,
    "extract-dense": gen_extract_dense,
    "rescore-sweep": gen_rescore_sweep,
}


def generate(workload: str, seed: int, out, size: int | None = None) -> dict:
    """Write the inputs of ``workload`` for ``seed`` into ``out`` and
    return the truth record (also written to ``out/truth.json``).
    ``size`` (tokens per period, or words for ``rescore-sweep``)
    replaces the benchmark's size; tests use it to stay small."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}:{GEN_VERSION}")
    sized = () if size is None else (size,)
    truth = GENERATORS[workload](rng, out, *sized).to_json()
    with open(out / "truth.json", "w", encoding="utf-8") as f:
        json.dump(truth, f, sort_keys=True)
    return truth


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
