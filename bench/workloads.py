"""The benchmark's workloads: which gramprof CLI calls one pass makes.

A pass is what a user at a shell would run once, one command after
another (a closed loop with one client).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("extract-zipf", "extract-dense", "rescore-sweep")

# extraction flags per workload; the generator's truth assumes them
EXTRACT_FLAGS = {
    "extract-zipf": [],
    "extract-dense": ["--case-fold", "--strip-deprel-subtype"],
    "rescore-sweep": [],
}

# label suffix -> score flags; the six method variants of the paper
SCORE_VARIANTS = {
    "morphology": ["--features", "morphology"],
    "syntax": ["--features", "syntax"],
    "average": ["--features", "average"],
    "separate-max": ["--features", "morphology", "--separate"],
    "separate-mean": ["--features", "morphology", "--separate", "--aggregate", "mean"],
    "combination": ["--features", "combination", "--separate"],
}


@dataclass(frozen=True)
class Call:
    label: str              # unique within a pass, "<command>[.<detail>]"
    argv: tuple[str, ...]
    stdout: str             # file, relative to the output directory, taking stdout
    outputs: tuple[str, ...] = ()  # further files the call writes

    @property
    def command(self) -> str:
        return self.argv[0]


def extract_call(workload: str, inputs: Path, out: Path) -> Call:
    return Call("extract", ("extract", "-c", str(inputs / "dataset.yml"),
                            "-o", str(out / "store.jsonl"), *EXTRACT_FLAGS[workload]),
                "extract.out", ("store.jsonl",))


def timeline_word(truth: dict) -> str:
    """The first word (by id) that shows grammatical number in every
    period."""
    for word_id in sorted(truth["profiles"]):
        periods = truth["profiles"][word_id].values()
        if all(any("Number=" in feats for feats in p["morph"]) for p in periods):
            return word_id
    raise ValueError("no word shows grammatical number in every period")


def calls(workload: str, inputs: Path, out: Path, truth: dict) -> list[Call]:
    """The timed calls of one pass."""
    if workload != "rescore-sweep":
        return [extract_call(workload, inputs, out)]
    store, gold = str(out / "store.jsonl"), str(inputs / "gold.tsv")
    result = []
    for variant, flags in SCORE_VARIANTS.items():
        result.append(Call(f"score.{variant}",
                           ("score", store, *flags, "-o", str(out / f"score.{variant}.tsv")),
                           f"score.{variant}.out", (f"score.{variant}.tsv",)))
    ranking = str(out / "score.combination.tsv")
    result += [
        Call("score.explain", ("score", store, *SCORE_VARIANTS["combination"], "--explain",
                               "-o", str(out / "score.explain.tsv")),
             "score.explain.out", ("score.explain.tsv",)),
        Call("classify.changepoint", ("classify", ranking, "--changepoint",
                                      "-o", str(out / "labels.changepoint.tsv")),
             "classify.changepoint.out", ("labels.changepoint.tsv",)),
        Call("classify.ratio", ("classify", ranking, "--ratio", "0.43",
                                "-o", str(out / "labels.ratio.tsv")),
             "classify.ratio.out", ("labels.ratio.tsv",)),
        Call("evaluate.binary", ("evaluate", str(out / "labels.ratio.tsv"), gold,
                                 "--task", "binary", "--format", "json-lines"),
             "evaluate.binary.out"),
        Call("evaluate.graded", ("evaluate", ranking, gold, "--task", "graded",
                                 "--format", "json-lines"),
             "evaluate.graded.out"),
        Call("analyze.logreg", ("analyze", store, gold, "--report", "logreg",
                                "--format", "json-lines"),
             "analyze.logreg.out"),
        Call("analyze.correlation", ("analyze", store, gold, "--report", "correlation",
                                     "--format", "json-lines"),
             "analyze.correlation.out"),
        Call("timeline", ("timeline", store, timeline_word(truth), "Number",
                          "-o", str(out / "timeline.csv")),
             "timeline.out", ("timeline.csv",)),
        Call("rank", ("rank", ranking, "--top", "10"), "rank.out"),
    ]
    return result
