"""Span recorder for the traced benchmark run.

Wraps gramprof's public functions by patching module and class
attributes, only while a traced pass runs; ``src/`` is not changed.
Every wrapped call (and every ``next()`` on a wrapped iterator) records
a span: name, start, end and parent span, for one run id (the traced
pass). Spans stay in memory in flat arrays and are written out when the
run ends. Layer metrics are derived from the spans: a span's self time
is its duration minus the part of it covered by its children.
"""

from __future__ import annotations

import functools
import logging
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import median
from time import perf_counter

from workloads import SCORE_VARIANTS

LAYERS = ("conllu", "profiles", "scoring", "decision", "evaluation", "analysis", "cli")
COMMANDS = ("extract", "score", "classify", "evaluate", "analyze", "timeline", "rank")
MALFORMED_PREFIX = "skipping malformed CONLL-U"


class Recorder:
    """Spans of one traced pass, in the order they were opened."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.words: dict[int, int] = {}    # score_period_pair span -> words scored
        self.labels: dict[int, str] = {}   # root span -> benchmark call label

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def write(self, stream) -> None:
        for i in range(len(self.name)):
            stream.write(f"{self.run_id}\t{i}\t{self.parent[i]}\t{self.names[self.name[i]]}"
                         f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    n = len(parent)
    covered = [0.0] * n
    covered_until = [float("-inf")] * n
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], covered_until[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        if hi > covered_until[p]:
            covered_until[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


class _TimedIterator:
    __slots__ = ("_rec", "_nid", "_it", "_on_item")

    def __init__(self, rec, nid, it, on_item):
        self._rec, self._nid, self._it, self._on_item = rec, nid, it, on_item

    def __iter__(self):
        return self

    def __next__(self):
        rec = self._rec
        index = rec.open(self._nid)
        try:
            item = next(self._it)
        finally:
            rec.close(index)
        if self._on_item is not None:
            self._on_item(rec, item)
        return item


def _call_span(rec, name, fn, after=None):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if after is not None:
            after(rec, index, args, result)
        return result
    return wrapper


def _iter_span(rec, name, fn, before=None, on_item=None):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(rec, args)
        return _TimedIterator(rec, nid, fn(*args, **kwargs), on_item)
    return wrapper


def _count_sentence(rec, sentence):
    rec.counts["conllu.sentences"] += 1
    rec.counts["conllu.tokens"] += len(sentence)


def _count_scanned(rec, args):
    rec.counts["match.scanned"] += len(args[1])


def _count_matched(rec, item):
    rec.counts["match.matched"] += 1


def _count_saved(rec, index, args, result):
    rec.counts["profiles.ProfileStore.save.bytes"] += args[1].tell()


def _count_kept(rec, index, args, result):
    rec.counts["filter.considered"] += len(args[0].keys() | args[1].keys())
    rec.counts["filter.kept"] += len(result[0].keys() | result[1].keys())


def _count_words(rec, index, args, result):
    rec.words[index] = len(result)


def _count_iterations(rec, index, args, result):
    rec.counts["analysis.train_logreg.iterations"] += result.iterations


class _MalformedCounter(logging.Handler):
    def __init__(self, rec):
        super().__init__(logging.WARNING)
        self.rec = rec

    def emit(self, record):
        if record.getMessage().startswith(MALFORMED_PREFIX):
            self.rec.counts["conllu.malformed_lines"] += 1


@contextmanager
def traced(rec: Recorder):
    """Patch gramprof's public functions to record spans into ``rec``
    and restore the originals on exit."""
    from gramprof import analysis, cli, conllu, profiles, scoring

    patches = []

    def patch(owner, attr, replacement):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def span(owner, attr, name, after=None):
        patch(owner, attr, _call_span(rec, name, getattr(owner, attr), after))

    patch(profiles, "parse_conllu",
          _iter_span(rec, "conllu.parse_conllu", profiles.parse_conllu,
                     on_item=_count_sentence))
    patch(conllu.TargetIndex, "match",
          _iter_span(rec, "conllu.TargetIndex.match", conllu.TargetIndex.match,
                     before=_count_scanned, on_item=_count_matched))
    span(cli, "load_targets", "conllu.load_targets")
    span(cli, "extract_profiles", "profiles.extract_profiles")
    patch(profiles.ProfileStore, "save",
          _call_span(rec, "profiles.ProfileStore.save", profiles.ProfileStore.save,
                     _count_saved))
    patch(profiles.ProfileStore, "load",
          classmethod(_call_span(rec, "profiles.ProfileStore.load",
                                 profiles.ProfileStore.__dict__["load"].__func__)))
    for owner in (scoring, analysis):
        span(owner, "separate_categories", "profiles.separate_categories")
    span(scoring, "build_vectors", "profiles.build_vectors")
    span(scoring, "cosine_distance", "scoring.cosine_distance")
    span(scoring, "filter_rare", "scoring.filter_rare", _count_kept)
    span(cli, "score_period_pair", "scoring.score_period_pair", _count_words)
    span(analysis, "score_separated", "scoring.score_separated")
    span(analysis, "score_basic", "scoring.score_basic")
    for attr in ("rank_words", "classify_changepoint", "classify_topn"):
        span(cli, attr, f"decision.{attr}")
    for attr in ("load_gold", "binary_gold", "graded_gold", "spearman", "accuracy",
                 "macro_f1", "per_class_f1"):
        span(cli, attr, f"evaluation.{attr}")
    for attr in ("accuracy", "macro_f1"):
        span(analysis, attr, f"evaluation.{attr}")
    for attr in ("build_feature_matrix", "standardize", "category_correlations",
                 "timeline"):
        span(cli, attr, f"analysis.{attr}")
    span(cli, "train_logreg", "analysis.train_logreg", _count_iterations)

    handler = _MalformedCounter(rec)
    conllu_logger = logging.getLogger("gramprof.conllu")
    conllu_logger.addHandler(handler)
    try:
        yield rec
    finally:
        conllu_logger.removeHandler(handler)
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def pass_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    selfs = self_times(rec.parent, rec.start, rec.end)
    names = [rec.names[k] for k in rec.name]
    dur = [rec.end[i] - rec.start[i] for i in range(len(names))]
    busy: dict[str, float] = defaultdict(float)
    self_by: dict[str, float] = defaultdict(float)
    calls: Counter = Counter(names)
    layer_self = {layer: 0.0 for layer in LAYERS}
    layer_busy = {layer: 0.0 for layer in LAYERS}
    for i, name in enumerate(names):
        busy[name] += dur[i]
        self_by[name] += selfs[i]
        layer = name.split(".", 1)[0]
        layer_self[layer] += selfs[i]
        p = rec.parent[i]
        if p < 0 or names[p].split(".", 1)[0] != layer:
            layer_busy[layer] += dur[i]

    c = rec.counts
    m: dict[str, float] = {}
    tokens = c["conllu.tokens"]
    parse_busy = busy["conllu.parse_conllu"]
    m["conllu.parse_conllu.tok_per_s"] = tokens / parse_busy if parse_busy else 0.0
    m["conllu.parse_conllu.busy_s"] = parse_busy
    m["conllu.TargetIndex.match.busy_s"] = busy["conllu.TargetIndex.match"]
    m["conllu.TargetIndex.match.hit_ratio"] = (
        c["match.matched"] / c["match.scanned"] if c["match.scanned"] else 0.0)
    m["conllu.tokens"] = tokens
    m["conllu.sentences"] = c["conllu.sentences"]
    m["conllu.malformed_lines"] = c["conllu.malformed_lines"]
    m["profiles.extract_profiles.self_s"] = self_by["profiles.extract_profiles"]
    m["profiles.ProfileStore.save.s"] = busy["profiles.ProfileStore.save"]
    m["profiles.ProfileStore.save.bytes"] = c["profiles.ProfileStore.save.bytes"]
    m["profiles.ProfileStore.load.s"] = busy["profiles.ProfileStore.load"]
    m["profiles.separate_categories.calls"] = calls["profiles.separate_categories"]

    per_word = {variant: 0.0 for variant in SCORE_VARIANTS}
    for i, words in rec.words.items():
        root = i
        while rec.parent[root] >= 0:
            root = rec.parent[root]
        label = rec.labels.get(root, "")
        variant = label.split(".", 1)[1] if label.startswith("score.") else ""
        if variant in per_word and words:
            per_word[variant] = dur[i] / words * 1e6
    for variant in SCORE_VARIANTS:
        m[f"scoring.score_period_pair.us_per_word.{variant}"] = per_word[variant]

    m["scoring.cosine_distance.calls"] = calls["scoring.cosine_distance"]
    m["scoring.cosine_distance.busy_s"] = busy["scoring.cosine_distance"]
    m["scoring.filter_rare.calls"] = calls["scoring.filter_rare"]
    m["scoring.filter_rare.kept_ratio"] = (
        c["filter.kept"] / c["filter.considered"] if c["filter.considered"] else 0.0)
    m["decision.classify_changepoint.s"] = busy["decision.classify_changepoint"]
    m["decision.rank_words.s"] = busy["decision.rank_words"]
    m["evaluation.busy_s"] = layer_busy["evaluation"]
    m["analysis.build_feature_matrix.s"] = busy["analysis.build_feature_matrix"]
    m["analysis.train_logreg.s"] = busy["analysis.train_logreg"]
    m["analysis.train_logreg.iterations"] = c["analysis.train_logreg.iterations"]
    m["analysis.category_correlations.s"] = busy["analysis.category_correlations"]
    for command in COMMANDS:
        m[f"cli.{command}.self_s"] = self_by[f"cli.{command}"]
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_self[layer]
    m["trace.pipeline_s"] = sum(dur[i] for i in range(len(names)) if rec.parent[i] < 0)
    m["trace.self_sum_s"] = sum(selfs)
    return m


EXACT_COUNTS = ("conllu.tokens", "conllu.sentences", "conllu.malformed_lines",
                "profiles.ProfileStore.save.bytes", "profiles.separate_categories.calls",
                "scoring.cosine_distance.calls", "scoring.filter_rare.calls",
                "scoring.filter_rare.kept_ratio", "conllu.TargetIndex.match.hit_ratio",
                "analysis.train_logreg.iterations")


def combine_passes(per_pass: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each metric over the traced passes. Counts must repeat
    exactly; the names of those that did not are returned."""
    combined = {name: median(p[name] for p in per_pass) for name in per_pass[0]}
    unsteady = [name for name in EXACT_COUNTS
                if len({p[name] for p in per_pass}) != 1]
    return combined, unsteady
