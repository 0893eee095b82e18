"""The package's records: how they are built, compared and checked.

The immutable records are namedtuples; ``Profile`` and ``ProfileStore``
are mutable, since extraction fills them. Either kind compares equal
to a record of its own class with equal fields.
"""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from gramprof.analysis import (CategoryCorrelation, FeatureMatrix, LogregResult, TimelineRow,
                               build_feature_matrix)
from gramprof.cli import DatasetSpec
from gramprof.conllu import TargetSpec
from gramprof.errors import ConfigError, DataError, decimal_ratio
from gramprof.evaluation import GoldRecord
from gramprof.profiles import Profile, ProfileStore
from gramprof.scoring import ChangeScore, MethodConfig

# the arrays are shared by every FeatureMatrix built below, so a tuple
# comparison takes them as equal by identity, without comparing cells
MATRIX = [["w1", "w2"], ["Number", "syntax"], np.zeros((2, 2)), np.ones((2, 2), dtype=bool)]

# (class, positional arguments, keyword arguments, the fields they give,
# defaults included)
CONSTRUCTIONS = [
    (TargetSpec, ("w", "walk"), {},
     {"word_id": "w", "lemma": "walk", "upos_filter": None}),
    (TargetSpec, (), {"word_id": "w", "lemma": "walk", "upos_filter": frozenset({"VERB"})},
     {"word_id": "w", "lemma": "walk", "upos_filter": frozenset({"VERB"})}),
    (GoldRecord, (1,), {}, {"binary": 1, "graded": None}),
    (GoldRecord, (), {"graded": 0.5}, {"binary": None, "graded": 0.5}),
    (MethodConfig, (), {},
     {"feature_kind": "morphology", "separation": False, "aggregation": "max",
      "filter_threshold": 0.05, "zero_profile_distance": 1.0, "per_period_filter": False}),
    (MethodConfig, ("combination", True), {"aggregation": "mean", "per_period_filter": True},
     {"feature_kind": "combination", "separation": True, "aggregation": "mean",
      "filter_threshold": 0.05, "zero_profile_distance": 1.0, "per_period_filter": True}),
    (ChangeScore, (0.5,), {},
     {"aggregate": 0.5, "d_morph": None, "d_synt": None, "per_category": {}}),
    (ChangeScore, (0.5, 0.25), {"d_synt": 0.5, "per_category": {"Number": 0.25}},
     {"aggregate": 0.5, "d_morph": 0.25, "d_synt": 0.5, "per_category": {"Number": 0.25}}),
    (FeatureMatrix, tuple(MATRIX), {},
     dict(zip(["word_ids", "columns", "values", "missing"], MATRIX))),
    (LogregResult, (["a", "b"], np.array([1.0, -1.0]), 0.5, 1.0, 1.0, 7), {"converged": True},
     {"columns": ["a", "b"], "intercept": 0.5, "train_accuracy": 1.0,
      "train_macro_f1": 1.0, "iterations": 7, "converged": True}),
    (CategoryCorrelation, (None, None, False, 3), {},
     {"rho": None, "p_value": None, "significant": False, "n": 3, "note": ""}),
    (CategoryCorrelation, (0.9,), {"p_value": 0.01, "significant": True, "n": 8, "note": "x"},
     {"rho": 0.9, "p_value": 0.01, "significant": True, "n": 8, "note": "x"}),
    (TimelineRow, ("old",), {"value": "Sing", "count": 3, "proportion": 0.75},
     {"period": "old", "value": "Sing", "count": 3, "proportion": 0.75}),
    (DatasetSpec, ("toy", {"old": ["a"], "new": ["b"]}, "t.tsv"), {},
     {"name": "toy", "periods": {"old": ["a"], "new": ["b"]}, "targets_path": "t.tsv",
      "gold_path": None}),
    (Profile, (), {}, {"morph": {}, "synt": {}, "total": 0}),
    (Profile, ({"Number=Sing": 1},), {"synt": {"nsubj": 2}, "total": 2},
     {"morph": {"Number=Sing": 1}, "synt": {"nsubj": 2}, "total": 2}),
    (ProfileStore, (["old", "new"], {}), {},
     {"periods": ["old", "new"], "profiles": {}, "options": {}}),
    (ProfileStore, (), {"periods": ["old", "new"], "profiles": {}, "options": {"x": 1}},
     {"periods": ["old", "new"], "profiles": {}, "options": {"x": 1}}),
]
IDS = [f"{cls.__name__}-{i}" for i, (cls, *_) in enumerate(CONSTRUCTIONS)]


@pytest.mark.parametrize("cls, args, kwargs, expected", CONSTRUCTIONS, ids=IDS)
def test_record_construction_and_defaults(cls, args, kwargs, expected):
    record = cls(*args, **kwargs)
    for name, value in expected.items():
        assert getattr(record, name) is value or getattr(record, name) == value


@pytest.mark.parametrize("cls, args, kwargs, expected", CONSTRUCTIONS, ids=IDS)
def test_records_compare_by_fields(cls, args, kwargs, expected):
    record, again = cls(*args, **kwargs), cls(*args, **kwargs)
    assert again == record and not again != record
    assert record != object() and not record == object()
    changed = cls(*args, **kwargs)
    name = next(iter(expected))
    if cls in (Profile, ProfileStore):
        setattr(changed, name, "changed")
    else:
        changed = changed._replace(**{name: "changed"})
    assert changed != record


@pytest.mark.parametrize("cls, args, name", [
    (ChangeScore, (0.5,), "per_category"), (Profile, (), "morph"), (Profile, (), "synt"),
    (ProfileStore, (["a", "b"], {}), "options")])
def test_each_record_gets_its_own_default_tables(cls, args, name):
    first, second = cls(*args), cls(*args)
    assert getattr(first, name) == {} and getattr(first, name) is not getattr(second, name)


def test_mutable_records_are_filled_in_place_and_unhashable():
    profile = Profile()
    profile.add_token("Number=Sing", "nsubj")
    assert profile == Profile({"Number=Sing": 1}, {"nsubj": 1}, 1)
    store = ProfileStore(["a", "b"], {})
    store.profiles[("w", "a")] = profile
    assert store.word_ids == ["w"]
    for record in (profile, store):
        with pytest.raises(TypeError):
            hash(record)
        with pytest.raises(AttributeError):
            record.extra = 1


@pytest.mark.parametrize("cls, args, kwargs, expected",
                         [c for c in CONSTRUCTIONS if c[0] not in (Profile, ProfileStore)],
                         ids=[i for i, c in zip(IDS, CONSTRUCTIONS)
                              if c[0] not in (Profile, ProfileStore)])
def test_immutable_records_refuse_assignment(cls, args, kwargs, expected):
    record = cls(*args, **kwargs)
    for name in expected:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("build, error, message", [
    (lambda: TargetSpec("", "walk"), ConfigError,
     "word id '' is empty or has surrounding whitespace, tab, CR or LF"),
    (lambda: TargetSpec(word_id="w ", lemma="walk"), ConfigError,
     "word id 'w ' is empty or has surrounding whitespace, tab, CR or LF"),
    (lambda: TargetSpec("w", ""), ConfigError, "target 'w' has an empty lemma"),
    (lambda: TargetSpec("w", "walk", frozenset()), ConfigError,
     "target 'w' has a POS filter with no tag"),
    (lambda: GoldRecord(), DataError,
     "gold record has neither a binary label nor a graded score"),
    (lambda: GoldRecord(binary=None, graded=None), DataError,
     "gold record has neither a binary label nor a graded score"),
    (lambda: MethodConfig("lexis"), ConfigError, "unknown feature kind 'lexis'"),
    (lambda: MethodConfig(aggregation="sum"), ConfigError, "unknown aggregation 'sum'"),
    (lambda: MethodConfig(filter_threshold=1.0), ConfigError,
     "filter threshold must be in [0, 1)"),
    (lambda: MethodConfig("morphology", False, "max", -0.1), ConfigError,
     "filter threshold must be in [0, 1)"),
    (lambda: MethodConfig(zero_profile_distance=1.5), ConfigError,
     "zero-profile distance must be in [0, 1]"),
    (lambda: MethodConfig(feature_kind="combination"), ConfigError,
     "the combination method requires category separation"),
], ids=["empty-word-id", "word-id-with-space", "empty-lemma", "empty-pos-filter",
        "gold-without-values", "gold-without-values-by-keyword", "unknown-feature-kind",
        "unknown-aggregation", "threshold-one", "threshold-negative", "zero-distance-above-one",
        "combination-without-separation"])
def test_records_check_their_fields_with_the_same_messages(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


@pytest.mark.parametrize("field, value", [
    ("filter_threshold", "0.05"), ("filter_threshold", None),
    ("filter_threshold", Fraction(1, 20)), ("filter_threshold", False),
    ("zero_profile_distance", "1"), ("zero_profile_distance", None),
], ids=["threshold-str", "threshold-none", "threshold-fraction", "threshold-false",
        "zero-distance-str", "zero-distance-none"])
def test_method_config_refuses_a_number_it_cannot_read_or_compare(field, value):
    """A str or None does not compare with a number; Fraction(1, 20) and
    False are not written as decimals, the way filter_rare reads a share,
    though the cache holds values equal to them."""
    decimal_ratio.cache_clear()
    decimal_ratio(Decimal("0.05")), decimal_ratio(0.0)
    config = {"filter_threshold": 0.05, "zero_profile_distance": 1.0, field: value}
    with pytest.raises(ConfigError) as caught:
        MethodConfig(**config)
    assert str(caught.value) == (
        f"cannot read filter threshold {config['filter_threshold']!r} and zero-profile "
        f"distance {config['zero_profile_distance']!r} as decimal numbers")


@pytest.mark.parametrize("threshold", [0.05, 0, np.float64(0.05), Decimal("0.05")],
                         ids=["float", "int", "float64", "decimal"])
def test_method_config_takes_a_threshold_whose_str_is_a_decimal(threshold):
    decimal_ratio.cache_clear()
    assert MethodConfig(filter_threshold=threshold).filter_threshold is threshold


def test_feature_matrix_checks_the_config_it_builds():
    """``_replace`` skips the checks; ``build_feature_matrix`` makes its
    combination config through the class, which makes them."""
    profiles = {(w, p): Profile({"Number=Sing": 1}, {"nsubj": 1}, 1)
                for w in ("a", "b") for p in ("old", "new")}
    unchecked = MethodConfig()._replace(filter_threshold=1.5)
    with pytest.raises(ConfigError, match=r"^filter threshold must be in \[0, 1\)$"):
        build_feature_matrix(profiles, ("old", "new"), unchecked)
    matrix = build_feature_matrix(profiles, ("old", "new"), MethodConfig())
    assert matrix.columns == ["Number", "syntax"]
