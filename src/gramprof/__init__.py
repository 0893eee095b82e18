"""Lexical semantic change detection from grammatical profiles.

The pipeline: parse pre-tagged CONLL-U corpora, count each target
word's morphological features and dependency relations per time
period, and quantify change as cosine distance between the resulting
frequency profiles. Rankings, binary classification, evaluation
metrics and category-importance analyses build on those scores.
"""

__version__ = "0.1.0"

from .conllu import (TargetSpec, Token, load_targets, parse_conllu, parse_feats,
                     strip_deprel_subtype)
from .decision import (average_binary, classify_changepoint, classify_topn,
                       rank_words, round_half_up)
from .errors import ConfigError, ConlluParseError, DataError, GramprofError
from .evaluation import GoldRecord, accuracy, load_gold, macro_f1, spearman
from .profiles import (Profile, ProfileStore, build_vectors, extract_profiles,
                       separate_categories)
from .scoring import (ChangeScore, MethodConfig, cosine_distance, filter_rare,
                      score_basic, score_period_pair, score_separated, score_word_pair)
from .analysis import (CategoryCorrelation, FeatureMatrix, LogregResult, TimelineRow,
                       build_feature_matrix, category_correlations, standardize,
                       timeline, train_logreg)

__all__ = [
    "__version__",
    "CategoryCorrelation", "ChangeScore", "ConfigError", "ConlluParseError",
    "DataError", "FeatureMatrix", "GoldRecord", "GramprofError", "LogregResult",
    "MethodConfig", "Profile", "ProfileStore", "TargetSpec", "TimelineRow", "Token",
    "accuracy", "average_binary", "build_feature_matrix", "build_vectors",
    "category_correlations", "classify_changepoint", "classify_topn",
    "cosine_distance", "extract_profiles", "filter_rare", "load_gold",
    "load_targets", "macro_f1", "parse_conllu", "parse_feats",
    "rank_words", "round_half_up", "score_basic", "score_period_pair",
    "score_separated", "score_word_pair", "separate_categories", "spearman",
    "standardize", "strip_deprel_subtype", "timeline", "train_logreg",
]
