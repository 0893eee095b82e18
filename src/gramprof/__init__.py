"""Lexical semantic change detection from grammatical profiles.

The pipeline: parse pre-tagged CONLL-U corpora, count each target
word's morphological features and dependency relations per time
period, and quantify change as cosine distance between the resulting
frequency profiles. Rankings, binary classification, evaluation
metrics and category-importance analyses build on those scores.
"""

__version__ = "0.1.0"

# Exported: the functions gramprof.cli imports, the classes they take or
# return, and the errors. Internal helpers stay in their own modules.
from .analysis import (CategoryCorrelation, FeatureMatrix, LogregResult, TimelineRow,
                       build_feature_matrix, category_correlations, standardize,
                       timeline, train_logreg)
from .conllu import TargetSpec, load_targets
from .errors import (ConfigError, ConlluParseError, DataError, GramprofError, finite,
                     read_tsv, zero_or_one)
from .evaluation import (GoldRecord, accuracy, average_binary, binary_gold,
                         classify_changepoint, classify_topn, graded_gold, load_gold,
                         macro_f1, per_class_f1, rank_words, spearman)
from .profiles import Profile, ProfileStore, extract_profiles
from .scoring import ChangeScore, MethodConfig, score_period_pair

__all__ = [
    "__version__",
    "CategoryCorrelation", "ChangeScore", "ConfigError", "ConlluParseError",
    "DataError", "FeatureMatrix", "GoldRecord", "GramprofError", "LogregResult",
    "MethodConfig", "Profile", "ProfileStore", "TargetSpec", "TimelineRow",
    "accuracy", "average_binary", "binary_gold", "build_feature_matrix",
    "category_correlations", "classify_changepoint", "classify_topn",
    "extract_profiles", "finite", "graded_gold", "load_gold", "load_targets",
    "macro_f1", "per_class_f1", "rank_words", "read_tsv", "score_period_pair",
    "spearman", "standardize", "timeline", "train_logreg", "zero_or_one",
]
