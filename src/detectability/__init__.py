"""Fundamental limits of machine-text detection, made computable.

The package answers three linked questions about telling machine-generated
text from human text:

* How well can *any* detector do when the two text distributions are a given
  total variation distance apart?  (``bounds``, ``distributions``)
* How many independent-ish samples close that gap, and what does dependence
  between samples cost?  (``bounds``, ``simulate``)
* What do those limits look like on actual token streams?  (``corpus``,
  ``textlab``)

Everything exact lives on categorical distributions; everything empirical is
seeded and reproducible.
"""

from .bounds import (
    BoundCurvePoint,
    DependenceSpec,
    auroc_upper,
    auroc_vs_n_curve,
    roc_upper_curve,
    sample_complexity_iid,
    sample_complexity_noniid,
    tv_tensor_chernoff,
    tv_tensor_lower,
)
from .corpus import (
    CorpusParseError,
    Document,
    NGramTable,
    OrderRow,
    best_auroc_by_order,
    load_jsonl,
    ngram_table,
    tokenize,
    tv_between_corpora,
)
from .detector import (
    Label,
    RocCurve,
    log_likelihood_ratio,
    roc_from_scores,
)
from .distributions import (
    BudgetError,
    Categorical,
    DimensionError,
    MinErrorResult,
    chernoff_information,
    min_error_bruteforce,
    product_tv_exact,
    tv_distance,
)
from .simulate import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentRow,
    rescale_blocks,
    run_experiment,
    sample_iid,
    sample_noniid,
    trial_rng,
)
from .textlab import (
    LinearModel,
    PairwiseRow,
    PrefixRow,
    TrainConfig,
    Vocabulary,
    auroc_vs_prefix_length,
    build_vocab,
    featurize,
    pairwise_auroc,
    pairwise_augment,
    train_logreg,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCurvePoint",
    "BudgetError",
    "Categorical",
    "CorpusParseError",
    "DependenceSpec",
    "DimensionError",
    "Document",
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentRow",
    "Label",
    "LinearModel",
    "MinErrorResult",
    "NGramTable",
    "OrderRow",
    "PairwiseRow",
    "PrefixRow",
    "RocCurve",
    "TrainConfig",
    "Vocabulary",
    "auroc_upper",
    "auroc_vs_n_curve",
    "auroc_vs_prefix_length",
    "best_auroc_by_order",
    "build_vocab",
    "chernoff_information",
    "featurize",
    "load_jsonl",
    "log_likelihood_ratio",
    "min_error_bruteforce",
    "ngram_table",
    "pairwise_auroc",
    "pairwise_augment",
    "product_tv_exact",
    "rescale_blocks",
    "roc_from_scores",
    "roc_upper_curve",
    "run_experiment",
    "sample_complexity_iid",
    "sample_complexity_noniid",
    "sample_iid",
    "sample_noniid",
    "tokenize",
    "train_logreg",
    "trial_rng",
    "tv_between_corpora",
    "tv_distance",
    "tv_tensor_chernoff",
    "tv_tensor_lower",
    "__version__",
]
