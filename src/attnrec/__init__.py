"""Hybrid recommender: attentive autoencoders feeding weighted matrix
factorization over implicit feedback, with a ranking evaluation harness."""

from .autoencoder import AttentiveAutoencoder, load_autoencoder, pretrain, save_autoencoder
from .cf import (FactorModel, init_model, make_prior, objective, predict_scores,
                 train_als)
from .corpus import ContentMatrix, InteractionMatrix, TagMatrix, Vocabulary
from .errors import (BoundsError, ConfigError, DataError, Error, NumericalError,
                     ParseError)
from .evaluation import MetricReport, evaluate, make_split, ndcg_at_k, recall_at_k, top_k

__version__ = "0.1.0"

__all__ = [
    "AttentiveAutoencoder",
    "BoundsError",
    "ConfigError",
    "ContentMatrix",
    "DataError",
    "Error",
    "FactorModel",
    "InteractionMatrix",
    "MetricReport",
    "NumericalError",
    "ParseError",
    "TagMatrix",
    "Vocabulary",
    "evaluate",
    "init_model",
    "load_autoencoder",
    "make_prior",
    "make_split",
    "ndcg_at_k",
    "objective",
    "predict_scores",
    "pretrain",
    "recall_at_k",
    "save_autoencoder",
    "top_k",
    "__version__",
]
