"""Weighted matrix factorization over implicit feedback, with content priors.

The objective weights every user-article cell: confidence ``a`` on observed
pairs (preference 1) and ``b`` on unobserved cells (preference 0), with
``a > b > 0``. Article factors are regularized toward per-article prior
vectors: zero for plain WRMF, the text latent for cata, the tag latent for
cata-tags, and their sum for cata++. ALS alternates exact row solves; the
per-row systems use the precomputed Gram matrix of the fixed side plus an
(a - b) correction over that row's observed entries, which is algebraically
identical to summing over all columns.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import storage
from .corpus import InteractionMatrix
from .errors import ConfigError, DataError, NumericalError

logger = logging.getLogger(__name__)

VARIANTS = ("wrmf", "cata", "cata-tags", "cata++")


@dataclass
class FactorModel:
    """User factors U (n x d), article factors V (m x d), and hyperparameters."""

    U: np.ndarray
    V: np.ndarray
    lambda_u: float
    lambda_v: float
    a: float = 1.0
    b: float = 0.01
    variant: str = "wrmf"

    def __post_init__(self):
        if not (self.a > self.b > 0):
            raise ConfigError(f"confidence weights need a > b > 0, got a={self.a}, b={self.b}")
        if self.lambda_u < 0 or self.lambda_v < 0:
            raise ConfigError("regularization strengths must be nonnegative")
        if self.U.shape[1] != self.V.shape[1]:
            raise ConfigError("U and V must share the factor dimension")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if not (np.all(np.isfinite(self.U)) and np.all(np.isfinite(self.V))):
            raise NumericalError("factors must be finite")

    @property
    def d(self) -> int:
        return self.U.shape[1]


def init_model(n_users: int, n_articles: int, d: int, *, lambda_u: float,
               lambda_v: float, a: float = 1.0, b: float = 0.01,
               variant: str = "wrmf", seed: int = 0) -> FactorModel:
    """Random factors, uniform in [0, 1/sqrt(d)]."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(d)
    return FactorModel(
        U=rng.uniform(0.0, scale, size=(n_users, d)),
        V=rng.uniform(0.0, scale, size=(n_articles, d)),
        lambda_u=lambda_u,
        lambda_v=lambda_v,
        a=a,
        b=b,
        variant=variant,
    )


def make_prior(variant: str, n_articles: int, d: int,
               text_latent: np.ndarray | None = None,
               tag_latent: np.ndarray | None = None) -> np.ndarray:
    """Per-article prior matrix for the requested variant."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    need_text = variant in ("cata", "cata++")
    need_tags = variant in ("cata-tags", "cata++")
    if need_text and text_latent is None:
        raise ConfigError(f"variant {variant!r} requires a text latent matrix")
    if need_tags and tag_latent is None:
        raise ConfigError(f"variant {variant!r} requires a tag latent matrix")
    prior = np.zeros((n_articles, d))
    if need_text:
        if text_latent.shape != (n_articles, d):
            raise ConfigError(f"text latent has shape {text_latent.shape}, expected {(n_articles, d)}")
        prior += text_latent
    if need_tags:
        if tag_latent.shape != (n_articles, d):
            raise ConfigError(f"tag latent has shape {tag_latent.shape}, expected {(n_articles, d)}")
        prior += tag_latent
    if not np.all(np.isfinite(prior)):
        raise NumericalError("prior matrix must be finite")
    return prior


def objective(r: InteractionMatrix, model: FactorModel, prior: np.ndarray) -> float:
    """Weighted squared error over ALL cells plus both regularizers.

    Uses the decomposition  sum_cells c*(p - uv)^2 =
    b*sum_all (uv)^2 + sum_obs [a*(1 - uv)^2 - b*(uv)^2],
    so the dense term costs O((n+m) d^2) instead of O(n m d).
    """
    U, V = model.U, model.V
    coo = r.matrix.tocoo()
    users, articles = coo.row, coo.col
    pred_obs = np.einsum("ij,ij->i", U[users], V[articles])
    gram_v = V.T @ V
    total_sq = float(np.einsum("ij,jk,ik->", U, gram_v, U))
    weighted = (
        model.b * total_sq
        + float((model.a * (1.0 - pred_obs) ** 2 - model.b * pred_obs ** 2).sum())
    )
    reg_u = model.lambda_u * float((U * U).sum())
    diff = V - prior
    reg_v = model.lambda_v * float((diff * diff).sum())
    return 0.5 * (weighted + reg_u + reg_v)


def _solve_row(obs_factors: np.ndarray, gram: np.ndarray, a: float, b: float,
               lam: float, prior_row: np.ndarray) -> np.ndarray:
    """Exact solve for one row, in prior-centered coordinates w = x - prior:
    (B + lam I) w = rhs - B @ prior. A cold article with zero factors on the
    other side inherits its prior bit-exactly; users pass a zero prior. With
    no observations, ``obs^T obs`` and the sum are exact zeros.
    """
    B = b * gram + (a - b) * (obs_factors.T @ obs_factors)
    rhs = a * obs_factors.sum(axis=0) - B @ prior_row
    B.flat[::B.shape[0] + 1] += lam  # B + lam I, in place
    return cho_solve(cho_factor(B), rhs) + prior_row


def _half_sweep(rows, fixed, observed, lam, prior, a, b):
    """Re-solve ``rows`` in place with ``fixed`` held constant; row i's observed
    ``fixed`` rows are row i of ``observed`` (CSR for users, CSC for articles)."""
    gram = fixed.T @ fixed
    for i in range(rows.shape[0]):
        obs = observed.indices[observed.indptr[i]:observed.indptr[i + 1]]
        rows[i] = _solve_row(fixed[obs], gram, a, b, lam, prior[i])


def update_user(i: int, r: InteractionMatrix, model: FactorModel) -> np.ndarray:
    """Closed-form solve for user row i with V fixed; does not mutate the model."""
    return _solve_row(model.V[r.user_items(i)], model.V.T @ model.V, model.a, model.b,
                      model.lambda_u, np.zeros(model.d))


def update_item(j: int, r: InteractionMatrix, model: FactorModel,
                prior: np.ndarray) -> np.ndarray:
    """Closed-form solve for article row j with U fixed; does not mutate the model."""
    U = model.U
    csc = r.matrix.tocsc()
    obs_users = csc.indices[csc.indptr[j]:csc.indptr[j + 1]]
    return _solve_row(U[obs_users], U.T @ U, model.a, model.b, model.lambda_v, prior[j])


def train_als(r: InteractionMatrix, model: FactorModel, prior: np.ndarray,
              max_sweeps: int = 50, tol: float = 1e-4) -> list:
    """Alternate exact user and article solves until the objective stalls.

    Returns the objective trace (initial value, then one entry per sweep).
    The trace must be non-increasing; an increase beyond 1e-9 relative
    aborts with NumericalError.
    """
    if prior.shape != model.V.shape:
        raise ConfigError(f"prior shape {prior.shape} != V shape {model.V.shape}")
    csc = r.matrix.tocsc()
    zero_prior = np.zeros_like(model.U)
    trace = [objective(r, model, prior)]
    for sweep in range(max_sweeps):
        _half_sweep(model.U, model.V, r.matrix, model.lambda_u, zero_prior, model.a, model.b)
        _half_sweep(model.V, model.U, csc, model.lambda_v, prior, model.a, model.b)
        value = objective(r, model, prior)
        prev = trace[-1]
        trace.append(value)
        if value - prev > 1e-9 * max(1.0, abs(prev)):
            raise NumericalError(f"objective increased at sweep {sweep}: {prev!r} -> {value!r}")
        logger.debug("sweep %d: objective %.6f", sweep, value)
        rel_drop = (prev - value) / max(abs(prev), 1e-300)
        if rel_drop < tol:
            break
    return trace


def predict_scores(model: FactorModel, users) -> np.ndarray:
    """Article scores U[users] . V^T: a row for an int, a block for an index array."""
    users = np.asarray(users)
    if users.size and not (0 <= users.min() and users.max() < model.U.shape[0]):
        raise IndexError(f"user index out of range [0, {model.U.shape[0]})")
    return model.U[users] @ model.V.T


def pop_baseline(r_train: InteractionMatrix) -> np.ndarray:
    """Articles ordered by training popularity, ties by ascending id."""
    counts = r_train.item_counts()
    return np.argsort(-counts, kind="stable")


def save_factors(path, model: FactorModel, sweeps: int = 0):
    meta = {
        "lambda_u": model.lambda_u,
        "lambda_v": model.lambda_v,
        "a": model.a,
        "b": model.b,
        "variant": model.variant,
        "sweeps": sweeps,
        "d": model.d,
    }
    storage.write_tensors(path, {"U": model.U, "V": model.V}, meta)


def load_factors(path):
    """Return (FactorModel, sweeps). Factors come back at f32 precision."""
    tensors, meta = storage.read_tensors(path)
    try:
        model = FactorModel(U=tensors["U"], V=tensors["V"], lambda_u=meta["lambda_u"],
                            lambda_v=meta["lambda_v"], a=meta["a"], b=meta["b"],
                            variant=meta["variant"])
    except KeyError as exc:
        raise DataError(f"{path}: factor checkpoint lacks {exc.args[0]!r}") from None
    return model, meta.get("sweeps", 0)
