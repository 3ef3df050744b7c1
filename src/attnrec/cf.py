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
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import storage
from .corpus import InteractionMatrix
from .errors import ConfigError, DataError, NumericalError

logger = logging.getLogger(__name__)

LATENTS = {"wrmf": (), "cata": ("text",), "cata-tags": ("tag",), "cata++": ("text", "tag")}
VARIANTS = tuple(LATENTS)


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
    return FactorModel(U=rng.uniform(0.0, scale, size=(n_users, d)),
                       V=rng.uniform(0.0, scale, size=(n_articles, d)),
                       lambda_u=lambda_u, lambda_v=lambda_v, a=a, b=b, variant=variant)


def make_prior(variant: str, n_articles: int, d: int,
               text_latent: np.ndarray | None = None,
               tag_latent: np.ndarray | None = None) -> np.ndarray:
    """Per-article prior matrix: the sum of the variant's ``LATENTS``, text first."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    latents = {"text": text_latent, "tag": tag_latent}
    for name in LATENTS[variant]:
        if latents[name] is None:
            raise ConfigError(f"variant {variant!r} requires a {name} latent matrix")
    prior = np.zeros((n_articles, d))
    for name in LATENTS[variant]:
        if latents[name].shape != (n_articles, d):
            raise ConfigError(f"{name} latent has shape {latents[name].shape}, "
                              f"expected {(n_articles, d)}")
        prior += latents[name]
    if not np.all(np.isfinite(prior)):
        raise NumericalError("prior matrix must be finite")
    return prior


def objective(r: InteractionMatrix, model: FactorModel, prior: np.ndarray,
              gram: np.ndarray | None = None) -> float:
    """Weighted squared error over ALL cells plus both regularizers.

    Uses the decomposition  sum_cells c*(p - uv)^2 =
    b*sum_all (uv)^2 + sum_obs [a*(1 - uv)^2 - b*(uv)^2],
    so the dense term costs O((n+m) d^2) instead of O(n m d); a given ``gram`` is V^T V.
    """
    U, V = model.U, model.V
    coo = r.matrix.tocoo()
    pred_obs = np.einsum("ij,ij->i", U[coo.row], V[coo.col])
    gram = V.T @ V if gram is None else gram
    weighted = (model.b * float(np.vdot(U @ gram, U))
                + float((model.a * (1.0 - pred_obs) ** 2 - model.b * pred_obs ** 2).sum()))
    reg_u = model.lambda_u * float((U * U).sum())
    reg_v = model.lambda_v * float(((V - prior) ** 2).sum())
    return 0.5 * (weighted + reg_u + reg_v)


# Float64 values one chunk of ``_solve_rows`` may hold per scratch array: its
# g x c x d gathers and its g x d x d systems (c >= d) each stay near 0.5 MB.
_CHUNK_VALUES = 1 << 16


def _solve_rows(select, fixed, gram, observed, lam, prior, a, b, out) -> np.ndarray:
    """Exact solves of rows ``select`` with ``fixed`` held constant; row i's
    observed ``fixed`` rows O are row i of ``observed`` (CSR for users, CSC for
    articles). ``prior`` holds one row p per selected row; the solution of
    selected row k goes to ``out[k]``, and ``out`` is returned.

    Row x = p + w solves (A + (a - b) O^T O) w = r, where A = b G + lam I, G is
    ``gram``, the Gram matrix fixed^T fixed, and r = a sum(O) - b G p - (a - b) O^T O p.
    With c < d observations, Woodbury gives w = A^-1 r - A^-1 O^T C^-1 O A^-1 r
    from the half's one A^-1 and a c x c C = I / (a - b) + O A^-1 O^T; a cold
    row is c = 0, so it inherits p bit-exactly when ``fixed`` is zero. Rows
    with c >= d solve the d x d system. Rows go by count, one batched solve per
    chunk with every product per row, so no row depends on its chunk.
    """
    d = fixed.shape[1]
    bg, shift = b * gram, lam * np.eye(d)
    a_inv = cho_solve(cho_factor(bg + shift), np.eye(d))
    counts = np.diff(observed.indptr)[select]
    order = np.argsort(counts, kind="stable")
    values, starts = np.unique(counts[order], return_index=True)
    for c, group in zip(values, np.split(order, starts[1:])):
        step = max(1, _CHUNK_VALUES // (d * max(c, 1)))
        for lo in range(0, group.size, step):
            part = group[lo:lo + step]
            p = prior[part]
            obs = fixed[observed.indices[observed.indptr[select[part], None] + np.arange(c)]]
            obs_t = obs.transpose(0, 2, 1)
            if c >= d:
                B = bg + (a - b) * (obs_t @ obs)  # g x d x d
                rhs = a * obs.sum(axis=1) - (B @ p[:, :, None])[:, :, 0]
                out[part] = np.linalg.solve(B + shift, rhs[:, :, None])[:, :, 0] + p
                continue
            rhs = (a * obs.sum(axis=1) - (p[:, None, :] @ bg)[:, 0, :]
                   - (a - b) * (obs_t @ (obs @ p[:, :, None]))[:, :, 0])
            oa = obs @ a_inv  # O A^-1, g x c x d
            y = np.linalg.solve(oa @ obs_t + np.eye(c) / (a - b), oa @ rhs[:, :, None])
            out[part] = p + ((rhs[:, None, :] - y.transpose(0, 2, 1) @ obs) @ a_inv)[:, 0, :]
    return out


def train_als(r: InteractionMatrix, model: FactorModel, prior: np.ndarray,
              max_sweeps: int = 50, tol: float = 1e-4) -> list:
    """Alternate exact user and article solves until the objective stalls.

    Returns the objective trace (initial value, then one entry per sweep).
    An objective increase beyond 1e-9 relative, or a system in either half
    that cannot be factored or solved, aborts with NumericalError.
    """
    if prior.shape != model.V.shape:
        raise ConfigError(f"prior shape {prior.shape} != V shape {model.V.shape}")
    users, articles = np.arange(r.n_users), np.arange(r.n_articles)
    halves = (("user", users, model.V, r.matrix, model.lambda_u, np.zeros_like(model.U), model.U),
              ("article", articles, model.U, r.matrix.tocsc(), model.lambda_v, prior, model.V))
    gram = model.V.T @ model.V  # Gram matrix of the side the next half holds fixed
    trace = [objective(r, model, prior, gram)]
    for sweep in range(max_sweeps):
        times = [time.perf_counter()]
        for side, select, fixed, observed, lam, p, out in halves:
            try:
                _solve_rows(select, fixed, gram, observed, lam, p, model.a, model.b, out)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"ALS {side} half of sweep {sweep}: {exc}") from None
            gram = out.T @ out  # after the article half, also the objective's
            times.append(time.perf_counter())
        value = objective(r, model, prior, gram)
        prev = trace[-1]
        trace.append(value)
        if value - prev > 1e-9 * max(1.0, abs(prev)):
            raise NumericalError(f"objective increased at sweep {sweep}: {prev!r} -> {value!r}")
        logger.debug("sweep %d: objective %.6f, user half %.3f s, article half %.3f s",
                     sweep, value, *np.diff(times))
        rel_drop = (prev - value) / max(abs(prev), 1e-300)
        if rel_drop < tol:
            break
    return trace


def predict_scores(model: FactorModel, users) -> np.ndarray:
    """Article scores U[users] . V^T: a row for an int, a block for an index
    array. Only the scored rows of U are cast to f64, which is exact, so f32
    factors score as their f64 copies would."""
    users = np.asarray(users)
    if users.size and not (0 <= users.min() and users.max() < model.U.shape[0]):
        raise IndexError(f"user index out of range [0, {model.U.shape[0]})")
    return model.U[users].astype(np.float64) @ model.V.T


def save_factors(path, model: FactorModel, sweeps: int = 0):
    meta = {key: getattr(model, key) for key in ("lambda_u", "lambda_v", "a", "b", "variant", "d")}
    storage.write_tensors(path, {"U": model.U, "V": model.V}, {**meta, "sweeps": sweeps})


def load_factors(path):
    """Return (FactorModel, sweeps). Factors come back at f32 precision: U as
    the f32 view that ``read_tensors`` gives, V cast to f64 once for scoring."""
    tensors, meta = storage.read_tensors(path)
    try:
        U, V = tensors["U"], tensors["V"].astype(np.float64)
        fields = {key: meta[key] for key in ("lambda_u", "lambda_v", "a", "b", "variant")}
    except KeyError as exc:
        raise DataError(f"{path}: factor checkpoint lacks {exc.args[0]!r}") from None
    for key, value in fields.items():
        kind = str if key == "variant" else (int, float)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise DataError(f"{path}: factor checkpoint has {key}={value!r} of the wrong type")
    if not (U.ndim == V.ndim == 2 and U.shape[1] == V.shape[1]):
        raise DataError(f"{path}: factor tensors U {U.shape} and V {V.shape} "
                        "differ in width or rank")
    try:
        model = FactorModel(U=U, V=V, **fields)
    except (ConfigError, NumericalError) as exc:
        raise DataError(f"{path}: {exc}") from None
    return model, meta.get("sweeps", 0)
