"""Row-by-row reference implementation of one ALS half sweep.

This is the loop that ``attnrec.cf`` replaced with a grouped kernel: one
Cholesky factorisation and solve per row, in prior-centred coordinates. The
tests require the kernel to agree with it to rounding. ``update_user`` and
``update_item`` solve one row through the kernel itself, for the tests that
check single row solutions.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from attnrec import cf


def update_user(i, r, model):
    """The kernel's closed-form solve of user row i with V fixed; the model
    is not changed."""
    return cf._solve_rows(np.array([i]), model.V, model.V.T @ model.V, r.matrix,
                          model.lambda_u, np.zeros((1, model.d)), model.a, model.b,
                          np.empty((1, model.d)))[0]


def update_item(j, r, model, prior):
    """The kernel's closed-form solve of article row j with U fixed; the
    model is not changed."""
    return cf._solve_rows(np.array([j]), model.U, model.U.T @ model.U, r.matrix.tocsc(),
                          model.lambda_v, prior[[j]], model.a, model.b,
                          np.empty((1, model.d)))[0]


def solve_row(obs_factors, gram, a, b, lam, prior_row):
    """Exact solve for one row: (B + lam I) w = a * sum(obs) - B @ prior,
    with B = b * gram + (a - b) * obs^T obs and x = w + prior."""
    B = b * gram + (a - b) * (obs_factors.T @ obs_factors)
    rhs = a * obs_factors.sum(axis=0) - B @ prior_row
    B.flat[::B.shape[0] + 1] += lam
    return cho_solve(cho_factor(B), rhs) + prior_row


def half_sweep(rows, fixed, observed, lam, prior, a, b):
    """Re-solve ``rows`` in place with ``fixed`` held constant; row i's observed
    ``fixed`` rows are row i of ``observed`` (CSR for users, CSC for articles)."""
    gram = fixed.T @ fixed
    for i in range(rows.shape[0]):
        obs = observed.indices[observed.indptr[i]:observed.indptr[i + 1]]
        rows[i] = solve_row(fixed[obs], gram, a, b, lam, prior[i])


def sweep(r, model, prior):
    """One user half then one article half, as ``train_als`` runs them."""
    half_sweep(model.U, model.V, r.matrix, model.lambda_u, np.zeros_like(model.U),
               model.a, model.b)
    half_sweep(model.V, model.U, r.matrix.tocsc(), model.lambda_v, prior,
               model.a, model.b)
