"""Conditional log-likelihood of a transition and its theta-derivatives.

A transition j pairs observations (X_{j-1}, X_j); valid j run from 1 to n.
The initial-value density is never part of these quantities: everything is
conditional on X_0. Every function here takes theta as a vector of the
model's length d, or broadcast as (d, B, 1), and refuses any other length.
``fisher.information_terms`` reads the score terms and information terms off
the one kernel behind ``loglik_grad`` and ``loglik_hess``.
"""

from __future__ import annotations

import numpy as np

from .models import ModelSpec

__all__ = ["loglik", "loglik_grad", "loglik_hess"]


def _theta_vec(theta, model: ModelSpec) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape[0] != model.dim:
        raise ValueError(f"theta has shape {theta.shape}; model {model.name!r} takes a vector of length {model.dim}")
    return theta


def loglik(theta, x_prev, x_next, model: ModelSpec):
    """Log transition density: log g(x_next - S(theta, x_prev)).

    Vectorized over paired x arrays; returns the same shape as the inputs.
    """
    theta = _theta_vec(theta, model)
    u = np.asarray(x_next, dtype=float) - model.drift.S(theta, x_prev)
    return model.noise.log_g(u)


def _terms(theta, x_prev, x_next, model: ModelSpec, second: str | None = None):
    """Score terms -psi(u) * dS, shape x.shape + (d,), with u = x_next - S(theta,
    x_prev) evaluated once; and ``second``'s terms, x.shape + (d, d): "hessian"
    dpsi(u) * dS dS^T - psi(u) * d2S, "outer" dS dS^T, or None."""
    theta = _theta_vec(theta, model)
    u = np.asarray(x_next, dtype=float) - model.drift.S(theta, x_prev)
    psi = np.asarray(model.noise.psi(u), dtype=float)
    dpsi = np.asarray(model.noise.dpsi(u), dtype=float) if second == "hessian" else None
    grad = np.asarray(model.drift.dS(theta, x_prev), dtype=float)
    scores = -psi[..., np.newaxis] * grad
    if second is None:
        return scores, None
    outer = grad[..., :, np.newaxis] * grad[..., np.newaxis, :]
    if second == "outer":
        return scores, outer
    hess = dpsi[..., np.newaxis, np.newaxis] * outer
    del u, grad, outer  # before d2S is evaluated, so a long window holds fewer arrays
    hess -= psi[..., np.newaxis, np.newaxis] * np.asarray(model.drift.d2S(theta, x_prev), dtype=float)
    return scores, hess


def loglik_grad(theta, x_prev, x_next, model: ModelSpec) -> np.ndarray:
    """Gradient in theta of ``loglik``: -psi(u) * dS(theta, x_prev).

    Shape: x.shape + (d,). For Gaussian noise this is (x_next - S) * dS.
    """
    return _terms(theta, x_prev, x_next, model)[0]


def loglik_hess(theta, x_prev, x_next, model: ModelSpec) -> np.ndarray:
    """Hessian in theta of ``loglik``; shape x.shape + (d, d).

    Equals dpsi(u) * dS dS^T - psi(u) * d2S with u = x_next - S(theta, x_prev);
    for Gaussian noise, -dS dS^T + (x_next - S) * d2S.
    """
    return _terms(theta, x_prev, x_next, model, "hessian")[1]
