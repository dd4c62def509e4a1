"""Information matrix estimation and guarded inversion.

Three estimators of the information matrix are available, all averaged over
the window length:

    observed    negative mean Hessian of the log-likelihood
    plugin      mean outer product of the score terms
    factorized  noise information times the mean outer product of drift
                gradients

At the true parameter all three are consistent for the same matrix, which
gives a useful cross-check (the "triangle" tests).

Each estimator is the window mean of a per-transition term (``information_terms``),
so the two-step path can re-estimate the information at every k from prefix
sums. ``_require_positive_definite``, run by ``_checked`` and ``invert_fisher``,
and ``invert_fisher``'s own checks hold every guard on an information matrix;
``_reciprocals`` is their exact reduction for 1 x 1 matrices, run at once over
the two-step path's ks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import integrate, linalg

from .errors import DegenerateInformationError
from .likelihood import ScoreWindow, _terms, _window_pairs
from .models import ModelSpec, NoiseDensity
from .simulate import Trajectory

__all__ = [
    "FisherMatrix",
    "noise_information",
    "observed_fisher",
    "plugin_fisher",
    "factorized_fisher",
    "invert_fisher",
    "FISHER_METHODS",
    "information_terms",
]

_COND_LIMIT = 1e10
_SYM_TOL = 1e-12


@dataclass(frozen=True)
class FisherMatrix:
    """Symmetric information matrix estimate with its method and sample size."""

    matrix: np.ndarray
    method: str
    sample_size: int

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("information matrix must be square")
        # a non-finite matrix is kept as given (inf - inf would be nan, with a
        # warning), entries from about 9e307 overflow to inf; both are refused
        if np.isfinite(m).all():
            scale = max(1.0, float(np.abs(m).max()))
            with np.errstate(over="ignore"):
                if float(np.abs(m - m.T).max()) > _SYM_TOL * scale:
                    raise ValueError("information matrix is not symmetric")
                m = 0.5 * (m + m.T)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues, computed once for the checks and the inversion."""
        return np.linalg.eigvalsh(self.matrix)

    def to_json_dict(self) -> dict:
        """Row-major serialization."""
        return {
            "matrix": self.matrix.tolist(),
            "method": self.method,
            "sample_size": int(self.sample_size),
        }


def noise_information(noise: NoiseDensity) -> float:
    """Integral of psi(u)^2 g(u) over the noise support window.

    Adaptive quadrature; 1.0 for the standard Gaussian. Raises if the result
    is non-finite or non-positive. The factorized ``information_terms`` run it
    once per NoiseDensity instance and keep the value on that instance.
    """

    def integrand(u):
        return noise.psi(u) ** 2 * noise.g(u)

    value, _ = integrate.quad(integrand, noise.support[0], noise.support[1],
                              epsabs=1e-12, epsrel=1e-10, limit=200)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"noise information integral evaluated to {value}")
    return float(value)


def _require_positive_definite(fm: FisherMatrix) -> None:
    # inf/nan slip past the sign and condition checks (inf/inf is nan, and a
    # comparison with nan is False), so they are refused first; the
    # eigenvalues ascend, so the two ends bound the rest
    eig = fm.eigenvalues if np.isfinite(fm.matrix).all() else None
    if eig is None or not (math.isfinite(eig[0]) and math.isfinite(eig[-1])):
        raise DegenerateInformationError(
            f"{fm.method} information matrix has non-finite entries or eigenvalues",
            matrix=fm.matrix,
        )
    if eig[0] <= 0.0:
        raise DegenerateInformationError(
            f"{fm.method} information matrix is not positive definite "
            "(window too short, or the parameter carries no information)",
            matrix=fm.matrix,
        )


def _checked(matrix: np.ndarray, method: str, sample_size: int) -> FisherMatrix:
    fm = FisherMatrix(matrix, method, sample_size)
    _require_positive_definite(fm)
    return fm


def _window_information(theta, traj: Trajectory, window: ScoreWindow, model: ModelSpec, method: str):
    """The window's score terms (length, d), and ``method``'s information
    estimate over it: the window mean of ``information_terms``, checked."""
    if window.length < model.dim:
        raise ValueError("window is shorter than the parameter dimension")
    scores, terms = information_terms(theta, *_window_pairs(traj, window), model, method)
    return scores, _checked(terms.mean(axis=0), method, window.length)


def observed_fisher(theta, traj: Trajectory, window: ScoreWindow, model: ModelSpec) -> FisherMatrix:
    """Negative mean log-likelihood Hessian over the window."""
    return _window_information(theta, traj, window, model, "observed")[1]


def plugin_fisher(theta, traj: Trajectory, window: ScoreWindow, model: ModelSpec) -> FisherMatrix:
    """Mean outer product of score terms over the window."""
    return _window_information(theta, traj, window, model, "plugin")[1]


def factorized_fisher(theta, traj: Trajectory, window: ScoreWindow, model: ModelSpec) -> FisherMatrix:
    """Noise information times the mean outer product of drift gradients."""
    return _window_information(theta, traj, window, model, "factorized")[1]


FISHER_METHODS = {
    "observed": observed_fisher,
    "plugin": plugin_fisher,
    "factorized": factorized_fisher,
}


# --- Per-transition information terms ---------------------------------------------


def information_terms(theta, x_prev, x_next, model: ModelSpec, method: str):
    """Score terms (L, d) of L paired observations, and the (L, d, d) terms
    whose mean over a window is ``method``'s estimator above: one evaluation
    by the kernel of ``loglik_grad`` and ``loglik_hess``, so the scores and
    the observed terms equal theirs (negated) bit for bit."""
    if method == "plugin":
        scores, _ = _terms(theta, x_prev, x_next, model)
        return scores, scores[:, :, np.newaxis] * scores[:, np.newaxis, :]
    if method == "factorized":
        if model.noise._information is None:
            object.__setattr__(model.noise, "_information", noise_information(model.noise))
        scores, outer = _terms(theta, x_prev, x_next, model, "outer")
        return scores, model.noise._information * outer
    scores, hess = _terms(theta, x_prev, x_next, model, "hessian")
    return scores, np.negative(hess, out=hess)


def invert_fisher(fm: FisherMatrix) -> np.ndarray:
    """Invert a positive-definite information matrix with conditioning guards.

    Uses a Cholesky solve; refuses matrices with non-finite entries or
    eigenvalues, indefinite matrices, condition numbers above 1e10, and
    inverses whose residual exceeds 1e-8.
    """
    _require_positive_definite(fm)
    eig = fm.eigenvalues
    cond = eig[-1] / eig[0]
    if cond > _COND_LIMIT:
        raise DegenerateInformationError(
            f"information matrix condition number {cond:.3e} exceeds {_COND_LIMIT:.0e}",
            matrix=fm.matrix,
        )
    # _require_positive_definite has already done scipy's finiteness scan
    chol = linalg.cho_factor(fm.matrix, check_finite=False)
    inv = linalg.cho_solve(chol, np.eye(fm.dim), check_finite=False)
    residual = float(np.abs(fm.matrix @ inv - np.eye(fm.dim)).max())
    if residual > 1e-8:
        raise DegenerateInformationError(
            f"inversion residual {residual:.3e} exceeds 1e-8", matrix=fm.matrix
        )
    return inv


def _reciprocals(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inverses 1/I of a (B, 1, 1) stack of information matrices, and a
    flag per matrix that ``_checked`` + ``invert_fisher`` would refuse or
    invert to a non-finite value; unflagged, 1/I is their inverse up to the
    Cholesky solve's rounding.

    The guards reduce exactly for a 1 x 1 matrix: it is symmetric, its
    condition number is 1 and 1/I is numpy's LU inverse bit for bit. So I
    passes exactly when I + I is finite (``FisherMatrix``'s symmetrization
    overflows from about 9e307), I > 0 and |I (1/I) - 1| <= 1e-8.
    """
    values = matrices[:, 0, 0]
    with np.errstate(all="ignore"):
        inverses = 1.0 / matrices
        passed = np.isfinite(values + values) & (values > 0.0) & (np.abs(values * inverses[:, 0, 0] - 1.0) <= 1e-8)
    return inverses, ~passed
