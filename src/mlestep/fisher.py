"""Information matrix estimation and guarded inversion.

Three estimators of the information matrix are available, all averaged over
the window length:

    observed    negative mean Hessian of the log-likelihood
    plugin      mean outer product of the score terms
    factorized  noise information times the mean outer product of drift
                gradients

At the true parameter all three are consistent for the same matrix, which
gives a useful cross-check (the "triangle" tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import integrate, linalg

from .errors import DegenerateInformationError
from .likelihood import ScoreWindow, grad_terms, hess_terms
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
        scale = max(1.0, float(np.abs(m).max()))
        if float(np.abs(m - m.T).max()) > _SYM_TOL * scale:
            raise ValueError("information matrix is not symmetric")
        object.__setattr__(self, "matrix", 0.5 * (m + m.T))

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
    is non-finite or non-positive. ``factorized_fisher`` runs it once per
    NoiseDensity instance and keeps the value on that instance.
    """

    def integrand(u):
        return noise.psi(u) ** 2 * noise.g(u)

    value, _ = integrate.quad(integrand, noise.support[0], noise.support[1],
                              epsabs=1e-12, epsrel=1e-10, limit=200)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"noise information integral evaluated to {value}")
    return float(value)


def _require_finite(fm: FisherMatrix) -> None:
    # inf/nan slip past the sign and condition checks (inf/inf is nan, and a
    # comparison with nan is False), so they are refused first; the
    # eigenvalues ascend, so the two ends bound the rest
    eig = fm.eigenvalues if np.isfinite(fm.matrix).all() else None
    if eig is None or not (math.isfinite(eig[0]) and math.isfinite(eig[-1])):
        raise DegenerateInformationError(
            f"{fm.method} information matrix has non-finite entries or eigenvalues",
            matrix=fm.matrix,
        )


def _checked(matrix: np.ndarray, method: str, sample_size: int) -> FisherMatrix:
    fm = FisherMatrix(matrix, method, sample_size)
    _require_finite(fm)
    if fm.eigenvalues[0] <= 0.0:
        raise DegenerateInformationError(
            f"{method} information matrix is not positive definite "
            "(window too short, or the parameter carries no information)",
            matrix=fm.matrix,
        )
    return fm


def observed_fisher(theta, traj: Trajectory, window: ScoreWindow, model: ModelSpec) -> FisherMatrix:
    """Negative mean log-likelihood Hessian over the window."""
    if window.length < model.dim:
        raise ValueError("window is shorter than the parameter dimension")
    h = hess_terms(theta, traj, window, model)
    return _checked(-h.mean(axis=0), "observed", window.length)


def plugin_fisher(theta, traj: Trajectory, window: ScoreWindow, model: ModelSpec) -> FisherMatrix:
    """Mean outer product of score terms over the window."""
    if window.length < model.dim:
        raise ValueError("window is shorter than the parameter dimension")
    g = grad_terms(theta, traj, window, model)
    return _checked(g.T @ g / g.shape[0], "plugin", window.length)


def factorized_fisher(theta, traj: Trajectory, window: ScoreWindow, model: ModelSpec) -> FisherMatrix:
    """Noise information times the mean outer product of drift gradients."""
    if window.length < model.dim:
        raise ValueError("window is shorter than the parameter dimension")
    if window.end > traj.n:
        raise ValueError(
            f"window end {window.end} exceeds the trajectory's {traj.n} transitions"
        )
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    xp = traj.observations[window.start - 1 : window.end]
    ds = np.asarray(model.drift.dS(theta, xp), dtype=float)
    if model.noise._information is None:
        object.__setattr__(model.noise, "_information", noise_information(model.noise))
    ig = model.noise._information
    return _checked(ig * ds.T @ ds / ds.shape[0], "factorized", window.length)


FISHER_METHODS = {
    "observed": observed_fisher,
    "plugin": plugin_fisher,
    "factorized": factorized_fisher,
}


def invert_fisher(fm: FisherMatrix) -> np.ndarray:
    """Invert a positive-definite information matrix with conditioning guards.

    Uses a Cholesky solve; refuses matrices with non-finite entries or
    eigenvalues, indefinite matrices, condition numbers above 1e10, and
    inverses whose residual exceeds 1e-8.
    """
    _require_finite(fm)
    eig = fm.eigenvalues
    if eig[0] <= 0.0:
        raise DegenerateInformationError(
            "information matrix is not positive definite", matrix=fm.matrix
        )
    cond = eig[-1] / eig[0]
    if cond > _COND_LIMIT:
        raise DegenerateInformationError(
            f"information matrix condition number {cond:.3e} exceeds {_COND_LIMIT:.0e}",
            matrix=fm.matrix,
        )
    # _require_finite has already done scipy's finiteness scan
    chol = linalg.cho_factor(fm.matrix, check_finite=False)
    inv = linalg.cho_solve(chol, np.eye(fm.dim), check_finite=False)
    residual = float(np.abs(fm.matrix @ inv - np.eye(fm.dim)).max())
    if residual > 1e-8:
        raise DegenerateInformationError(
            f"inversion residual {residual:.3e} exceeds 1e-8", matrix=fm.matrix
        )
    return inv
