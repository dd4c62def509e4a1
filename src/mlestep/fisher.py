"""Information matrix estimation and guarded inversion.

Three estimators of the information matrix are available, all averaged over
the transitions they are given:

    observed    negative mean Hessian of the log-likelihood
    plugin      mean outer product of the score terms
    factorized  noise information times the mean outer product of drift
                gradients

At the true parameter all three are consistent for the same matrix, which
gives a useful cross-check (the "triangle" tests).

There is one entry point per layer. ``information_terms`` gives the
per-transition terms whose mean is an estimator, so the two-step path can
re-estimate the information at every k from prefix sums;
``window_information`` gives a trajectory's score terms over its n
transitions and its checked information; ``invert_fisher`` gives the guarded
inverse. ``_require_positive_definite``, run by ``_checked`` and
``invert_fisher``, and ``invert_fisher``'s own checks hold every guard on an
information matrix; ``_reciprocals`` is their exact reduction for 1 x 1
matrices, run at once over the two-step path's ks; its 1/I is
``invert_fisher``'s LU inverse bit for bit, one rule for every matrix.

The linear algebra is numpy.linalg's. scipy is imported only by
``noise_information``'s quadrature (scipy.integrate), for a noise law other
than ``gaussian_noise`` (which stores 1 / sigma^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateInformationError
from .likelihood import _terms
from .models import ModelSpec, NoiseDensity
from .simulate import Trajectory

__all__ = [
    "FisherMatrix",
    "noise_information",
    "invert_fisher",
    "FISHER_METHODS",
    "information_terms",
    "window_information",
]

FISHER_METHODS = ("observed", "plugin", "factorized")

_COND_LIMIT = 1e10
_SYM_TOL = 1e-12


@dataclass(frozen=True)
class FisherMatrix:
    """Symmetric information matrix estimate with its method."""

    matrix: np.ndarray
    method: str

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


def noise_information(noise: NoiseDensity) -> float:
    """Integral of psi(u)^2 g(u) over the noise support window.

    Adaptive quadrature; 1.0 for the standard Gaussian. Raises if the result
    is non-finite or non-positive. The factorized ``information_terms`` and
    the information oracle run it once per NoiseDensity without a value
    (``gaussian_noise`` stores 1 / sigma^2) and keep it there. Only then is
    scipy.integrate imported: 0.4 s, once.
    """
    from scipy import integrate

    def integrand(u):
        return noise.psi(u) ** 2 * noise.g(u)

    value, _ = integrate.quad(integrand, noise.support[0], noise.support[1],
                              epsabs=1e-12, epsrel=1e-10, limit=200)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"noise information integral evaluated to {value}")
    return float(value)


def _stored_noise_information(noise: NoiseDensity) -> float:
    """The noise information I_g, computed by ``noise_information`` once per
    NoiseDensity without a stored value and kept there."""
    if noise._information is None:
        object.__setattr__(noise, "_information", noise_information(noise))
    return noise._information


def _require_positive_definite(fm: FisherMatrix, theta=None, n: int | None = None) -> None:
    # inf/nan slip past the sign and condition checks (inf/inf is nan, and a
    # comparison with nan is False), so they are refused first; the
    # eigenvalues ascend, so the two ends bound the rest
    eig = fm.eigenvalues if np.isfinite(fm.matrix).all() else None
    if eig is None or not (math.isfinite(eig[0]) and math.isfinite(eig[-1])):
        raise DegenerateInformationError(
            f"{fm.method} information matrix has non-finite entries or eigenvalues{_at(theta, n)}",
            matrix=fm.matrix,
        )
    if eig[0] <= 0.0:
        raise DegenerateInformationError(
            f"{fm.method} information matrix is not positive definite{_at(theta, n)}",
            matrix=fm.matrix,
        )


def _at(theta, n) -> str:
    """Where an estimate was evaluated, for a refusal: the point theta and
    the number n of transitions, or nothing without a theta."""
    if theta is None:
        return ""
    at = np.array2string(np.asarray(theta, dtype=float), precision=7, separator=", ")
    return f" at theta={at} over {n} transitions"


def _checked(matrix: np.ndarray, method: str, theta=None, n: int | None = None) -> FisherMatrix:
    """``matrix`` as ``method``'s FisherMatrix, refused by
    ``_require_positive_definite``, naming theta and n where given."""
    fm = FisherMatrix(matrix, method)
    _require_positive_definite(fm, theta, n)
    return fm


def window_information(theta, traj: Trajectory, model: ModelSpec, method: str):
    """The score terms (n, d) of the trajectory's n transitions, and
    ``method``'s information estimate over them: the mean of
    ``information_terms``, checked."""
    if traj.n < model.dim:
        raise ValueError("window is shorter than the parameter dimension")
    obs = traj.observations
    scores, terms = information_terms(theta, obs[:-1], obs[1:], model, method)
    return scores, _checked(terms.mean(axis=0), method, theta, traj.n)


# --- Per-transition information terms ---------------------------------------------


def information_terms(theta, x_prev, x_next, model: ModelSpec, method: str):
    """Score terms (L, d) of L paired observations, and the (L, d, d) terms
    whose mean is ``method``'s estimator above: one evaluation by the kernel
    of ``loglik_grad`` and ``loglik_hess``, so the scores and the observed
    terms equal theirs (negated) bit for bit. A method outside
    ``FISHER_METHODS`` raises ValueError."""
    if method == "plugin":
        scores, _ = _terms(theta, x_prev, x_next, model)
        return scores, scores[:, :, np.newaxis] * scores[:, np.newaxis, :]
    if method == "factorized":
        scores, outer = _terms(theta, x_prev, x_next, model, "outer")
        return scores, _stored_noise_information(model.noise) * outer
    if method != "observed":
        raise ValueError(f"unknown information method {method!r}; expected one of {FISHER_METHODS}")
    scores, hess = _terms(theta, x_prev, x_next, model, "hessian")
    return scores, np.negative(hess, out=hess)


def invert_fisher(fm: FisherMatrix) -> np.ndarray:
    """Invert a positive-definite information matrix with conditioning guards.

    numpy's LU inverse, for d = 1 exactly 1/I. Refuses matrices with
    non-finite entries or eigenvalues, indefinite matrices, condition
    numbers above 1e10, and inverses whose residual exceeds 1e-8 (a
    subnormal I inverts to inf).
    """
    _require_positive_definite(fm)
    eig = fm.eigenvalues
    cond = eig[-1] / eig[0]
    if cond > _COND_LIMIT:
        raise DegenerateInformationError(
            f"information matrix condition number {cond:.3e} exceeds {_COND_LIMIT:.0e}",
            matrix=fm.matrix,
        )
    inv = np.linalg.inv(fm.matrix)
    residual = float(np.abs(fm.matrix @ inv - np.eye(fm.dim)).max())
    if residual > 1e-8:
        raise DegenerateInformationError(
            f"inversion residual {residual:.3e} exceeds 1e-8", matrix=fm.matrix
        )
    return inv


def _reciprocals(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``invert_fisher`` batched over a (B, 1, 1) stack of information
    matrices: the inverses 1/I, and a flag per matrix that ``_checked`` +
    ``invert_fisher`` would refuse or invert to a non-finite value;
    unflagged, 1/I is their inverse bit for bit.

    The guards reduce exactly for a 1 x 1 matrix: it is symmetric, its
    condition number is 1 and numpy's LU inverse is 1/I. So I passes
    exactly when I + I is finite (``FisherMatrix``'s symmetrization
    overflows from about 9e307), I > 0 and |I (1/I) - 1| <= 1e-8.
    """
    values = matrices[:, 0, 0]
    with np.errstate(all="ignore"):
        inverses = 1.0 / matrices
        passed = np.isfinite(values + values) & (values > 0.0) & (np.abs(values * inverses[:, 0, 0] - 1.0) <= 1e-8)
    return inverses, ~passed
