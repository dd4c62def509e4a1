"""Preliminary estimators on the learning interval [0, N].

These provide the consistent (but rate-suboptimal) starting point that the
estimator processes later correct. Three kinds are implemented for scalar
parameters: a grid-plus-golden-section likelihood maximizer, a posterior mean
under a prior, and a method-of-moments map. All estimates are projected into
the parameter box shrunk by a small margin so that information matrices stay
evaluable in the interior. Each refuses a learning length N that is not an
integer in [1, n] with a ValueError naming N (``_require_learning_length``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import EstimationError
from .likelihood import loglik
from .models import ModelSpec, _require_numbers
from .simulate import Trajectory

__all__ = [
    "PreliminaryEstimate",
    "learning_length",
    "mle",
    "bayes",
    "emm",
]

_GOLDEN_TOL = 1e-8
_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0
# likelihood terms per grid block, B = _GRID_TERMS // N theta values: 256 KiB
# per float64 temporary; twice that ran 2-3x slower on example2 for N >= 1000
_GRID_TERMS = 32768
# a likelihood range within this fraction of max(1, |top|) is flat
_FLAT_TOL = 1e-12

# Chebyshev points of the second kind on [-1, 1], ascending. The grid mle's
# certified argmax takes every 2nd and every 4th (65 and 33 points), the
# two-step interpolated sums every (128 // (M - 1))-th, M = 17, 33, 65, 129;
# each set holds the smaller ones.
_UNIT_NODES = np.sin(np.pi * np.arange(-64, 65) / 128)
# the certified argmax: the error of the 65-point interpolant is taken as
# this multiple of its largest distance from the 33-point one ...
_CERTIFY_SAFETY = 10.0
# ... and at least this multiple of N * max |sum at a point|, the rounding
# of an N-term sum
_CERTIFY_ROUNDING = 8.0 * np.finfo(float).eps
# more grid points than this within twice the error of the top, and the
# whole grid is evaluated
_CERTIFY_CONTESTED = 16


@dataclass(frozen=True)
class PreliminaryEstimate:
    """A preliminary parameter estimate with its provenance."""

    theta: np.ndarray
    kind: str
    learning_length: int
    diagnostics: dict

    def __post_init__(self):
        object.__setattr__(
            self, "theta", np.atleast_1d(np.asarray(self.theta, dtype=float))
        )

    def to_json_dict(self) -> dict:
        return {
            "theta": self.theta.tolist(),
            "kind": self.kind,
            "learning_length": int(self.learning_length),
            "diagnostics": {
                k: (v.tolist() if isinstance(v, np.ndarray) else v)
                for k, v in self.diagnostics.items()
            },
        }


def learning_length(n: int, delta: float) -> int:
    """Length of the learning interval: nearest integer to n**delta, at least 2,
    computed in float64 whatever the type of delta (a config stores float64)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if n < 2:
        raise ValueError("n must be >= 2")
    return max(2, int(np.floor(float(n) ** float(delta) + 0.5)))


def _require_learning_length(N, traj: Trajectory) -> None:
    """ValueError naming N unless it is an integer in [1, n]: the learning
    interval [0, N] holds the first N of the trajectory's n transitions."""
    _require_numbers(N=N)
    if not 1 <= N <= traj.n:
        raise ValueError(f"learning length N must lie in [1, {traj.n}] (the trajectory's transitions), got {N}")


def _learning_loglik(theta, traj: Trajectory, N: int, model: ModelSpec) -> float:
    """Conditional log-likelihood of transitions 1..N at theta."""
    obs = traj.observations
    return float(np.sum(loglik(theta, obs[:N], obs[1 : N + 1], model)))


def _grid_loglik(grid: np.ndarray, traj: Trajectory, N: int, model: ModelSpec) -> np.ndarray:
    """``_learning_loglik`` at each grid value, the same bits
    (``_theta_sums``). A NaN or +inf raises EstimationError naming the
    first grid value that gives one."""
    values = _theta_sums(grid, traj, N, model)
    for bad, what in ((np.isnan(values), "NaN"), (values == np.inf, "+inf")):
        if np.any(bad):
            raise EstimationError(
                f"conditional likelihood is {what} at theta={float(grid[np.argmax(bad)])} on the grid"
            )
    return values


def _theta_sums(thetas: np.ndarray, traj: Trajectory, N: int, model: ModelSpec) -> np.ndarray:
    """``_learning_loglik`` at each of the scalar thetas, the same bits, in
    blocks: a drift that broadcasts theta (see ``mlestep.models``) gets
    blocks of B = _GRID_TERMS // N values, as theta of shape (1, B, 1); any
    other drift gets one plain theta vector per call."""
    obs = traj.observations
    xp, xn = obs[:N], obs[1 : N + 1]
    size = max(1, _GRID_TERMS // N) if model._broadcasts_theta else 1
    values = np.empty(thetas.size)
    for start in range(0, thetas.size, size):
        block = thetas[start : start + size]
        theta = block[np.newaxis, :, np.newaxis] if size > 1 else block
        values[start : start + size] = np.sum(loglik(theta, xp, xn, model), axis=-1)
    return values


def _chebyshev_points(lo: float, hi: float) -> np.ndarray:
    """``_UNIT_NODES`` mapped onto [lo, hi], the ends exactly lo and hi."""
    points = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _UNIT_NODES
    points[0], points[-1] = lo, hi
    return points


def _barycentric(x: np.ndarray, nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The polynomial through ``values`` at ``nodes``, Chebyshev points of
    the second kind in ascending order, at each x (the second barycentric
    formula); an x on a node takes the node's value."""
    weights = np.ones(nodes.size)
    weights[1::2] = -1.0
    weights[[0, -1]] *= 0.5
    diff = x[:, np.newaxis] - nodes
    hit = diff == 0.0
    diff[hit] = 1.0
    c = weights / diff
    out = (c @ values) / c.sum(axis=1)
    rows, cols = np.nonzero(hit)
    out[rows] = values[cols]
    return out


def _certifies(model: ModelSpec, N: int, grid_points: int) -> bool:
    """Whether ``mle`` tries ``_certified_argmax``: the likelihood is
    analytic in theta, the grid holds more than twice the 66 sums the
    certified argmax takes (65 points and a contested value or more), and
    the scan is at least 4 blocks of ``_GRID_TERMS`` terms. A smaller scan
    is a few numpy calls, cheaper than the 65 point sums: at N = 128 and 512
    points the scan took 0.72 ms and the certified argmax 0.78 ms."""
    return model._analytic_theta and grid_points > 132 and N * grid_points >= 4 * _GRID_TERMS


def _certified_argmax(grid: np.ndarray, traj: Trajectory, N: int, model: ModelSpec) -> int | None:
    """The first index of the maximum of ``_grid_loglik`` on the grid,
    without evaluating it at every grid value; None where this cannot be
    certified, and the grid then takes the full scan.

    The sums at the 65 Chebyshev points of [grid[0], grid[-1]] are
    interpolated onto the grid, and so are those at every other one of
    them. The error eps of the 65-point interpolant is taken as
    _CERTIFY_SAFETY times the two interpolants' largest difference, and at
    least the rounding of an N-term sum. Only the grid values whose
    interpolated sum lies within 2 eps of the largest are evaluated
    exactly: any other lies below the maximum by more than the error. None
    if a sum is not finite (the full scan names a NaN or +inf, or refuses
    an all -inf grid), if more than _CERTIFY_CONTESTED values are
    contested, or if the likelihood range over the grid lies within 4 eps
    of the flat threshold.
    """
    nodes = _chebyshev_points(grid[0], grid[-1])[::2]
    if np.any(np.diff(nodes) <= 0.0):  # a box too narrow for 65 distinct points
        return None
    node_sums = _theta_sums(nodes, traj, N, model)
    if not np.all(np.isfinite(node_sums)):
        return None
    fine = _barycentric(grid, nodes, node_sums)
    coarse = _barycentric(grid, nodes[::2], node_sums[::2])
    eps = max(
        _CERTIFY_SAFETY * float(np.max(np.abs(fine - coarse))),
        _CERTIFY_ROUNDING * N * float(np.max(np.abs(node_sums))),
    )
    contested = np.flatnonzero(fine >= fine.max() - 2.0 * eps)
    if contested.size > _CERTIFY_CONTESTED:
        return None
    exact = _theta_sums(grid[contested], traj, N, model)
    if not np.all(np.isfinite(exact)):
        return None
    top = float(exact.max())
    # the grid's smallest sum lies within eps of the interpolant's
    if top - float(fine.min()) <= _FLAT_TOL * max(1.0, abs(top)) + 4.0 * eps:
        return None
    return int(contested[np.argmax(exact)])


def _golden_max(f, a: float, b: float, tol: float) -> float:
    """Golden-section maximizer on [a, b]; ties resolve toward smaller values."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _grid(model: ModelSpec, grid_points: int) -> np.ndarray:
    lo = float(model.domain.project(model.domain.lower)[0])
    hi = float(model.domain.project(model.domain.upper)[0])
    return np.linspace(lo, hi, grid_points)


def _checked_grid(traj: Trajectory, N, model: ModelSpec, grid_points: int, what: str, odd=False):
    """The grid estimators' checks (scalar theta, N, an integer grid_points
    >= 3), then the grid, one point more if ``odd`` and grid_points is even."""
    if model.dim != 1:
        raise EstimationError(f"{what} supports scalar parameters only (model has d={model.dim})")
    _require_learning_length(N, traj)
    _require_numbers(grid_points=grid_points)
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    return _grid(model, grid_points + 1 if odd and grid_points % 2 == 0 else grid_points)


def mle(traj: Trajectory, N: int, model: ModelSpec, grid_points: int = 512) -> PreliminaryEstimate:
    """Maximize the conditional log-likelihood of the first N transitions.

    Coarse grid scan followed by golden-section refinement of the bracketing
    cell to 1e-8 in theta; grid ties break toward the smaller value. A flat
    likelihood (no information in the window) skips refinement and is flagged
    in the diagnostics. A NaN or +inf on the grid raises EstimationError
    naming the first grid value that gives one.

    For a built-in model on a large grid (``_certifies``) the grid maximum
    is located by ``_certified_argmax``, from about 70 likelihood sums
    instead of one per grid value; where it cannot certify the maximum, and
    for any other model or grid, every grid value is evaluated. Both give
    the same index, and the refinement and the reported loglik are exact,
    so the estimate is the same either way.
    """
    grid = _checked_grid(traj, N, model, grid_points, "mle")
    best = _certified_argmax(grid, traj, N, model) if _certifies(model, N, grid_points) else None
    if best is None:
        values = _grid_loglik(grid, traj, N, model)
        if np.all(np.isneginf(values)):
            raise EstimationError("conditional likelihood is -inf on the entire grid")
        top = float(values.max())
        if top - float(values.min()) <= _FLAT_TOL * max(1.0, abs(top)):
            theta = model.domain.project(np.array([grid[0]]))
            return PreliminaryEstimate(
                theta, "mle", N, {"loglik": float(values[0]), "flat_likelihood": True}
            )
        best = int(np.argmax(values))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, grid_points - 1)]
    t = _golden_max(lambda t: _learning_loglik(np.array([t]), traj, N, model), a, b, _GOLDEN_TOL)
    theta = model.domain.project(np.array([t]))
    return PreliminaryEstimate(
        theta,
        "mle",
        N,
        {"loglik": _learning_loglik(theta, traj, N, model), "flat_likelihood": False},
    )


def bayes(
    traj: Trajectory,
    N: int,
    model: ModelSpec,
    prior=None,
    grid_points: int = 512,
) -> PreliminaryEstimate:
    """Posterior mean over the parameter box under the prior (default uniform).

    The posterior weights combine the conditional likelihood of the first N
    transitions with the prior on a uniform grid; integration is Simpson
    quadrature on weights rescaled by the maximum log-weight, so very small
    likelihood values do not underflow. The likelihood is evaluated at every
    grid value, and a NaN or +inf there raises EstimationError as in
    ``mle``; a prior value that is negative or not finite raises ValueError.
    """
    # Simpson quadrature wants an odd point count
    grid = _checked_grid(traj, N, model, grid_points, "bayes", odd=True)
    logw = _grid_loglik(grid, traj, N, model)
    if prior is not None:
        pvals = np.array([float(prior(t)) for t in grid])
        if not np.all(np.isfinite(pvals) & (pvals >= 0.0)):
            raise ValueError("prior must be finite and nonnegative on the domain")
        with np.errstate(divide="ignore"):
            logw = logw + np.log(pvals)
    peak = float(np.max(logw))
    if not np.isfinite(peak):
        raise EstimationError("all posterior weights underflowed")
    w = np.exp(logw - peak)
    den = float(integrate.simpson(w, x=grid))
    num = float(integrate.simpson(w * grid, x=grid))
    if not np.isfinite(den) or den <= 0.0:
        raise EstimationError("posterior mass quadrature failed")
    theta = model.domain.project(np.array([num / den]))
    return PreliminaryEstimate(
        theta, "bayes", N, {"log_posterior_mass": peak + float(np.log(den))}
    )


def emm(traj: Trajectory, N: int, model: ModelSpec, q=None, h=None) -> PreliminaryEstimate:
    """Method of moments: h applied to the sample mean of q(X_j), j = 1..N.

    Both maps default to the identity, which matches location-type models
    whose invariant law is symmetric about the parameter. The result is
    projected onto the closure of the parameter box.
    """
    _require_learning_length(N, traj)
    xs = traj.observations[1 : N + 1]
    moments = np.mean(q(xs), axis=0) if q is not None else np.mean(xs)
    try:
        value = h(moments) if h is not None else moments
    except Exception as exc:
        raise EstimationError(f"moment map is undefined at {moments!r}: {exc}") from exc
    value = np.atleast_1d(np.asarray(value, dtype=float))
    if value.shape != (model.dim,) or not np.all(np.isfinite(value)):
        raise EstimationError(f"moment map produced an unusable value {value!r}")
    theta = model.domain.project(value)
    moment_diag = moments.tolist() if isinstance(moments, np.ndarray) else float(moments)
    return PreliminaryEstimate(theta, "emm", N, {"moment": moment_diag})
