"""Preliminary estimators on the learning interval [0, N].

These provide the consistent (but rate-suboptimal) starting point that the
estimator processes later correct. Three kinds are implemented for scalar
parameters: a grid likelihood maximizer refined at a root of the score, a
posterior mean under a prior, and a method-of-moments map. All estimates are
projected into the parameter box shrunk by a small margin so that information
matrices stay evaluable in the interior. Each refuses a learning length N not
an integer in [1, n] with a ValueError naming N (``_require_learning_length``).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .likelihood import loglik, loglik_grad
from .models import ModelSpec, _require_numbers
from .simulate import Trajectory

__all__ = [
    "PreliminaryEstimate",
    "learning_length",
    "mle",
    "bayes",
    "emm",
]

# the grid mle's root of the summed score is located to within this plus _BRENT_RTOL |theta|
_ROOT_TOL = 1e-14
_BRENT_RTOL, _BRENT_ITERATIONS = 4.0 * np.finfo(float).eps, 100
# likelihood terms per grid block, B = _GRID_TERMS // N theta values: 256 KiB
# per float64 temporary; twice that ran 2-3x slower on example2 for N >= 1000
_GRID_TERMS = 32768
# a likelihood range within this fraction of max(1, |top|) is flat
_FLAT_TOL = 1e-12

# Chebyshev points of the second kind on [-1, 1], ascending, and the point
# counts M of their nested subsets, every (64 // (M - 1))-th point: each set
# holds the smaller ones. The grid mle's certified argmax takes 33 and 17,
# the two-step interpolated sums 17, 33 and 65 (``_Barycentric``).
_UNIT_NODES = np.sin(np.pi * np.arange(-32, 33) / 64)
_NODE_COUNTS = (17, 33, 65)
# the certified argmax: the error of the 33-point interpolant is taken as
# this multiple of its largest distance from the 17-point one ...
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
    blocks: a built-in spec (``mlestep.models``) gets blocks of B =
    _GRID_TERMS // N values, as theta of shape (1, B, 1); any other spec
    gets one plain theta vector per call."""
    obs = traj.observations
    xp, xn = obs[:N], obs[1 : N + 1]
    size = max(1, _GRID_TERMS // N) if model._builtin else 1
    values = np.empty(thetas.size)
    for start in range(0, thetas.size, size):
        block = thetas[start : start + size]
        theta = block[np.newaxis, :, np.newaxis] if size > 1 else block
        values[start : start + size] = np.sum(loglik(theta, xp, xn, model), axis=-1)
    return values


class _Barycentric:
    """The interpolants at x through values at nested subsets of ``points``,
    ``_UNIT_NODES`` on [lo, hi], lo < hi, by the second barycentric formula
    (Berrut & Trefethen 2004) folded one point at a time: ``add(i, values)``
    takes point i's values, a scalar or of shape ``shape`` + (x.size,), and
    ``read(M)`` gives the M-point interpolant once its points are added; an
    x on a point takes its value. An M-point set weights its j-th point
    (-1)^j, halved at the ends: + on the index classes i % 8 == 0, i % 8 ==
    4, i % 4 == 2 and odd i before the c-th (c = 1, 2, 3 for M = 17, 33,
    65), - on the c-th."""

    def __init__(self, lo: float, hi: float, x: np.ndarray, shape: tuple = ()):
        self.points, self.x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _UNIT_NODES, x
        self.points[0], self.points[-1] = lo, hi
        self.num, self.den = np.zeros((4, *shape, x.size)), np.zeros((4, x.size))
        # the x on each point, and the values of each such point once added
        at = np.minimum(np.searchsorted(self.points, x), self.points.size - 1)
        on = self.points[at] == x
        self.hits, self.held = {i: on & (at == i) for i in set(at[on].tolist())}, {}

    def indices(self, M: int) -> range:
        return range(0, self.points.size, (self.points.size - 1) // (M - 1))

    def add(self, i: int, values) -> None:
        diff = self.x - self.points[i]
        cls = 3 if i % 2 else 2 if i % 4 else 1 if i % 8 else 0
        hit = self.hits.get(i)
        if hit is not None:
            self.held[i] = np.broadcast_to(values, self.num.shape[1:])[..., hit]
            diff[hit] = 1.0
        c = np.divide(0.5 if i in (0, self.points.size - 1) else 1.0, diff, out=diff)
        self.num[cls] += c * values
        self.den[cls] += c

    def read(self, M: int) -> np.ndarray:
        c = _NODE_COUNTS.index(M) + 1
        out = (self.num[:c].sum(axis=0) - self.num[c]) / (self.den[:c].sum(axis=0) - self.den[c])
        for i, values in self.held.items():
            if i in self.indices(M):
                out[..., self.hits[i]] = values
        return out


def _certifies(model: ModelSpec, N: int, grid_points: int) -> bool:
    """Whether ``mle`` tries ``_certified_argmax``: the spec is a built-in,
    whose likelihood is analytic in theta (``mlestep.models``), grid_points
    > 132, N >= 128 and the scan is at least 4 blocks of ``_GRID_TERMS``
    terms; up to 1024 points the blocks imply N >= 128. Below N = 128 the interpolation costs more than the scan on
    512 points (1.7-2.6x at N = 64), and at N = 100 on 1e5 points example2
    took 0.15 s certified against 0.10 s scanned; on 4096 points it is
    cheaper from N = 64 (README, "Cost model")."""
    return model._builtin and grid_points > 132 and N >= 128 and N * grid_points >= 4 * _GRID_TERMS


def _certified_argmax(grid: np.ndarray, traj: Trajectory, N: int, model: ModelSpec) -> tuple | None:
    """The first index of the maximum of ``_grid_loglik`` on the grid, and
    that maximum, without evaluating it at every grid value; None where
    this cannot be certified, and the grid then takes the full scan.

    The sums at the 33 Chebyshev points of [grid[0], grid[-1]] are
    interpolated onto the grid, and so are those at every other one of
    them. The error eps of the 33-point interpolant is taken as
    _CERTIFY_SAFETY times the two interpolants' largest difference, and at
    least the rounding of an N-term sum. Only the grid values whose
    interpolated sum lies within 2 eps of the largest are evaluated
    exactly: any other lies below the maximum by more than the error. None
    if a sum is not finite (the full scan names a NaN or +inf, or refuses
    an all -inf grid), if more than _CERTIFY_CONTESTED values are
    contested, or if the likelihood range over the grid lies within 4 eps
    of the flat threshold.
    """
    fold = _Barycentric(grid[0], grid[-1], grid)
    nodes = fold.indices(33)
    if np.any(np.diff(fold.points[nodes]) <= 0.0):  # a box too narrow for 33 distinct points
        return None
    node_sums = _theta_sums(fold.points[nodes], traj, N, model)
    if not np.all(np.isfinite(node_sums)):
        return None
    for i, value in zip(nodes, node_sums.tolist()):
        fold.add(i, value)
    fine, coarse = fold.read(33), fold.read(17)
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
    return int(contested[np.argmax(exact)]), top


def _refine(grid: np.ndarray, best: int, top: float, traj: Trajectory, N: int, model: ModelSpec) -> tuple:
    """The estimate and its exact loglik from grid[best], loglik top: the root
    of the score (the sum of ``loglik_grad`` over 1..N) in the grid cell it
    points into from grid[best], by Brent's method to _ROOT_TOL at no theta
    twice; grid[best] if that cell is off the grid, holds no change of sign
    or gives a root below top beyond the flat threshold (a cell may hold a
    minimum too). A NaN or infinite score raises EstimationError."""
    obs = traj.observations

    def score(t: float) -> float:
        value = float(np.sum(loglik_grad(np.array([t]), obs[:N], obs[1 : N + 1], model)))
        if not np.isfinite(value):
            what = "NaN" if np.isnan(value) else f"{value:+}"
            raise EstimationError(f"conditional likelihood score is {what} at theta={t}")
        return value

    a = float(grid[best])
    fa = score(a)
    j = best + (1 if fa > 0.0 else -1)
    if fa == 0.0 or not 0 <= j < grid.size:
        return a, top
    b = float(grid[j])
    fb = score(b)
    if fb == 0.0 or (fb > 0.0) == (fa > 0.0):
        return a, top
    t = _brent(score, *sorted(((a, fa), (b, fb))))
    value = _learning_loglik(np.array([t]), traj, N, model)
    return (t, value) if value >= top - _FLAT_TOL * max(1.0, abs(top)) else (a, top)


def _brent(f, a: tuple, b: tuple) -> float:
    """A root of f between the ends a = (x, f(x)) and b, x ascending, f of
    opposite signs there and zero at neither: scipy's ``brentq`` iteration
    (Brent 1973, ch. 4) in the same operations, so the same root from the same
    evaluations of f; EstimationError naming the cell after _BRENT_ITERATIONS."""
    (xpre, fpre), (xcur, fcur) = a, b
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_ITERATIONS):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta, sbis = (_ROOT_TOL + _BRENT_RTOL * abs(xcur)) / 2, (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # no step to try: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic; a zero divisor bisects, as its inf or NaN step does in C
                with contextlib.suppress(ZeroDivisionError):
                    dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        spre, scur = (scur, stry) if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta) else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise EstimationError(f"score root not found in the grid cell [{a[0]}, {b[0]}] in {_BRENT_ITERATIONS} iterations")


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

    Coarse grid scan (ties break toward the smaller value) followed by a
    root of the exact score next to the grid maximum (``_refine``), never
    below the grid maximum beyond the flat threshold; the reported loglik
    is exact. A flat likelihood (no information in the window) skips
    refinement and is flagged in the diagnostics. A NaN or +inf on the grid
    raises EstimationError naming the first grid value that gives one.

    For a built-in model on a large grid (``_certifies``) the grid maximum
    is located by ``_certified_argmax``, from about 34 likelihood sums
    instead of one per grid value, and otherwise by evaluating every grid
    value: both give the same index and maximum, so the same estimate.
    """
    grid = _checked_grid(traj, N, model, grid_points, "mle")
    found = _certified_argmax(grid, traj, N, model) if _certifies(model, N, grid_points) else None
    if found is None:
        values = _grid_loglik(grid, traj, N, model)
        if np.all(np.isneginf(values)):
            raise EstimationError("conditional likelihood is -inf on the entire grid")
        top = float(values.max())
        if top - float(values.min()) <= _FLAT_TOL * max(1.0, abs(top)):
            theta = model.domain.project(np.array([grid[0]]))
            return PreliminaryEstimate(
                theta, "mle", N, {"loglik": float(values[0]), "flat_likelihood": True}
            )
        found = int(np.argmax(values)), top
    theta, value = _refine(grid, *found, traj, N, model)
    return PreliminaryEstimate(np.array([theta]), "mle", N, {"loglik": value, "flat_likelihood": False})


def bayes(
    traj: Trajectory,
    N: int,
    model: ModelSpec,
    prior=None,
    grid_points: int = 512,
) -> PreliminaryEstimate:
    """Posterior mean over the parameter box under the prior (default uniform).

    The posterior weights combine the conditional likelihood of the first N
    transitions with the prior on a uniform grid of an odd number of points;
    integration is Simpson's rule, weights h/3 (1, 4, 2, ..., 4, 1), on
    weights rescaled by the maximum log-weight, so very small likelihood
    values do not underflow. The likelihood is evaluated at every
    grid value, and a NaN or +inf there raises EstimationError as in
    ``mle``, as does a prior that raises; a prior value that is negative or
    not finite raises ValueError.
    """
    # Simpson quadrature wants an odd point count
    grid = _checked_grid(traj, N, model, grid_points, "bayes", odd=True)
    logw = _grid_loglik(grid, traj, N, model)
    if prior is not None:
        try:
            pvals = np.array([float(prior(t)) for t in grid])
        except Exception as exc:
            raise EstimationError(f"prior is undefined on the grid: {exc}") from exc
        if not np.all(np.isfinite(pvals) & (pvals >= 0.0)):
            raise ValueError("prior must be finite and nonnegative on the domain")
        with np.errstate(divide="ignore"):
            logw = logw + np.log(pvals)
    peak = float(np.max(logw))
    if not np.isfinite(peak):
        raise EstimationError("all posterior weights underflowed")
    w = np.exp(logw - peak)
    simpson = np.full(grid.size, 2.0)
    simpson[1::2], simpson[[0, -1]] = 4.0, 1.0
    simpson *= (grid[-1] - grid[0]) / (3.0 * (grid.size - 1))  # h/3
    den, num = float(simpson @ w), float(simpson @ (w * grid))
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
    projected onto the closure of the parameter box. A q or h that raises,
    or a q(X) without N rows, raises EstimationError.
    """
    _require_learning_length(N, traj)
    xs = traj.observations[1 : N + 1]
    try:
        mapped = q(xs) if q is not None else xs
    except Exception as exc:
        raise EstimationError(f"moment function q is undefined on the learning interval: {exc}") from exc
    if np.shape(mapped)[:1] != (N,):
        raise EstimationError(f"moment function q must return N = {N} rows, got shape {np.shape(mapped)}")
    moments = np.mean(mapped, axis=0) if q is not None else np.mean(xs)
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
