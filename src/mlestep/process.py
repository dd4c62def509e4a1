"""Estimator processes: score-corrected paths built from a preliminary estimate.

Given a preliminary estimate on the learning interval [0, N], each operation
produces a sequence of estimates indexed by k = N+1..n. The corrections differ
in which transitions feed the score sum and where the information matrix is
evaluated:

    one_step_path            score over [N+1, k], information frozen at the
                             preliminary estimate
    second_preliminary_path  score over [1, k], information frozen at the
                             preliminary estimate
    two_step_path            second preliminary value re-corrected with the
                             information re-estimated at it on [1, k]
    recurrent_path           online O(1)-per-step recursion agreeing with
                             second_preliminary_path up to rounding
    full_mle_path            expensive reference: the grid MLE recomputed at
                             checkpoints (comparison oracle only)
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .fisher import FISHER_METHODS, _checked, _reciprocals, information_terms, invert_fisher, window_information
from .models import ModelSpec, _require_numbers
from .preliminary import PreliminaryEstimate, _chebyshev_points, bayes, emm, learning_length, mle
from .simulate import Trajectory, _write_csv

__all__ = [
    "EstimatorPath",
    "one_step_path",
    "second_preliminary_path",
    "two_step_path",
    "recurrent_path",
    "full_mle_path",
    "PRELIMINARY_KINDS",
    "PROCESS_KINDS",
    "Pipeline",
    "write_path_csv",
    "path_to_json_dict",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EstimatorPath:
    """Sequence of estimates (k, theta_k), k > N, for one estimator kind."""

    ks: np.ndarray
    thetas: np.ndarray
    kind: str
    N: int
    preliminary: PreliminaryEstimate | None
    n: int

    def __post_init__(self):
        ks = np.asarray(self.ks, dtype=int)
        thetas = np.atleast_2d(np.asarray(self.thetas, dtype=float))
        if ks.ndim != 1 or ks.size == 0 or thetas.shape[0] != ks.size:
            raise ValueError("ks and thetas must be non-empty and aligned")
        if np.any(np.diff(ks) <= 0):
            raise ValueError("ks must be strictly increasing")
        if ks[0] <= self.N:
            raise ValueError("every index must exceed the learning length")
        if not np.all(np.isfinite(thetas)):
            raise ValueError("path contains non-finite estimates")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "thetas", thetas)

    @property
    def terminal(self) -> np.ndarray:
        return self.thetas[-1]

    def s_values(self) -> np.ndarray:
        """Fraction of the sample used at each index: s = k / n."""
        return self.ks / float(self.n)

    def at(self, k: int) -> np.ndarray:
        idx = np.searchsorted(self.ks, k)
        if idx >= self.ks.size or self.ks[idx] != k:
            raise KeyError(f"index {k} was not emitted on this path")
        return self.thetas[idx]


def _emitted_ks(N: int, n: int, stride: int | None) -> np.ndarray:
    if stride is None:
        stride = 1 if n <= 10_000 else max(1, n // 1000)
    _require_numbers(stride=stride)
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if stride >= n - N:
        return np.array([n])
    ks = np.arange(N + 1, n + 1, stride, dtype=int)
    if ks[-1] != n:
        ks = np.append(ks, n)
    return ks


def _into_domain(theta: np.ndarray, model: ModelSpec, what: str) -> np.ndarray:
    proj = model.domain.project(theta)
    if not np.array_equal(proj, theta):
        logger.info("%s %s projected into the domain", what, theta)
    return proj


def _frozen_start(
    traj: Trajectory, model: ModelSpec, prelim: PreliminaryEstimate, fisher_method: str
):
    """The preliminary in the domain, the score terms (n, d) of transitions
    1..n there, and the inverse information frozen there, the mean of the
    same evaluation's ``information_terms``. Estimated on the full sample: a
    learning window of a few dozen points is too noisy for the correction.
    """
    if prelim.learning_length >= traj.n:
        raise ValueError("learning interval leaves no observations to process")
    theta0 = _into_domain(prelim.theta, model, "preliminary estimate")
    scores, info = window_information(theta0, traj, model, fisher_method)
    return theta0, scores, invert_fisher(info)


def _frozen_correction(
    traj: Trajectory,
    model: ModelSpec,
    prelim: PreliminaryEstimate,
    fisher_method: str,
    stride: int | None,
    score_start: int,
    kind: str,
) -> EstimatorPath:
    """Shared engine: correction with the information frozen at the preliminary."""
    n, N = traj.n, prelim.learning_length
    theta0, scores, inv = _frozen_start(traj, model, prelim, fisher_method)
    ks = _emitted_ks(N, n, stride)
    acc = np.cumsum(scores[score_start - 1 :], axis=0)
    return EstimatorPath(ks, _frozen_values(theta0, inv, acc, ks, score_start), kind, N, prelim, n)


def _frozen_values(theta0, inv, acc, ks, score_start) -> np.ndarray:
    """theta0 + (1/k) I^{-1} sum_{j=score_start..k} at each k in ks, the sums
    read off the cumulative score sum ``acc`` from transition score_start."""
    return theta0[np.newaxis, :] + (acc[ks - score_start] @ inv.T) / ks[:, np.newaxis]


def one_step_path(
    traj: Trajectory,
    model: ModelSpec,
    prelim: PreliminaryEstimate,
    fisher_method: str = "observed",
    stride: int | None = None,
) -> EstimatorPath:
    """Score-corrected path using transitions after the learning interval.

    For each emitted k (every stride-th index from N+1, always including n;
    n alone when stride >= n - N):

        theta_k = prelim + (1/k) I(prelim)^{-1} sum_{j=N+1..k} loglik_grad

    with I estimated once by ``fisher_method`` at the preliminary value.
    """
    return _frozen_correction(
        traj, model, prelim, fisher_method, stride, prelim.learning_length + 1, "one-step"
    )


def second_preliminary_path(
    traj: Trajectory,
    model: ModelSpec,
    prelim: PreliminaryEstimate,
    fisher_method: str = "observed",
    stride: int | None = None,
) -> EstimatorPath:
    """Same correction as ``one_step_path`` but the score sums over [1, k].

    Intended as the intermediate stage when the learning interval is short
    (delta in (1/4, 1/2]); its values feed the two-step correction.
    """
    return _frozen_correction(
        traj, model, prelim, fisher_method, stride, 1, "second-preliminary"
    )


# The interpolated sums take M of the Chebyshev points of
# ``preliminary._UNIT_NODES``, every (128 // (M - 1))-th, so each doubling
# of M evaluates only the new points.
_NODE_COUNTS = (17, 33, 65, 129)
# M is accepted once the last eighth of each Chebyshev series lies below this
# fraction of its largest coefficient
_TAIL_TOL = 1e-14
# an interpolated information this close to zero, relative to the node values
# at its k, is recomputed exactly
_NEAR_SINGULAR = 1e-8


def two_step_path(
    traj: Trajectory,
    model: ModelSpec,
    prelim: PreliminaryEstimate,
    fisher_method: str = "observed",
    stride: int | None = None,
) -> EstimatorPath:
    """Second preliminary pass followed by a re-centered score correction.

    At each emitted k the second preliminary value is projected into the
    domain if needed (logged), the information matrix is re-estimated at it
    on the window [1, k], and the correction is applied there:

        theta_k = theta2_k + (1/k) I(theta2_k)^{-1} sum_{j=1..k} loglik_grad

    For d = 1 the window sums at k < n are interpolated in theta
    (``_interpolated_sums``) over the path's own box: [min, max] of the
    projected second preliminary values at every k = N+1..n-1, read off the
    same cumulative score sum as the emitted values, so the box does not
    depend on the stride. The terminal k = n, d > 1, and paths whose
    interpolant is not resolved take exact sums, one k at a time
    (``_exact_sums``). The interpolation evaluates each of its M points
    (17, 33, 65 or 129) once, about (M + 1) n term evaluations however many
    ks are emitted, and holds a few sums per emitted k, not the points'
    sums; the exact sums cost the sum of the emitted ks: a gain when the ks
    are many (|ks| well above 2 (M + 1) for evenly spread ks), a loss for a
    coarse stride.
    For d = 1 the information at each k is inverted as 1/I, and
    ``_reciprocals`` flags the rows the guards would refuse; for d > 1 every
    row is flagged. One pass then walks the flagged rows in k order: an
    interpolated row is recomputed exactly and checked again, and a row
    still flagged goes to ``_checked`` and ``invert_fisher``, which invert it
    (a Cholesky solve) or refuse it after the projections up to it are
    logged. Which sums serve a k, and its value, depend only on k, n and the
    path, so a stride-s path equals the stride-1 path exactly.
    """
    n, N = traj.n, prelim.learning_length
    theta0, scores, inv = _frozen_start(traj, model, prelim, fisher_method)
    acc = np.cumsum(scores, axis=0)
    ks = _emitted_ks(N, n, stride)
    # checked as second_preliminary_path checks it
    second = EstimatorPath(
        ks, _frozen_values(theta0, inv, acc, ks, 1), "second-preliminary", N, prelim, n
    ).thetas
    if ks[0] < model.dim:
        raise ValueError("window is shorter than the parameter dimension")
    mids = model.domain.project(second)
    d = model.dim
    totals, infos = np.empty((ks.size, d)), np.empty((ks.size, d, d))
    near = np.zeros(ks.size, dtype=bool)
    # rows before `exact` take interpolated sums
    exact = 0
    if d == 1 and ks.size > 1:
        box = model.domain.project(_frozen_values(theta0, inv, acc, np.arange(N + 1, n), 1))
        interpolated = _interpolated_sums(traj, model, fisher_method, ks, mids, (box.min(), box.max()))
        if interpolated is not None:
            exact = ks.size - 1
            totals[:exact, 0], infos[:exact, 0, 0], near[:exact] = interpolated
    totals[exact:], infos[exact:] = _exact_sums(traj, model, fisher_method, ks[exact:], mids[exact:])
    if d == 1:
        inverses, flagged = _reciprocals(infos)
    else:
        inverses, flagged = np.empty_like(infos), np.ones(ks.size, dtype=bool)
    flagged |= near
    moved = np.any(mids != second, axis=1)
    # in k order, so the projections up to a refused k are logged before it
    for r in np.flatnonzero(flagged | moved).tolist():
        if moved[r]:
            logger.info(
                "second preliminary estimate at k=%s %s projected into the domain", ks[r], second[r]
            )
        if flagged[r] and r < exact:
            rows = slice(r, r + 1)
            totals[rows], infos[rows] = _exact_sums(traj, model, fisher_method, ks[rows], mids[rows])
            inverses[rows], flagged[rows] = _reciprocals(infos[rows])
        if flagged[r]:
            inverses[r] = invert_fisher(_checked(infos[r], fisher_method))
    thetas = mids + (inverses @ totals[:, :, np.newaxis])[:, :, 0] / ks[:, np.newaxis]
    return EstimatorPath(ks, thetas, "two-step", N, prelim, n)


def _exact_sums(
    traj: Trajectory, model: ModelSpec, fisher_method: str, ks: np.ndarray, mids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Score sums (K, d) and mean information (K, d, d) over transitions
    1..k at each k's own projected value, one k at a time. Each is a
    sequential prefix sum read at its end, so the bits do not depend on
    which other ks are computed."""
    obs = traj.observations
    totals, infos = np.empty((ks.size, model.dim)), np.empty((ks.size, model.dim, model.dim))
    for b, k in enumerate(ks.tolist()):
        scores, terms = information_terms(mids[b], obs[:k], obs[1 : k + 1], model, fisher_method)
        totals[b] = np.cumsum(scores, axis=0, out=scores)[-1]
        infos[b] = np.cumsum(terms, axis=0, out=terms)[-1] / k
    return totals, infos


def _interpolated_sums(
    traj: Trajectory,
    model: ModelSpec,
    fisher_method: str,
    ks: np.ndarray,
    mids: np.ndarray,
    box: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """For d = 1, the score sum and mean information at each k < n, read off
    the Chebyshev interpolants through the sums over transitions 1..k at M
    points spanning ``box`` = (lo, hi), which holds every projected value,
    at k's own projected value; and a flag where the information sum lies
    within _NEAR_SINGULAR of zero relative to the largest point value at
    its k.

    M doubles from 17 until the series through the sums at k = ks[0] = N+1
    and k = ks[-1] = n are resolved (``_resolved``). Each point is evaluated
    once, folded into the running sums of the second barycentric formula and
    dropped; an x on a point takes the point's value. The pass costs about
    M n term evaluations. None if the sums are not resolved by M = 129, if a
    sum is not finite (a prefix sum that is not finite leaves the sum at n
    not finite), or if the box is too narrow for 129 distinct points. A box
    of zero width is its one point, every x equals it, and that point's
    prefix sums are the exact window sums (unflagged), at n evaluations.
    """
    lo, hi = box
    n = int(ks[-1])
    xp, xn = traj.observations[:n], traj.observations[1 : n + 1]
    x = mids[:-1, 0]
    if lo == hi:
        totals, infos = _prefix_sums(lo, xp, xn, model, fisher_method, ks[:-1] - 1)
        return totals, infos / ks[:-1], np.zeros(x.size, dtype=bool)
    grid = _chebyshev_points(lo, hi)
    if np.any(np.diff(grid) <= 0.0):
        return None
    # barycentric numerators and denominators per class of grid index i:
    # 0 for i % 16 == 0, 1 for i % 16 == 8, 2 for i % 8 == 4, 3 for
    # i % 4 == 2, 4 for odd i
    num, den = np.zeros((5, 2, x.size)), np.zeros((5, x.size))
    on_node, node_values = np.zeros(x.size, dtype=bool), np.empty((2, x.size))
    scale = np.zeros(x.size)
    ends = {}
    for used, M in enumerate(_NODE_COUNTS, start=1):
        picked = range(0, grid.size, (grid.size - 1) // (M - 1))
        for i in picked:
            if i in ends:
                continue
            sums = _prefix_sums(grid[i], xp, xn, model, fisher_method, ks - 1)
            if not np.isfinite(sums[:, -1]).all():
                return None
            ends[i], sums = sums[:, [0, -1]], sums[:, :-1]
            diff = x - grid[i]
            hit = diff == 0.0
            if hit.any():
                on_node |= hit
                node_values[:, hit] = sums[:, hit]
                diff[hit] = 1.0
            c = (0.5 if i in (0, grid.size - 1) else 1.0) / diff
            cls = 4 if i % 2 else 3 if i % 4 else 2 if i % 8 else 1 if i % 16 else 0
            num[cls] += c * sums
            den[cls] += c
            np.maximum(scale, np.abs(sums[1]), out=scale)
        if _resolved(np.array([ends[i] for i in picked])):
            # M's weights (-1)^j, in its own numbering, are + on the classes
            # before `used` and - on class `used`
            totals, infos = (num[:used].sum(axis=0) - num[used]) / (den[:used].sum(axis=0) - den[used])
            totals[on_node], infos[on_node] = node_values[:, on_node]
            return totals, infos / ks[:-1], infos <= _NEAR_SINGULAR * scale
    return None


def _prefix_sums(node: float, x_prev, x_next, model: ModelSpec, fisher_method: str, at) -> np.ndarray:
    """Score and information sums over the transitions up to each index in
    ``at`` at one point, (2, at.size)."""
    scores, terms = information_terms(np.array([node]), x_prev, x_next, model, fisher_method)
    return np.stack([np.cumsum(row)[at] for row in (scores[:, 0], terms[:, 0, 0])])


def _resolved(values: np.ndarray) -> bool:
    """Whether the Chebyshev series through the values at the M points
    (axis 0) have decayed: in each, the last M // 8 coefficients lie below
    _TAIL_TOL of the largest."""
    m = values.shape[0] - 1
    j = np.arange(m + 1)
    basis = np.cos(np.pi * np.outer(j, j) / m)
    basis[:, [0, -1]] *= 0.5
    coefficients = np.abs(np.tensordot(basis, values, axes=1))
    coefficients[[0, -1]] *= 0.5
    tail = coefficients[-(values.shape[0] // 8) :].max(axis=0)
    return bool(np.all(tail <= _TAIL_TOL * coefficients.max(axis=0)))


def recurrent_path(
    traj: Trajectory,
    model: ModelSpec,
    prelim: PreliminaryEstimate,
    fisher_method: str = "observed",
) -> EstimatorPath:
    """Online recursion for the values of ``second_preliminary_path`` at every k.

    Each update uses only the previous value, the preliminary estimate, and
    the newest pair of observations:

        theta_{k+1} = (k theta_k + prelim + I^{-1} loglik_grad(prelim, X_k, X_{k+1})) / (k+1)

    seeded at k = N+1 with the score sum over transitions 1..N+1, so the
    values match the batch ones up to rounding.
    """
    n, N = traj.n, prelim.learning_length
    theta0, scores, inv = _frozen_start(traj, model, prelim, fisher_method)
    k0 = N + 1
    # the frozen start's score terms of transitions 1..k0 seed the recursion;
    # the rest enter it one per step as I^{-1} loglik_grad(prelim, X_k, X_{k+1}),
    # k = k0..n-1
    head = scores[:k0].sum(axis=0)
    corrections = scores[k0:] @ inv.T
    ks = np.arange(k0, n + 1, dtype=int)
    thetas = np.empty((ks.size, model.dim))
    thetas[0] = theta0 + inv @ head / k0
    # python floats, one component at a time: each step adds k*theta_k,
    # prelim and the correction in that order, as the vector form would
    for i in range(model.dim):
        current, prelim_i = float(thetas[0, i]), float(theta0[i])
        column = [current]
        for k, w in zip(range(k0, n), corrections[:, i].tolist()):
            current = (k * current + prelim_i + w) / (k + 1)
            column.append(current)
        thetas[:, i] = column
    return EstimatorPath(ks, thetas, "recurrent", N, prelim, n)


def full_mle_path(
    traj: Trajectory,
    model: ModelSpec,
    grid_points: int = 512,
    checkpoints=None,
) -> EstimatorPath:
    """Reference path: the grid MLE recomputed at each checkpoint.

    This is the expensive estimator the corrected paths are meant to avoid;
    it exists as a comparison oracle. The checkpoints (default: n alone) must
    be integers in [1, n].
    """
    n = traj.n
    checkpoints = [n] if checkpoints is None else list(checkpoints)
    for k in checkpoints:
        _require_numbers(checkpoint=k)
    ks = np.array(sorted(set(checkpoints)), dtype=int)
    if ks.size == 0 or ks[0] < 1 or ks[-1] > n:
        raise ValueError("checkpoints must lie in [1, n]")
    thetas = np.array([mle(traj, k, model, grid_points).theta for k in ks])
    return EstimatorPath(ks, thetas, "full-mle", 0, None, n)


# --- Pipelines -------------------------------------------------------------------

# Pipeline.run looks both tables up at call time, so a wrapped entry (a
# tracer, a test double) is the one that runs.
PRELIMINARY_KINDS = {"mle": mle, "bayes": bayes, "emm": emm}
PROCESS_KINDS = {
    "none": None,
    "one-step": one_step_path,
    "second-preliminary": second_preliminary_path,
    "two-step": two_step_path,
    "recurrent": recurrent_path,
    "full-mle": full_mle_path,
}
# the processes whose emitted ks a stride thins; the others refuse one
STRIDED_PROCESSES = ("one-step", "second-preliminary", "two-step")


@dataclass(frozen=True)
class Pipeline:
    """One estimator-process, as the CLI and the Monte Carlo harness run it.

    A preliminary estimate on the learning interval N = n**delta, then a
    process: ``none`` stops there, and ``full-mle`` skips the preliminary.
    ``stride`` thins the emitted indices of the processes in
    ``STRIDED_PROCESSES``; the others refuse one (``recurrent`` emits every
    index, ``full-mle`` only n). ``grid_points`` sizes the grids
    of ``mle``, ``bayes`` and ``full-mle``.
    """

    delta: float
    preliminary: str = "mle"
    process: str = "one-step"
    fisher_method: str = "observed"
    stride: int | None = None
    grid_points: int = 512

    def __post_init__(self):
        strides = {} if self.stride is None else {"stride": self.stride}
        _require_numbers(**strides, grid_points=self.grid_points)
        _require_numbers(real=True, delta=self.delta)
        # membership in a tuple, not a dict: an unhashable value read from a
        # config file is rejected here instead of raising TypeError
        if self.preliminary not in tuple(PRELIMINARY_KINDS):
            raise ValueError(f"preliminary must be one of {tuple(PRELIMINARY_KINDS)}")
        if self.process not in tuple(PROCESS_KINDS):
            raise ValueError(f"process must be one of {tuple(PROCESS_KINDS)}")
        if self.fisher_method not in FISHER_METHODS:
            raise ValueError(f"fisher_method must be one of {FISHER_METHODS}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.stride is not None and self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.stride is not None and self.process not in STRIDED_PROCESSES:
            raise ValueError(
                f"stride does not apply to process {self.process!r}; only {STRIDED_PROCESSES} take one"
            )
        if self.grid_points < 3:
            raise ValueError(f"grid_points must be >= 3, got {self.grid_points}")

    def run(
        self, traj: Trajectory, model: ModelSpec
    ) -> tuple[PreliminaryEstimate | None, EstimatorPath | None]:
        """(preliminary estimate or None, path or None) for one trajectory."""
        path_fn = PROCESS_KINDS[self.process]
        if self.process == "full-mle":
            return None, path_fn(traj, model, self.grid_points)
        N = learning_length(traj.n, self.delta)
        grid = {} if self.preliminary == "emm" else {"grid_points": self.grid_points}
        prelim = PRELIMINARY_KINDS[self.preliminary](traj, N, model, **grid)
        if path_fn is None:
            return prelim, None
        if self.process == "recurrent":
            return prelim, path_fn(traj, model, prelim, self.fisher_method)
        return prelim, path_fn(traj, model, prelim, self.fisher_method, self.stride)


# --- Serialization --------------------------------------------------------------


def write_path_csv(path_obj: EstimatorPath, file_path, config: dict | None = None) -> None:
    """Write `k,s,theta_1..theta_d,kind` rows with a leading # config line."""
    d = path_obj.thetas.shape[1]
    header = "k,s," + ",".join(f"theta_{i + 1}" for i in range(d)) + ",kind"
    row_format = "%d," + "%.17g," * (d + 1) + path_obj.kind.replace("%", "%%") + "\n"
    rows = zip(path_obj.ks.tolist(), path_obj.s_values().tolist(), *path_obj.thetas.T.tolist())
    config = config if config is not None else path_to_json_dict(path_obj)
    _write_csv(file_path, config, header, row_format, rows)


def path_to_json_dict(path_obj: EstimatorPath) -> dict:
    """The path's kind, N, n and preliminary estimate."""
    return {
        "kind": path_obj.kind,
        "N": int(path_obj.N),
        "n": int(path_obj.n),
        "preliminary": path_obj.preliminary.to_json_dict() if path_obj.preliminary else None,
    }
