"""Gaussian kernel estimation of the invariant density."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .models import _brief, _finite_reals, _require_numbers
from .simulate import Trajectory

__all__ = ["DensityEstimate", "kde", "write_density_csv"]

_DEFAULT_GRID_POINTS = 512
# a chunk's kernel terms for one tile are a (_CHUNK, _TILE) block of 512 kB
_CHUNK = 2048
_TILE = 32
# a term left out has |z| > 12, so exp(-z*z/2) < exp(-72); the n or fewer left
# out of a grid value move it by less than phi(12) / h = exp(-72) / (h sqrt(2 pi))
# ~ 2.1e-32 / h, and a value of at least 2**53 * phi(12) / h does not move
_REACH = 12.0
_GRID_RULE = "a non-empty, 1-D, finite, strictly ascending vector"


def _check_bandwidth(h) -> None:
    _require_numbers(real=True, bandwidth=h)
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"bandwidth must be finite and positive, got {h}")


def _checked_grid(grid) -> np.ndarray:
    """grid as a float vector; ValueError naming it unless it is _GRID_RULE."""
    array = _finite_reals(grid, "grid", _GRID_RULE)
    if array.ndim != 1 or array.size == 0 or np.any(np.diff(array) <= 0):
        raise ValueError(f"grid must be {_GRID_RULE}, got {_brief.repr(grid)}")
    return array


@dataclass(frozen=True)
class DensityEstimate:
    """Kernel density values on an evaluation grid."""

    grid: np.ndarray
    values: np.ndarray
    bandwidth: float
    n_used: int

    def __post_init__(self):
        grid = _checked_grid(self.grid)
        values = _finite_reals(self.values, "values", "finite and nonnegative")
        if grid.shape != values.shape:
            raise ValueError("grid and values must be aligned vectors")
        _check_bandwidth(self.bandwidth)
        if np.any(values < 0):
            raise ValueError("density values must be nonnegative")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def mass(self) -> float:
        """Trapezoid integral of the estimate over the grid."""
        return float(np.trapezoid(self.values, self.grid))


def kde(traj: Trajectory, grid=None, bandwidth: float | None = None) -> DensityEstimate:
    """Gaussian kernel estimate of the invariant density from X_1..X_n.

    The bandwidth defaults to n**(-1/5); the grid defaults to 512 points
    spanning the sample range widened by four bandwidths. Each grid point sums
    the Gaussian terms of the observations within 12 bandwidths of its tile
    of up to 32 grid points, in chunks to bound memory. Each term left out is
    below exp(-72), so a value differs from the direct O(n * grid) sum by at
    most phi(12) / h = exp(-72) / (h * sqrt(2 pi)) ~ 2.1e-32 / h plus last-bit
    rounding; on a grid of two or more points, a value of at least
    2**53 * phi(12) / h is that of the direct sum bit for bit.
    """
    xs = traj.observations[1:]
    n = xs.size
    if n < 1:
        raise ValueError("kernel density estimation needs at least one observation")
    if bandwidth is None:
        bandwidth = float(n) ** (-0.2)
    _check_bandwidth(bandwidth)
    h = float(bandwidth)
    if grid is None:
        grid = np.linspace(xs.min() - 4.0 * h, xs.max() + 4.0 * h, _DEFAULT_GRID_POINTS)
    grid = _checked_grid(grid)
    acc = np.zeros(grid.size)
    # a tile adds the terms of each chunk of _CHUNK observations to ``acc`` as
    # one block, the picked rows in their original order. numpy reduces two or
    # more columns along axis 0 row by row, so a chunk sum adds the kept terms
    # in the order of the sum over all its terms; that sum adds the left-out
    # terms in between, each below exp(-72), and they change no partial sum
    # whose half ulp exceeds their total.
    # Balanced tiles are one column wide only for a one-point grid, whose
    # column numpy sums pairwise, so its value can move in the last bit.
    chunk_starts = np.arange(_CHUNK, n, _CHUNK)
    tiles = -(-grid.size // _TILE)
    for g, out in zip(np.array_split(grid, tiles), np.array_split(acc, tiles)):
        # z is computed below as here, and rounding is monotone, so an
        # observation left out has |z| > _REACH at every point of the tile
        picked = np.flatnonzero(((xs - g[0]) / h >= -_REACH) & ((xs - g[-1]) / h <= _REACH))
        for chunk in np.split(xs[picked], np.searchsorted(picked, chunk_starts)):
            z = (chunk[:, np.newaxis] - g) / h
            terms = -0.5 * z * z
            out += np.exp(terms, out=terms).sum(axis=0)
    values = acc / (n * h * np.sqrt(2.0 * np.pi))
    return DensityEstimate(grid=grid, values=values, bandwidth=h, n_used=n)


def write_density_csv(est: DensityEstimate, path, config: dict | None = None) -> None:
    """Write `x,density` rows with a leading # config line."""
    meta = dict(config or {}, bandwidth=est.bandwidth, n_used=est.n_used)
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(meta) + "\n")
        fh.write("x,density\n")
        fh.writelines("%.17g,%.17g\n" % row for row in zip(est.grid.tolist(), est.values.tolist()))
