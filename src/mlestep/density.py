"""Gaussian kernel estimation of the invariant density."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .simulate import Trajectory

__all__ = ["DensityEstimate", "kde", "write_density_csv"]

_DEFAULT_GRID_POINTS = 512
_CHUNK = 2048
_BLOCK = 128


def _check_bandwidth(h: float) -> None:
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"bandwidth must be finite and positive, got {h}")


@dataclass(frozen=True)
class DensityEstimate:
    """Kernel density values on an evaluation grid."""

    grid: np.ndarray
    values: np.ndarray
    bandwidth: float
    n_used: int

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size == 0 or grid.shape != values.shape:
            raise ValueError("grid and values must be aligned non-empty vectors")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly ascending")
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
    spanning the sample range widened by four bandwidths. Evaluation is the
    direct O(n * grid) sum, chunked to bound memory.
    """
    xs = traj.observations[1:]
    n = xs.size
    if n < 1:
        raise ValueError("kernel density estimation needs at least one observation")
    h = float(bandwidth) if bandwidth is not None else float(n) ** (-0.2)
    _check_bandwidth(h)
    if grid is None:
        grid = np.linspace(xs.min() - 4.0 * h, xs.max() + 4.0 * h, _DEFAULT_GRID_POINTS)
    else:
        grid = np.asarray(grid, dtype=float)
    size = np.atleast_1d(grid).size
    acc = np.zeros(size)
    # a chunk is evaluated _BLOCK rows at a time into buffers that stay in
    # cache; row 0 of ``block`` carries the chunk's running column sum, so the
    # rows are added in the same order as one sum over the whole chunk
    z = np.empty((_BLOCK, size))
    block = np.empty((_BLOCK + 1, size))
    running = np.empty(size)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        block[0] = 0.0
        for lo in range(start, stop, _BLOCK):
            hi = min(lo + _BLOCK, stop)
            m = hi - lo
            zb, rows = z[:m], block[1 : m + 1]
            np.subtract(xs[lo:hi, np.newaxis], grid, out=zb)
            zb /= h
            np.multiply(-0.5, zb, out=rows)
            rows *= zb
            np.exp(rows, out=rows)
            block[: m + 1].sum(axis=0, out=running)
            block[0] = running
        acc += block[0]
    values = acc / (n * h * np.sqrt(2.0 * np.pi))
    return DensityEstimate(grid=grid, values=values, bandwidth=h, n_used=n)


def write_density_csv(est: DensityEstimate, path, config: dict | None = None) -> None:
    """Write `x,density` rows with a leading # config line."""
    meta = dict(config or {}, bandwidth=est.bandwidth, n_used=est.n_used)
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(meta) + "\n")
        fh.write("x,density\n")
        fh.writelines("%.17g,%.17g\n" % row for row in zip(est.grid.tolist(), est.values.tolist()))
