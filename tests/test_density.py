import json
import math

import numpy as np
import pytest
from scipy.stats import norm

import mlestep as ms
from mlestep.density import DensityEstimate, kde, write_density_csv

from helpers import make_traj


class TestKde:
    def test_single_observation_kernel_peak(self):
        traj = make_traj([5.0, 0.0])
        est = kde(traj, grid=np.array([0.0]), bandwidth=1.0)
        assert est.values[0] == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-9)
        assert est.n_used == 1

    def test_default_bandwidth_rule(self, big_traj_linear):
        est = kde(big_traj_linear)
        assert est.bandwidth == pytest.approx(100_000 ** (-0.2))
        assert est.bandwidth == pytest.approx(0.1)

    def test_matches_exact_stationary_density(self, big_traj_linear):
        grid = np.linspace(-4.0, 4.0, 801)
        est = kde(big_traj_linear, grid=grid)
        exact = norm.pdf(grid, scale=np.sqrt(1.0 / 0.75))
        assert np.abs(est.values - exact).max() <= 0.02

    def test_mass_close_to_one(self, big_traj_linear, big_traj_example2):
        for traj in (big_traj_linear, big_traj_example2):
            est = kde(traj)
            assert est.mass() == pytest.approx(1.0, abs=0.02)

    def test_example2_density_symmetric_about_theta(self, big_traj_example2):
        h = kde(big_traj_example2).bandwidth
        offsets = np.linspace(0.0, 3.0, 151)
        right = kde(big_traj_example2, grid=0.5 + offsets, bandwidth=h)
        left = kde(big_traj_example2, grid=np.sort(0.5 - offsets), bandwidth=h)
        gap = np.abs(right.values - left.values[::-1]).max()
        assert gap <= 0.05 * right.values.max()

    def test_rejects_bad_bandwidth(self, big_traj_linear):
        with pytest.raises(ValueError, match="bandwidth"):
            kde(big_traj_linear, bandwidth=0.0)

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, np.nan, np.inf, -np.inf, True, "0.3"])
    def test_rejects_non_positive_or_non_finite_bandwidth(self, big_traj_linear,
                                                          bandwidth):
        with pytest.raises(ValueError, match="bandwidth"):
            kde(big_traj_linear, bandwidth=bandwidth)
        with pytest.raises(ValueError, match="bandwidth"):
            DensityEstimate(np.array([0.0]), np.array([1.0]), bandwidth, 1)

    def test_bandwidth_override(self, big_traj_linear):
        est = kde(big_traj_linear, bandwidth=0.25)
        assert est.bandwidth == 0.25

    def test_default_grid_spans_sample(self, linear):
        traj = ms.simulate(linear, 0.5, 2000, seed=5)
        est = kde(traj)
        xs = traj.observations[1:]
        assert est.grid.size == 512
        assert est.grid[0] <= xs.min() - 3.9 * est.bandwidth
        assert est.grid[-1] >= xs.max() + 3.9 * est.bandwidth

    @pytest.mark.parametrize("n,grid", [(5037, None), (100, None), (100, [0.25]), (5037, [0.25])])
    def test_matches_unchunked_direct_sum(self, linear, n, grid):
        # n off the 2048-row chunks, n below one chunk, and a one-point grid
        traj = ms.simulate(linear, 0.5, n, seed=n)
        est = kde(traj, grid=grid)
        xs, h = traj.observations[1:], est.bandwidth
        direct = np.exp(-0.5 * ((xs[:, None] - est.grid) / h) ** 2).sum(0)
        np.testing.assert_allclose(est.values, direct / (n * h * np.sqrt(2.0 * np.pi)), rtol=1e-13)

    @pytest.mark.parametrize("model_name,theta", [("example2", 0.5), ("example1", 2.5),
                                                  ("linear", 0.5)])
    @pytest.mark.parametrize("n", [1, 2047, 2049, 5037])
    def test_bit_identical_to_the_sum_over_every_term(self, model_name, theta, n):
        # bandwidths where most terms underflow to 0 and where none do; the
        # default grid, one reaching past the sample (tiles with no observation
        # in reach) and a 33-point grid (two tiles of 17 and 16 points).
        # Bit-identical wherever the sum over every term is at least
        # 2**53 * phi(12) / h, and within phi(12) / h + 4 ulp everywhere.
        # A one-point grid's column is summed pairwise, not in that order: its
        # value is only held within phi(12) / h + 4 ulp of the correctly
        # rounded sum over every term (the order above can be 20 ulp off it).
        traj = ms.simulate(ms.get_model(model_name), theta, n, seed=n)
        xs = traj.observations[1:]
        far = np.linspace(xs.min() - 60.0, xs.max() + 60.0, 301)
        for bandwidth in (1e-3, 0.05, 3.0):
            bound = _PHI_12 / bandwidth
            for grid in (None, far, np.linspace(-2.0, 3.0, 33)):
                est = kde(traj, grid=grid, bandwidth=bandwidth)
                every = _every_term_sum(xs, est.grid, bandwidth)
                large = every >= 2.0**53 * bound
                assert np.array_equal(est.values[large], every[large])
                assert np.all(np.abs(est.values - every) <= bound + 4.0 * np.spacing(every))
            for point in (0.25, float(np.median(xs))):
                est = kde(traj, grid=[point], bandwidth=bandwidth)
                z = (xs - point) / bandwidth
                exact = math.fsum(np.exp(-0.5 * z * z).tolist())
                exact /= n * bandwidth * np.sqrt(2.0 * np.pi)
                assert abs(est.values[0] - exact) <= bound + 4.0 * np.spacing(exact)

    def test_error_within_the_bound_where_every_term_is_left_out(self):
        # observations 1/0.03 = 33 bandwidths apart; the two-point tile lies
        # 12.5 bandwidths from one and 16.7 from the other, so it sums no term
        h = 0.03
        traj = make_traj([0.0, 0.0, 1.0])
        grid = np.array([12.5 * h, 0.5])
        est = kde(traj, grid=grid, bandwidth=h)
        every = _every_term_sum(traj.observations[1:], grid, h)
        assert np.array_equal(est.values, [0.0, 0.0])
        assert np.all(every > 0.0)
        assert np.all(every <= _PHI_12 / h)

    def test_tiny_bandwidth_overflows_to_zero_terms_silently(self, linear):
        # z * z overflows for every observation but those on a grid point:
        # each such term is exactly 0, and the suite fails on a warning
        traj = ms.simulate(linear, 0.5, 50, seed=2)
        h = 1e-200
        est = kde(traj, bandwidth=h)
        assert np.all(np.isfinite(est.values)) and np.any(est.values > 0.0)
        with np.errstate(over="ignore"):
            every = _every_term_sum(traj.observations[1:], est.grid, h)
        assert np.array_equal(est.values, every)

    def test_bandwidth_at_which_a_value_overflows_is_refused_by_name(self, example2):
        # 1 / (n h sqrt(2 pi)) overflows at a grid point on an observation;
        # 1e-310 does not on this chain (largest value 7.98e307)
        traj = ms.simulate(example2, 0.5, 50, seed=50)
        with pytest.raises(ValueError, match=r"^bandwidth 1e-320 is too small for n=50: a density value overflows$"):
            kde(traj, bandwidth=1e-320)
        est = kde(traj, bandwidth=1e-310)
        assert np.isfinite(est.values).all() and est.values.max() > 7.9e307

    @pytest.mark.parametrize("grid", [[0.0, np.nan], [-np.inf, 0.0], [0.0, np.inf], 0.5, [],
                                      [[0.0, 1.0]], [1.0, 0.0], [0.0, 0.0, 1.0], ["a", "b"]])
    def test_rejects_bad_grid_before_the_sum(self, monkeypatch, linear, grid):
        traj = ms.simulate(linear, 0.5, 300, seed=3)

        def no_kernel_terms(*args, **kwargs):
            raise AssertionError("a kernel term was evaluated")

        monkeypatch.setattr(np, "exp", no_kernel_terms)
        with pytest.raises(ValueError, match="grid must be"):
            kde(traj, grid=grid)


# the scaled kernel at 12 bandwidths: a bound on a value's truncation error, times h
_PHI_12 = np.exp(-72.0) / np.sqrt(2.0 * np.pi)


def _every_term_sum(xs, grid, h):
    """The kernel sum over every term, added in kde's order: per 2048-row
    chunk from 0.0 one observation at a time, then the chunk into the total."""
    acc = np.zeros(grid.size)
    for start in range(0, xs.size, 2048):
        chunk = np.zeros(grid.size)
        for x in xs[start : start + 2048]:
            z = (x - grid) / h
            chunk += np.exp(-0.5 * z * z)
        acc += chunk
    return acc / (xs.size * h * np.sqrt(2.0 * np.pi))


class TestDensityEstimateType:
    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            DensityEstimate(np.array([0.0, 1.0]), np.array([0.1, -0.1]), 0.5, 10)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            DensityEstimate(np.array([1.0, 0.0]), np.array([0.1, 0.1]), 0.5, 10)

    @pytest.mark.parametrize("grid,values,field", [
        ([0.0, np.nan], [0.1, 0.1], "grid"), ([0.0, np.inf], [0.1, 0.1], "grid"),
        ([0.0, 1.0], [np.nan, 0.1], "values"), ([0.0, 1.0], [0.1, np.inf], "values"),
    ])
    def test_rejects_non_finite_grid_or_values(self, grid, values, field):
        with pytest.raises(ValueError, match=field):
            DensityEstimate(np.array(grid), np.array(values), 0.5, 10)

    def test_rejects_misaligned_shapes(self):
        with pytest.raises(ValueError):
            DensityEstimate(np.array([0.0, 1.0]), np.array([0.1]), 0.5, 10)


class TestCsv:
    def test_rows_and_header(self, tmp_path, linear):
        traj = ms.simulate(linear, 0.5, 500, seed=2)
        est = kde(traj)
        out = tmp_path / "density.csv"
        write_density_csv(est, out, config={"model": "linear"})
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "x,density"
        assert len(lines) == 2 + est.grid.size

    def test_bytes_match_reference_formatter(self, tmp_path, linear):
        est = kde(ms.simulate(linear, 0.5, 700, seed=4))
        est = DensityEstimate(est.grid, np.concatenate([[0.0, 5e-324, 1e-300], est.values[3:]]),
                              est.bandwidth, est.n_used)
        config = {"model": "linear", "note": "100%"}
        out = tmp_path / "density.csv"
        write_density_csv(est, out, config=config)
        meta = dict(config, bandwidth=est.bandwidth, n_used=est.n_used)
        expected = "# " + json.dumps(meta) + "\nx,density\n"
        expected += "".join(f"{x:.17g},{v:.17g}\n" for x, v in zip(est.grid, est.values))
        assert out.read_bytes() == expected.encode()
        rows = np.array([[float(c) for c in line.split(",")]
                         for line in out.read_text().splitlines()[2:]])
        assert np.array_equal(rows[:, 0], est.grid)
        assert np.array_equal(rows[:, 1], est.values)
