import math
import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mlestep as ms
from mlestep import preliminary
from mlestep.errors import EstimationError
from mlestep.preliminary import bayes, emm, learning_length, mle

from helpers import barycentric_reference, box_model, make_traj, noiseless_linear_traj, pair_model, zero_model


def half_defined_model(linear):
    """The linear model with a drift that is NaN for theta < 0."""

    def S(theta, x):
        return np.where(theta[0] < 0.0, np.nan, theta[0] * np.asarray(x, dtype=float))

    return ms.ModelSpec(
        drift=ms.Drift(S, linear.drift.dS, linear.drift.d2S),
        noise=linear.noise,
        domain=linear.domain,
        name="half-defined",
    )


def _spiked_gauss_logpdf(u):
    return np.where(u == 0.0, np.inf, -0.5 * np.log(2.0 * np.pi) - 0.5 * u * u)


def spiked_model(linear):
    """The linear drift with a Gaussian noise law whose log-density is +inf
    at u = 0: a residual of exactly zero gives an infinite likelihood."""
    noise = ms.NoiseDensity(
        g=lambda u: np.exp(_spiked_gauss_logpdf(u)),
        log_g=_spiked_gauss_logpdf,
        psi=linear.noise.psi,
        dpsi=linear.noise.dpsi,
        sampler=linear.noise.sampler,
        support=linear.noise.support,
    )
    return ms.ModelSpec(drift=linear.drift, noise=noise, domain=linear.domain, name="spiked")


def spiked_traj(model, grid_points, index):
    """A linear chain whose first transition 1 -> grid[index] has residual
    zero exactly at theta = grid[index], so only that grid value is +inf."""
    theta = float(preliminary._grid(model, grid_points)[index])
    obs = ms.simulate(ms.linear_model(), 0.5, 200, seed=3).observations.copy()
    obs[:2] = 1.0, theta
    return make_traj(obs, 0.5, "linear"), theta


@lru_cache(maxsize=None)
def _long_traj(name):
    theta0 = {"example1": 2.5, "example2": 0.5, "linear": 0.5}[name]
    return ms.simulate(ms.get_model(name), theta0, 40_000, seed=17)


class TestLearningLength:
    @pytest.mark.parametrize(
        "n,delta,expected",
        [(10_000, 3 / 8, 32), (1000, 3 / 8, 13), (1000, 3 / 4, 178)],
    )
    def test_reported_values(self, n, delta, expected):
        assert learning_length(n, delta) == expected

    def test_clamped_to_two(self):
        assert learning_length(4, 0.1) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            learning_length(100, 0.0)
        with pytest.raises(ValueError):
            learning_length(100, 1.0)
        with pytest.raises(ValueError):
            learning_length(1, 0.5)

    def test_float32_delta_computed_in_float64(self):
        # in float32, 38103 ** 0.6 lands past the half-way point and rounds to 561
        delta = np.float32(0.6)
        assert learning_length(38103, delta) == learning_length(38103, float(delta)) == 560

    def test_monotone_in_n(self):
        values = [learning_length(n, 0.5) for n in range(10, 2000, 37)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestLearningInterval:
    """mle, bayes and emm share one rule: N is an integer in [1, n]. The grid
    estimators, and full_mle_path through mle, take an integer grid_points."""

    @pytest.mark.parametrize("estimator", [mle, bayes, emm])
    @pytest.mark.parametrize("N", [-5, 0, 1.5, True, "3", 41], ids=["-5", "0", "1.5", "True", "str", "n+1"])
    def test_refused_naming_N(self, linear, estimator, N):
        traj = ms.simulate(linear, 0.5, 40, seed=3)
        with pytest.raises(ValueError, match="N must"):
            estimator(traj, N, linear)

    @pytest.mark.parametrize("estimator", [
        lambda traj, model, g: mle(traj, 20, model, grid_points=g),
        lambda traj, model, g: bayes(traj, 20, model, grid_points=g),
        lambda traj, model, g: ms.full_mle_path(traj, model, grid_points=g),
    ], ids=["mle", "bayes", "full_mle_path"])
    @pytest.mark.parametrize("grid_points", [5.5, np.float64(512.0), "512", None])
    def test_refused_naming_grid_points(self, linear, estimator, grid_points):
        traj = ms.simulate(linear, 0.5, 40, seed=3)
        with pytest.raises(ValueError, match="grid_points must be an integer"):
            estimator(traj, linear, grid_points)

    def test_fewer_than_three_grid_points_refused(self, linear):
        traj = ms.simulate(linear, 0.5, 40, seed=3)
        with pytest.raises(ValueError, match="grid_points must be >= 3"):
            mle(traj, 20, linear, grid_points=2)

    @pytest.mark.parametrize("estimator", [mle, bayes, emm])
    def test_accepts_numpy_integers(self, linear, estimator):
        traj = ms.simulate(linear, 0.5, 40, seed=3)
        got, want = estimator(traj, np.int64(40), linear), estimator(traj, 40, linear)
        np.testing.assert_array_equal(got.theta, want.theta)
        assert got.diagnostics == want.diagnostics


class TestGridMle:
    def test_noiseless_exact_recovery(self, linear):
        traj = noiseless_linear_traj(theta0=0.5, n=120)
        est = mle(traj, 120, linear)
        assert est.theta[0] == pytest.approx(0.5, abs=1e-6)
        assert est.kind == "mle"
        assert est.learning_length == 120

    def test_coverage_linear(self, linear):
        # asymptotic normality: errors inside 4 /sqrt(N I) nearly always
        N = 10_000
        bound = 4.0 / np.sqrt(N * (4.0 / 3.0))
        paths = ms.simulate_paths(linear, 0.5, N, seeds=range(200))
        hits = 0
        for row in paths:
            traj = make_traj(row, 0.5, "linear")
            hits += abs(mle(traj, N, linear).theta[0] - 0.5) < bound
        assert hits >= 190

    def test_flat_likelihood_tie_break(self):
        model = zero_model()
        traj = ms.simulate(model, 0.0, 200, seed=4)
        est = mle(traj, 200, model)
        assert est.diagnostics["flat_likelihood"] is True
        # tie resolves to the lowest grid point, projected into the box
        assert est.theta[0] == pytest.approx(model.domain.lower[0], abs=1e-5)
        # unrefined: the bits and loglik this branch has always returned
        assert est.theta[0].hex() == "-0x1.ffffbce4217d3p-1"
        assert est.diagnostics["loglik"] == -301.32888221045823

    def test_all_minus_inf_errors(self):
        model = box_model()
        traj = make_traj([0.0, 10.0, -10.0, 10.0], 0.0, "box")
        with pytest.raises(EstimationError, match="-inf"):
            mle(traj, 3, model)

    def test_nan_on_grid_errors(self, linear):
        # the drift is undefined (NaN) for theta < 0, which argmax would pick
        model = half_defined_model(linear)
        traj = ms.simulate(linear, 0.5, 200, seed=3)
        first = float(model.domain.project(model.domain.lower)[0])
        with pytest.raises(EstimationError, match=re.escape(f"NaN at theta={first} ")):
            mle(traj, 200, model)
        # the same grid without NaN still estimates
        assert mle(traj, 200, linear).theta[0] == pytest.approx(0.5, abs=0.3)

    def test_plus_inf_on_grid_errors(self, linear):
        # not a flat likelihood (top - min = inf) returning the lower edge
        model = spiked_model(linear)
        traj, theta = spiked_traj(model, 512, 300)
        with pytest.raises(EstimationError, match=re.escape(f"+inf at theta={theta} ")):
            mle(traj, 200, model)

    def test_matches_dense_grid_argmax(self, linear):
        # oracle: brute-force argmax on a 1e5-point grid
        N = 200
        lo = linear.domain.lower[0] + 1e-6 * 1.8
        hi = linear.domain.upper[0] - 1e-6 * 1.8
        dense = np.linspace(lo, hi, 100_000)
        cell = dense[1] - dense[0]
        paths = ms.simulate_paths(linear, 0.3, N, seeds=range(50))
        for row in paths:
            traj = make_traj(row, 0.3, "linear")
            xp, xn = row[:N], row[1 : N + 1]
            # quadratic loglik in theta: vectorized exact surface
            a = np.sum(xp**2)
            b = np.sum(xn * xp)
            values = -0.5 * (a * dense**2 - 2 * b * dense)
            oracle = dense[int(np.argmax(values))]
            est = mle(traj, N, linear)
            assert abs(est.theta[0] - oracle) <= 2 * cell

    def test_requires_scalar_parameter(self):
        model = pair_model()
        traj = make_traj([0.0, 0.1, 0.2], [0.0, 0.0], "pair")
        with pytest.raises(EstimationError, match="scalar"):
            mle(traj, 2, model)

    def test_learning_window_must_fit(self, linear):
        traj = make_traj([0.0, 0.1, 0.2], 0.5, "linear")
        with pytest.raises(ValueError):
            mle(traj, 3, linear)


class TestBayes:
    def test_matches_mle_for_symmetric_likelihood(self, linear):
        traj = ms.simulate(linear, 0.5, 5000, seed=8)
        cell = 1.8 / 511
        est_b = bayes(traj, 5000, linear)
        est_m = mle(traj, 5000, linear)
        assert abs(est_b.theta[0] - est_m.theta[0]) <= cell
        assert est_b.kind == "bayes"

    def test_coverage_linear(self, linear):
        N = 10_000
        bound = 4.0 / np.sqrt(N * (4.0 / 3.0))
        paths = ms.simulate_paths(linear, 0.5, N, seeds=range(200))
        hits = 0
        for row in paths:
            traj = make_traj(row, 0.5, "linear")
            hits += abs(bayes(traj, N, linear).theta[0] - 0.5) < bound
        assert hits >= 190

    def test_spike_prior_dominates_small_samples(self):
        model = ms.linear_model((-0.95, 0.95))
        traj = ms.simulate(model, 0.0, 2000, seed=3)

        def spike(t):
            return np.exp(-0.5 * ((t - 0.9) / 0.01) ** 2)

        est = bayes(traj, 5, model, prior=spike)
        flat = bayes(traj, 5, model)
        assert est.theta[0] > 0.8
        assert est.theta[0] > flat.theta[0]

    def test_negative_prior_rejected(self, linear):
        traj = ms.simulate(linear, 0.5, 100, seed=1)
        with pytest.raises(ValueError, match="nonnegative"):
            bayes(traj, 50, linear, prior=lambda t: -1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_prior_rejected(self, linear, value):
        traj = ms.simulate(linear, 0.5, 100, seed=1)
        with pytest.raises(ValueError, match="finite"):
            bayes(traj, 50, linear, prior=lambda t: value if t > 0.3 else 1.0)

    def test_raising_prior_is_refused_by_name(self, linear):
        traj = ms.simulate(linear, 0.5, 100, seed=1)
        with pytest.raises(EstimationError, match="prior is undefined on the grid: division by zero"):
            bayes(traj, 50, linear, prior=lambda t: 1 / 0)

    def test_nan_on_grid_errors(self, linear):
        # the same refusal as mle's, not "all posterior weights underflowed"
        model = half_defined_model(linear)
        traj = ms.simulate(linear, 0.5, 200, seed=3)
        first = float(model.domain.project(model.domain.lower)[0])
        with pytest.raises(EstimationError, match=re.escape(f"NaN at theta={first} ")):
            bayes(traj, 200, model)

    def test_plus_inf_on_grid_errors(self, linear):
        # not "all posterior weights underflowed"; bayes's grid has 513 points
        model = spiked_model(linear)
        traj, theta = spiked_traj(model, 513, 300)
        with pytest.raises(EstimationError, match=re.escape(f"+inf at theta={theta} ")):
            bayes(traj, 200, model)

    def test_underflow_everywhere_errors(self):
        model = box_model()
        traj = make_traj([0.0, 10.0, -10.0, 10.0], 0.0, "box")
        with pytest.raises(EstimationError, match="underflow"):
            bayes(traj, 3, model)


class TestGridBlocks:
    """The grid in theta blocks gives the bits of one theta per call."""

    @given(
        name=st.sampled_from(["example1", "example2", "linear"]),
        N=st.one_of(st.integers(2, 3000), st.integers(32_769, 40_000)),
        grid_points=st.integers(3, 600),
    )
    @example(name="example2", N=17, grid_points=512)  # the whole grid in one block
    @example(name="example1", N=3000, grid_points=512)  # B = 10, the last block holds 2
    @example(name="linear", N=32_769, grid_points=512)  # B = 1
    @settings(max_examples=12)
    def test_blocks_equal_one_theta_per_call(self, name, N, grid_points):
        model, traj = ms.get_model(name), _long_traj(name)
        assert model._builtin
        grid = preliminary._grid(model, grid_points)
        blocked = preliminary._grid_loglik(grid, traj, N, model)
        single = np.array(
            [preliminary._learning_loglik(np.array([t]), traj, N, model) for t in grid]
        )
        # mle's size rule reads _GRID_TERMS: here it certifies the argmax
        # (_certified_argmax) when N * grid_points >= 4 * 32768,
        # grid_points > 132 and N >= 128, and scans the whole grid otherwise ...
        results = [mle(traj, N, model, grid_points), bayes(traj, N, model, None, grid_points)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(preliminary, "_GRID_TERMS", 1)  # B = 1: a plain theta vector per call
            # ... and below it certifies whenever grid_points > 132 and N >= 128
            loop = [
                preliminary._grid_loglik(grid, traj, N, model),
                mle(traj, N, model, grid_points),
                bayes(traj, N, model, None, grid_points),
            ]
        np.testing.assert_array_equal(single, loop[0])
        np.testing.assert_array_equal(blocked, loop[0])
        for got, want in zip(results, loop[1:]):
            np.testing.assert_array_equal(got.theta, want.theta)
            assert got.diagnostics == want.diagnostics

    @pytest.mark.parametrize(
        "S",
        [lambda theta, x: float(theta[0]) * np.asarray(x), lambda theta, x: np.sum(theta) * x],
        ids=["float-theta", "sum-theta"],
    )
    def test_non_broadcasting_drift_runs_per_theta(self, linear, S):
        model = ms.ModelSpec(
            drift=ms.Drift(S, linear.drift.dS, linear.drift.d2S),
            noise=linear.noise,
            domain=linear.domain,
            name="scalar-theta",
        )
        assert not model._builtin and linear._builtin
        traj = ms.simulate(linear, 0.5, 300, seed=5)
        # the same drift values as linear's, so the same bits either way
        for estimator in (mle, bayes):
            got, want = estimator(traj, 40, model), estimator(traj, 40, linear)
            np.testing.assert_array_equal(got.theta, want.theta)
            assert got.diagnostics == want.diagnostics


def _forced(certify: bool, *calls):
    """Each call's result with mle's size rule forced to ``certify``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(preliminary, "_certifies", lambda model, N, grid_points: certify)
        return [call() for call in calls]


def _assert_same_mle(got, want):
    assert got.theta.tobytes() == want.theta.tobytes()
    assert got.diagnostics == want.diagnostics


class TestCertifiedArgmax:
    """mle's certified argmax gives the estimate of the full grid scan."""

    def test_size_rule(self, example2, linear):
        assert preliminary._certifies(example2, 10_000, 512)
        assert preliminary._certifies(linear, 256, 512)
        assert not preliminary._certifies(linear, 255, 512)  # N * 512 < 4 * 32768
        assert not preliminary._certifies(example2, 17, 512)  # the twostep_paths N
        assert not preliminary._certifies(example2, 10_000, 132)
        # on 4096 points 4 blocks take only N = 32; the rule asks N >= 128 too
        assert preliminary._certifies(example2, 128, 4096)
        assert not preliminary._certifies(example2, 127, 4096)
        assert not preliminary._certifies(linear, 32, 4096)
        assert not preliminary._certifies(half_defined_model(linear), 10_000, 512)

    @pytest.mark.parametrize("name", ["example1", "example2", "linear"])
    def test_certifies_built_ins(self, name):
        # the path is taken, not only its fallback
        model, traj = ms.get_model(name), _long_traj(name)
        grid = preliminary._grid(model, 512)
        best, top = preliminary._certified_argmax(grid, traj, 10_000, model)
        values = preliminary._grid_loglik(grid, traj, 10_000, model)
        assert best == int(np.argmax(values)) and top == values[best]

    @given(
        name=st.sampled_from(["example1", "example2", "linear"]),
        N=st.sampled_from([17, 100, 1000, 10_000]),
        grid_points=st.sampled_from([3, 64, 512, 513]),
        seed=st.integers(0, 2**16),
    )
    @example(name="example2", N=10_000, grid_points=512, seed=0)
    @settings(max_examples=24)
    def test_census_matches_exact_scan(self, name, N, grid_points, seed):
        model = ms.get_model(name)
        theta0 = {"example1": 2.5, "example2": 0.5, "linear": 0.5}[name]
        traj = ms.simulate(model, theta0, N, seed=seed)
        calls = (
            lambda: mle(traj, N, model, grid_points),
            lambda: ms.full_mle_path(traj, model, grid_points, [max(1, N // 3), N]).thetas,
        )
        natural = [call() for call in calls]
        certified, exact = _forced(True, *calls), _forced(False, *calls)
        for got in (natural, certified):
            _assert_same_mle(got[0], exact[0])
            assert got[1].tobytes() == exact[1].tobytes()

    def test_fallbacks_keep_results_and_messages(self, linear):
        # flat: every grid value is contested, so the full scan flags it
        model = zero_model()
        traj = ms.simulate(model, 0.0, 400, seed=4)
        got, want = _forced(True, lambda: mle(traj, 400, model))[0], mle(traj, 400, model)
        _assert_same_mle(got, want)
        assert got.diagnostics["flat_likelihood"] is True
        # a point sum that is NaN or -inf: the full scan names the first NaN
        # grid value, or refuses an all -inf grid
        model = half_defined_model(linear)
        traj = ms.simulate(linear, 0.5, 400, seed=3)
        first = float(model.domain.project(model.domain.lower)[0])
        with pytest.raises(EstimationError, match=re.escape(f"NaN at theta={first} ")):
            _forced(True, lambda: mle(traj, 400, model))
        model = box_model()
        traj = make_traj([0.0, 10.0, -10.0, 10.0], 0.0, "box")
        with pytest.raises(EstimationError, match="-inf"):
            _forced(True, lambda: mle(traj, 3, model))

    @pytest.mark.parametrize("contested_sum", [np.nan, -1.25], ids=["nan", "flat"])
    def test_fallbacks_after_the_contested_sums(self, linear, monkeypatch, contested_sum):
        # _theta_sums patched: the 33 point sums peak at the grid's middle,
        # so only the values beside it are contested; their exact sums then
        # come back NaN, or level with the interpolant's smallest value, a
        # range within the flat threshold, so the full scan decides
        grid = preliminary._grid(linear, 512)
        traj = ms.simulate(linear, 0.5, 100, seed=0)
        centre, width, sizes = 0.5 * (grid[0] + grid[-1]), grid[-1] - grid[0], []

        def theta_sums(thetas, *args):
            sizes.append(thetas.size)
            if len(sizes) == 1:
                return -1.0 - ((thetas - centre) / width) ** 2
            return np.full(thetas.size, contested_sum)

        monkeypatch.setattr(preliminary, "_theta_sums", theta_sums)
        assert preliminary._certified_argmax(grid, traj, 100, linear) is None
        assert sizes[0] == 33 and 0 < sizes[1] <= preliminary._CERTIFY_CONTESTED
        assert len(sizes) == 2

    def test_box_too_narrow_for_33_points_takes_the_scan(self, monkeypatch):
        # 1e-14 wide: the Chebyshev points of a 512-point grid collide, so
        # the certificate gives up and the scan flags the flat likelihood
        model = ms.linear_model((0.5, 0.5 + 1e-14))
        traj = ms.simulate(model, 0.5 + 5e-15, 1000, seed=1)
        assert preliminary._certifies(model, 1000, 512)
        outcomes, certify = [], preliminary._certified_argmax
        monkeypatch.setattr(preliminary, "_certified_argmax",
                            lambda *args: outcomes.append(certify(*args)) or outcomes[-1])
        got = mle(traj, 1000, model)
        assert outcomes == [None]
        _assert_same_mle(got, _forced(False, lambda: mle(traj, 1000, model))[0])
        assert got.diagnostics["flat_likelihood"] is True

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_custom_drift_nan_between_points_raises(self, linear):
        # NaN at one interior grid value that no Chebyshev point hits: an
        # interpolant cannot see it, so a custom model takes the full scan
        grid = preliminary._grid(linear, 512)
        bad = float(grid[300])
        assert bad not in preliminary._Barycentric(grid[0], grid[-1], grid).points

        def S(theta, x):
            return np.where(theta[0] == bad, np.nan, theta[0] * np.asarray(x, dtype=float))

        model = ms.ModelSpec(
            drift=ms.Drift(S, linear.drift.dS, linear.drift.d2S),
            noise=linear.noise,
            domain=linear.domain,
            name="nan-at-one-point",
        )
        traj = ms.simulate(linear, 0.5, 1000, seed=3)
        assert not model._builtin
        with pytest.raises(EstimationError, match=re.escape(f"NaN at theta={bad} ")):
            mle(traj, 1000, model)


def _sum_sizes(monkeypatch):
    """The number of thetas of each ``_theta_sums`` call from now on."""
    sizes, sums = [], preliminary._theta_sums

    def spy(thetas, *args):
        sizes.append(thetas.size)
        return sums(thetas, *args)

    monkeypatch.setattr(preliminary, "_theta_sums", spy)
    return sizes


def near_pole_model(example2, c):
    """example2's drift x + 3 (theta - x) / (1 + (x - theta)^2) with the 1
    replaced by c: its likelihood has poles at theta = x +- i sqrt(c),
    which a small c pulls toward the grid."""

    def S(theta, x):
        v = x - theta[0]
        return x - 3.0 * v / (c + v * v)

    return ms.ModelSpec(
        drift=ms.Drift(S, example2.drift.dS, example2.drift.d2S),
        noise=example2.noise,
        domain=example2.domain,
        name="near-pole",
    )


class TestCertifyFrom33Points:
    """The certified argmax sums the likelihood at 33 Chebyshev points and
    scans the whole grid when they do not certify the maximum."""

    @pytest.mark.parametrize("name", ["example1", "example2", "linear"])
    def test_built_ins_take_33_point_sums(self, name, monkeypatch):
        model, traj = ms.get_model(name), _long_traj(name)
        sizes = _sum_sizes(monkeypatch)
        mle(traj, 10_000, model)
        # the 33 points, then the contested grid values
        assert sizes[0] == 33 and len(sizes) == 2 and 1 <= sizes[1] <= 16

    def test_unresolved_drift_keeps_the_scan_result(self, example2, monkeypatch):
        model = near_pole_model(example2, 0.2)
        traj = ms.simulate(model, 0.5, 1000, seed=1)
        want = _forced(False, lambda: mle(traj, 1000, model))[0]
        sizes = _sum_sizes(monkeypatch)
        got = _forced(True, lambda: mle(traj, 1000, model))[0]
        _assert_same_mle(got, want)
        # more than 16 grid values contested at 33 points: the grid is scanned
        assert sizes == [33, 512]


def nan_score_model():
    """The linear model with a score term dS that is NaN for theta > 0, while
    the drift S stays finite everywhere."""
    linear = ms.linear_model()

    def dS(theta, x):
        return np.where(theta[0] > 0.0, np.nan, linear.drift.dS(theta, x))

    return ms.ModelSpec(
        drift=ms.Drift(linear.drift.S, dS, linear.drift.d2S),
        noise=linear.noise,
        domain=linear.domain,
        name="nan-score",
    )


def wiggle_model(linear):
    """The linear drift plus 0.05 sin(w theta), w = 2 pi / 7e-4: its
    likelihood oscillates within each cell of the 512-point grid, so a cell
    holds several roots of the score, local minima among them."""
    w = 2.0 * np.pi / 7e-4

    def S(theta, x):
        return theta[0] * np.asarray(x, dtype=float) + 0.05 * np.sin(w * theta[0])

    def dS(theta, x):
        return (np.asarray(x, dtype=float) + 0.05 * w * np.cos(w * theta[0]))[..., np.newaxis]

    def d2S(theta, x):
        return np.full(np.shape(x) + (1, 1), -0.05 * w * w * np.sin(w * theta[0]))

    return ms.ModelSpec(drift=ms.Drift(S, dS, d2S), noise=linear.noise, domain=linear.domain, name="wiggle")


def _grid_top(model, traj, N, grid_points=512):
    """The grid, the index of its first maximum and that maximum."""
    grid = preliminary._grid(model, grid_points)
    values = preliminary._grid_loglik(grid, traj, N, model)
    return grid, int(np.argmax(values)), float(values.max())


class TestScoreRoot:
    """mle refines the grid maximum at a root of the exact score."""

    @pytest.mark.parametrize("name", ["example1", "example2", "linear"])
    @pytest.mark.parametrize("N", [17, 1000, 10_000])
    def test_root_is_at_rounding_and_above_the_grid(self, name, N):
        model, traj = ms.get_model(name), _long_traj(name)
        est = mle(traj, N, model)
        grid, best, top = _grid_top(model, traj, N)
        theta, value = float(est.theta[0]), est.diagnostics["loglik"]
        assert value == preliminary._learning_loglik(est.theta, traj, N, model)
        assert value >= top - 1e-12 * abs(top)
        if theta in (grid[0], grid[-1]):
            return
        obs = traj.observations
        terms = ms.loglik_grad(est.theta, obs[:N], obs[1 : N + 1], model)
        curvature = abs(float(np.sum(ms.loglik_hess(est.theta, obs[:N], obs[1 : N + 1], model))))
        # the root to within brentq's tolerance, plus the rounding of the sum
        eps = np.finfo(float).eps
        bound = curvature * (preliminary._ROOT_TOL + 4 * eps * abs(theta)) + 16 * eps * float(np.sum(np.abs(terms)))
        assert abs(float(np.sum(terms))) <= bound
        assert abs(theta - grid[best]) <= grid[1] - grid[0]

    @pytest.mark.parametrize("seed,edge", [(1, "upper"), (3, "lower")])
    def test_argmax_at_the_grid_edge_returns_the_projected_edge(self, example1, seed, edge):
        traj = ms.simulate(example1, 2.5, 17, seed=seed)
        est = mle(traj, 17, example1)
        box_edge = float(example1.domain.project(getattr(example1.domain, edge))[0])
        grid, best, top = _grid_top(example1, traj, 17)
        assert grid[best] == box_edge == est.theta[0]
        assert est.diagnostics == {"loglik": top, "flat_likelihood": False}

    @pytest.mark.parametrize("name", ["example1", "example2", "linear"])
    @pytest.mark.parametrize("N", [17, 1000, 10_000])
    def test_passes_over_the_transitions(self, name, N, monkeypatch):
        model, traj = ms.get_model(name), _long_traj(name)
        thetas = {"loglik_grad": [], "_learning_loglik": []}
        for attr in thetas:
            original = getattr(preliminary, attr)

            def spy(theta, *args, attr=attr, original=original):
                thetas[attr].append(float(theta[0]))
                return original(theta, *args)

            monkeypatch.setattr(preliminary, attr, spy)
        est = mle(traj, N, model)
        assert not est.diagnostics["flat_likelihood"]
        scores = thetas["loglik_grad"]
        assert 1 <= len(scores) <= 10 and len(set(scores)) == len(scores)
        # the diagnostic, unless the answer is the grid maximum, whose exact
        # loglik the grid stage gave
        on_grid = est.theta[0] in preliminary._grid(model, 512)
        assert thetas["_learning_loglik"] == ([] if on_grid else [est.theta[0]])

    def test_root_below_the_grid_maximum_is_not_kept(self, linear, monkeypatch):
        model = wiggle_model(linear)
        traj = ms.simulate(linear, 0.5, 1000, seed=3)
        grid, best, top = _grid_top(model, traj, 1000)
        roots, brent = [], preliminary._brent
        monkeypatch.setattr(preliminary, "_brent", lambda *args, **kw: roots.append(brent(*args, **kw)) or roots[-1])
        est = mle(traj, 1000, model)
        # the cell's root that brentq finds is a local minimum, below the grid
        assert len(roots) == 1 and preliminary._learning_loglik(np.array(roots), traj, 1000, model) < top - 1e-3
        assert est.theta[0] == grid[best]
        assert est.diagnostics == {"loglik": top, "flat_likelihood": False}

    def test_non_finite_score_is_refused_naming_theta(self, monkeypatch):
        monkeypatch.setitem(ms.models._REGISTRY, "nan-score", nan_score_model)
        model = ms.get_model("nan-score")
        traj = ms.simulate(ms.linear_model(), 0.5, 400, seed=3)
        grid, best, _ = _grid_top(model, traj, 400)
        assert grid[best] > 0.0
        with pytest.raises(EstimationError, match=re.escape(f"score is NaN at theta={grid[best]}")):
            mle(traj, 400, model)
        # the likelihood itself is finite: the grid stage passes
        assert np.all(np.isfinite(preliminary._grid_loglik(grid, traj, 400, model)))


def _bracketed(rng, count):
    """``count`` smooth functions with a bracket (a, b), a < b, on which
    they change sign, neither end a root."""
    out = []
    while len(out) < count:
        r, c = rng.uniform(-5.0, 5.0, 3), rng.uniform(0.1, 3.0)
        f = [
            lambda x, r=r: (x - r[0]) * (x - r[1]) * (x - r[2]),
            lambda x, r=r: math.tanh(3.0 * (x - r[0])) + 0.1 * x,
            lambda x, r=r, c=c: math.exp(x - r[0]) - c,
            lambda x, r=r: math.atan(x - r[0]) * (1.0 + 0.5 * math.sin(7.0 * x)),
        ][len(out) % 4]
        a, b = sorted(rng.uniform(-6.0, 6.0, 2).tolist())
        fa, fb = f(a), f(b)
        if fa != 0.0 and fb != 0.0 and (fa > 0.0) != (fb > 0.0):
            out.append((f, a, b))
    return out


class TestBrentPort:
    """``_brent`` runs scipy's brentq iteration: the same root from the same
    evaluations, and a refusal naming the cell where brentq raises."""

    def test_same_roots_and_evaluations_as_brentq(self):
        from scipy.optimize import brentq

        agree = 0
        for f, a, b in _bracketed(np.random.default_rng(27), 400):
            calls = []
            try:
                root, info = brentq(f, a, b, xtol=preliminary._ROOT_TOL, full_output=True)
            except RuntimeError:  # brentq did not converge in 100 iterations
                with pytest.raises(EstimationError, match="score root not found"):
                    preliminary._brent(lambda t: calls.append(t) or f(t), (a, f(a)), (b, f(b)))
                continue
            got = preliminary._brent(lambda t: calls.append(t) or f(t), (a, f(a)), (b, f(b)))
            # brentq also evaluates the two ends, which _brent is given
            assert (got, len(calls)) == (root, info.function_calls - 2)
            agree += 1
        assert agree >= 200

    def test_no_convergence_is_refused_naming_the_cell(self):
        # bisection from a width of 2e300 down to the 1e-14 tolerance takes
        # about 1040 halvings, more than the 100 iterations allowed
        with pytest.raises(EstimationError, match=re.escape("not found in the grid cell [-1e+300, 1e+300] in 100 iterations")):
            preliminary._brent(lambda t: 1.0 if t > 0.5 else -1.0, (-1e300, -1.0), (1e300, 1.0))


class TestSimpsonWeights:
    """``bayes`` integrates by Simpson's rule, exact for cubics."""

    @pytest.mark.parametrize("grid_points", [3, 4, 5, 6, 17, 64, 512, 513, 1025, 4096, 4097])
    def test_exact_posterior_mean_for_a_cubic(self, grid_points):
        # a flat likelihood and the prior 1 + t + t^2: the posterior mean is
        # a ratio of the integrals of a cubic and a quadratic over the box
        model = zero_model()
        traj = make_traj(ms.simulate(ms.linear_model(), 0.0, 40, seed=2).observations, 0.0, "zero")
        est = bayes(traj, 40, model, prior=lambda t: 1.0 + t + t * t, grid_points=grid_points)
        lo, hi = preliminary._grid(model, 3)[[0, -1]]

        def integral(*coefficients):
            return sum(c * (hi ** (j + 1) - lo ** (j + 1)) / (j + 1) for j, c in enumerate(coefficients))

        want = integral(0.0, 1.0, 1.0, 1.0) / integral(1.0, 1.0, 1.0)
        assert est.theta[0] == pytest.approx(want, rel=1e-13, abs=0.0)


class TestBarycentric:
    """``_Barycentric``'s folded sums give the 17-, 33- and 65-point
    interpolants of the dense formula to a few ulp of the values' scale."""

    @staticmethod
    def _assert_interpolants(fold, x, values):
        # values: (65, ..., K) at every point; all of them are added
        for i, value in enumerate(values):
            fold.add(i, value)
        for M in (17, 33, 65):
            picked = list(fold.indices(M))
            want = barycentric_reference(x, fold.points[picked], values[picked])
            got = fold.read(M)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0.0, atol=16 * np.finfo(float).eps * np.abs(values).max())
            # an x on one of the M points takes that point's value exactly
            on = np.isin(x, fold.points[picked])
            np.testing.assert_array_equal(got[..., on], want[..., on])
        return got

    def test_scalar_values_on_a_512_point_grid(self, example2):
        lo, hi = preliminary._grid(example2, 3)[[0, -1]]
        points = preliminary._Barycentric(lo, hi, np.empty(0)).points
        # the ends, and points 4, 7 and 34: on the 17-, 65- and 33-point sets
        x = np.sort(np.concatenate([np.linspace(lo, hi, 509), points[[4, 7, 34]]]))
        fold = preliminary._Barycentric(lo, hi, x)
        values = -1e4 * (1.0 + (points - 0.3) ** 2) + 50.0 * np.cos(7.0 * points)
        got = self._assert_interpolants(fold, x, np.broadcast_to(values[:, np.newaxis], (65, x.size)))
        assert got.shape == (512,)
        assert got[np.flatnonzero(x == points[7])[0]] == values[7]

    def test_per_column_values_at_per_column_x(self):
        lo, hi = -0.4, 0.9
        points = preliminary._Barycentric(lo, hi, np.empty(0)).points
        x = np.random.default_rng(5).uniform(lo, hi, 40)
        x[[3, 11, 20]] = points[[12, 33, 64]]
        columns = np.arange(x.size) / 10.0
        values = np.stack([
            np.sin(points[:, np.newaxis] + columns) * 300.0,
            np.exp(points[:, np.newaxis] * columns) + columns,
        ], axis=1)
        fold = preliminary._Barycentric(lo, hi, x, (2,))
        got = self._assert_interpolants(fold, x, values)
        assert got.shape == (2, 40)
        np.testing.assert_array_equal(got[:, 11], values[33, :, 11])


class TestEmm:
    def test_example2_identity_moments(self, example2):
        # location model: theta estimated by the plain sample mean
        N = 178
        paths = ms.simulate_paths(example2, 0.5, 1000, seeds=range(200))
        hits = 0
        for row in paths:
            traj = make_traj(row, 0.5, "example2")
            est = emm(traj, N, example2)
            assert est.theta[0] == pytest.approx(
                np.clip(row[1 : N + 1].mean(), -1 + 2e-6, 1 - 2e-6)
            )
            sd = row[1 : N + 1].std(ddof=1)
            hits += abs(est.theta[0] - 0.5) < 4 * sd / np.sqrt(N)
        assert hits >= 194

    def test_constant_series(self, example2):
        traj = make_traj(np.full(20, 0.3), 0.5, "example2")
        est = emm(traj, 19, example2)
        assert est.theta[0] == pytest.approx(0.3)

    def test_composed_maps_with_projection(self, example2):
        traj = make_traj(np.full(20, 0.3), 0.5, "example2")
        est = emm(traj, 19, example2, q=lambda x: x, h=lambda t: 2.0 * t)
        assert est.theta[0] == pytest.approx(0.6)
        big = emm(traj, 19, example2, q=lambda x: x, h=lambda t: 10.0 * t)
        assert big.theta[0] == pytest.approx(1.0 - 2e-6)

    def test_undefined_moment_map_errors(self, example2):
        traj = make_traj(np.full(20, 0.3), 0.5, "example2")
        with pytest.raises(EstimationError, match="undefined"):
            emm(traj, 19, example2, h=lambda t: float("nan") / 0.0)
        with pytest.raises(EstimationError):
            emm(traj, 19, example2, h=lambda t: float("nan"))

    def test_raising_q_is_refused_by_name(self, example2):
        traj = make_traj(np.full(20, 0.3), 0.5, "example2")
        with pytest.raises(EstimationError, match="moment function q is undefined on the learning interval: division"):
            emm(traj, 19, example2, q=lambda x: 1 / 0)

    @pytest.mark.parametrize("q,shape", [(lambda x: x[:3], "(3,)"), (lambda x: float(x.mean()), "()")])
    def test_q_without_N_rows_is_refused(self, example2, q, shape):
        traj = make_traj(np.linspace(0.0, 1.0, 20), 0.5, "example2")
        with pytest.raises(EstimationError, match=re.escape(f"q must return N = 19 rows, got shape {shape}")):
            emm(traj, 19, example2, q=q)


class TestTightnessProxy:
    def test_uniform_over_locations(self, example2):
        # 99th percentile of sqrt(N)|error| comparable across true locations
        N = 178
        percentiles = []
        for theta0 in (-0.5, 0.0, 0.5):
            errs = []
            paths = ms.simulate_paths(example2, theta0, 400, seeds=range(200))
            for row in paths:
                traj = make_traj(row, theta0, "example2")
                errs.append(np.sqrt(N) * abs(emm(traj, N, example2).theta[0] - theta0))
            percentiles.append(np.quantile(errs, 0.99))
        assert max(percentiles) <= 2.0 * min(percentiles)
