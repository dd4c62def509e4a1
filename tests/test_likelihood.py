import numpy as np
import pytest

import mlestep as ms
from mlestep.fisher import information_terms, window_information
from mlestep.likelihood import loglik, loglik_grad, loglik_hess

from helpers import assert_close_rel, fd_grad, fd_jac, pair_model, sample_domain, zero_model

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
_EXAMPLE2_TAKES_ONE = r"theta has shape \(2,\); model 'example2' takes a vector of length 1"


class TestLoglik:
    def test_zero_drift_standard_normal(self):
        model = zero_model()
        # residual equals x_next; at 0 the value is the normal log-density peak
        assert loglik(0.3, 5.0, 0.0, model) == pytest.approx(-0.9189385, abs=1e-6)

    def test_example1_value(self, example1):
        got = loglik(2.5, 1.0, 0.0, example1)
        expected = -HALF_LOG_2PI - 0.5 * (1.0 / 3.5) ** 2
        assert got == pytest.approx(expected, abs=1e-6)
        assert got == pytest.approx(-0.959755, abs=1e-6)

    def test_example2_fixed_point(self, example2):
        assert loglik(0.5, 0.5, 0.5, example2) == pytest.approx(-HALF_LOG_2PI)

    def test_vectorized(self, example2):
        xp = np.array([0.1, 0.2, 0.3])
        xn = np.array([0.0, 0.1, 0.2])
        vals = loglik(0.5, xp, xn, example2)
        assert vals.shape == (3,)
        assert vals[1] == pytest.approx(loglik(0.5, 0.2, 0.1, example2))


class TestLoglikGrad:
    def test_example1_value(self, example1):
        got = loglik_grad(2.5, 1.0, 0.0, example1)
        assert got[0] == pytest.approx((0.0 - 1.0 / 3.5) * (-1.0 / 3.5**2), abs=1e-6)
        assert got[0] == pytest.approx(0.023324, abs=1e-6)

    def test_zero_residual_gives_zero(self, example2, rng):
        for _ in range(10):
            theta = sample_domain(example2.domain, rng)
            x = rng.normal()
            x_next = float(example2.drift.S(theta, x))
            np.testing.assert_allclose(
                loglik_grad(theta, x, x_next, example2), 0.0, atol=1e-15
            )

    def test_zero_drift_gradient_point(self, example2):
        # dS vanishes at |theta - x| = 1 regardless of x_next
        for x_next in (-3.0, 0.0, 2.0):
            assert loglik_grad(0.5, 1.5, x_next, example2)[0] == pytest.approx(0.0)

    def test_matches_finite_difference(self, request, rng):
        for key in ("example1", "example2", "linear"):
            model = request.getfixturevalue(key)
            for _ in range(100):
                theta = sample_domain(model.domain, rng, margin=0.1)
                x = float(rng.normal(scale=1.5)) or 0.4
                xn = float(rng.normal(scale=1.5))
                grad = loglik_grad(theta, x, xn, model)
                fd = fd_grad(lambda t: float(loglik(t, x, xn, model)), theta)
                assert_close_rel(grad, fd, rtol=1e-5, atol=1e-6)


class TestLoglikHess:
    def test_linear_quadratic_loglik(self, linear):
        # for S = theta x the Hessian is -x^2 independent of the residual
        assert loglik_hess(0.5, 2.0, 1.7, linear)[0, 0] == pytest.approx(-4.0)

    def test_example2_fixed_point(self, example2):
        got = loglik_hess(0.5, 0.5, 0.5, example2)
        assert got[0, 0] == pytest.approx(-9.0)

    def test_matches_finite_difference_of_grad(self, request, rng):
        for key in ("example1", "example2", "linear"):
            model = request.getfixturevalue(key)
            for _ in range(100):
                theta = sample_domain(model.domain, rng, margin=0.1)
                x = float(rng.normal(scale=1.5)) or 0.4
                xn = float(rng.normal(scale=1.5))
                hess = loglik_hess(theta, x, xn, model)
                fd = fd_jac(lambda t: loglik_grad(t, x, xn, model), theta)
                assert_close_rel(hess, fd, rtol=1e-4, atol=1e-6)

    def test_symmetric_for_two_parameters(self, rng):
        model = pair_model()
        for _ in range(50):
            theta = sample_domain(model.domain, rng, margin=0.1)
            h = loglik_hess(theta, rng.normal(), rng.normal(), model)
            np.testing.assert_allclose(h, h.T, atol=1e-12)
            fd = fd_jac(lambda t: loglik_grad(t, 0.3, -0.2, model), theta)
            assert_close_rel(loglik_hess(theta, 0.3, -0.2, model), fd, rtol=1e-4, atol=1e-6)


class TestThetaLength:
    """A theta whose length is not the model's d is refused by name, never
    read in part, by every function on the likelihood kernel."""

    def test_kernel_refuses_other_lengths(self, example2):
        with pytest.raises(ValueError, match=_EXAMPLE2_TAKES_ONE):
            loglik([0.5, 0.1], 0.2, 0.1, example2)
        for fn in (loglik_grad, loglik_hess):
            with pytest.raises(ValueError, match=r"model 'pair' takes a vector of length 2"):
                fn([0.1], 0.3, -0.2, pair_model())
        # the grid estimators' broadcast form (d, B, 1) passes; (2, B, 1) does not
        block = np.linspace(-0.5, 0.5, 5)[np.newaxis, :, np.newaxis]
        assert loglik(block, np.zeros(3), np.ones(3), example2).shape == (5, 3)
        with pytest.raises(ValueError, match=r"theta has shape \(2, 5, 1\)"):
            loglik(np.concatenate([block, block]), np.zeros(3), np.ones(3), example2)
        # outside the domain is evaluated: the likelihood is defined there,
        # and the paths project into the domain first
        assert np.isfinite(loglik(5.0, 0.2, 0.1, example2))

    def test_information_and_paths_refuse_other_lengths(self, example2):
        traj = ms.simulate(example2, 0.5, 300, seed=1)
        with pytest.raises(ValueError, match=_EXAMPLE2_TAKES_ONE):
            window_information([0.5, 0.1], traj, example2, "observed")
        prelim = ms.PreliminaryEstimate([0.4, 0.3], "fixed", 17, {})
        for path_fn in (ms.one_step_path, ms.two_step_path, ms.recurrent_path):
            with pytest.raises(ValueError, match=_EXAMPLE2_TAKES_ONE):
                path_fn(traj, example2, prelim, "observed")


class TestNormalizedScore:
    def test_single_term_window(self, example2):
        traj = ms.simulate(example2, 0.5, 20, seed=1)
        j = 7
        obs = traj.observations
        scores, _ = information_terms(0.4, obs[j - 1 : j], obs[j : j + 1], example2, "plugin")
        got = scores.sum(axis=0) / np.sqrt(j)
        term = loglik_grad(0.4, traj.observations[j - 1], traj.observations[j], example2)
        np.testing.assert_allclose(got, term / np.sqrt(j))

    def test_martingale_mean_zero_linear(self, linear):
        # score at the true parameter: MC mean over 500 replications near 0
        n = 2000
        paths = ms.simulate_paths(linear, 0.0, n, seeds=range(500))
        scores = np.array(
            [loglik_grad(0.0, row[:-1], row[1:], linear).sum(axis=0)[0] for row in paths]
        ) / np.sqrt(n)
        se = scores.std(ddof=1) / np.sqrt(len(scores))
        assert abs(scores.mean()) < 4 * se

    def test_score_variance_matches_information(self, example2):
        # CLT check: var of the normalized score at the truth approaches I
        n = 100_000
        reps = 300
        oracle = ms.oracle_information(example2, 0.5).matrix[0, 0]
        scores = np.empty(reps)
        for start in range(0, reps, 50):
            batch = ms.simulate_paths(example2, 0.5, n, seeds=range(start, start + 50))
            for i, row in enumerate(batch):
                total = loglik_grad(0.5, row[:-1], row[1:], example2).sum(axis=0)
                scores[start + i] = total[0] / np.sqrt(n)
        assert scores.var(ddof=1) == pytest.approx(oracle, rel=0.15)

    def test_per_step_mean_small_at_truth(self, big_traj_example2, example2):
        n = big_traj_example2.n
        oracle = ms.oracle_information(example2, 0.5).matrix[0, 0]
        obs = big_traj_example2.observations
        g = loglik_grad(0.5, obs[:-1], obs[1:], example2)
        assert abs(g.mean()) < 4 * np.sqrt(oracle / n)


class TestInformationIdentity:
    @pytest.mark.parametrize("key,theta", [("example1", 2.5), ("example2", 0.5)])
    def test_three_averages_agree(self, key, theta, request):
        model = request.getfixturevalue(key)
        traj = request.getfixturevalue(f"big_traj_{key}")
        obs = traj.observations
        g = loglik_grad(theta, obs[:-1], obs[1:], model)
        h = loglik_hess(theta, obs[:-1], obs[1:], model)
        ds = model.drift.dS(np.array([theta]), traj.observations[:-1])
        sq = float((g[:, 0] ** 2).mean())
        neg_h = float(-h[:, 0, 0].mean())
        factor = float(ms.noise_information(model.noise) * (ds[:, 0] ** 2).mean())
        assert sq == pytest.approx(neg_h, rel=0.05)
        assert sq == pytest.approx(factor, rel=0.05)
        assert neg_h == pytest.approx(factor, rel=0.05)
