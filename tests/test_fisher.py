import warnings

import numpy as np
import pytest

import mlestep as ms
from mlestep.errors import DegenerateInformationError
from mlestep.fisher import (
    FISHER_METHODS,
    FisherMatrix,
    _checked,
    information_terms,
    invert_fisher,
    noise_information,
    stacked_inverses,
)
from mlestep.likelihood import ScoreWindow, loglik_grad, loglik_hess

from helpers import cos_model, make_traj, zero_model


class TestNoiseInformation:
    def test_standard_gaussian(self):
        assert abs(noise_information(ms.gaussian_noise()) - 1.0) < 1e-6

    def test_scaled_gaussian(self):
        assert abs(noise_information(ms.gaussian_noise(2.0)) - 0.25) < 1e-6

    def test_reflection_invariance(self):
        # symmetric density: flipping the support window leaves the value alone
        noise = ms.gaussian_noise()
        flipped = ms.NoiseDensity(
            g=noise.g,
            log_g=noise.log_g,
            psi=noise.psi,
            dpsi=noise.dpsi,
            sampler=noise.sampler,
            support=(-noise.support[1], -noise.support[0]),
        )
        assert noise_information(flipped) == pytest.approx(
            noise_information(noise), abs=1e-10
        )


class TestFisherMatrixType:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            FisherMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]), "observed", 10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            FisherMatrix(np.ones((2, 3)), "observed", 10)

    def test_json_row_major(self):
        fm = FisherMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]), "plugin", 5)
        payload = fm.to_json_dict()
        assert payload["matrix"] == [[2.0, 1.0], [1.0, 2.0]]
        assert payload["method"] == "plugin"
        assert payload["sample_size"] == 5


class TestEstimators:
    def test_observed_linear_ground_truth(self, linear, big_traj_linear):
        w = ScoreWindow(1, big_traj_linear.n)
        fm = ms.observed_fisher(0.5, big_traj_linear, w, linear)
        assert fm.matrix[0, 0] == pytest.approx(4.0 / 3.0, rel=0.05)
        assert fm.method == "observed"
        assert fm.sample_size == big_traj_linear.n

    def test_plugin_linear_ground_truth(self, linear, big_traj_linear):
        w = ScoreWindow(1, big_traj_linear.n)
        fm = ms.plugin_fisher(0.5, big_traj_linear, w, linear)
        assert fm.matrix[0, 0] == pytest.approx(4.0 / 3.0, rel=0.05)

    def test_factorized_linear_ground_truth(self, linear, big_traj_linear):
        w = ScoreWindow(1, big_traj_linear.n)
        fm = ms.factorized_fisher(0.5, big_traj_linear, w, linear)
        assert fm.matrix[0, 0] == pytest.approx(4.0 / 3.0, rel=0.05)

    def test_zero_drift_raises_with_zero_matrix(self):
        model = zero_model()
        traj = ms.simulate(model, 0.0, 500, seed=1)
        w = ScoreWindow(1, 500)
        with pytest.raises(DegenerateInformationError) as err:
            ms.observed_fisher(0.0, traj, w, model)
        np.testing.assert_array_equal(err.value.matrix, np.zeros((1, 1)))
        with pytest.raises(DegenerateInformationError) as err:
            ms.factorized_fisher(0.0, traj, w, model)
        np.testing.assert_array_equal(err.value.matrix, np.zeros((1, 1)))

    def test_plugin_single_transition(self, linear):
        traj = make_traj([2.0, 1.3], 0.5, "linear")
        fm = ms.plugin_fisher(0.5, traj, ScoreWindow(1, 1), linear)
        from mlestep.likelihood import loglik_grad

        term = loglik_grad(0.5, 2.0, 1.3, linear)[0]
        assert fm.matrix[0, 0] == pytest.approx(term**2)
        assert fm.sample_size == 1

    def test_window_shorter_than_dimension(self, linear, big_traj_linear):
        from helpers import pair_model

        model = pair_model()
        traj = make_traj([0.1, 0.2], [0.0, 0.0], "pair")
        with pytest.raises(ValueError, match="dimension"):
            ms.observed_fisher([0.0, 0.0], traj, ScoreWindow(1, 1), model)

    @pytest.mark.parametrize("key,theta", [("example1", 2.5), ("example2", 0.5)])
    def test_triangle_agreement(self, key, theta, request):
        model = request.getfixturevalue(key)
        traj = request.getfixturevalue(f"big_traj_{key}")
        w = ScoreWindow(1, traj.n)
        obs = ms.observed_fisher(theta, traj, w, model).matrix[0, 0]
        plug = ms.plugin_fisher(theta, traj, w, model).matrix[0, 0]
        fact = ms.factorized_fisher(theta, traj, w, model).matrix[0, 0]
        assert obs == pytest.approx(plug, rel=0.05)
        assert obs == pytest.approx(fact, rel=0.05)
        assert plug == pytest.approx(fact, rel=0.05)

    def test_example2_shift_invariant_information(self, example2):
        # information does not depend on the location parameter
        values = []
        for theta0 in (-0.5, 0.0, 0.5):
            traj = ms.simulate(example2, theta0, 100_000, seed=17)
            fm = ms.plugin_fisher(theta0, traj, ScoreWindow(1, traj.n), example2)
            values.append(fm.matrix[0, 0])
        assert max(values) / min(values) < 1.05

    def test_example2_lipschitz_probe(self, example2):
        # diagnostic only: the fitted local slope should be stable across seeds
        slopes = []
        for seed in (1, 2, 3, 4):
            traj = ms.simulate(example2, 0.5, 50_000, seed=seed)
            w = ScoreWindow(1, traj.n)
            a = ms.plugin_fisher(0.45, traj, w, example2).matrix[0, 0]
            b = ms.plugin_fisher(0.55, traj, w, example2).matrix[0, 0]
            slopes.append(abs(a - b) / 0.1)
        print(f"example2 information Lipschitz probe, fitted slopes: {slopes}")
        assert all(np.isfinite(s) for s in slopes)


class TestOneEngine:
    """``information_terms`` and the likelihood derivatives are one kernel's
    output, and each window estimator is the mean of its terms."""

    @pytest.mark.parametrize("factory,theta", [
        (ms.example1_model, [2.5]),
        (ms.example2_model, [0.5]),
        (ms.linear_model, [0.5]),
        (cos_model, [0.2, -0.1]),
    ], ids=["example1", "example2", "linear", "cos"])
    def test_terms_equal_the_likelihood_derivatives(self, factory, theta):
        model = factory()
        traj = ms.simulate(model, theta, 2000, seed=3)
        xp, xn = traj.observations[:-1], traj.observations[1:]
        grad, hess = loglik_grad(theta, xp, xn, model), loglik_hess(theta, xp, xn, model)
        for method in FISHER_METHODS:
            scores, terms = information_terms(theta, xp, xn, model, method)
            assert np.array_equal(scores, grad)
            if method == "observed":
                assert np.array_equal(terms, -hess)
        observed = ms.observed_fisher(theta, traj, ScoreWindow(1, traj.n), model)
        assert np.array_equal(observed.matrix, FisherMatrix(-hess.mean(axis=0), "observed", 0).matrix)


class TestInvert:
    def test_identity(self):
        fm = FisherMatrix(np.eye(3), "observed", 10)
        np.testing.assert_allclose(invert_fisher(fm), np.eye(3))

    def test_scalar(self):
        fm = FisherMatrix(np.array([[4.0]]), "observed", 10)
        assert invert_fisher(fm)[0, 0] == pytest.approx(0.25)

    def test_two_by_two_hand_inverse(self):
        fm = FisherMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]), "observed", 10)
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        np.testing.assert_allclose(invert_fisher(fm), expected, atol=1e-12)

    def test_product_is_identity(self, rng):
        a = rng.normal(size=(4, 4))
        fm = FisherMatrix(a @ a.T + 0.5 * np.eye(4), "plugin", 10)
        inv = invert_fisher(fm)
        np.testing.assert_allclose(fm.matrix @ inv, np.eye(4), atol=1e-8)

    def test_indefinite_rejected(self):
        fm = FisherMatrix(np.diag([1.0, -1.0]), "observed", 10)
        with pytest.raises(DegenerateInformationError):
            invert_fisher(fm)

    def test_ill_conditioned_rejected(self):
        fm = FisherMatrix(np.diag([1.0, 1e-11]), "observed", 10)
        with pytest.raises(DegenerateInformationError, match="condition"):
            invert_fisher(fm)

    @pytest.mark.parametrize(
        "matrix",
        [[[np.inf]], [[np.nan]], [[2.0, np.inf], [np.inf, 1.0]]],
        ids=["inf", "nan", "2x2-inf"],
    )
    def test_non_finite_rejected(self, matrix):
        matrix = np.array(matrix)
        # refused without a RuntimeWarning on the way (inf - inf is nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fm = FisherMatrix(matrix, "observed", 10)
            for check in (lambda: _checked(matrix, "observed", 10), lambda: invert_fisher(fm)):
                with pytest.raises(DegenerateInformationError, match="non-finite") as err:
                    check()
                np.testing.assert_array_equal(err.value.matrix, fm.matrix)

    def test_stacked_guards_flag_what_the_scalar_guards_refuse(self):
        stack = np.array([
            [[2.0, 1.0], [1.0, 2.0]],
            [[2.0, np.inf], [np.inf, 1.0]],
            [[1.0, 0.5], [0.2, 1.0]],
            [[1.0, 0.0], [0.0, -1.0]],
            [[1.0, 0.0], [0.0, 1e-11]],
            [[4.0, 1.0], [1.0, 3.0]],
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inverses, flagged = stacked_inverses(stack)
        np.testing.assert_array_equal(flagged, [False, True, True, True, True, False])
        for matrix, inverse, flag in zip(stack, inverses, flagged):
            if flag:
                with pytest.raises((DegenerateInformationError, ValueError)):
                    invert_fisher(_checked(matrix, "observed", 10))
            else:
                expected = invert_fisher(_checked(matrix, "observed", 10))
                np.testing.assert_allclose(inverse, expected, rtol=1e-14)
        # nothing left to invert
        _, flagged = stacked_inverses(stack[1:5])
        assert flagged.all()
