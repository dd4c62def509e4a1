import warnings

import numpy as np
import pytest

import mlestep as ms
from mlestep.errors import DegenerateInformationError
from mlestep.fisher import (
    FISHER_METHODS,
    FisherMatrix,
    _checked,
    _reciprocals,
    information_terms,
    invert_fisher,
    noise_information,
    window_information,
)
from mlestep.likelihood import loglik_grad, loglik_hess

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


    def test_zero_score_is_refused(self):
        noise = ms.gaussian_noise()
        flat = ms.NoiseDensity(g=noise.g, log_g=noise.log_g, psi=lambda u: 0.0 * u,
                               dpsi=noise.dpsi, sampler=noise.sampler, support=noise.support)
        with pytest.raises(ValueError, match="noise information integral evaluated to 0.0"):
            noise_information(flat)


class TestFisherMatrixType:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            FisherMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]), "observed")

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            FisherMatrix(np.ones((2, 3)), "observed")


class TestEstimators:
    def test_observed_linear_ground_truth(self, linear, big_traj_linear):
        fm = window_information(0.5, big_traj_linear, linear, "observed")[1]
        assert fm.matrix[0, 0] == pytest.approx(4.0 / 3.0, rel=0.05)
        assert fm.method == "observed"

    def test_plugin_linear_ground_truth(self, linear, big_traj_linear):
        fm = window_information(0.5, big_traj_linear, linear, "plugin")[1]
        assert fm.matrix[0, 0] == pytest.approx(4.0 / 3.0, rel=0.05)

    def test_factorized_linear_ground_truth(self, linear, big_traj_linear):
        fm = window_information(0.5, big_traj_linear, linear, "factorized")[1]
        assert fm.matrix[0, 0] == pytest.approx(4.0 / 3.0, rel=0.05)

    def test_zero_drift_raises_with_zero_matrix(self):
        model = zero_model()
        traj = ms.simulate(model, 0.0, 500, seed=1)
        with pytest.raises(DegenerateInformationError) as err:
            window_information(0.0, traj, model, "observed")
        np.testing.assert_array_equal(err.value.matrix, np.zeros((1, 1)))
        with pytest.raises(DegenerateInformationError) as err:
            window_information(0.0, traj, model, "factorized")
        np.testing.assert_array_equal(err.value.matrix, np.zeros((1, 1)))

    def test_plugin_single_transition(self, linear):
        traj = make_traj([2.0, 1.3], 0.5, "linear")
        fm = window_information(0.5, traj, linear, "plugin")[1]
        term = loglik_grad(0.5, 2.0, 1.3, linear)[0]
        assert fm.matrix[0, 0] == pytest.approx(term**2)

    def test_window_shorter_than_dimension(self, linear, big_traj_linear):
        from helpers import pair_model

        model = pair_model()
        traj = make_traj([0.1, 0.2], [0.0, 0.0], "pair")
        with pytest.raises(ValueError, match="dimension"):
            window_information([0.0, 0.0], traj, model, "observed")

    @pytest.mark.parametrize("key,theta", [("example1", 2.5), ("example2", 0.5)])
    def test_triangle_agreement(self, key, theta, request):
        model = request.getfixturevalue(key)
        traj = request.getfixturevalue(f"big_traj_{key}")
        obs = window_information(theta, traj, model, "observed")[1].matrix[0, 0]
        plug = window_information(theta, traj, model, "plugin")[1].matrix[0, 0]
        fact = window_information(theta, traj, model, "factorized")[1].matrix[0, 0]
        assert obs == pytest.approx(plug, rel=0.05)
        assert obs == pytest.approx(fact, rel=0.05)
        assert plug == pytest.approx(fact, rel=0.05)

    def test_example2_shift_invariant_information(self, example2):
        # information does not depend on the location parameter
        values = []
        for theta0 in (-0.5, 0.0, 0.5):
            traj = ms.simulate(example2, theta0, 100_000, seed=17)
            fm = window_information(theta0, traj, example2, "plugin")[1]
            values.append(fm.matrix[0, 0])
        assert max(values) / min(values) < 1.05

    def test_example2_lipschitz_probe(self, example2):
        # diagnostic only: the fitted local slope should be stable across seeds
        slopes = []
        for seed in (1, 2, 3, 4):
            traj = ms.simulate(example2, 0.5, 50_000, seed=seed)
            a = window_information(0.45, traj, example2, "plugin")[1].matrix[0, 0]
            b = window_information(0.55, traj, example2, "plugin")[1].matrix[0, 0]
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
            window_scores, info = window_information(theta, traj, model, method)
            assert np.array_equal(window_scores, grad)
            assert np.array_equal(info.matrix, FisherMatrix(terms.mean(axis=0), method).matrix)


class TestMethodNames:
    """A method outside FISHER_METHODS is refused by name, never run as the
    observed estimator, by every caller of ``information_terms``."""

    @pytest.mark.parametrize("method", ["bogus", "Observed"])
    @pytest.mark.parametrize("caller", [
        "information_terms", "window_information", "one_step_path",
        "second_preliminary_path", "two_step_path", "recurrent_path",
    ])
    def test_unknown_method_refused(self, example2, caller, method):
        traj = ms.simulate(example2, 0.5, 300, seed=7)
        obs = traj.observations
        if caller == "information_terms":
            call = lambda: information_terms(0.5, obs[:-1], obs[1:], example2, method)
        elif caller == "window_information":
            call = lambda: window_information(0.5, traj, example2, method)
        else:
            prelim = ms.emm(traj, 40, example2)
            call = lambda: getattr(ms, caller)(traj, example2, prelim, method)
        with pytest.raises(ValueError, match=f"unknown information method '{method}'; expected one of "
                                             r"\('observed', 'plugin', 'factorized'\)"):
            call()


class TestInvert:
    def test_identity(self):
        fm = FisherMatrix(np.eye(3), "observed")
        np.testing.assert_allclose(invert_fisher(fm), np.eye(3))

    def test_scalar(self):
        fm = FisherMatrix(np.array([[4.0]]), "observed")
        assert invert_fisher(fm)[0, 0] == pytest.approx(0.25)

    def test_two_by_two_hand_inverse(self):
        fm = FisherMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]), "observed")
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        np.testing.assert_allclose(invert_fisher(fm), expected, atol=1e-12)

    def test_product_is_identity(self, rng):
        a = rng.normal(size=(4, 4))
        fm = FisherMatrix(a @ a.T + 0.5 * np.eye(4), "plugin")
        inv = invert_fisher(fm)
        np.testing.assert_allclose(fm.matrix @ inv, np.eye(4), atol=1e-8)

    def test_scalar_inverse_is_the_reciprocal_bit_for_bit(self):
        # one rule for every information matrix: for d = 1 the inverse is
        # 1/I, the unflagged output of the two-step path's _reciprocals
        values = 10.0 ** np.random.default_rng(30).uniform(-300.0, 300.0, 20_000)
        inverses, flagged = _reciprocals(values[:, np.newaxis, np.newaxis])
        assert not flagged.any()
        np.testing.assert_array_equal(inverses[:, 0, 0], 1.0 / values)
        for value, inverse in zip(values, inverses):
            got = invert_fisher(FisherMatrix(np.array([[value]]), "observed"))
            assert got.tobytes() == inverse.tobytes() == np.array([[1.0 / value]]).tobytes(), value

    @pytest.mark.parametrize("d", [2, 3])
    def test_inverse_within_rounding_of_a_cholesky_solve(self, d):
        from scipy.linalg import cho_factor, cho_solve

        rng = np.random.default_rng(d)
        for _ in range(500):
            a = rng.normal(size=(d, d))
            fm = FisherMatrix(a @ a.T + 0.1 * np.eye(d), "plugin")
            expected = cho_solve(cho_factor(fm.matrix), np.eye(d))
            assert np.abs(invert_fisher(fm) - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_indefinite_rejected(self):
        # _checked and invert_fisher refuse it with one message
        matrix = np.diag([1.0, -1.0])
        messages = set()
        for check in (lambda: _checked(matrix, "observed"),
                      lambda: invert_fisher(FisherMatrix(matrix, "observed"))):
            with pytest.raises(DegenerateInformationError, match="^observed information matrix is not positive") as err:
                check()
            messages.add(str(err.value))
        assert len(messages) == 1

    def test_ill_conditioned_rejected(self):
        fm = FisherMatrix(np.diag([1.0, 1e-11]), "observed")
        with pytest.raises(DegenerateInformationError, match="condition"):
            invert_fisher(fm)

    @pytest.mark.parametrize(
        "matrix",
        [[[np.inf]], [[np.nan]], [[2.0, np.inf], [np.inf, 1.0]], [[1e308]], [[1.0, 1e308], [-1e308, 1.0]]],
        ids=["inf", "nan", "2x2-inf", "1e308", "2x2-overflowing-asymmetry"],
    )
    def test_non_finite_rejected(self, matrix):
        matrix = np.array(matrix)
        # refused without a RuntimeWarning on the way (inf - inf is nan;
        # 1e308 + 1e308 and 1e308 - (-1e308) overflow to inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not np.array_equal(matrix, matrix.T, equal_nan=True):
                with pytest.raises(ValueError, match="not symmetric"):
                    _checked(matrix, "observed")
                return
            fm = FisherMatrix(matrix, "observed")
            for check in (lambda: _checked(matrix, "observed"), lambda: invert_fisher(fm)):
                with pytest.raises(DegenerateInformationError, match="non-finite") as err:
                    check()
                np.testing.assert_array_equal(err.value.matrix, fm.matrix)

    def test_reciprocal_guard_flags_what_the_scalar_guards_refuse(self):
        # the 1 x 1 reduction: flagged exactly where _checked + invert_fisher
        # refuse or invert to a non-finite value (1e308 + 1e308 overflows in
        # FisherMatrix's symmetrization; 1/5e-324 and 1/1e-310 overflow)
        values = np.array([2.0, 1e-300, 1e308, 0.0, -1.0, np.nan, np.inf, -np.inf, 5e-324, 1e-310])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inverses, flagged = _reciprocals(values[:, np.newaxis, np.newaxis])
        np.testing.assert_array_equal(flagged, [False, False] + [True] * 8)
        for value, inverse, flag in zip(values, inverses, flagged):
            matrix = np.array([[value]])
            try:
                refused = not np.isfinite(invert_fisher(_checked(matrix, "observed"))).all()
            except DegenerateInformationError:
                refused = True
            assert flag == refused, value
            if not flag:
                # bit for bit numpy's LU inverse
                np.testing.assert_array_equal(inverse, np.linalg.inv(matrix))
