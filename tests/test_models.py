import numpy as np
import pytest
from scipy import integrate

import mlestep as ms
from mlestep.models import ParamDomain, builtin_model_names

from helpers import assert_close_rel, fd_grad, fd_jac, pair_model, sample_domain


class TestParamDomain:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            ParamDomain([1.0], [1.0])
        with pytest.raises(ValueError):
            ParamDomain([2.0], [1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ParamDomain([], [])

    def test_rejects_unequal_lengths_and_infinite_bounds(self):
        with pytest.raises(ValueError, match="lower and upper must be vectors of equal length"):
            ParamDomain([0.0, 1.0], [1.0])
        with pytest.raises(ValueError, match="domain bounds must be finite"):
            ParamDomain([0.0], [np.inf])

    def test_contains_and_project(self):
        dom = ParamDomain([0.0, -1.0], [1.0, 1.0])
        assert dom.contains([0.5, 0.0])
        assert not dom.contains([0.0, 0.0])
        proj = dom.project([2.0, -5.0])
        assert dom.contains(proj)
        np.testing.assert_allclose(proj, [1.0 - 1e-6, -1.0 + 2e-6])

    def test_interior_points_project_to_themselves(self, rng):
        dom = ParamDomain([-1.0], [1.0])
        for _ in range(20):
            t = sample_domain(dom, rng)
            np.testing.assert_array_equal(dom.project(t), t)


class TestGaussianNoise:
    def test_score_identities_exact(self, rng):
        noise = ms.gaussian_noise()
        u = rng.normal(size=100)
        np.testing.assert_array_equal(noise.psi(u), -u)
        np.testing.assert_array_equal(noise.dpsi(u), np.full(100, -1.0))
        assert noise.psi(0.0) == 0.0
        assert noise.psi(1.5) == -1.5

    def test_density_integrates_to_one(self):
        noise = ms.gaussian_noise()
        mass, _ = integrate.quad(noise.g, *noise.support)
        assert abs(mass - 1.0) < 1e-6

    def test_score_information_equals_one(self):
        # independent quadrature oracle: integrand is u^2 g(u)
        noise = ms.gaussian_noise()
        grid = np.linspace(-12.0, 12.0, 200_001)
        oracle = np.trapezoid(grid**2 * noise.g(grid), grid)
        assert abs(oracle - 1.0) < 1e-6
        assert abs(ms.noise_information(noise) - oracle) < 1e-6

    def test_sampled_score_mean_is_zero(self):
        noise = ms.gaussian_noise()
        draws = noise.sampler(np.random.default_rng(7), 100_000)
        se = 1.0 / np.sqrt(100_000)
        assert abs(noise.psi(draws).mean()) < 4 * se

    def test_score_matches_log_density_slope(self, rng):
        noise = ms.gaussian_noise()
        h = 1e-6
        for u in rng.normal(size=50):
            fd = (noise.log_g(u + h) - noise.log_g(u - h)) / (2 * h)
            assert_close_rel(noise.psi(u), fd, rtol=1e-5, atol=1e-6)

    def test_scaled_sigma(self):
        noise = ms.gaussian_noise(2.0)
        assert noise.psi(1.0) == -0.25
        assert noise.support == (-24.0, 24.0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            ms.gaussian_noise(0.0)


class TestExample1:
    def test_drift_values(self, example1):
        theta = np.array([2.5])
        assert example1.drift.S(theta, 1.0) == pytest.approx(1.0 / 3.5)
        assert example1.drift.dS(theta, 1.0)[0] == pytest.approx(-1.0 / 3.5**2)

    def test_drift_vanishes_at_origin(self, example1, rng):
        for _ in range(10):
            theta = sample_domain(example1.domain, rng)
            assert example1.drift.S(theta, 0.0) == 0.0

    def test_domain(self, example1):
        np.testing.assert_array_equal(example1.domain.lower, [2.0])
        np.testing.assert_array_equal(example1.domain.upper, [5.0])


class TestExample2:
    def test_fixed_point_at_theta(self, example2):
        assert example2.drift.S(np.array([0.5]), 0.5) == pytest.approx(0.5)

    def test_gradient_values(self, example2):
        assert example2.drift.dS(np.array([0.5]), 0.5)[0] == pytest.approx(3.0)
        assert example2.drift.dS(np.array([0.5]), 1.5)[0] == pytest.approx(0.0)

    def test_shift_structure(self, example2, rng):
        # S(theta, x) - x depends only on x - theta
        for _ in range(25):
            theta = sample_domain(example2.domain, rng)
            x = rng.normal()
            c = rng.normal()
            lhs = example2.drift.S(theta + c, x + c) - (x + c)
            rhs = example2.drift.S(theta, x) - x
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestLinearModel:
    def test_drift(self, linear):
        assert linear.drift.S(np.array([0.5]), 2.0) == pytest.approx(1.0)

    def test_rejects_non_ergodic_domain(self):
        with pytest.raises(ValueError):
            ms.linear_model((-1.0, 0.5))
        with pytest.raises(ValueError):
            ms.linear_model((0.0, 1.0))

    def test_known_information(self, linear, big_traj_linear):
        # ground truth 1/(1-theta^2); cross-check by the long simulated run
        fm = ms.window_information(0.5, big_traj_linear, linear, "plugin")[1]
        assert fm.matrix[0, 0] == pytest.approx(1.0 / 0.75, rel=0.05)
        traj0 = ms.simulate(linear, 0.0, 100_000, seed=3)
        fm0 = ms.window_information(0.0, traj0, linear, "plugin")[1]
        assert fm0.matrix[0, 0] == pytest.approx(1.0, rel=0.05)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("model_key", ["example1", "example2", "linear"])
    def test_gradient_and_hessian_match_finite_differences(self, model_key, request, rng):
        model = request.getfixturevalue(model_key)
        dom = model.domain
        for _ in range(100):
            theta = sample_domain(dom, rng, margin=0.1)
            x = float(rng.normal(scale=1.5))
            if abs(x) < 0.05:
                x = 0.5
            grad = np.asarray(model.drift.dS(theta, x))
            fd = fd_grad(lambda t: float(model.drift.S(t, x)), theta)
            assert_close_rel(grad, fd, rtol=1e-5, atol=1e-7)
            hess = np.asarray(model.drift.d2S(theta, x))
            fdh = fd_jac(lambda t: np.asarray(model.drift.dS(t, x)), theta)
            assert_close_rel(hess, fdh, rtol=1e-4, atol=1e-6)

    def test_two_parameter_fixture(self, rng):
        model = pair_model()
        for _ in range(50):
            theta = sample_domain(model.domain, rng, margin=0.1)
            x = float(rng.normal(scale=1.5))
            fd = fd_grad(lambda t: float(model.drift.S(t, x)), theta)
            assert_close_rel(model.drift.dS(theta, x), fd, rtol=1e-5, atol=1e-8)
            fdh = fd_jac(lambda t: np.asarray(model.drift.dS(t, x)), theta)
            assert_close_rel(model.drift.d2S(theta, x), fdh, rtol=1e-4, atol=1e-7)


class TestRegistry:
    def test_builtin_lookup(self):
        for name in ("example1", "example2", "linear"):
            assert ms.get_model(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown model"):
            ms.get_model("no-such-model")

    def test_register_custom(self):
        from helpers import zero_model

        ms.register_model("zero-test", zero_model)
        assert ms.get_model("zero-test").name == "zero"

    @pytest.mark.parametrize(
        "name,factory,field",
        [(123, ms.linear_model, "name"), ("", ms.linear_model, "name"),
         (None, ms.linear_model, "name"), ("not-callable", "linear", "factory"),
         ("a-spec", ms.linear_model(), "factory")],
        ids=["int-name", "empty-name", "none-name", "str-factory", "spec-factory"],
    )
    def test_register_refuses_bad_name_or_factory(self, name, factory, field):
        # the registry is unchanged, so parsers built afterwards still work
        before = builtin_model_names()
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ms.register_model(name, factory)
        assert builtin_model_names() == before

    def test_dimension_mismatch_rejected(self, linear):
        from mlestep.models import Drift, ModelSpec, ParamDomain

        with pytest.raises(ValueError, match="gradient"):
            ModelSpec(
                drift=linear.drift,
                noise=linear.noise,
                domain=ParamDomain([0.0, 0.0], [1.0, 1.0]),
                name="bad",
            )

    @pytest.mark.parametrize(
        "part,bad",
        [
            ("S", lambda theta, x: np.zeros(3)),
            ("d2S", lambda theta, x: np.zeros(5)),
            ("d2S", lambda theta, x: np.zeros(np.shape(x) + (1,))),
        ],
        ids=["S-shape-3", "d2S-shape-5", "d2S-missing-axis"],
    )
    def test_value_and_hessian_shapes_probed(self, linear, part, bad):
        from dataclasses import replace

        from mlestep.models import ModelSpec

        with pytest.raises(ValueError, match=rf"drift \w+ {part} at a probe point") as err:
            ModelSpec(
                drift=replace(linear.drift, **{part: bad}),
                noise=linear.noise,
                domain=linear.domain,
                name="bad",
            )
        assert "expected" in str(err.value)

    def test_builtin_drifts_step_in_floats_and_broadcast(self, example1, example2, linear):
        for model in (example1, example2, linear):
            assert model._builtin
            # a python float state stays one, at a python float's cost per op
            assert type(model.drift.S(model.domain.midpoint().tolist(), 0.7)) is float

    @pytest.mark.parametrize("name,theta", [("example1", 2.5), ("example2", 0.5), ("linear", 0.5)])
    def test_unmarked_copies_give_the_builtins_bits(self, name, theta):
        # the fast paths a built-in takes give the bits of the general paths
        # that a spec built from its own parts, or replaced, takes
        from dataclasses import replace

        from mlestep.models import ModelSpec

        builtin = ms.get_model(name)
        copies = [ModelSpec(drift=builtin.drift, noise=builtin.noise, domain=builtin.domain,
                            name="copy")]
        if name == "example2":
            copies.append(replace(builtin, name="replaced"))
        traj = ms.simulate(builtin, theta, 1000, seed=6)
        for copy in copies:
            assert builtin._builtin and not copy._builtin
            for N in (17, 1000):
                for estimator in (ms.mle, ms.bayes):
                    got, want = estimator(traj, N, copy), estimator(traj, N, builtin)
                    assert got.theta.tobytes() == want.theta.tobytes()
                    assert got.diagnostics == want.diagnostics
            for rows in (3, 17):
                seeds = list(range(rows))
                got = ms.simulate_paths(copy, theta, 300, seeds)
                assert got.tobytes() == ms.simulate_paths(builtin, theta, 300, seeds).tobytes()
