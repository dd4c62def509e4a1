import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mlestep as ms
from mlestep import mc
from mlestep.errors import SimulationDiverged, StudyError
from mlestep.models import Drift, ModelSpec, NoiseDensity, ParamDomain, register_model
from mlestep.models import _linear_drift, _linear_drift_grad, _linear_drift_hess
from mlestep.models import _gauss_logpdf, _gauss_pdf, _gauss_score, _gauss_score_deriv

from helpers import cos_model, cubic_model


def _zero_sampler(rng, size=None):
    return np.zeros(size) if size is not None else 0.0


def silent_linear_model():
    """Linear drift with a noise stream that draws exact zeros."""
    noise = NoiseDensity(
        g=_gauss_pdf,
        log_g=_gauss_logpdf,
        psi=_gauss_score,
        dpsi=_gauss_score_deriv,
        sampler=_zero_sampler,
        support=(-12.0, 12.0),
    )
    return ModelSpec(
        drift=Drift(_linear_drift, _linear_drift_grad, _linear_drift_hess),
        noise=noise,
        domain=ParamDomain([-0.9], [0.9]),
        name="silent-linear",
    )


register_model("silent-linear", silent_linear_model)
register_model("cubic", cubic_model)
register_model("cos", cos_model)


class TestMcConfig:
    def test_requires_two_replications(self):
        with pytest.raises(ValueError, match="replications"):
            ms.McConfig("linear", 0.5, 100, 0.5, replications=1)

    def test_requires_interior_theta0(self):
        with pytest.raises(ValueError, match="interior"):
            ms.McConfig("linear", 0.95, 100, 0.5)

    def test_rejects_theta0_of_wrong_length(self):
        with pytest.raises(ValueError, match=r"theta0 has shape \(2,\).*length 1"):
            ms.McConfig("example2", [0.5, 0.3], 2000, 0.75, preliminary="emm", process="none",
                        replications=4)

    def test_rejects_unknown_pipeline(self):
        # each bad field fails at construction, naming the field
        cases = [
            (dict(preliminary="magic"), "preliminary"),
            (dict(process="three-step"), "process"),
            (dict(process=["one-step"]), "process"),
            (dict(fisher_method="bogus"), "fisher_method"),
            (dict(delta=1.5), "delta"),
            (dict(n=1), "n must"),
            (dict(n=2), "n=2"),
            (dict(grid_points=1), "grid_points"),
            (dict(burn_in=-1), "burn_in"),
            (dict(n=100.0), "n must be an integer"),
            (dict(replications=True), "replications"),
            (dict(base_seed=1.5), "base_seed"),
            (dict(burn_in="5"), "burn_in"),
            (dict(grid_points=100.5), "grid_points"),
            (dict(n=None), "n must be an integer"),
            (dict(base_seed=None), "base_seed must be an integer"),
            (dict(base_seed=-1), "base_seed must be >= 0"),
            (dict(grid_points=None), "grid_points must be an integer"),
            (dict(delta="0.5"), "delta must be a real number"),
            (dict(delta=None), "delta must be a real number"),
            (dict(delta=float("nan")), "delta"),
            (dict(theta0="abc"), "theta0 must be finite and real"),
            (dict(theta0=[float("nan")]), "theta0 must be finite and real"),
            (dict(theta0=[True]), "theta0 must be finite and real"),
            (dict(x_init="abc"), "x_init must be a finite real number"),
            (dict(x_init=float("nan")), "x_init must be a finite real number"),
            (dict(x_init=[0.0, 1.0]), "x_init must be a finite real number"),
            (dict(reference_information="abc"), "reference_information must be a finite real 1 x 1"),
            (dict(reference_information=[[1.0, 2.0]]), "reference_information must be"),
            (dict(reference_information=[[float("inf")]]), "reference_information must be"),
            (dict(reference_information=[[1.0], [2.0, 3.0]]), "reference_information must be"),
        ]
        for overrides, field in cases:
            kwargs = {"model_name": "linear", "theta0": 0.5, "n": 100, "delta": 0.5}
            with pytest.raises(ValueError, match=field):
                ms.McConfig(**{**kwargs, **overrides})

    def test_accepts_numpy_integers(self):
        cfg = ms.McConfig(
            "linear", 0.5, np.int64(100), 0.5, replications=np.int32(5), base_seed=np.int64(2),
            grid_points=np.int16(64), x_init=2,
        )
        plain = ms.McConfig("linear", 0.5, 100, 0.5, replications=5, base_seed=2, grid_points=64, x_init=2.0)
        text = json.dumps(cfg.to_json_dict())
        assert text == json.dumps(plain.to_json_dict())
        assert '"x_init": 2.0' in text

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            mc.mc_config_from_dict({"model_name": "linear", "bogus": 1})

    def test_json_round_trip(self):
        cfg = ms.McConfig("linear", 0.5, 100, 0.5, replications=5)
        back = mc.mc_config_from_dict(cfg.to_json_dict())
        assert back == cfg

    def test_float32_delta_round_trips_to_the_same_learning_length(self):
        cfg = ms.McConfig("linear", 0.5, 38103, np.float32(0.6), replications=5)
        back = mc.mc_config_from_dict(json.loads(json.dumps(cfg.to_json_dict())))
        Ns = [ms.learning_length(c.n, c.spec.delta) for c in (cfg, back)]
        assert Ns == [560, 560]

    def test_only_thinned_processes_get_the_terminal_stride(self):
        for process, stride in (("one-step", 400), ("second-preliminary", 400),
                                ("two-step", 400), ("recurrent", None), ("none", None),
                                ("full-mle", None)):
            cfg = ms.McConfig("example2", [0.5], 400, 0.375, process=process)
            assert cfg.spec.stride == stride


class TestRunStudy:
    def test_noiseless_fixture_zero_errors(self):
        cfg = ms.McConfig(
            "silent-linear",
            0.5,
            60,
            0.5,
            preliminary="mle",
            process="one-step",
            replications=2,
            burn_in=0,
            x_init=2.0,
            reference_information=((1.0,),),
        )
        report = ms.run_study(cfg)
        np.testing.assert_allclose(report.terminal_errors, 0.0, atol=1e-4)
        np.testing.assert_allclose(report.empirical_covariance, 0.0, atol=1e-8)

    def test_deterministic_given_base_seed(self):
        cfg = ms.McConfig(
            "linear", 0.5, 400, 0.6, preliminary="mle", process="one-step",
            replications=10, base_seed=3, reference_information=((4.0 / 3.0,),),
        )
        a = ms.run_study(cfg)
        b = ms.run_study(cfg)
        np.testing.assert_array_equal(a.terminal_errors, b.terminal_errors)
        assert a.quantiles == b.quantiles

    def test_parallel_matches_sequential(self):
        # two blocks with two workers, and three blocks with one worker but
        # four with two
        for replications in (8, 2 * mc._BLOCK_ROWS + 1):
            cfg = ms.McConfig(
                "linear", 0.5, 400, 0.6, preliminary="mle", process="one-step",
                replications=replications, base_seed=3, reference_information=((4.0 / 3.0,),),
            )
            seq = ms.run_study(cfg, workers=1)
            par = ms.run_study(cfg, workers=2)
            np.testing.assert_array_equal(seq.terminal_errors, par.terminal_errors)
            assert seq.failures == par.failures

    @given(
        replications=st.integers(2, 9),
        block_rows=st.integers(1, 4),
        base_seed=st.integers(0, 50),
    )
    @settings(max_examples=5)
    def test_reports_do_not_depend_on_the_worker_count(self, replications, block_rows, base_seed):
        # every block split of a small study, through both entry points
        shared = dict(
            model_name="example2", theta0=0.5, n=120, delta=0.5, replications=replications,
            base_seed=base_seed, reference_information=((2.15,),),
        )
        cfgs = [
            ms.McConfig(preliminary="mle", process="one-step", **shared),
            ms.McConfig(preliminary="bayes", process="two-step", fisher_method="plugin", **shared),
            ms.McConfig(preliminary="emm", process="none", **shared),
        ]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mc, "_BLOCK_ROWS", block_rows)
            rows = [ms.compare_estimators(cfgs, workers=w) for w in (1, 2)]
            reports = [
                mc.report_to_json_dict(ms.run_study(cfgs[0], workers=w)) for w in (1, 2)
            ]
        assert rows[0] == rows[1]
        assert reports[0] == reports[1]

    def test_block_bounds(self):
        def cfg(n, replications):
            return ms.McConfig(
                "linear", 0.5, n, 0.6, replications=replications,
                reference_information=((4.0 / 3.0,),),
            )

        def sizes(bounds):
            assert bounds[0][0] == 0 and all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
            return [stop - start for start, stop in bounds]

        assert sizes(mc._block_bounds(cfg(10_000, 300), 1)) == [60] * 5
        # each of 4 workers gets two blocks, as it got 75 replications before
        assert sizes(mc._block_bounds(cfg(10_000, 300), 4)) == [37, 38] * 4
        assert sizes(mc._block_bounds(cfg(10_000, 8), 2)) == [4, 4]
        assert sizes(mc._block_bounds(cfg(10_000, 3), 8)) == [1, 1, 1]
        # long chains fall back to fewer rows per block, down to one
        assert sizes(mc._block_bounds(cfg(100_000, 20), 1)) == [10, 10]
        assert sizes(mc._block_bounds(cfg(1_000_000, 3), 1)) == [1, 1, 1]

    def test_small_blocks_match_large(self, monkeypatch):
        cfg = ms.McConfig(
            "example2", 0.5, 400, 0.5, preliminary="emm", process="one-step",
            replications=7, base_seed=2, reference_information=((2.15,),),
        )
        large = ms.run_study(cfg)
        # a byte budget of three rows at this n
        monkeypatch.setattr(mc, "_BLOCK_BYTES", 3 * 16 * (cfg.burn_in + cfg.n + 1))
        calls = []
        real = mc.simulate_paths

        def spy(model, theta, n, seeds, **kwargs):
            calls.append(list(seeds))
            return real(model, theta, n, seeds, **kwargs)

        monkeypatch.setattr(mc, "simulate_paths", spy)
        small = ms.run_study(cfg)
        assert calls == [[2, 3], [4, 5], [6, 7, 8]]
        np.testing.assert_array_equal(small.terminal_errors, large.terminal_errors)

    def test_rejects_bad_worker_count(self):
        cfg = ms.McConfig(
            "linear", 0.5, 400, 0.6, replications=2, reference_information=((4.0 / 3.0,),),
        )
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers"):
                ms.run_study(cfg, workers=workers)
            with pytest.raises(ValueError, match="workers"):
                ms.compare_estimators([cfg], workers=workers)

    def test_stride_key_is_ignored_with_one_warning(self):
        # older config files carry a stride; a study reads terminals only
        payload = dict(
            model_name="example2", theta0=[0.5], n=400, delta=0.375, preliminary="emm",
            process="two-step", fisher_method="plugin", replications=3,
            reference_information=[[2.15]],
        )
        plain = ms.run_study(mc.mc_config_from_dict(payload))
        for stride in (1, 5, None):
            with pytest.warns(FutureWarning, match="stride") as caught:
                cfg = mc.mc_config_from_dict({**payload, "stride": stride})
            assert len(caught) == 1
            assert cfg == plain.config and cfg.spec == plain.config.spec
            assert "stride" not in cfg.to_json_dict()
            report = ms.run_study(cfg)
            assert mc.report_to_json_dict(report) == mc.report_to_json_dict(plain)

    def test_diverging_rows_fail_alone(self):
        # theta x^3 escapes to infinity within 8 steps on a few seeds only
        n, theta0 = 7, 0.5
        cfg = ms.McConfig(
            "cubic", theta0, n, 0.5, preliminary="emm", process="none",
            replications=mc._BLOCK_ROWS + 6, burn_in=0, reference_information=((1.0,),),
        )
        report = ms.run_study(cfg)
        model = ms.get_model("cubic")
        expected, survivors = {}, []
        for i in range(cfg.replications):
            try:
                traj = ms.simulate(model, theta0, n, seed=i, burn_in=0)
            except SimulationDiverged as exc:
                expected[i] = f"SimulationDiverged: {exc}"
            else:
                survivors.append(mc._replicate(cfg, traj, model))
        assert 0 < len(expected) < cfg.replications
        assert dict(report.failures) == expected
        np.testing.assert_array_equal(
            report.terminal_errors, np.sqrt(n) * (np.array(survivors) - theta0)
        )

    def test_two_step_terminal_is_the_path_terminal(self, example2):
        n = 400
        cfg = ms.McConfig(
            "example2", 0.5, n, 0.375, preliminary="emm", process="two-step",
            fisher_method="plugin", replications=3, base_seed=5,
            reference_information=((2.15,),),
        )
        report = ms.run_study(cfg)
        N = ms.learning_length(n, 0.375)
        for i, seed in enumerate(report.seeds):
            traj = ms.simulate(example2, 0.5, n, seed=int(seed))
            path = ms.two_step_path(traj, example2, ms.emm(traj, N, example2), "plugin", stride=n)
            assert list(path.ks) == [n]
            np.testing.assert_array_equal(
                report.terminal_errors[i], np.sqrt(n) * (path.terminal - 0.5)
            )

    def test_failures_recorded_and_skipped(self, monkeypatch):
        real = mc._replicate

        def flaky(cfg, traj, model):
            if traj.seed % 7 == 0:
                raise ValueError("synthetic failure")
            return real(cfg, traj, model)

        monkeypatch.setattr(mc, "_replicate", flaky)
        cfg = ms.McConfig(
            "linear", 0.5, 300, 0.6, preliminary="mle", process="one-step",
            replications=20, base_seed=1, reference_information=((4.0 / 3.0,),),
        )
        report = ms.run_study(cfg)
        failed = {i for i, _ in report.failures}
        assert failed == {6, 13}  # seeds 7 and 14
        assert report.terminal_errors.shape == (18, 1)
        assert all("synthetic failure" in msg for _, msg in report.failures)

    def test_too_many_failures_error(self, monkeypatch):
        def broken(cfg, traj, model):
            raise ValueError("always down")

        monkeypatch.setattr(mc, "_replicate", broken)
        cfg = ms.McConfig(
            "linear", 0.5, 300, 0.6, replications=10,
            reference_information=((4.0 / 3.0,),),
        )
        with pytest.raises(StudyError, match="10 of 10"):
            ms.run_study(cfg)

    def test_quantile_table_structure(self):
        cfg = ms.McConfig(
            "linear", 0.5, 500, 0.6, preliminary="mle", process="one-step",
            replications=40, reference_information=((4.0 / 3.0,),),
        )
        report = ms.run_study(cfg)
        emp = report.quantiles["empirical"]
        gauss = report.quantiles["gaussian"]
        assert set(emp) == {5, 25, 50, 75, 95}
        assert gauss[50][0] == pytest.approx(0.0)
        assert gauss[5][0] == pytest.approx(-gauss[95][0])
        assert emp[5][0] <= emp[25][0] <= emp[50][0] <= emp[75][0] <= emp[95][0]
        eig = np.linalg.eigvalsh(report.empirical_covariance)
        assert eig.min() >= 0.0


class TestBias:
    def test_mean_error_is_the_offset_of_the_outcomes(self):
        cfg = ms.McConfig("linear", 0.5, 400, 0.6, replications=10,
                          reference_information=((4.0 / 3.0,),))
        # sqrt(n)-scaled errors 1.5 + spread; replication 4 fails and is left out
        spread = [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 0.5, -0.5]
        outcomes = [(np.array([0.5 + (1.5 + e) / 20.0]), None) for e in spread]
        outcomes.insert(4, (None, "synthetic failure"))
        report = mc._report(cfg, np.eye(1), outcomes)
        assert report.replications_used == 9
        assert report.mean_error.shape == (1,)
        assert report.mean_error[0] == pytest.approx(1.5, rel=1e-12)

    def test_mse_is_the_covariance_plus_the_squared_mean(self):
        cfg = ms.McConfig("cos", [0.1, 0.2], 400, 0.6, replications=12,
                          reference_information=((1.0, 0.0), (0.0, 1.0)))
        rng = np.random.default_rng(5)
        errors = rng.normal(size=(12, 2)) @ np.array([[1.0, 0.4], [0.0, 0.7]]) + [0.8, -1.3]
        report = mc._report(cfg, np.eye(2), [(cfg.theta0 + e / 20.0, None) for e in errors])
        r, cov, mean = report.replications_used, report.empirical_covariance, report.mean_error
        assert report.mse.shape == (2, 2)
        np.testing.assert_allclose(report.mse, cov * (r - 1) / r + np.outer(mean, mean),
                                   rtol=1e-12, atol=1e-12)


def _drifting_S(theta, x):
    return x + theta[0]


def _drifting_dS(theta, x):
    return np.ones(np.shape(x) + (1,))


def _drifting_d2S(theta, x):
    return np.zeros(np.shape(x) + (1, 1))


class TestOracle:
    def test_cached_and_positive(self, example2):
        a = ms.oracle_information(example2, 0.5)
        b = ms.oracle_information(example2, 0.5)
        assert a is b
        assert a.matrix[0, 0] > 0
        assert a.method == "oracle"

    def test_linear_is_exact(self, linear):
        # the stationary law is N(0, 1 / (1 - theta^2)), so I = 1 / (1 - 0.25)
        assert abs(ms.oracle_information(linear, 0.5).matrix[0, 0] - 4.0 / 3.0) < 1e-10

    def test_example2_is_a_location_family(self, example2):
        values = [ms.oracle_information(example2, theta).matrix[0, 0] for theta in (-0.9, 0.0, 0.9)]
        assert max(values) - min(values) < 1e-7

    def test_two_parameters_symmetric_positive_definite(self):
        info = ms.oracle_information(cos_model(), [0.2, 0.1]).matrix
        assert info.shape == (2, 2)
        assert info[0, 1] == info[1, 0]
        assert np.linalg.eigvalsh(info)[0] > 0.1

    @pytest.mark.parametrize("name, theta", [("example1", 2.5), ("example2", 0.5)])
    def test_within_one_percent_of_a_simulated_plug_in(self, name, theta):
        model = ms.get_model(name)
        traj = ms.simulate(model, theta, 1_000_000, seed=20_240_001, burn_in=1000)
        simulated = ms.window_information(theta, traj, model, "plugin")[1].matrix[0, 0]
        tabulated = ms.oracle_information(model, theta).matrix[0, 0]
        assert tabulated == pytest.approx(simulated, rel=0.01)

    def test_transient_law_refused(self):
        # X_j = X_{j-1} + theta + eps has no invariant law: its mass runs off
        # every window, while I = 1 at every window
        model = ModelSpec(Drift(_drifting_S, _drifting_dS, _drifting_d2S), ms.gaussian_noise(),
                          ParamDomain([0.5], [1.5]), "drifting")
        with pytest.raises(ms.MlestepError, match="'drifting' .* not resolved by the half-window 384"):
            ms.oracle_information(model, 1.0)

    def test_out_of_domain_theta0_refused(self, example2):
        with pytest.raises(ValueError, match="theta0 .* is not interior"):
            ms.oracle_information(example2, 1.5)

    def test_keyed_by_the_law_not_only_by_its_name(self, monkeypatch):
        # three other laws named "linear", asked for after the built-in's
        # oracle is cached: each gets the oracle of its own law
        noise = dataclasses.replace(ms.gaussian_noise(), g=ms.gaussian_noise(2.0).g)
        object.__setattr__(noise, "_information", 1.0)
        others = {
            "replaced spec": dataclasses.replace(ms.example2_model(), name="linear"),
            "only the density g differs": dataclasses.replace(ms.linear_model(), noise=noise),
        }
        monkeypatch.setitem(ms.models._REGISTRY, "linear", lambda: dataclasses.replace(
            ms.example2_model(), name="linear", noise=ms.gaussian_noise(0.5)))
        others["re-registered name"] = ms.get_model("linear")

        def alone(model):
            monkeypatch.setattr(mc, "_oracle_cache", {})
            return ms.oracle_information(model, 0.5)

        expected = {what: alone(model).matrix[0, 0] for what, model in others.items()}
        builtin = alone(ms.linear_model())
        assert len({builtin.matrix[0, 0], *expected.values()}) == 4
        for what, model in others.items():
            assert ms.oracle_information(model, 0.5).matrix[0, 0] == expected[what], what
        # a second built-in spec is the same law: still a hit
        assert ms.oracle_information(ms.linear_model(), 0.5) is builtin

    def test_length_deprecated_and_ignored(self, linear):
        with pytest.warns(FutureWarning, match="n_oracle"):
            info = ms.oracle_information(linear, 0.5, 20_000)
        assert info is ms.oracle_information(linear, 0.5)

    @pytest.mark.parametrize("n_oracle", [2000.7, True, "2000"])
    def test_non_integer_length_refused(self, linear, n_oracle):
        # deprecated, but still refused as before rather than truncated by int()
        with pytest.raises(ValueError, match="n_oracle must be an integer"):
            ms.oracle_information(linear, 0.5, n_oracle)


class TestCompare:
    def test_requires_shared_frame(self):
        a = ms.McConfig("linear", 0.5, 100, 0.5, replications=3)
        b = ms.McConfig("linear", 0.4, 100, 0.5, replications=3)
        with pytest.raises(ValueError, match="share"):
            ms.compare_estimators([a, b])
        with pytest.raises(ValueError, match="no study"):
            ms.compare_estimators([])

    def test_single_pipeline_single_row(self):
        cfg = ms.McConfig(
            "linear", 0.5, 300, 0.6, preliminary="mle", process="one-step",
            replications=10, reference_information=((4.0 / 3.0,),),
        )
        rows = ms.compare_estimators([cfg])
        assert len(rows) == 1
        assert rows[0]["pipeline"] == "mle+one-step"
        assert rows[0]["replications_used"] == 10

    def test_each_seed_simulated_once(self, monkeypatch):
        simulated = []
        real = mc.simulate_paths

        def spy(model, theta, n, seeds, **kwargs):
            simulated.extend(seeds)
            return real(model, theta, n, seeds, **kwargs)

        monkeypatch.setattr(mc, "simulate_paths", spy)
        shared = dict(
            model_name="example2", theta0=0.5, n=300, delta=0.6, replications=5,
            base_seed=11, reference_information=((2.15,),),
        )
        cfgs = [
            ms.McConfig(preliminary="emm", process="none", **shared),
            ms.McConfig(preliminary="mle", process="one-step", **shared),
            ms.McConfig(preliminary="mle", process="full-mle", **shared),
        ]
        rows = ms.compare_estimators(cfgs)
        assert simulated == list(range(11, 16))
        for cfg, row in zip(cfgs, rows):
            alone = ms.run_study(cfg)
            assert row["variance"] == alone.empirical_covariance.tolist()
            assert row["mean_error"] == alone.mean_error.tolist()
            assert row["mse"] == alone.mse.tolist()
            assert row["quantiles"] == alone.quantiles["empirical"]

    def test_efficiency_ordering_example2(self, example2):
        # EMM alone is rate-suboptimal; one-step reaches the MLE's spread
        n = 10_000
        shared = dict(model_name="example2", theta0=0.5, n=n, replications=300)
        cfgs = [
            ms.McConfig(delta=0.75, preliminary="emm", process="none", **shared),
            ms.McConfig(
                delta=0.75, preliminary="mle", process="one-step",
                fisher_method="factorized", **shared,
            ),
            ms.McConfig(delta=0.75, preliminary="mle", process="full-mle", **shared),
        ]
        rows = ms.compare_estimators(cfgs)
        var = {row["pipeline"]: row["variance"][0][0] for row in rows}
        assert var["emm+none"] > var["mle+one-step"]
        ratio = var["mle+one-step"] / var["mle+full-mle"]
        assert 0.8 <= ratio <= 1.25
        oracle_inv = 1.0 / ms.oracle_information(example2, 0.5).matrix[0, 0]
        assert var["mle+full-mle"] == pytest.approx(oracle_inv, rel=0.2)


class TestReportSerialization:
    def test_json_and_csv(self, tmp_path):
        cfg = ms.McConfig(
            "linear", 0.5, 300, 0.6, preliminary="mle", process="one-step",
            replications=6, reference_information=((4.0 / 3.0,),),
        )
        report = ms.run_study(cfg)
        jpath = tmp_path / "report.json"
        cpath = tmp_path / "report.csv"
        mc.write_report_json(report, jpath)
        mc.write_report_csv(report, cpath)
        payload = json.loads(jpath.read_text())
        assert payload["config"]["model_name"] == "linear"
        assert len(payload["terminal_errors"]) == 6
        assert payload["quantiles"]["empirical"]["50"]
        assert payload["mean_error"] == report.mean_error.tolist()
        assert payload["mse"] == report.mse.tolist()
        lines = cpath.read_text().strip().splitlines()
        assert lines[1] == "replication,seed,err_1"
        assert len(lines) == 2 + 6

    def test_csv_rows_skip_failed_replications(self, tmp_path, monkeypatch):
        real = mc._replicate

        def flaky(cfg, traj, model):
            if traj.seed in (3, 9):
                raise ValueError("synthetic failure")
            return real(cfg, traj, model)

        monkeypatch.setattr(mc, "_replicate", flaky)
        cfg = ms.McConfig(
            "linear", 0.5, 300, 0.6, preliminary="mle", process="one-step",
            replications=20, base_seed=1, reference_information=((4.0 / 3.0,),),
        )
        report = ms.run_study(cfg)
        assert [i for i, _ in report.failures] == [2, 8]
        cpath = tmp_path / "report.csv"
        mc.write_report_csv(report, cpath)
        lines = cpath.read_text().splitlines()
        assert json.loads(lines[0][2:]) == cfg.to_json_dict()
        assert lines[1] == "replication,seed,err_1"
        rows = [line.split(",") for line in lines[2:]]
        assert [(int(i), int(seed)) for i, seed, _ in rows] == [
            (i, 1 + i) for i in range(20) if i not in (2, 8)
        ]
        errors = np.array([[float(err)] for _, _, err in rows])
        np.testing.assert_array_equal(errors, report.terminal_errors)


class TestClosedForms:
    """The values the package keeps in place of a scipy call agree with it."""

    def test_gaussian_quantiles_are_norm_ppf(self):
        from scipy.stats import norm

        want = norm.ppf(np.array(mc.QUANTILE_LEVELS) / 100.0)
        assert np.all(np.abs(mc._GAUSSIAN_Z - want) <= np.spacing(np.abs(want)))

    @pytest.mark.parametrize("sigma", [0.1, 0.3, 0.7, 1.0, 1.5, 2.0, 3.0, 7.3])
    def test_gaussian_noise_information_is_the_quadrature(self, sigma):
        noise = ms.gaussian_noise(sigma)
        closed = noise._information
        assert closed == 1.0 / sigma**2
        quadrature = ms.noise_information(noise)
        assert abs(closed - quadrature) <= 4 * np.spacing(closed)
        if sigma == 1.0:
            assert closed == quadrature == 1.0
