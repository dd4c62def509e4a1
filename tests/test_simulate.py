import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mlestep as ms
from mlestep.errors import SimulationDiverged
from mlestep.models import ModelSpec
from mlestep.simulate import (
    _ROW_CHAINS,
    Trajectory,
    read_trajectory_json,
    write_trajectory_csv,
    write_trajectory_json,
)

from helpers import cubic_model, make_traj, pair_model, zero_model

_MODELS = {
    "example1": (ms.example1_model, 2.5),
    "example2": (ms.example2_model, 0.5),
    "linear": (ms.linear_model, 0.5),
    "pair": (pair_model, [0.1, -0.2]),
}


def _array_theta_S(theta, x):
    # reads theta.shape, which a list theta lacks
    return theta[0] * x + 0.0 * theta.shape[0]


def _steep_S(theta, x):
    # x**400 overflows from |x| of about 5.9: a python float raises there,
    # where a numpy scalar gives inf and the term 0
    return theta[0] * x + 1.0 / (1.0 + x**400)


def _linear_with(S, name):
    linear = ms.linear_model()
    return ModelSpec(drift=replace(linear.drift, S=S), noise=linear.noise,
                     domain=linear.domain, name=name)


def _numpy_scalar_states(model, theta, n, seed, burn_in, x_init):
    """The retained states of one chain stepped as numpy scalars, the way
    every chain was stepped before python floats."""
    noise = model.noise.sampler(np.random.default_rng(seed), burn_in + n + 1)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    x, states = np.float64(x_init), []
    with np.errstate(over="ignore", invalid="ignore"):
        for eps in noise:
            x = model.drift.S(theta, x) + eps
            states.append(x)
    return np.array(states[burn_in:])


class TestTrajectoryType:
    def test_requires_two_observations(self):
        with pytest.raises(ValueError):
            make_traj([1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            make_traj([0.0, np.inf])

    def test_rejects_negative_burn_in(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros(3), np.array([0.0]), 0, -1, "x")

    def test_refuses_malformed_fields_by_name(self):
        good = dict(observations=np.zeros(3), true_theta=np.array([0.0]), seed=0, burn_in=0,
                    model_name="x")
        for overrides, message in (
            (dict(burn_in=None), "burn_in must be an integer"),
            (dict(burn_in=True), "burn_in must be an integer"),
            (dict(seed={"a": 1}), "seed must be an integer"),
            (dict(seed=1.7), "seed must be an integer"),
            (dict(observations="abc"), "observations must be finite real numbers"),
            (dict(observations=[0.0] * 10**5 + [None]), "observations must be finite real numbers"),
            (dict(true_theta=[float("nan")]), "true_theta must be finite and real"),
            (dict(x_init=float("nan")), "x_init must be a finite real number"),
            (dict(x_init="3"), "x_init must be a finite real number"),
        ):
            with pytest.raises(ValueError, match=message) as err:
                Trajectory(**{**good, **overrides})
            assert len(str(err.value)) < 200
        # numpy integers are integers, and float64 observations are not copied
        traj = Trajectory(**{**good, "seed": np.int64(3), "burn_in": np.int32(0)})
        assert traj.observations is good["observations"]

    def test_transition_count(self):
        assert make_traj(np.zeros(11)).n == 10


class TestSimulate:
    def test_deterministic(self, linear):
        a = ms.simulate(linear, 0.5, 500, seed=9)
        b = ms.simulate(linear, 0.5, 500, seed=9)
        np.testing.assert_array_equal(a.observations, b.observations)

    def test_seed_changes_draws(self, linear):
        a = ms.simulate(linear, 0.5, 500, seed=9)
        b = ms.simulate(linear, 0.5, 500, seed=10)
        assert not np.array_equal(a.observations, b.observations)

    @pytest.mark.parametrize("name", list(_MODELS))
    def test_lockstep_rows_match_single_runs(self, name):
        # a lone chain and a small block step each row as a scalar chain, a
        # block above _ROW_CHAINS rows steps them as lockstep arrays: same bits
        factory, theta = _MODELS[name]
        model = factory()
        for rows in (3, _ROW_CHAINS + 1):
            seeds = list(range(3, 3 + rows))
            batch = ms.simulate_paths(model, theta, 400, seeds=seeds)
            for i, seed in enumerate(seeds):
                solo = ms.simulate(model, theta, 400, seed=seed)
                np.testing.assert_array_equal(batch[i], solo.observations)

    @given(
        name=st.sampled_from(list(_MODELS)),
        rows=st.integers(1, _ROW_CHAINS + 4),
        n=st.integers(1, 300),
        burn_in=st.integers(0, 50),
        x_init=st.floats(-5.0, 5.0),
        first_seed=st.integers(0, 1000),
    )
    @settings(max_examples=100)
    def test_every_row_is_its_seeds_chain(self, name, rows, n, burn_in, x_init, first_seed):
        factory, theta = _MODELS[name]
        model = factory()
        seeds = list(range(first_seed, first_seed + rows))
        batch = ms.simulate_paths(model, theta, n, seeds, burn_in=burn_in, x_init=x_init)
        assert batch.shape == (rows, n + 1)
        for i, seed in enumerate(seeds):
            solo = ms.simulate(model, theta, n, seed, burn_in=burn_in, x_init=x_init)
            assert batch[i].tobytes() == solo.observations.tobytes()
        expected = _numpy_scalar_states(model, theta, n, seeds[0], burn_in, x_init)
        assert batch[0].tobytes() == expected.tobytes()

    def test_drift_refusing_a_list_theta_steps_as_numpy_scalars(self):
        model = _linear_with(_array_theta_S, "array-theta")
        assert not model._steps_floats
        traj = ms.simulate(model, 0.5, 500, seed=4, burn_in=20, x_init=1.5)
        expected = _numpy_scalar_states(model, 0.5, 500, 4, 20, 1.5)
        assert traj.observations.tobytes() == expected.tobytes()

    def test_float_step_that_raises_is_stepped_as_numpy_scalars(self):
        model = _linear_with(_steep_S, "steep")
        assert model._steps_floats
        with pytest.raises(OverflowError):
            _steep_S([0.5], 6.0)
        traj = ms.simulate(model, 0.5, 500, seed=4, burn_in=0, x_init=6.0)
        expected = _numpy_scalar_states(model, 0.5, 500, 4, 0, 6.0)
        assert np.all(np.isfinite(expected))
        assert traj.observations.tobytes() == expected.tobytes()

    def test_zero_drift_gives_iid_noise(self):
        model = zero_model()
        traj = ms.simulate(model, 0.0, 100_000, seed=1)
        assert abs(traj.observations[1:].mean()) < 4.0 / np.sqrt(100_000)

    def test_linear_stationary_variance(self, big_traj_linear):
        var = big_traj_linear.observations.var()
        assert var == pytest.approx(1.0 / 0.75, rel=0.05)

    def test_example2_mean_near_theta(self, big_traj_example2):
        # batch-means standard error to absorb the chain's autocorrelation
        xs = big_traj_example2.observations[1:]
        batches = xs.reshape(100, -1).mean(axis=1)
        se = batches.std(ddof=1) / np.sqrt(100)
        assert abs(xs.mean() - 0.5) < 4 * se

    def test_theta_outside_domain_rejected(self, linear):
        with pytest.raises(ValueError, match="interior"):
            ms.simulate(linear, 0.95, 100, seed=0)

    def test_theta_of_wrong_length_rejected(self, example2):
        with pytest.raises(ValueError, match=r"theta has shape \(2,\).*length 1"):
            ms.simulate(example2, [0.5, 0.3], 100, seed=0)

    def test_validates_sizes(self, linear):
        with pytest.raises(ValueError):
            ms.simulate(linear, 0.5, 0, seed=0)
        with pytest.raises(ValueError):
            ms.simulate(linear, 0.5, 10, seed=0, burn_in=-1)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            ms.simulate_paths(linear, 0.5, 10, seeds=[0, -1])
        # refused by name, not truncated or left to a TypeError
        for kwargs, field in (
            (dict(n=10.5), "n must be an integer"),
            (dict(burn_in=2.5), "burn_in must be an integer"),
            (dict(burn_in=True), "burn_in must be an integer"),
            (dict(seed=1.7), "seed must be an integer"),
            (dict(seed=True), "seed must be an integer"),
            (dict(seed="3"), "seed must be an integer"),
        ):
            with pytest.raises(ValueError, match=field):
                ms.simulate(linear, 0.5, **{"n": 10, **kwargs})
        with pytest.raises(ValueError, match="seed must be an integer"):
            ms.simulate_paths(linear, 0.5, 10, seeds=[1.5, 2])
        traj = ms.simulate(linear, 0.5, np.int64(10), seed=np.int32(3), burn_in=np.int16(5))
        assert (traj.n, traj.seed, traj.burn_in) == (10, 3, 5)

    def test_non_finite_x_init_rejected(self, example2):
        # refused by name, not reported as a divergence blamed on theta
        for x_init in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="x_init must be a finite real number"):
                ms.simulate(example2, 0.5, 100, seed=0, x_init=x_init)
            with pytest.raises(ValueError, match="x_init must be a finite real number"):
                ms.simulate_paths(example2, 0.5, 100, seeds=[0, 1], x_init=x_init)

    def test_divergence_names_step(self):
        model = cubic_model()
        with pytest.raises(SimulationDiverged) as err:
            ms.simulate(model, 0.5, 500, seed=2, burn_in=0)
        assert err.value.step >= 1
        assert "step" in str(err.value)
        # row by row and in lockstep, the first diverging row raises
        # simulate's own error
        for seeds in ([2, 3], list(range(2, 3 + _ROW_CHAINS))):
            with pytest.raises(SimulationDiverged) as batch_err:
                ms.simulate_paths(model, 0.5, 500, seeds=seeds, burn_in=0)
            assert str(batch_err.value) == str(err.value)
            assert batch_err.value.step == err.value.step
        # lockstep with burn-in, the first diverging row not row 0: seed 7
        # outlasts both chains (12 and 13 steps), seed 8 leaves the finite
        # range at step 8, inside the first burn-in and after the second
        seeds = list(range(7, 9 + _ROW_CHAINS))
        for n, burn_in in ((3, 8), (10, 2)):
            ms.simulate(model, 0.5, n, seed=7, burn_in=burn_in)
            with pytest.raises(SimulationDiverged) as err:
                ms.simulate(model, 0.5, n, seed=8, burn_in=burn_in)
            assert err.value.step == 8
            with pytest.raises(SimulationDiverged) as batch_err:
                ms.simulate_paths(model, 0.5, n, seeds=seeds, burn_in=burn_in)
            assert str(batch_err.value) == str(err.value)
            assert batch_err.value.step == err.value.step

    def test_burn_in_shifts_the_stream(self, linear):
        # with burn_in = b, the retained states continue the same noise stream
        full = ms.simulate(linear, 0.5, 300, seed=5, burn_in=0)
        cut = ms.simulate(linear, 0.5, 200, seed=5, burn_in=100)
        np.testing.assert_array_equal(cut.observations, full.observations[100:301])


class TestSerialization:
    def test_csv_roundtrip_shape(self, tmp_path, linear):
        traj = ms.simulate(linear, 0.5, 50, seed=1)
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "index,x"
        assert len(lines) == 2 + 51
        meta = json.loads(lines[0][2:])
        assert meta["model_name"] == "linear"

    def test_json_roundtrip_exact(self, tmp_path, example2):
        traj = ms.simulate(example2, 0.5, 50, seed=1)
        out = tmp_path / "traj.json"
        write_trajectory_json(traj, out)
        back = read_trajectory_json(out)
        np.testing.assert_array_equal(back.observations, traj.observations)
        assert back.seed == traj.seed
        assert back.burn_in == traj.burn_in
        assert back.model_name == traj.model_name
        np.testing.assert_array_equal(back.true_theta, traj.true_theta)

    def test_json_round_trip_keeps_x_init(self, tmp_path, example2):
        traj = ms.simulate(example2, 0.5, 5, seed=1, burn_in=0, x_init=3.0)
        out = tmp_path / "traj.json"
        write_trajectory_json(traj, out)
        assert json.loads(out.read_text())["x_init"] == 3.0
        assert read_trajectory_json(out).x_init == 3.0
        # a file written before x_init was recorded holds a chain started at 0.0
        payload = json.loads(out.read_text())
        del payload["x_init"]
        out.write_text(json.dumps(payload))
        assert read_trajectory_json(out).x_init == 0.0

    @staticmethod
    def _awkward_traj(example2):
        traj = ms.simulate(example2, 0.5, 500, seed=12)
        obs = traj.observations.copy()
        obs[:6] = [-0.0, 5e-324, 1e300, -1e-300, 1 / 3, 2.0**60]
        return make_traj(obs, 0.5, "example2", seed=12, burn_in=1000)

    def test_csv_bytes_match_reference_formatter(self, tmp_path, example2):
        traj = self._awkward_traj(example2)
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, out)
        expected = "# " + json.dumps(traj.meta()) + "\nindex,x\n"
        expected += "".join(f"{i},{x:.17g}\n" for i, x in enumerate(traj.observations))
        assert out.read_bytes() == expected.encode()

    def test_csv_round_trip_exact(self, tmp_path, example2):
        traj = self._awkward_traj(example2)
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, out)
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert [int(r[0]) for r in rows] == list(range(traj.n + 1))
        xs = np.array([float(r[1]) for r in rows])
        assert np.array_equal(xs, traj.observations)
        assert np.array_equal(np.signbit(xs), np.signbit(traj.observations))

    def test_json_bytes_match_reference_encoder(self, tmp_path, example2):
        traj = self._awkward_traj(example2)
        out = tmp_path / "traj.json"
        write_trajectory_json(traj, out)
        # the streaming encoder the writer replaced
        ref = tmp_path / "ref.json"
        with open(ref, "w") as fh:
            json.dump(dict(traj.meta(), observations=traj.observations.tolist()), fh)
            fh.write("\n")
        assert out.read_bytes() == ref.read_bytes()
        back = read_trajectory_json(out)
        assert np.array_equal(back.observations, traj.observations)
        assert np.array_equal(np.signbit(back.observations), np.signbit(traj.observations))
