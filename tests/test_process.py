import json
import logging

import numpy as np
import pytest
from hypothesis import given, reject, strategies as st

import mlestep as ms
from mlestep import fisher as fisher_module, process as process_module
from mlestep.errors import DegenerateInformationError, MlestepError
from mlestep.fisher import FISHER_METHODS, invert_fisher, window_information
from mlestep.likelihood import loglik_grad
from mlestep.models import Drift, ModelSpec
from mlestep.preliminary import PreliminaryEstimate, emm, learning_length, mle
from mlestep.process import (
    EstimatorPath,
    Pipeline,
    full_mle_path,
    one_step_path,
    path_to_json_dict,
    recurrent_path,
    second_preliminary_path,
    two_step_path,
    write_path_csv,
)

from helpers import (
    cos_model,
    kink_model,
    make_traj,
    noiseless_linear_traj,
    pair_model,
    two_step_reference,
)


def fixed_prelim(theta, N):
    return PreliminaryEstimate(np.atleast_1d(theta), "fixed", N, {})


class TestEstimatorPathType:
    def test_rejects_no_ks(self):
        with pytest.raises(ValueError, match="non-empty and aligned"):
            EstimatorPath(np.array([], dtype=int), np.zeros((0, 1)), "one-step", 2, None, 10)

    def test_rejects_non_increasing_ks(self):
        with pytest.raises(ValueError, match="increasing"):
            EstimatorPath(np.array([5, 5]), np.zeros((2, 1)), "one-step", 2, None, 10)

    def test_rejects_k_at_or_below_learning_length(self):
        with pytest.raises(ValueError, match="exceed"):
            EstimatorPath(np.array([2, 3]), np.zeros((2, 1)), "one-step", 2, None, 10)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            EstimatorPath(
                np.array([3, 4]), np.array([[0.0], [np.nan]]), "one-step", 2, None, 10
            )

    def test_lookup_and_s_values(self, linear):
        traj = noiseless_linear_traj(0.5, 100)
        path = one_step_path(traj, linear, fixed_prelim(0.5, 10), stride=10)
        np.testing.assert_allclose(path.s_values(), path.ks / 100.0)
        np.testing.assert_allclose(path.at(int(path.ks[0])), path.thetas[0])
        with pytest.raises(KeyError):
            path.at(9999)


class TestNoiselessFixture:
    # zero residuals at the true parameter: every corrected path stays put
    def test_one_step_constant(self, linear):
        traj = noiseless_linear_traj(0.5, 150)
        path = one_step_path(traj, linear, fixed_prelim(0.5, 20))
        np.testing.assert_array_equal(path.thetas, np.full((130, 1), 0.5))

    def test_second_preliminary_constant(self, linear):
        traj = noiseless_linear_traj(0.5, 150)
        path = second_preliminary_path(traj, linear, fixed_prelim(0.5, 20))
        np.testing.assert_array_equal(path.thetas, np.full((130, 1), 0.5))

    def test_two_step_constant(self, linear):
        traj = noiseless_linear_traj(0.5, 120)
        path = two_step_path(traj, linear, fixed_prelim(0.5, 20), stride=25)
        np.testing.assert_array_equal(path.thetas, np.full((len(path.ks), 1), 0.5))

    def test_recurrent_constant(self, linear):
        traj = noiseless_linear_traj(0.5, 120)
        path = recurrent_path(traj, linear, fixed_prelim(0.5, 20))
        np.testing.assert_allclose(path.thetas, 0.5, atol=1e-13)

    def test_full_mle_hits_truth_at_every_checkpoint(self, linear):
        traj = noiseless_linear_traj(0.5, 120)
        path = full_mle_path(traj, linear, checkpoints=[30, 60, 120])
        np.testing.assert_allclose(path.thetas, 0.5, atol=1e-6)


class TestEmission:
    def test_always_includes_terminal(self, example2):
        traj = ms.simulate(example2, 0.5, 1003, seed=1)
        prelim = emm(traj, 100, example2)
        path = one_step_path(traj, example2, prelim, stride=400)
        assert path.ks[0] == 101
        assert path.ks[-1] == 1003
        # a stride reaching past the last index emits the terminal alone
        for stride in (903, 1003):
            path = one_step_path(traj, example2, prelim, stride=stride)
            assert list(path.ks) == [1003]

    def test_non_integer_stride_is_refused_by_name(self, example2):
        traj = ms.simulate(example2, 0.5, 200, seed=1)
        prelim = emm(traj, 20, example2)
        for path_fn in (one_step_path, two_step_path):
            for stride in (1.5, True, "3", 0):
                with pytest.raises(ValueError, match="stride must be"):
                    path_fn(traj, example2, prelim, "plugin", stride=stride)
            assert path_fn(traj, example2, prelim, "plugin", stride=np.int64(7)).ks.size == 27

    def test_stride_invariance(self, example2):
        traj = ms.simulate(example2, 0.5, 1000, seed=2)
        prelim = emm(traj, 178, example2)
        dense = one_step_path(traj, example2, prelim, stride=1)
        sparse = one_step_path(traj, example2, prelim, stride=10)
        for k, theta in zip(sparse.ks, sparse.thetas):
            np.testing.assert_array_equal(dense.at(int(k)), theta)

    def test_two_step_stride_invariance(self, example2):
        traj = ms.simulate(example2, 0.5, 400, seed=2)
        prelim = emm(traj, 30, example2)
        dense = two_step_path(traj, example2, prelim, "factorized", stride=7)
        sparse = two_step_path(traj, example2, prelim, "factorized", stride=140)
        for k, theta in zip(sparse.ks, sparse.thetas):
            np.testing.assert_array_equal(dense.at(int(k)), theta)

    _stride_cases = st.tuples(
        st.sampled_from([(ms.example1_model, 2.5), (ms.example2_model, 0.5), (ms.linear_model, 0.5)]),
        st.integers(0, 2**31 - 1),
        st.integers(50, 1500),
        st.floats(0.3, 0.8),
        st.sampled_from(FISHER_METHODS),
        st.integers(2, 200),
    ).map(lambda t: (*t[0], *t[1:]))

    @given(case=_stride_cases)
    def test_stride_subsamples_the_dense_path_property(self, case):
        factory, theta, seed, n, delta, fisher_method, stride = case
        model = factory()
        traj = ms.simulate(model, theta, n, seed=seed)
        prelim = mle(traj, learning_length(n, delta), model)
        for path_fn in (one_step_path, second_preliminary_path, two_step_path):
            try:
                dense = path_fn(traj, model, prelim, fisher_method, stride=1)
            except DegenerateInformationError:
                reject()
            sparse = path_fn(traj, model, prelim, fisher_method, stride=stride)
            np.testing.assert_array_equal(sparse.thetas, dense.thetas[sparse.ks - dense.ks[0]])

    def test_determinism(self, example2):
        traj = ms.simulate(example2, 0.5, 500, seed=3)
        prelim = emm(traj, 50, example2)
        a = one_step_path(traj, example2, prelim)
        b = one_step_path(traj, example2, prelim)
        np.testing.assert_array_equal(a.thetas, b.thetas)

    def test_learning_interval_must_leave_data(self, example2):
        traj = ms.simulate(example2, 0.5, 50, seed=1)
        with pytest.raises(ValueError, match="leaves no observations"):
            one_step_path(traj, example2, fixed_prelim(0.5, 50))


class TestWindows:
    def test_second_preliminary_uses_transitions_from_one(self, example2):
        # at k = N+1 the correction sums transitions j = 1..N+1
        traj = ms.simulate(example2, 0.5, 300, seed=7)
        N = 40
        prelim = emm(traj, N, example2)
        path = second_preliminary_path(traj, example2, prelim, "observed", stride=1)
        theta0 = prelim.theta
        inv = invert_fisher(window_information(theta0, traj, example2, "observed")[1])
        k, obs = N + 1, traj.observations
        total = loglik_grad(theta0, obs[:k], obs[1 : k + 1], example2).sum(axis=0)
        np.testing.assert_allclose(path.at(k), theta0 + inv @ total / k, atol=1e-14)

    def test_one_step_skips_learning_transitions(self, example2):
        traj = ms.simulate(example2, 0.5, 300, seed=7)
        N = 40
        prelim = emm(traj, N, example2)
        path = one_step_path(traj, example2, prelim, "observed", stride=1)
        theta0 = prelim.theta
        inv = invert_fisher(window_information(theta0, traj, example2, "observed")[1])
        k, obs = N + 5, traj.observations
        total = loglik_grad(theta0, obs[N:k], obs[N + 1 : k + 1], example2).sum(axis=0)
        np.testing.assert_allclose(path.at(k), theta0 + inv @ total / k, atol=1e-14)


class TestRecurrent:
    @pytest.mark.parametrize("seed", range(3))
    def test_full_window_matches_batch(self, example2, seed):
        traj = ms.simulate(example2, 0.5, 1000, seed=seed)
        prelim = emm(traj, learning_length(1000, 0.75), example2)
        batch = second_preliminary_path(traj, example2, prelim, "observed", stride=1)
        rec = recurrent_path(traj, example2, prelim, "observed")
        assert np.abs(batch.thetas - rec.thetas).max() <= 1e-10

    @staticmethod
    def _recurrent_and_batch(case):
        factory, theta, seed, n, delta, fisher_method = case
        model = factory()
        traj = ms.simulate(model, theta, n, seed=seed)
        prelim = mle(traj, learning_length(n, delta), model)
        try:
            batch = second_preliminary_path(traj, model, prelim, fisher_method, stride=1)
        except DegenerateInformationError:
            reject()
        return recurrent_path(traj, model, prelim, fisher_method), batch

    _cases = st.tuples(
        st.sampled_from([(ms.example1_model, 2.5), (ms.example2_model, 0.5), (ms.linear_model, 0.5)]),
        st.integers(0, 2**31 - 1),
        st.integers(50, 3000),
        st.floats(0.4, 0.8),
        st.sampled_from(FISHER_METHODS),
    ).map(lambda t: (*t[0], *t[1:]))

    @given(case=_cases)
    def test_full_window_equals_second_preliminary_property(self, case):
        rec, batch = self._recurrent_and_batch(case)
        np.testing.assert_array_equal(rec.ks, batch.ks)
        np.testing.assert_allclose(rec.thetas, batch.thetas, rtol=0, atol=1e-10)

    def test_recursion_formula(self, example2):
        # each update is (k * theta_k + prelim + I^{-1} grad) / (k + 1)
        traj = ms.simulate(example2, 0.5, 200, seed=9)
        prelim = emm(traj, 20, example2)
        path = recurrent_path(traj, example2, prelim, "observed")
        theta0 = prelim.theta
        inv = invert_fisher(window_information(theta0, traj, example2, "observed")[1])
        obs = traj.observations
        for i, k in enumerate(path.ks[:-1]):
            step = loglik_grad(theta0, obs[k], obs[k + 1], example2)
            expected = (k * path.thetas[i] + theta0 + inv @ step) / (k + 1)
            np.testing.assert_allclose(path.thetas[i + 1], expected, atol=1e-14)


class TestFrozenStart:
    @pytest.mark.parametrize("fisher_method", FISHER_METHODS)
    def test_each_transition_is_evaluated_once(self, example2, fisher_method):
        # the frozen information and every score window come from one
        # evaluation of the drift gradient over the n transitions
        sizes = []

        def counted(theta, x):
            sizes.append(np.size(x))
            return example2.drift.dS(theta, x)

        drift = Drift(example2.drift.S, counted, example2.drift.d2S)
        model = ModelSpec(drift=drift, noise=example2.noise, domain=example2.domain, name="counted")
        traj = ms.simulate(example2, 0.5, 500, seed=2)
        prelim = fixed_prelim(0.45, 20)
        runs = {
            "one-step": lambda: one_step_path(traj, model, prelim, fisher_method),
            "second-preliminary": lambda: second_preliminary_path(traj, model, prelim, fisher_method),
            "recurrent": lambda: recurrent_path(traj, model, prelim, fisher_method),
        }
        for kind, run in runs.items():
            sizes.clear()
            run()
            assert sizes == [traj.n], kind


def _two_step_outcome(monkeypatch, path_fn, *args):
    """(path, None) of one call, or (None, (k, type, message, matrix)) of its
    refusal, k being the number of transitions in the latest
    ``information_terms`` evaluation whose mean is the refused matrix (to
    rounding: a window mean or a prefix sum over k)."""
    windows = []
    terms_fn = fisher_module.information_terms

    def spy(*terms_args):
        scores, terms = terms_fn(*terms_args)
        windows.append((len(terms), terms.mean(axis=0)))
        return scores, terms

    with monkeypatch.context() as patch:
        patch.setattr(fisher_module, "information_terms", spy)
        patch.setattr(process_module, "information_terms", spy)
        try:
            return path_fn(*args), None
        except DegenerateInformationError as exc:
            k = next(size for size, mean in reversed(windows)
                     if np.allclose(mean, exc.matrix, rtol=1e-12, atol=0.0, equal_nan=True))
            return None, (k, type(exc), str(exc), exc.matrix)


class TestTwoStepEngine:
    """two_step_path against ``helpers.two_step_reference``, the per-k loop.

    The engine's score and information sums are sequential prefix sums and
    the reference's pairwise and BLAS sums, so values agree to rounding:
    within 1e-12 of the path's scale, since single values may sit near zero.
    """

    @staticmethod
    def _assert_matches(monkeypatch, *args) -> bool:
        ref, ref_err = _two_step_outcome(monkeypatch, two_step_reference, *args)
        new, new_err = _two_step_outcome(monkeypatch, two_step_path, *args)
        assert (ref_err is None) == (new_err is None), (ref_err, new_err)
        if ref_err is not None:
            assert new_err[:3] == ref_err[:3]
            np.testing.assert_allclose(new_err[3], ref_err[3], rtol=1e-12)
            return False
        np.testing.assert_array_equal(new.ks, ref.ks)
        assert np.abs(new.thetas - ref.thetas).max() <= 1e-12 * np.abs(ref.thetas).max()
        return True

    @pytest.mark.parametrize(
        "factory,theta",
        [(ms.example1_model, [2.5]), (ms.example2_model, [0.5]), (ms.linear_model, [0.5]),
         (pair_model, [0.1, -0.1]), (cos_model, [0.2, 0.1])],
        ids=["example1", "example2", "linear", "pair", "cos"],
    )
    def test_matches_per_k_reference(self, monkeypatch, factory, theta):
        model = factory()
        n = 300
        N = learning_length(n, 0.375)
        compared = 0
        for seed in range(2):
            traj = ms.simulate(model, theta, n, seed=seed)
            # the preliminaries take scalar parameters only
            prelim = emm(traj, N, model) if model.dim == 1 else fixed_prelim(np.add(theta, 0.05), N)
            for fisher_method in FISHER_METHODS:
                for stride in (1, 7, n):
                    compared += self._assert_matches(
                        monkeypatch, traj, model, prelim, fisher_method, stride
                    )
        # pair_model's information is singular: every request is refused
        assert compared == 0 if factory is pair_model else compared >= 12

    def test_refusal_matches_reference(self, example1, monkeypatch):
        # example1 at n=400, seed 18, mle: the observed information at the
        # second preliminary value is not positive definite at k=78
        traj = ms.simulate(example1, 2.5, 400, seed=18)
        prelim = mle(traj, learning_length(400, 0.375), example1)
        args = (traj, example1, prelim, "observed", 1)
        ref_err = _two_step_outcome(monkeypatch, two_step_reference, *args)[1]
        new_err = _two_step_outcome(monkeypatch, two_step_path, *args)[1]
        assert ref_err[0] == new_err[0] == 78
        assert new_err[1:3] == ref_err[1:3]
        assert "not positive definite" in new_err[2]
        np.testing.assert_allclose(new_err[3], ref_err[3], rtol=1e-12)

    @pytest.mark.parametrize(
        "factory,theta,seed,prelim_theta,fisher_method,refused",
        [(ms.example1_model, [2.5], 2, None, "plugin", False),
         (ms.example1_model, [2.5], 2, [6.0], "plugin", False),
         (ms.example1_model, [2.5], 18, None, "observed", True),
         (cos_model, [0.2, 0.1], 0, [0.6, 0.1], "plugin", False)],
        ids=["mle", "outside", "refused", "cos"],
    )
    def test_projection_log_lines_match_reference(
        self, monkeypatch, caplog, factory, theta, seed, prelim_theta, fisher_method, refused
    ):
        # projections are logged in k order up to the refused k, if any: on
        # seed 18 the observed information fails at k=78, after 67 of them
        model = factory()
        traj = ms.simulate(model, theta, 300, seed=seed)
        N = learning_length(300, 0.375)
        prelim = mle(traj, N, model) if prelim_theta is None else fixed_prelim(prelim_theta, N)
        lines, errors = [], []
        for path_fn in (two_step_reference, two_step_path):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="mlestep.process"):
                errors.append(
                    _two_step_outcome(monkeypatch, path_fn, traj, model, prelim, fisher_method, 1)[1]
                )
            lines.append([rec.getMessage() for rec in caplog.records])
        assert lines[1] == lines[0]
        assert any(line.startswith("second preliminary estimate at k=") for line in lines[1])
        assert (errors[1] is not None) == refused
        if refused:
            assert errors[1][:3] == errors[0][:3]
            np.testing.assert_allclose(errors[1][3], errors[0][3], rtol=1e-12)

    @staticmethod
    def _evaluated_points(monkeypatch) -> list:
        """The Chebyshev points whose prefix sums are taken, in order."""
        points = []
        prefix_sums = process_module._prefix_sums
        monkeypatch.setattr(
            process_module, "_prefix_sums", lambda *a: points.append(a[0]) or prefix_sums(*a)
        )
        return points

    def test_each_point_is_evaluated_once_on_a_long_path(self, example2, monkeypatch):
        # every k from N + 1 to n, some 20,000 of them: each of the M = 17
        # points (the first rung, on the path's own box) is evaluated once
        # for all of them, and a coarse stride reads the same values
        evaluations = self._evaluated_points(monkeypatch)
        traj = ms.simulate(example2, 0.5, 20_000, seed=4)
        prelim = emm(traj, learning_length(traj.n, 0.375), example2)
        dense = two_step_path(traj, example2, prelim, "observed", 1)
        assert dense.ks.size == traj.n - prelim.learning_length > 19_000
        assert len(evaluations) == len(set(evaluations)) == process_module._NODE_COUNTS[0] == 17
        coarse = two_step_path(traj, example2, prelim, "observed", 97)
        np.testing.assert_array_equal(coarse.thetas, dense.thetas[np.searchsorted(dense.ks, coarse.ks)])

    @pytest.mark.parametrize(
        "factory,theta",
        [(ms.example1_model, 2.5), (ms.example2_model, 0.5), (ms.linear_model, 0.5)],
        ids=["example1", "example2", "linear"],
    )
    def test_terminal_equals_the_terminal_only_request(self, factory, theta):
        model = factory()
        n = 400
        traj = ms.simulate(model, theta, n, seed=3)
        prelim = emm(traj, learning_length(n, 0.375), model)
        for fisher_method in FISHER_METHODS:
            dense = two_step_path(traj, model, prelim, fisher_method, 1)
            alone = two_step_path(traj, model, prelim, fisher_method, n)
            assert alone.ks.tolist() == [n]
            np.testing.assert_array_equal(dense.terminal, alone.terminal)

    @staticmethod
    def _exact_rows(monkeypatch) -> list:
        """The ks whose sums are computed exactly, appended as they run."""
        seen = []
        exact_sums = process_module._exact_sums

        def spy(traj, model, fisher_method, ks, mids):
            seen.extend(ks.tolist())
            return exact_sums(traj, model, fisher_method, ks, mids)

        monkeypatch.setattr(process_module, "_exact_sums", spy)
        return seen

    def test_unresolved_interpolant_runs_the_exact_engine(self, monkeypatch):
        # kink_model's window sums jump at each observation inside the box,
        # so no Chebyshev interpolant resolves them: each of the 65 points of
        # the last rung is evaluated once before the exact engine runs
        model = kink_model()
        traj = ms.simulate(model, 0.2, 300, seed=0)
        prelim = emm(traj, learning_length(300, 0.375), model)
        exact, points = self._exact_rows(monkeypatch), self._evaluated_points(monkeypatch)
        compared = 0
        for fisher_method in FISHER_METHODS:
            second = second_preliminary_path(traj, model, prelim, fisher_method, 1).thetas
            box = model.domain.project(second[:-1])
            x_prev = traj.observations[:-1]
            assert np.any((box.min() < x_prev) & (x_prev < box.max()))
            for stride in (1, 7):
                exact.clear()
                points.clear()
                if self._assert_matches(monkeypatch, traj, model, prelim, fisher_method, stride):
                    compared += 1
                    ks = second_preliminary_path(traj, model, prelim, fisher_method, stride).ks
                    assert exact == ks.tolist()
                    assert len(points) == len(set(points)) == process_module._NODE_COUNTS[-1] == 65
        assert compared >= 4

    def test_built_in_request_resolves_at_65_points(self, example2, monkeypatch):
        # example2 at n = 2000, seed 126, delta = 0.3 (N = 10), mle: the sums
        # resolve only on the last rung, whose 65 points are each evaluated
        # once; only the terminal takes exact sums
        traj = ms.simulate(example2, 0.5, 2000, seed=126)
        prelim = mle(traj, learning_length(traj.n, 0.3), example2)
        assert prelim.learning_length == 10
        points, exact = self._evaluated_points(monkeypatch), self._exact_rows(monkeypatch)
        dense = two_step_path(traj, example2, prelim, "observed", 1)
        assert len(points) == len(set(points)) == 65
        assert exact == [traj.n]
        coarse = two_step_path(traj, example2, prelim, "observed", 7)
        np.testing.assert_array_equal(coarse.thetas, dense.thetas[np.searchsorted(dense.ks, coarse.ks)])
        assert self._assert_matches(monkeypatch, traj, example2, prelim, "observed", 1)

    def test_non_finite_node_sums_run_the_exact_engine(self, example2, monkeypatch):
        # the second point evaluated, inside the box, takes a non-finite
        # term halfway along the chain, as a drift undefined there would give:
        # its prefix sums are not finite from there on, up to k = n
        traj = ms.simulate(example2, 0.0, 300, seed=1)
        prelim = emm(traj, learning_length(300, 0.375), example2)
        prefix_sums, points = process_module._prefix_sums, []

        def poisoned(*args):
            out = prefix_sums(*args)
            points.append(args[0])
            if len(points) == 2:
                out[:, out.shape[1] // 2 :] = np.nan
            return out

        monkeypatch.setattr(process_module, "_prefix_sums", poisoned)
        exact = self._exact_rows(monkeypatch)
        compared = 0
        for fisher_method in FISHER_METHODS:
            exact.clear()
            points.clear()
            if self._assert_matches(monkeypatch, traj, example2, prelim, fisher_method, 1):
                compared += 1
                ks = second_preliminary_path(traj, example2, prelim, fisher_method, 1).ks
                assert exact == ks.tolist()
                assert len(points) == 2
        assert compared >= 2

    def test_points_do_not_depend_on_the_stride(self, example2, monkeypatch):
        # the box spans the stride-1 second preliminary values, so every
        # stride evaluates the same 17 points; a terminal-only request none
        points = self._evaluated_points(monkeypatch)
        traj = ms.simulate(example2, 0.5, 2000, seed=5)
        prelim = emm(traj, learning_length(traj.n, 0.375), example2)
        seen = []
        for stride in (1, 7, 97):
            points.clear()
            two_step_path(traj, example2, prelim, "observed", stride)
            seen.append(list(points))
        assert seen[0] == seen[1] == seen[2]
        assert len(seen[0]) == 17
        points.clear()
        assert two_step_path(traj, example2, prelim, "observed", traj.n).ks.tolist() == [traj.n]
        assert points == []

    def test_zero_width_box_serves_the_exact_sums(self, monkeypatch):
        # a chain from theta = 0.5 on a domain [-0.5, -0.4] that excludes
        # it: every second preliminary value projects onto the upper edge, so
        # the box is that one point, whose prefix sums are the exact sums
        model = ms.linear_model(domain=(-0.5, -0.4))
        edge = model.domain.project([np.inf])[0]
        traj = ms.simulate(ms.linear_model(), 0.5, 300, seed=0)
        prelim = fixed_prelim([0.5], learning_length(300, 0.375))
        points = self._evaluated_points(monkeypatch)
        for fisher_method in FISHER_METHODS:
            second = second_preliminary_path(traj, model, prelim, fisher_method, 1).thetas
            assert np.all(model.domain.project(second[:-1]) == edge)
            with monkeypatch.context() as patch:
                patch.setattr(process_module, "_interpolated_sums", lambda *a: None)
                exact = two_step_path(traj, model, prelim, fisher_method, 1)
            for stride in (1, 7):
                points.clear()
                path = two_step_path(traj, model, prelim, fisher_method, stride)
                assert points == [edge]
                np.testing.assert_array_equal(path.thetas, exact.thetas[np.searchsorted(exact.ks, path.ks)])

    def test_box_too_narrow_for_distinct_points_is_not_interpolated(self, example2):
        # 65 Chebyshev points on a box a few ulps wide round onto each other
        traj = ms.simulate(example2, 0.5, 300, seed=0)
        ks = np.arange(20, 301)
        mids = np.full((ks.size, 1), 0.5)
        box = (0.5, 0.5 + 4e-16)
        assert process_module._interpolated_sums(traj, example2, "observed", ks, mids, box) is None

    def test_information_near_zero_is_recomputed_exactly(self, example1, monkeypatch):
        # the refusal of test_refusal_matches_reference, with every point's
        # information sum at k=78 shifted so that the interpolated one lies
        # just above zero (the interpolant of a constant is that constant):
        # the guards pass it, and only the band around the threshold sends it
        # to the exact sums
        traj = ms.simulate(example1, 2.5, 400, seed=18)
        prelim = mle(traj, learning_length(400, 0.375), example1)
        row = 78 - (prelim.learning_length + 1)
        prefix_sums, interpolated_sums = process_module._prefix_sums, process_module._interpolated_sums
        shift, point_values, interpolated = [0.0], [], []

        def shifted(*args):
            out = prefix_sums(*args)
            out[1, row] += shift[0]
            point_values.append(out[1, row])
            return out

        def spy(*args):
            interpolated.append(interpolated_sums(*args))
            return interpolated[-1]

        monkeypatch.setattr(process_module, "_prefix_sums", shifted)
        monkeypatch.setattr(process_module, "_interpolated_sums", spy)
        args = (traj, example1, prelim, "observed", 1)
        ref_err = _two_step_outcome(monkeypatch, two_step_reference, *args)[1]
        _two_step_outcome(monkeypatch, two_step_path, *args)
        value = interpolated[-1][1][row] * 78
        shift[0] = 1e-9 * np.abs(np.subtract(point_values, value)).max() - value
        point_values.clear()
        exact = self._exact_rows(monkeypatch)
        new_err = _two_step_outcome(monkeypatch, two_step_path, *args)[1]
        lifted, near = interpolated[-1][1][row], interpolated[-1][2][row]
        assert lifted > 0.0 and near
        assert lifted * 78 < 1e-8 * np.abs(point_values).max()
        assert not fisher_module._reciprocals(np.array([[[lifted]]]))[1][0]
        assert exact[-1] == new_err[0] == ref_err[0] == 78
        assert new_err[1:3] == ref_err[1:3]
        np.testing.assert_allclose(new_err[3], ref_err[3], rtol=1e-12)


class TestAsymptoticBehavior:
    def test_one_step_coverage_example2(self, example2):
        # EMM start, delta = 3/4: terminal error within 4/sqrt(n I) nearly always
        n = 10_000
        N = learning_length(n, 0.75)
        oracle = ms.oracle_information(example2, 0.5).matrix[0, 0]
        bound = 4.0 / np.sqrt(n * oracle)
        hits = 0
        for seed in range(200):
            traj = ms.simulate(example2, 0.5, n, seed=seed)
            prelim = emm(traj, N, example2)
            path = one_step_path(traj, example2, prelim, "observed", stride=n)
            hits += abs(path.terminal[0] - 0.5) < bound
        assert hits >= 190

    def test_one_step_coverage_example1(self, example1):
        n = 10_000
        N = learning_length(n, 0.75)
        oracle = ms.oracle_information(example1, 2.5).matrix[0, 0]
        bound = 4.0 / np.sqrt(n * oracle)
        hits = 0
        for seed in range(200):
            traj = ms.simulate(example1, 2.5, n, seed=seed)
            prelim = mle(traj, N, example1)
            path = one_step_path(traj, example1, prelim, "factorized", stride=n)
            hits += abs(path.terminal[0] - 2.5) < bound
        assert hits >= 190

    def test_second_preliminary_tightness_stable_in_n(self, example2):
        # 95th percentile of n^{0.3} |error| comparable at n = 1e3 and 1e4
        quantiles = []
        for n in (1000, 10_000):
            N = learning_length(n, 0.375)
            vals = []
            for seed in range(200):
                traj = ms.simulate(example2, 0.5, n, seed=seed)
                prelim = emm(traj, N, example2)
                path = second_preliminary_path(traj, example2, prelim, "factorized", stride=n)
                vals.append(n**0.3 * abs(path.terminal[0] - 0.5))
            quantiles.append(np.quantile(vals, 0.95))
        assert max(quantiles) <= 2.0 * min(quantiles)

    @pytest.mark.parametrize("n", [1000, 10_000])
    def test_two_step_terminal_dominates_second_preliminary(self, example2, n):
        N = learning_length(n, 0.375)
        closer = 0
        for seed in range(200):
            traj = ms.simulate(example2, 0.5, n, seed=seed)
            prelim = emm(traj, N, example2)
            try:
                sp = second_preliminary_path(traj, example2, prelim, "plugin", stride=n)
                ts = two_step_path(traj, example2, prelim, "plugin", stride=n)
            except MlestepError:
                continue
            closer += abs(ts.terminal[0] - 0.5) < abs(sp.terminal[0] - 0.5)
        assert closer >= 140


class TestProjectionLogging:
    def test_out_of_domain_preliminary_is_projected_and_logged(self, example2, caplog):
        traj = ms.simulate(example2, 0.5, 200, seed=1)
        prelim = fixed_prelim(1.7, 20)
        with caplog.at_level(logging.INFO, logger="mlestep.process"):
            path = one_step_path(traj, example2, prelim, "factorized", stride=200)
        assert any("projected" in rec.message for rec in caplog.records)
        assert np.all(np.abs(path.thetas) < 2.0)


class TestFullMle:
    def test_checkpoint_validation(self, linear):
        traj = noiseless_linear_traj(0.5, 50)
        with pytest.raises(ValueError, match="checkpoints"):
            full_mle_path(traj, linear, checkpoints=[0, 10])
        with pytest.raises(ValueError, match="checkpoints"):
            full_mle_path(traj, linear, checkpoints=[10, 60])

    @pytest.mark.parametrize("checkpoint", [30.7, True, "40"])
    def test_non_integer_checkpoints_refused(self, linear, checkpoint):
        # truncated by int(), they would emit k = 30, 1 and 40
        traj = noiseless_linear_traj(0.5, 50)
        with pytest.raises(ValueError, match="checkpoint must be an integer"):
            full_mle_path(traj, linear, checkpoints=[checkpoint, 50])

    def test_default_checkpoint_is_terminal(self, linear):
        traj = noiseless_linear_traj(0.5, 50)
        path = full_mle_path(traj, linear)
        assert list(path.ks) == [50]
        assert path.kind == "full-mle"
        assert path.preliminary is None


class TestPipeline:
    def test_rejects_bad_fields_by_name(self):
        for kwargs, field in (
            (dict(delta=0.0), "delta"),
            (dict(delta=0.5, fisher_method="exact"), "fisher_method"),
            (dict(delta=0.5, stride=0), "stride"),
            (dict(delta=0.5, process="recurrent", stride=50), "stride"),
            (dict(delta=0.5, process="full-mle", stride=5), "stride"),
            (dict(delta=0.5, process="none", stride=5), "stride"),
            (dict(delta=0.5, stride=2.0), "stride"),
            (dict(delta=0.5, stride=True), "stride"),
            (dict(delta=0.5, grid_points=100.5), "grid_points"),
            (dict(delta=0.5, grid_points="64"), "grid_points"),
            (dict(delta=0.5, grid_points=None), "grid_points must be an integer"),
            (dict(delta="0.5"), "delta must be a real number"),
            (dict(delta=None), "delta must be a real number"),
            (dict(delta=True), "delta must be a real number"),
            (dict(delta=float("nan")), "delta"),
        ):
            with pytest.raises(ValueError, match=field):
                Pipeline(**kwargs)

    def test_none_skips_the_path_and_full_mle_the_preliminary(self, example2):
        traj = ms.simulate(example2, 0.5, 300, seed=1)
        prelim, path = Pipeline(0.5, "emm", "none").run(traj, example2)
        assert path is None and prelim.learning_length == learning_length(300, 0.5)
        prelim, path = Pipeline(0.5, "mle", "full-mle").run(traj, example2)
        assert prelim is None and path.kind == "full-mle"

    def test_recurrent_runs_without_a_stride(self, example2):
        traj = ms.simulate(example2, 0.5, 2000, seed=4)
        N = learning_length(2000, 0.75)
        prelim, path = Pipeline(0.75, "mle", "recurrent").run(traj, example2)
        want = recurrent_path(traj, example2, mle(traj, N, example2), "observed")
        assert path.kind == "recurrent" and prelim.learning_length == path.N == N
        assert path.ks.tobytes() == want.ks.tobytes() and path.thetas.tobytes() == want.thetas.tobytes()


class TestSerialization:
    def test_csv_format(self, tmp_path, example2):
        traj = ms.simulate(example2, 0.5, 300, seed=7)
        prelim = emm(traj, 40, example2)
        path = one_step_path(traj, example2, prelim, stride=60)
        out = tmp_path / "path.csv"
        write_path_csv(path, out, config={"seed": 7})
        lines = out.read_text().strip().splitlines()
        assert json.loads(lines[0][2:]) == {"seed": 7}
        assert lines[1] == "k,s,theta_1,kind"
        assert len(lines) == 2 + len(path.ks)
        first = lines[2].split(",")
        assert int(first[0]) == path.ks[0]
        assert first[3] == "one-step"

    @staticmethod
    def _reference_csv(path_obj, config):
        """The per-row f-string formatter the writer must reproduce byte for byte."""
        d = path_obj.thetas.shape[1]
        lines = ["# " + json.dumps(config) + "\n",
                 "k,s," + ",".join(f"theta_{i + 1}" for i in range(d)) + ",kind\n"]
        for k, s, theta in zip(path_obj.ks, path_obj.s_values(), path_obj.thetas):
            values = ",".join(f"{t:.17g}" for t in theta)
            lines.append(f"{k},{s:.17g},{values},{path_obj.kind}\n")
        return "".join(lines)

    @staticmethod
    def _pair_path(kind):
        # two-parameter path from pair_model's score terms, with awkward values
        model = pair_model()
        traj = ms.simulate(model, [0.1, -0.2], 400, seed=3)
        theta0 = np.array([0.1, -0.2])
        ks = np.arange(31, 401, 7)
        acc = np.cumsum(loglik_grad(theta0, traj.observations[:-1], traj.observations[1:], model), axis=0)
        thetas = theta0 + acc[ks - 1] / ks[:, np.newaxis]
        thetas[:5] = [[-0.0, 5e-324], [1e300, -1e-300], [1.0, -3.0], [0.1, 1 / 3], [2**-52, 1e16]]
        return EstimatorPath(ks, thetas, kind, 30, fixed_prelim(theta0, 30), 400)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_csv_bytes_match_reference_formatter(self, tmp_path, example2, dim):
        if dim == 1:
            traj = ms.simulate(example2, 0.5, 3000, seed=4)
            path = recurrent_path(traj, example2, emm(traj, 400, example2), "observed")
            kinds = [path.kind]
        else:
            path = self._pair_path("two-step")
            kinds = ["two-step", "100% two-step %d"]
        config = {"seed": 4, "note": "50% of {k}"}
        for kind in kinds:
            path = EstimatorPath(path.ks, path.thetas, kind, path.N, path.preliminary, path.n)
            out = tmp_path / "path.csv"
            write_path_csv(path, out, config=config)
            assert out.read_bytes() == self._reference_csv(path, config).encode()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_csv_round_trip_exact(self, tmp_path, example2, dim):
        if dim == 1:
            traj = ms.simulate(example2, 0.5, 2000, seed=6)
            path = one_step_path(traj, example2, emm(traj, 300, example2), stride=1)
        else:
            path = self._pair_path("one-step")
        out = tmp_path / "path.csv"
        write_path_csv(path, out)
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        np.testing.assert_array_equal([int(r[0]) for r in rows], path.ks)
        assert np.array_equal(np.array([float(r[1]) for r in rows]), path.s_values())
        parsed = np.array([[float(v) for v in r[2:-1]] for r in rows])
        assert np.array_equal(parsed, path.thetas)
        # -0.0 == 0.0, so check the sign bit survives too
        assert np.array_equal(np.signbit(parsed), np.signbit(path.thetas))
        assert {r[-1] for r in rows} == {path.kind}

    def test_json_payload(self, example2):
        traj = ms.simulate(example2, 0.5, 300, seed=7)
        prelim = emm(traj, 40, example2)
        path = second_preliminary_path(traj, example2, prelim, stride=100)
        payload = path_to_json_dict(path)
        assert set(payload) == {"kind", "N", "n", "preliminary"}
        assert payload["kind"] == "second-preliminary"
        assert payload["N"] == 40
        assert payload["preliminary"]["kind"] == "emm"
