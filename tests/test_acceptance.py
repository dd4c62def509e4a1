"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line (run pytest with -s to see them inline). Monte
Carlo criteria are seeded, so every run is reproducible.
"""

import time

import numpy as np
import pytest
from scipy.stats import norm

import mlestep as ms
from mlestep.likelihood import loglik, loglik_grad, loglik_hess
from mlestep.preliminary import emm, learning_length, mle
from mlestep.process import full_mle_path, one_step_path, recurrent_path, second_preliminary_path

from helpers import fd_grad, fd_jac, sample_domain


def report(name, ok, detail, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"{status}  {name}: {detail} [{elapsed:.1f}s / limit {limit:.0f}s]")
    assert ok, f"{name}: {detail}"
    assert elapsed < limit, f"{name} exceeded its runtime budget: {elapsed:.1f}s"


def test_criterion_1_derivative_consistency(example1, example2, linear, rng):
    start = time.time()
    worst_grad, worst_hess = 0.0, 0.0
    for model in (example1, example2, linear):
        for _ in range(100):
            theta = sample_domain(model.domain, rng, margin=0.1)
            x = float(rng.normal(scale=1.5)) or 0.4
            xn = float(rng.normal(scale=1.5))
            # relative comparison floored at 1e-3: near-degenerate points with a
            # vanishing gradient would otherwise only measure FD rounding noise
            grad = loglik_grad(theta, x, xn, model)
            fd_g = fd_grad(lambda t: float(loglik(t, x, xn, model)), theta)
            scale_g = max(1e-3, float(np.abs(fd_g).max()))
            worst_grad = max(worst_grad, float(np.abs(grad - fd_g).max()) / scale_g)
            hess = loglik_hess(theta, x, xn, model)
            fd_h = fd_jac(lambda t: loglik_grad(t, x, xn, model), theta)
            scale_h = max(1e-3, float(np.abs(fd_h).max()))
            worst_hess = max(worst_hess, float(np.abs(hess - fd_h).max()) / scale_h)
    ok = worst_grad < 1e-5 and worst_hess < 1e-4
    report(
        "criterion 1 (derivative consistency)",
        ok,
        f"max rel grad err {worst_grad:.2e} (tol 1e-5), hess {worst_hess:.2e} (tol 1e-4)",
        time.time() - start,
        5.0,
    )


def test_criterion_2_score_martingale(example1, example2):
    start = time.time()
    n = 100_000
    worst_margin = np.inf
    for model, theta0 in ((example2, 0.5), (example1, 2.5)):
        info = ms.oracle_information(model, theta0).matrix[0, 0]
        bound = 4.0 * np.sqrt(info / n)
        rows = ms.simulate_paths(model, theta0, n, seeds=range(20))
        for row in rows:
            g = loglik_grad(theta0, row[:-1], row[1:], model)
            worst_margin = min(worst_margin, bound - abs(float(g.mean())))
    ok = worst_margin > 0
    report(
        "criterion 2 (score martingale)",
        ok,
        f"smallest margin to the 4-sigma bound {worst_margin:.2e} over 2 models x 20 seeds",
        time.time() - start,
        30.0,
    )


def test_criterion_3_fisher_triangle(example1, example2, big_traj_example1, big_traj_example2):
    start = time.time()
    ig_err = abs(ms.noise_information(ms.gaussian_noise()) - 1.0)
    worst = 0.0
    for model, theta0, traj in (
        (example2, 0.5, big_traj_example2),
        (example1, 2.5, big_traj_example1),
    ):
        vals = [
            ms.window_information(theta0, traj, model, method)[1].matrix[0, 0]
            for method in ("observed", "plugin", "factorized")
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                worst = max(worst, abs(vals[i] - vals[j]) / min(vals[i], vals[j]))
    ok = worst < 0.05 and ig_err < 1e-6
    report(
        "criterion 3 (information triangle)",
        ok,
        f"worst pairwise gap {worst:.4f} (tol 0.05); |I_g - 1| = {ig_err:.2e} (tol 1e-6)",
        time.time() - start,
        60.0,
    )


def test_criterion_4_recurrent_equals_batch(example2):
    start = time.time()
    n = 1000
    N = learning_length(n, 0.75)
    worst = 0.0
    for seed in range(10):
        traj = ms.simulate(example2, 0.5, n, seed=seed)
        prelim = emm(traj, N, example2)
        batch = second_preliminary_path(traj, example2, prelim, "observed", stride=1)
        rec = recurrent_path(traj, example2, prelim, "observed")
        worst = max(worst, float(np.abs(batch.thetas - rec.thetas).max()))
    ok = worst <= 1e-10
    report(
        "criterion 4 (recurrent equals batch)",
        ok,
        f"max deviation over all k and 10 seeds {worst:.2e} (tol 1e-10)",
        time.time() - start,
        10.0,
    )


def _normality_study(process, delta):
    cfg = ms.McConfig(
        "example2",
        0.5,
        10_000,
        delta,
        preliminary="mle",
        process=process,
        fisher_method="factorized",
        replications=300,
        base_seed=0,
    )
    rep = ms.run_study(cfg)
    ref = rep.reference_information_inverse[0, 0]
    ratio = rep.empirical_covariance[0, 0] / ref
    return rep, ratio


def test_criterion_5_one_step_normality():
    start = time.time()
    rep, ratio = _normality_study("one-step", 0.75)
    q = rep.quantiles
    q5 = abs(q["empirical"][5][0] - q["gaussian"][5][0]) / abs(q["gaussian"][5][0])
    q95 = abs(q["empirical"][95][0] - q["gaussian"][95][0]) / abs(q["gaussian"][95][0])
    ok = abs(ratio - 1.0) <= 0.20 and q5 <= 0.15 and q95 <= 0.15
    report(
        "criterion 5 (one-step limit variance and quantiles)",
        ok,
        f"variance/reference = {ratio:.3f} (tol 0.8..1.2); "
        f"q5 gap {q5:.3f}, q95 gap {q95:.3f} (tol 0.15); failures {len(rep.failures)}",
        time.time() - start,
        600.0,
    )


def test_criterion_6_two_step_normality():
    start = time.time()
    rep, ratio = _normality_study("two-step", 0.375)
    n_learn = learning_length(10_000, 0.375)
    ok = abs(ratio - 1.0) <= 0.20 and n_learn == 32
    report(
        "criterion 6 (two-step limit variance, short learning interval)",
        ok,
        f"variance/reference = {ratio:.3f} (tol 0.8..1.2) with N = {n_learn}; "
        f"failures {len(rep.failures)}",
        time.time() - start,
        600.0,
    )


def test_joint_limit_across_s(example2):
    # theta_k - theta ~ I^-1 k^-1 sum_{j<=k} score_j, so sqrt(n)(theta_{sn} - theta)
    # behaves like I^(-1/2) W(s)/s, whose covariance at s and t is I^-1 / max(s, t).
    # The seeds, model and pipelines are those of criteria 5 and 6, so the
    # s = 1 entries repeat their variance ratios.
    start = time.time()
    n, seeds = 10_000, list(range(300))
    ks = [n // 4, n // 2, n]
    s = np.array(ks) / n
    rows = ms.simulate_paths(example2, 0.5, n, seeds)
    ref_inv = ms.invert_fisher(ms.oracle_information(example2, 0.5))[0, 0]
    target = ref_inv / np.maximum.outer(s, s)
    ratios = {}
    for process, delta in (("one-step", 0.75), ("two-step", 0.375)):
        pipeline = ms.Pipeline(delta, "mle", process, "factorized", stride=1)
        errors = []
        for seed, row in zip(seeds, rows):
            _, path = pipeline.run(ms.Trajectory(row, 0.5, seed, 1000, "example2"), example2)
            errors.append([np.sqrt(n) * (path.at(k)[0] - 0.5) for k in ks])
        ratios[process] = np.cov(np.array(errors), rowvar=False) / target
    ok = all(np.all((r >= 0.8) & (r <= 1.2)) for r in ratios.values())
    report(
        "joint limit across s (covariance at s, t in {1/4, 1/2, 1} over I^-1/max(s, t))",
        ok,
        "; ".join(
            f"{process} ratios {r.min():.3f}..{r.max():.3f} (tol 0.8..1.2), "
            f"diagonal {np.round(np.diag(r), 3).tolist()}"
            for process, r in ratios.items()
        ),
        time.time() - start,
        60.0,
    )


def test_criterion_7_mle_equivalence(example2):
    start = time.time()
    n = 10_000
    checkpoints = [n // 4, n // 2, n]
    N = learning_length(n, 0.625)
    one, full = [], []
    gaps = {k: [] for k in checkpoints}
    for seed in range(100):
        traj = ms.simulate(example2, 0.5, n, seed=seed)
        prelim = mle(traj, N, example2)
        corrected = one_step_path(traj, example2, prelim, "observed", stride=1)
        reference = full_mle_path(traj, example2, 512, checkpoints)
        one.append(corrected.terminal[0])
        full.append(reference.terminal[0])
        for k in checkpoints:
            gaps[k].append(np.sqrt(k) * abs(corrected.at(k)[0] - reference.at(k)[0]))
    v_one = np.var(np.sqrt(n) * (np.array(one) - 0.5), ddof=1)
    v_full = np.var(np.sqrt(n) * (np.array(full) - 0.5), ddof=1)
    ratio = v_one / v_full
    medians = [float(np.median(gaps[k])) for k in checkpoints]
    decreasing = medians[0] > medians[1] > medians[2]
    ok = 0.8 <= ratio <= 1.25 and decreasing
    report(
        "criterion 7 (equivalence to the running MLE)",
        ok,
        f"variance ratio {ratio:.3f} (tol 0.8..1.25); "
        f"median sqrt(k)|gap| = {np.round(medians, 4).tolist()} decreasing={decreasing}",
        time.time() - start,
        900.0,
    )


def test_criterion_8_learning_lengths():
    start = time.time()
    got = (
        learning_length(1000, 0.75),
        learning_length(1000, 0.375),
        learning_length(10_000, 0.375),
    )
    ok = got == (178, 13, 32)
    report(
        "criterion 8 (learning interval lengths)",
        ok,
        f"(n=1e3, d=3/4) -> {got[0]} (expect 178); (1e3, 3/8) -> {got[1]} (expect 13); "
        f"(1e4, 3/8) -> {got[2]} (expect 32)",
        time.time() - start,
        1.0,
    )


def test_criterion_9_kde(big_traj_linear):
    start = time.time()
    est = ms.kde(big_traj_linear)
    mass_err = abs(est.mass() - 1.0)
    grid = np.linspace(-4.0, 4.0, 801)
    on_window = ms.kde(big_traj_linear, grid=grid)
    exact = norm.pdf(grid, scale=np.sqrt(1.0 / 0.75))
    sup = float(np.abs(on_window.values - exact).max())
    ok = mass_err <= 0.02 and sup <= 0.02
    report(
        "criterion 9 (kernel density estimate)",
        ok,
        f"mass error {mass_err:.4f} (tol 0.02); sup-norm gap {sup:.4f} (tol 0.02)",
        time.time() - start,
        30.0,
    )


def test_criterion_10_example1_end_to_end(example1):
    start = time.time()
    n = 10_000
    N = learning_length(n, 0.75)
    info = ms.oracle_information(example1, 2.5).matrix[0, 0]
    bound = 3.0 / np.sqrt(n * info)
    hits = 0
    for seed in range(100):
        traj = ms.simulate(example1, 2.5, n, seed=seed)
        prelim = mle(traj, N, example1)
        path = one_step_path(traj, example1, prelim, "factorized", stride=n)
        hits += abs(path.terminal[0] - 2.5) < bound
    ok = hits >= 90
    report(
        "criterion 10 (saturating-ratio model end to end)",
        ok,
        f"{hits}/100 seeds inside 3/sqrt(n I) = {bound:.4f} (need >= 90)",
        time.time() - start,
        300.0,
    )
