"""Shared fixtures-in-code for the test suite: finite differences and toy models."""

from dataclasses import replace

import numpy as np

from mlestep.fisher import invert_fisher, window_information
from mlestep.likelihood import loglik_grad
from mlestep.models import Drift, ModelSpec, NoiseDensity, ParamDomain, gaussian_noise
from mlestep.process import EstimatorPath, _into_domain, second_preliminary_path
from mlestep.simulate import Trajectory


def fd_grad(f, theta, h=1e-6):
    """Central-difference gradient of a scalar function of theta."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        out[i] = (f(up) - f(down)) / (2.0 * h)
    return out


def fd_jac(f, theta, h=1e-5):
    """Central-difference Jacobian of a vector function of theta."""
    theta = np.asarray(theta, dtype=float)
    cols = []
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        cols.append((np.asarray(f(up)) - np.asarray(f(down))) / (2.0 * h))
    return np.stack(cols, axis=-1)


def sample_domain(domain, rng, margin=0.05):
    """Uniform draw from the domain's box shrunk by margin*width on each side."""
    pad = margin * domain.width
    return rng.uniform(domain.lower + pad, domain.upper - pad)


def assert_close_rel(actual, expected, rtol, atol=1e-9):
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=atol)


def make_traj(observations, theta=0.0, model_name="fixture", seed=0, burn_in=0):
    return Trajectory(
        observations=np.asarray(observations, dtype=float),
        true_theta=np.atleast_1d(np.asarray(theta, dtype=float)),
        seed=seed,
        burn_in=burn_in,
        model_name=model_name,
    )


# --- Toy drifts (module-level so specs stay picklable) ---


def _zero_S(theta, x):
    return np.zeros(np.shape(x)) if np.shape(x) else 0.0


def _zero_dS(theta, x):
    return np.zeros(np.shape(x) + (1,))


def _zero_d2S(theta, x):
    return np.zeros(np.shape(x) + (1, 1))


def zero_model():
    """Drift identically zero: observations are i.i.d. noise, no information."""
    return ModelSpec(
        drift=Drift(_zero_S, _zero_dS, _zero_d2S),
        noise=gaussian_noise(),
        domain=ParamDomain([-1.0], [1.0]),
        name="zero",
    )


def _cubic_S(theta, x):
    return theta[0] * x**3


def _cubic_dS(theta, x):
    return np.asarray(x, dtype=float)[..., np.newaxis] ** 3


def _cubic_d2S(theta, x):
    return np.zeros(np.shape(x) + (1, 1))


def cubic_model():
    """Explosive drift theta * x^3: diverges once |x| grows past 1/sqrt(theta)."""
    return ModelSpec(
        drift=Drift(_cubic_S, _cubic_dS, _cubic_d2S),
        noise=gaussian_noise(),
        domain=ParamDomain([0.4], [0.6]),
        name="cubic",
    )


def _pair_w(x):
    return x / (1.0 + np.asarray(x, dtype=float) ** 2)


def _pair_S(theta, x):
    return np.exp(theta[0] + 2.0 * theta[1]) * _pair_w(x)


def _pair_dS(theta, x):
    s = np.asarray(_pair_S(theta, x))[..., np.newaxis]
    return s * np.array([1.0, 2.0])


def _pair_d2S(theta, x):
    s = np.asarray(_pair_S(theta, x))[..., np.newaxis, np.newaxis]
    return s * np.array([[1.0, 2.0], [2.0, 4.0]])


def pair_model():
    """Two-parameter fixture with a non-trivial, exactly known theta-Hessian."""
    return ModelSpec(
        drift=Drift(_pair_S, _pair_dS, _pair_d2S),
        noise=gaussian_noise(),
        domain=ParamDomain([-0.5, -0.5], [0.5, 0.5]),
        name="pair",
    )


def _cos_S(theta, x):
    return theta[0] * x + np.exp(theta[1]) * np.cos(x)


def _cos_dS(theta, x):
    x = np.asarray(x, dtype=float)
    return np.stack([x, np.exp(theta[1]) * np.cos(x)], axis=-1)


def _cos_d2S(theta, x):
    out = np.zeros(np.shape(x) + (2, 2))
    out[..., 1, 1] = np.exp(theta[1]) * np.cos(x)
    return out


def cos_model():
    """Two-parameter fixture theta_1 x + exp(theta_2) cos(x) with a regular,
    well-conditioned information matrix (``pair_model``'s is singular)."""
    return ModelSpec(
        drift=Drift(_cos_S, _cos_dS, _cos_d2S),
        noise=gaussian_noise(),
        domain=ParamDomain([-0.5, -0.5], [0.5, 0.5]),
        name="cos",
    )

def _kink_S(theta, x):
    return 0.5 * (x + theta[0]) + 0.2 * np.abs(theta[0] - x)


def _kink_dS(theta, x):
    return (0.5 + 0.2 * np.sign(theta[0] - np.asarray(x, dtype=float)))[..., np.newaxis]


def _kink_d2S(theta, x):
    return np.zeros(np.shape(x) + (1, 1))


def kink_model():
    """One-parameter fixture 0.5 (x + theta) + 0.2 |theta - x|: contracting,
    with a drift gradient of 0.3 or 0.7, so a regular information. The
    gradient jumps at theta = x, so every window sum jumps in theta at each
    of its observations: where one lies inside the interpolation box, the
    Chebyshev series decays only algebraically and no M resolves it."""
    return ModelSpec(
        drift=Drift(_kink_S, _kink_dS, _kink_d2S),
        noise=gaussian_noise(),
        domain=ParamDomain([-1.0], [1.0]),
        name="kink",
    )


def _box_pdf(u, half=1.0):
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= half, 0.5 / half, 0.0)


def _box_logpdf(u, half=1.0):
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(np.abs(u) <= half, np.log(0.5 / half), -np.inf)


def _box_zero(u, half=1.0):
    return np.zeros(np.shape(u))


def _box_sampler(rng, size=None, half=1.0):
    return rng.uniform(-half, half, size)


def box_noise(half=1.0):
    """Uniform noise on [-half, half]: zero density outside a bounded support."""
    return NoiseDensity(
        g=_box_pdf,
        log_g=_box_logpdf,
        psi=_box_zero,
        dpsi=_box_zero,
        sampler=_box_sampler,
        support=(-half, half),
    )


def box_model():
    """Zero drift with bounded-support noise; likelihood is -inf off-support."""
    return ModelSpec(
        drift=Drift(_zero_S, _zero_dS, _zero_d2S),
        noise=box_noise(),
        domain=ParamDomain([-1.0], [1.0]),
        name="box",
    )


def barycentric_reference(x, points, values):
    """The polynomial through ``values`` (M, ..., K) at the M Chebyshev
    points of the second kind ``points``, ascending, at each of the K x,
    x[k] taking values[..., k]: the second barycentric formula with the
    weights (-1)^j, halved at the ends, summed densely; an x on a point
    takes the point's value."""
    weights = (-1.0) ** np.arange(points.size)
    weights[[0, -1]] *= 0.5
    diff = x[np.newaxis, :] - points[:, np.newaxis]
    on = diff == 0.0
    c = weights[:, np.newaxis] / np.where(on, 1.0, diff)
    out = np.einsum("mk,m...k->...k", c, values) / c.sum(axis=0)
    for m, k in zip(*np.nonzero(on)):
        out[..., k] = values[m, ..., k]
    return out


def noiseless_linear_traj(theta0=0.5, n=200, x_init=2.0):
    """Exact zero-residual linear trajectory: X_j = theta0 * X_{j-1}."""
    obs = np.empty(n + 1)
    obs[0] = x_init
    for j in range(1, n + 1):
        obs[j] = theta0 * obs[j - 1]
    return make_traj(obs, theta=theta0, model_name="linear")


def two_step_reference(traj, model, prelim, fisher_method="observed", stride=None):
    """``two_step_path`` one k at a time: project, window estimator, guarded
    inversion and score sum over [1, k] at each emitted k."""
    base = second_preliminary_path(traj, model, prelim, fisher_method, stride)
    obs = traj.observations
    thetas = np.empty_like(base.thetas)
    for i, k in enumerate(base.ks):
        mid = _into_domain(base.thetas[i], model, f"second preliminary estimate at k={k}")
        prefix = replace(traj, observations=obs[: k + 1])
        inv = invert_fisher(window_information(mid, prefix, model, fisher_method)[1])
        total = loglik_grad(mid, obs[:k], obs[1 : k + 1], model).sum(axis=0)
        thetas[i] = mid + inv @ total / k
    return EstimatorPath(base.ks, thetas, "two-step", base.N, prelim, base.n)
