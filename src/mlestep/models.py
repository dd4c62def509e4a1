"""Model family for nonlinear AR(1) sequences X_j = S(theta, X_{j-1}) + eps_j.

A model bundles three parts: an open box of admissible parameters, a drift
function S with its first two theta-derivatives, and a noise density g with
its score psi = g'/g. Built-in models are addressable by name through
``get_model``; custom models can be added with ``register_model``.

Shape conventions for drift callables, with theta a vector of length d and
x a scalar or an array:

    S(theta, x)   -> same shape as x
    dS(theta, x)  -> shape x.shape + (d,)
    d2S(theta, x) -> shape x.shape + (d, d)

The built-in factories mark their specs (``_builtin``), and only a marked
spec takes three fast paths, each with the general path's bits. The grid
preliminaries pass theta of shape (1, B, 1) to evaluate the likelihood for B
values in one call: the built-in drifts only index theta[0] and use numpy
arithmetic. A simulated chain steps in python floats, about 2.5 times cheaper
per step than numpy scalars: the built-in drifts use only +, -, *, / and abs,
which python floats round as numpy float64 does, and their denominators are
at least 1 (or inf or NaN) on their domains, so no step raises. The grid mle
certifies its argmax from a Chebyshev interpolant: their log-likelihoods are
analytic in theta near the box. Any other spec, a ``dataclasses.replace``d
built-in included, takes the general paths.

All callables must be pure: no hidden state, safe to share across tasks.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

__all__ = [
    "ParamDomain",
    "Drift",
    "NoiseDensity",
    "ModelSpec",
    "gaussian_noise",
    "example1_model",
    "example2_model",
    "linear_model",
    "get_model",
    "register_model",
    "builtin_model_names",
]

_LOG_2PI = float(np.log(2.0 * np.pi))
# a refusal quotes the value cut short: a field read from a file may hold a long list
_brief = reprlib.Repr()
_brief.maxlist = 3


def _require_numbers(*, real: bool = False, **fields) -> None:
    """Raise ValueError naming the first of the fields (name=value) that is
    not an integer, or with ``real`` not a real number; bools and None are
    refused, numpy scalars accepted."""
    kinds = (int, float, np.integer, np.floating) if real else (int, np.integer)
    what = "a real number" if real else "an integer"
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ValueError(f"{name} must be {what}, got {_brief.repr(value)}")


def _finite_reals(value, name: str, what: str, shape: tuple | None = None) -> np.ndarray:
    """value as a float array, not copied if it is one; ValueError naming the
    field unless it is ``what``: finite real entries (bools and strings
    refused) of ``shape``."""
    try:
        array = np.asarray(value)
        ok = array.dtype.kind in "iuf" and np.isfinite(array).all()
    except ValueError:  # a ragged nesting
        ok = False
    if not ok or shape not in (None, array.shape):
        raise ValueError(f"{name} must be {what}, got {_brief.repr(value)}")
    return array.astype(float, copy=False)


# ParamDomain.project clamps into the box shrunk by this fraction of its width
# on each side, so that information matrices stay well defined at the edges
_PROJECT_MARGIN = 1e-6


@dataclass(frozen=True)
class ParamDomain:
    """Open, bounded, convex box of admissible parameter values."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lower and upper must be vectors of equal length")
        if lo.size < 1:
            raise ValueError("parameter dimension must be at least 1")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("domain bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError("each lower bound must lie strictly below its upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def contains(self, theta) -> bool:
        """True if theta lies strictly inside the box."""
        t = np.atleast_1d(np.asarray(theta, dtype=float))
        return bool(np.all(t > self.lower) and np.all(t < self.upper))

    def project(self, theta) -> np.ndarray:
        """Clamp theta into the box shrunk by _PROJECT_MARGIN * width on each side."""
        t = np.atleast_1d(np.asarray(theta, dtype=float))
        pad = _PROJECT_MARGIN * self.width
        return np.clip(t, self.lower + pad, self.upper - pad)


@dataclass(frozen=True)
class Drift:
    """Drift S(theta, x) with its first two theta-derivatives.

    The callables follow the shape conventions in the module docstring and
    must be vectorized in x.
    """

    S: Callable
    dS: Callable
    d2S: Callable


@dataclass(frozen=True)
class NoiseDensity:
    """Noise law: density g, log-density, score psi = g'/g, and a sampler.

    ``support`` is the window of ``noise_information``'s panels, split at 0
    if it holds 0: outside it the mass must be negligible, and psi^2 g may
    kink only at 0 and the ends. ``sampler(rng, size=None)`` draws from g.
    """

    g: Callable
    log_g: Callable
    psi: Callable
    dpsi: Callable
    sampler: Callable
    support: tuple[float, float]
    # noise information: 1 / sigma^2 from gaussian_noise, else set by the first factorized estimate
    _information: float | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class ModelSpec:
    """Immutable bundle of drift, noise, and parameter domain."""

    drift: Drift
    noise: NoiseDensity
    domain: ParamDomain
    name: str
    # set only by the built-in factories (``_builtin``): it selects the fast
    # paths of the module docstring
    _builtin: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        # the shape conventions of the module docstring, at a scalar probe x
        theta, d = self.domain.midpoint(), self.domain.dim
        for name, what, expected in (("S", "value", ()), ("dS", "gradient", (d,)),
                                     ("d2S", "Hessian", (d, d))):
            shape = np.shape(getattr(self.drift, name)(theta, 0.7))
            if shape != expected:
                raise ValueError(
                    f"drift {what} {name} at a probe point has shape {shape}, expected {expected}"
                )

    @property
    def dim(self) -> int:
        return self.domain.dim


# --- Gaussian noise -----------------------------------------------------------


def _gauss_pdf(u, sigma=1.0):
    return np.exp(-0.5 * (u / sigma) ** 2) / (sigma * np.sqrt(2.0 * np.pi))


def _gauss_logpdf(u, sigma=1.0):
    return -0.5 * _LOG_2PI - np.log(sigma) - 0.5 * (u / sigma) ** 2


def _gauss_score(u, sigma=1.0):
    return -u / sigma**2


def _gauss_score_deriv(u, sigma=1.0):
    return np.full_like(np.asarray(u, dtype=float), -1.0 / sigma**2)


def _gauss_sampler(rng, size=None, sigma=1.0):
    return sigma * rng.standard_normal(size)


def gaussian_noise(sigma: float = 1.0) -> NoiseDensity:
    """Centered Gaussian noise; the default is the standard normal law.

    The score is psi(u) = -u / sigma^2 with derivative dpsi(u) = -1 / sigma^2.
    The quadrature support window is +-12 sigma (mass deficit below 1e-30).
    Its noise information 1 / sigma^2 is stored at construction: no quadrature.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    noise = NoiseDensity(
        g=partial(_gauss_pdf, sigma=sigma),
        log_g=partial(_gauss_logpdf, sigma=sigma),
        psi=partial(_gauss_score, sigma=sigma),
        dpsi=partial(_gauss_score_deriv, sigma=sigma),
        sampler=partial(_gauss_sampler, sigma=sigma),
        support=(-12.0 * sigma, 12.0 * sigma),
    )
    object.__setattr__(noise, "_information", 1.0 / sigma**2)
    return noise


# --- Built-in drifts ----------------------------------------------------------
# Module-level functions (not closures) so ModelSpec instances pickle cleanly.


def _builtin(spec: ModelSpec) -> ModelSpec:
    """Mark a built-in spec for the fast paths (module docstring). Its
    likelihood is analytic in theta: Gaussian noise with a drift rational in
    theta without a pole on the box, as example1's poles sit at theta =
    -1/|x| < 0, example2's at theta = x +- i, and linear's drift is a
    polynomial. A spec built any other way (a custom drift or noise,
    ``dataclasses.replace``) is unmarked."""
    object.__setattr__(spec, "_builtin", True)
    return spec


def _ratio_drift(theta, x):
    # abs, not np.abs: it keeps a python float x a python float
    ax = abs(x)
    return x * x / (1.0 + theta[0] * ax)


def _ratio_drift_grad(theta, x):
    ax = np.abs(x)
    return np.asarray(-(ax**3) / (1.0 + theta[0] * ax) ** 2)[..., np.newaxis]


def _ratio_drift_hess(theta, x):
    ax = np.abs(x)
    return np.asarray(2.0 * ax**4 / (1.0 + theta[0] * ax) ** 3)[..., np.newaxis, np.newaxis]


def _shift_drift(theta, x):
    v = theta[0] - x
    return x + 3.0 * v / (1.0 + v * v)


def _shift_drift_grad(theta, x):
    v = theta[0] - x
    w = 1.0 + v * v
    return np.asarray(3.0 * (1.0 - v * v) / (w * w))[..., np.newaxis]


def _shift_drift_hess(theta, x):
    v = theta[0] - x
    w = 1.0 + v * v
    return np.asarray(6.0 * v * (v * v - 3.0) / w**3)[..., np.newaxis, np.newaxis]


def _linear_drift(theta, x):
    return theta[0] * x


def _linear_drift_grad(theta, x):
    return np.asarray(x, dtype=float)[..., np.newaxis]


def _linear_drift_hess(theta, x):
    return np.zeros(np.shape(x) + (1, 1))


def example1_model() -> ModelSpec:
    """Saturating-ratio model S(theta, x) = x^2 / (1 + theta |x|), theta in (2, 5).

    Standard Gaussian noise; the drift gradient is -|x|^3 / (1 + theta |x|)^2.
    """
    return _builtin(ModelSpec(
        drift=Drift(_ratio_drift, _ratio_drift_grad, _ratio_drift_hess),
        noise=gaussian_noise(),
        domain=ParamDomain([2.0], [5.0]),
        name="example1",
    ))


def example2_model() -> ModelSpec:
    """Mean-reverting shift model, theta in (-1, 1).

    S(theta, x) = x + 3 (theta - x) / (1 + (x - theta)^2) with standard
    Gaussian noise. The dynamics depend on x - theta only, so theta acts as a
    pure location parameter of the invariant law.
    """
    return _builtin(ModelSpec(
        drift=Drift(_shift_drift, _shift_drift_grad, _shift_drift_hess),
        noise=gaussian_noise(),
        domain=ParamDomain([-1.0], [1.0]),
        name="example2",
    ))


def linear_model(domain: tuple[float, float] = (-0.9, 0.9)) -> ModelSpec:
    """Linear AR(1) fixture S(theta, x) = theta x with standard Gaussian noise.

    Analytically tractable ground truth: the stationary law is
    N(0, 1 / (1 - theta^2)) and the information is 1 / (1 - theta^2).
    Ergodicity requires |theta| < 1, so the domain must sit inside (-1, 1).
    """
    lo, hi = float(domain[0]), float(domain[1])
    if lo <= -1.0 or hi >= 1.0:
        raise ValueError("linear model domain must lie inside (-1, 1)")
    return _builtin(ModelSpec(
        drift=Drift(_linear_drift, _linear_drift_grad, _linear_drift_hess),
        noise=gaussian_noise(),
        domain=ParamDomain([lo], [hi]),
        name="linear",
    ))


_REGISTRY: dict[str, Callable[[], ModelSpec]] = {
    "example1": example1_model,
    "example2": example2_model,
    "linear": linear_model,
}


def register_model(name: str, factory: Callable[[], ModelSpec]) -> None:
    """Make a custom model addressable by name (CLI, Monte Carlo configs);
    ValueError unless name is a non-empty string and factory is callable."""
    if not isinstance(name, str) or not name:
        raise ValueError(f"name must be a non-empty string, got {_brief.repr(name)}")
    if not callable(factory):
        raise ValueError(f"factory must be callable, got {_brief.repr(factory)}")
    _REGISTRY[name] = factory


def builtin_model_names() -> list[str]:
    return sorted(_REGISTRY)


def get_model(name: str) -> ModelSpec:
    """Look up a registered model by name."""
    if not isinstance(name, str):
        raise ValueError(f"a model name must be a string, got {name!r}")
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; available: {builtin_model_names()}"
        ) from None
    return factory()
