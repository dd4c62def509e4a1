"""Seeded simulation of the Markov sequence with burn-in toward stationarity.

The chain is started at a fixed point and run for ``burn_in`` extra steps
before observations are retained, approximating the strictly stationary
regime. Noise streams come from numpy's seeded PCG64 generator, so every
trajectory is a pure function of (seed, arguments).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SimulationDiverged
from .models import ModelSpec, _finite_reals, _require_numbers

__all__ = [
    "Trajectory",
    "simulate",
    "simulate_paths",
    "write_trajectory_csv",
    "write_trajectory_json",
    "read_trajectory_json",
]


@dataclass(frozen=True)
class Trajectory:
    """Observed states X_0..X_n plus the configuration that generated them."""

    observations: np.ndarray
    true_theta: np.ndarray
    seed: int
    burn_in: int
    model_name: str
    x_init: float = 0.0

    def __post_init__(self):
        _require_numbers(seed=self.seed, burn_in=self.burn_in)
        obs = _finite_reals(self.observations, "observations", "finite real numbers")
        theta = np.atleast_1d(_finite_reals(self.true_theta, "true_theta", "finite and real"))
        x_init = float(_finite_reals(self.x_init, "x_init", "a finite real number", ()))
        if obs.ndim != 1 or obs.size < 2:
            raise ValueError("a trajectory needs at least two observations")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "true_theta", theta)
        object.__setattr__(self, "x_init", x_init)

    @property
    def n(self) -> int:
        """Number of transitions, i.e. observations minus one."""
        return self.observations.size - 1

    def meta(self) -> dict:
        return {
            "model_name": self.model_name,
            "true_theta": self.true_theta.tolist(),
            "seed": int(self.seed),
            "burn_in": int(self.burn_in),
            "x_init": self.x_init,
        }


def _check_chain(model: ModelSpec, theta, n: int, burn_in: int, x_init, name: str = "theta") -> np.ndarray:
    """theta as a float vector; ValueError naming the field (theta as ``name``)
    unless theta has the model's length inside its domain, n and burn_in are
    integers, n >= 1, burn_in >= 0 and x_init is finite and real.
    simulate_paths and McConfig both call it."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (model.dim,):
        raise ValueError(
            f"{name} has shape {theta.shape}; model {model.name!r} takes a vector of length {model.dim}"
        )
    if not model.domain.contains(theta):
        raise ValueError(f"{name} {theta} is not interior to the domain of {model.name!r}")
    _require_numbers(n=n, burn_in=burn_in)
    if n < 1:
        raise ValueError("n must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    _finite_reals(x_init, "x_init", "a finite real number", ())
    return theta


# a block of at most this many rows steps each row as its own chain: a python
# float chain beats lockstep arrays per row up to about 16-24 rows (README)
_ROW_CHAINS = 16
# a scalar chain is stepped over this many noise values at a time, so its
# python list stays a few hundred kB however long the chain
_CHUNK = 4096


def simulate_paths(
    model: ModelSpec,
    theta,
    n: int,
    seeds: Sequence[int],
    burn_in: int = 1000,
    x_init: float = 0.0,
) -> np.ndarray:
    """Simulate one trajectory per seed.

    Returns an array of shape (len(seeds), n + 1); row i is exactly the
    observation vector that ``simulate`` produces for seeds[i], because each
    row consumes its own generator stream and the recursion is elementwise.
    Up to ``_ROW_CHAINS`` rows are stepped one chain at a time (see
    ``_scalar_chain``); more rows are stepped together in lockstep arrays.
    Either way every state is kept, burn-in included, so a diverged row
    names its first non-finite step without being stepped again.
    """
    theta = _check_chain(model, theta, n, burn_in, x_init)
    if len(seeds) < 1:
        raise ValueError("at least one seed is required")
    for seed in seeds:
        _require_numbers(seed=seed)
    if min(seeds) < 0:
        raise ValueError(f"seed must be >= 0, got {min(seeds)}")

    total = burn_in + n + 1
    noise = np.empty((len(seeds), total))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(int(seed))
        noise[i] = model.noise.sampler(rng, total)

    states = np.empty_like(noise)
    if len(seeds) <= _ROW_CHAINS:
        for i in range(len(seeds)):
            _scalar_chain(model, theta, noise[i], x_init, states[i])
    else:
        x = np.full(len(seeds), float(x_init))
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(total):
                x = model.drift.S(theta, x) + noise[:, step]
                states[:, step] = x
    out = states[:, burn_in:]
    finite = np.all(np.isfinite(out), axis=1)
    if not np.all(finite):
        row = int(np.argmin(finite))
        # the first non-finite state of the chain (1-based), burn-in included
        step = int(np.argmin(np.isfinite(states[row]))) + 1
        raise SimulationDiverged(
            f"state became non-finite at generation step {step} "
            f"(seed {int(seeds[row])}); the parameter may be non-ergodic",
            step=step,
        )
    return out


def _scalar_chain(model: ModelSpec, theta, noise_row, x_init, states) -> None:
    """Write every generated state of one chain to ``states``.

    The chain steps in python floats if the drift passed the model's float
    probe (models module docstring), else as numpy scalars. Both are several
    times cheaper per step than a 1-element array, and python floats about
    2.5 times cheaper than numpy scalars. Both round +, -, * and / as IEEE 754
    requires, so the states are the same bits.
    """
    S = model.drift.S
    with np.errstate(over="ignore", invalid="ignore"):
        if model._steps_floats:
            try:
                _float_chain(S, theta.tolist(), noise_row, float(x_init), states, np.ndarray.tolist)
                return
            except (ArithmeticError, ValueError, TypeError):
                # python floats raise on ** overflow, division by zero and math
                # domain errors, and a complex state fails to store, where numpy
                # gives inf or nan: the numpy scalar chain below reproduces
                # every state, or the error
                pass
        # numpy scalars keep overflow as inf instead of raising; numpy scalar
        # noise keeps a drift that returns python floats stepping in numpy
        _float_chain(S, theta, noise_row, np.float64(x_init), states, iter)


def _float_chain(S, theta, noise_row, x, states, scalars) -> None:
    """Step one chain from ``x``, storing ``_CHUNK`` states at a time; each
    noise chunk is added as the scalars ``scalars(chunk)`` yields."""
    for start in range(0, noise_row.size, _CHUNK):
        chunk = []
        append = chunk.append
        for eps in scalars(noise_row[start : start + _CHUNK]):
            x = S(theta, x) + eps
            append(x)
        states[start : start + len(chunk)] = chunk


def simulate(
    model: ModelSpec,
    theta,
    n: int,
    seed: int = 0,
    burn_in: int = 1000,
    x_init: float = 0.0,
) -> Trajectory:
    """Generate X_0..X_n from the model at theta, discarding a burn-in prefix.

    The chain starts at ``x_init`` and runs burn_in + n + 1 steps; the first
    burn_in generated states are dropped and X_0 is the first retained one.
    Deterministic given (seed, arguments). Raises SimulationDiverged, naming
    the generation step, if a state leaves the finite range.
    """
    obs = simulate_paths(model, theta, n, [seed], burn_in=burn_in, x_init=x_init)[0]
    return Trajectory(
        observations=obs,
        true_theta=theta,
        seed=int(seed),
        burn_in=int(burn_in),
        model_name=model.name,
        x_init=x_init,
    )


# --- Serialization --------------------------------------------------------------


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write `index,x` rows; the generating config rides in a leading # line."""
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(traj.meta()) + "\n")
        fh.write("index,x\n")
        fh.writelines("%d,%.17g\n" % row for row in enumerate(traj.observations.tolist()))


def write_trajectory_json(traj: Trajectory, path) -> None:
    payload = dict(traj.meta(), observations=traj.observations.tolist())
    with open(path, "w") as fh:
        # json.dumps runs the C encoder; json.dump streams through the python one
        fh.write(json.dumps(payload) + "\n")


def read_trajectory_json(path) -> Trajectory:
    with open(path) as fh:
        payload = json.load(fh)
    keys = ("observations", "true_theta", "seed", "burn_in", "model_name")
    missing = [key for key in keys if key not in payload] if isinstance(payload, dict) else keys
    if missing:
        raise ValueError(f"trajectory file {path} must be a JSON object with keys {list(keys)}; "
                         f"it lacks {list(missing)}")
    # files written before x_init was recorded hold chains started at 0.0
    return Trajectory(**{key: payload[key] for key in keys}, x_init=payload.get("x_init", 0.0))
