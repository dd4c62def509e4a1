import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mlestep


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(mlestep.__path__)))
def test_every_exported_name_exists(name):
    # a stale __all__ entry breaks only ``from mlestep.<name> import *``
    module = importlib.import_module(f"mlestep.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"mlestep.{name}.__all__ names {missing}, which the module does not define"


_FOOTPRINT = """
import sys

# from here on, importing scipy or any of its submodules raises ImportError
sys.modules["scipy"] = None

import numpy as np

import mlestep as ms
import mlestep.cli

model = ms.get_model("example2")
traj = ms.simulate(model, 0.5, 2000, seed=1)
N = ms.learning_length(2000, 0.375)
prelim = ms.mle(traj, N, model)
ms.bayes(traj, N, model)
ms.one_step_path(traj, model, prelim, "factorized")
ms.two_step_path(traj, model, prelim, "factorized")

# the logistic law: smooth, not Gaussian, noise information 1/3
logistic = ms.NoiseDensity(
    g=lambda u: 0.25 / np.cosh(0.5 * u) ** 2,
    log_g=lambda u: np.log(0.25) - 2.0 * np.log(np.cosh(0.5 * u)),
    psi=lambda u: -np.tanh(0.5 * u),
    dpsi=lambda u: -0.5 / np.cosh(0.5 * u) ** 2,
    sampler=lambda rng, size=None: rng.logistic(size=size),
    support=(-60.0, 60.0),
)
custom = ms.ModelSpec(drift=model.drift, noise=logistic, domain=model.domain, name="logistic")
ms.one_step_path(traj, custom, prelim, "factorized")
assert logistic._information == ms.noise_information(logistic)
assert abs(logistic._information - 1.0 / 3.0) < 1e-12
"""


def test_import_loads_no_scipy_stats_optimize_or_integrate():
    # the package runs with scipy blocked, built-in laws and a non-Gaussian
    # law's quadrature alike; a fresh interpreter, since the suite itself
    # has imported scipy
    src = str(Path(mlestep.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", _FOOTPRINT], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
