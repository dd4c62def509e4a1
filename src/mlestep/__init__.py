"""Estimator processes for nonlinear AR(1) Markov sequences.

The package simulates sequences X_j = S(theta, X_{j-1}) + eps_j, fits a
preliminary estimator on a short learning interval, and corrects it with
score steps into estimator paths that track the maximum likelihood estimator
at a fraction of its cost. A Monte Carlo harness checks the asymptotic
normality and efficiency of the pipelines at desk scale.
"""

from .density import DensityEstimate, kde
from .errors import (
    DegenerateInformationError,
    EstimationError,
    MlestepError,
    SimulationDiverged,
    StudyError,
)
from .fisher import (
    FisherMatrix,
    invert_fisher,
    noise_information,
    window_information,
)
from .likelihood import (
    loglik,
    loglik_grad,
    loglik_hess,
)
from .mc import McConfig, McReport, compare_estimators, oracle_information, run_study
from .models import (
    Drift,
    ModelSpec,
    NoiseDensity,
    ParamDomain,
    example1_model,
    example2_model,
    gaussian_noise,
    get_model,
    linear_model,
    register_model,
)
from .preliminary import PreliminaryEstimate, bayes, emm, learning_length, mle
from .process import (
    EstimatorPath,
    Pipeline,
    full_mle_path,
    one_step_path,
    recurrent_path,
    second_preliminary_path,
    two_step_path,
)
from .simulate import Trajectory, simulate, simulate_paths

__version__ = "0.1.0"
