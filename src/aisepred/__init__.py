"""Real-time differentiation of noisy position streams and short-horizon trajectory prediction.

The estimator treats the wanted derivative as the unknown input of a discrete
integrator chain and reconstructs it online, adapting its own noise model and
forgetting rate. Predictions extrapolate from the current position either
with a second-order kinematic model or by propagating the trajectory's moving
frame at constant speed, curvature, and torsion.
"""

__version__ = "0.1.0"

from .aise import AiseConfig, AiseFilter, NumericalInvariantError, benchmark_config
from .baselines import AbgFilter, BdbDifferentiator, ButterworthCascade, abg_gains
from .frenet import (
    DegenerateGeometry,
    FrenetModel,
    frenet_model,
    fs_predict,
    gamma0,
    gamma1,
    hat,
    scalar_params,
)
from .harness import ExperimentConfig, RmseReport, rmse, run_experiment
from .integrators import build_integrator
from .prediction import METHODS, DerivativeEstimate, PredictionTrace, predict, va_predict
from .scenarios import add_noise, truth_arrays

__all__ = [
    "__version__",
    "AiseConfig",
    "AiseFilter",
    "NumericalInvariantError",
    "benchmark_config",
    "AbgFilter",
    "BdbDifferentiator",
    "ButterworthCascade",
    "abg_gains",
    "DegenerateGeometry",
    "FrenetModel",
    "frenet_model",
    "fs_predict",
    "gamma0",
    "gamma1",
    "hat",
    "scalar_params",
    "ExperimentConfig",
    "RmseReport",
    "rmse",
    "run_experiment",
    "build_integrator",
    "METHODS",
    "DerivativeEstimate",
    "PredictionTrace",
    "predict",
    "va_predict",
    "add_noise",
    "truth_arrays",
]
