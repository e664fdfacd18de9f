"""Nonparametric filtering and prediction for controlled stochastic processes.

The model represents the belief state of a partially observable controlled
process as a weight vector over training samples in reproducing kernel
Hilbert spaces.  Training builds Gram matrices between windowed segments of
a single action-observation trajectory; filtering updates the weight vector
recursively with a kernel Bayes rule step per action-observation pair;
prediction evaluates expectations of future observations under the current
weights.
"""

from hsepsr.kernels import KernelSpec, KernelSet, gram, kernel_eval, resolve_bandwidth
from hsepsr.windows import Trajectory, WindowConfig, WindowedData, build_windows
from hsepsr.learner import BeliefState, HsePsrModel, TrainingReport, train
from hsepsr.filter import filter_trajectory, update
from hsepsr.predict import rollout_predict
from hsepsr.model_io import load_model, save_model

__all__ = [
    "KernelSpec",
    "KernelSet",
    "gram",
    "kernel_eval",
    "resolve_bandwidth",
    "Trajectory",
    "WindowConfig",
    "WindowedData",
    "build_windows",
    "BeliefState",
    "HsePsrModel",
    "TrainingReport",
    "train",
    "filter_trajectory",
    "update",
    "rollout_predict",
    "load_model",
    "save_model",
]

__version__ = "0.1.0"
