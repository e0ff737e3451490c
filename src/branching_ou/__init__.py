"""Simulation and verification toolkit for U-statistics of binary
supercritical branching Ornstein-Uhlenbeck particle systems."""

from .model import (
    DerivedConstants,
    InvalidParameterError,
    ModelParams,
    Regime,
    RegimeTag,
    classify,
    derive,
    extinction_by,
    w_moments,
)
from .ou import Func1D, QuadratureRule, ou_transition_sample, semigroup_apply
from .kernels import Factor, Kernel, ProductFunc
from .simulator import (
    AllExtinctError,
    Caps,
    FarmLevel,
    ParticleSnapshot,
    ResourceCapError,
    TrajectoryObservables,
    condition_on_survival,
    observe_path,
    simulate,
    simulate_farm,
)
from .ustats import build_expansion, u_statistic, u_statistics, v_statistic, v_statistics

__all__ = [
    "AllExtinctError",
    "Caps",
    "DerivedConstants",
    "Factor",
    "FarmLevel",
    "Func1D",
    "InvalidParameterError",
    "Kernel",
    "ModelParams",
    "ParticleSnapshot",
    "ProductFunc",
    "QuadratureRule",
    "Regime",
    "RegimeTag",
    "ResourceCapError",
    "TrajectoryObservables",
    "build_expansion",
    "classify",
    "condition_on_survival",
    "derive",
    "extinction_by",
    "observe_path",
    "ou_transition_sample",
    "semigroup_apply",
    "simulate",
    "simulate_farm",
    "u_statistic",
    "u_statistics",
    "v_statistic",
    "v_statistics",
    "w_moments",
]

__version__ = "0.1.0"
