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
from .ou import Factor, Func1D, QuadratureRule, ou_transition_sample
from .kernels import Kernel
from .simulator import (
    AllExtinctError,
    Caps,
    FarmLevel,
    ParticleSnapshot,
    ResourceCapError,
    condition_on_survival,
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
    "QuadratureRule",
    "Regime",
    "RegimeTag",
    "ResourceCapError",
    "build_expansion",
    "classify",
    "condition_on_survival",
    "derive",
    "extinction_by",
    "ou_transition_sample",
    "simulate",
    "simulate_farm",
    "u_statistic",
    "u_statistics",
    "v_statistic",
    "v_statistics",
    "w_moments",
]

__version__ = "0.1.0"
