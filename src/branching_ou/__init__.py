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
)
from .ou import Factor, Func1D, QuadratureRule
from .kernels import Kernel
from .simulator import (
    AllExtinctError,
    FarmLevel,
    ResourceCapError,
    condition_on_survival,
    simulate,
    simulate_farm,
)
from .ustats import u_statistic, u_statistics, v_statistic, v_statistics

__all__ = [
    "AllExtinctError",
    "DerivedConstants",
    "Factor",
    "FarmLevel",
    "Func1D",
    "InvalidParameterError",
    "Kernel",
    "ModelParams",
    "QuadratureRule",
    "Regime",
    "RegimeTag",
    "ResourceCapError",
    "classify",
    "condition_on_survival",
    "derive",
    "extinction_by",
    "simulate",
    "simulate_farm",
    "u_statistic",
    "u_statistics",
    "v_statistic",
    "v_statistics",
]

__version__ = "0.1.0"
