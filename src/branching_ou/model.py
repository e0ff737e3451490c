"""Model constants, derived quantities and regime classification.

The system is a binary branching particle system: each particle lives an
Exp(lam) lifetime, is replaced by two offspring with probability ``p`` or by
none with probability ``1 - p``, and moves between events as an
Ornstein-Uhlenbeck diffusion with drift ``mu`` and diffusion coefficient
``sigma``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum


class InvalidParameterError(ValueError):
    """Model parameters outside their admissible range."""


class RegimeTag(Enum):
    SLOW = "slow"
    CRITICAL = "critical"
    FAST = "fast"


@dataclass(frozen=True)
class ModelParams:
    """Scalar constants of the branching OU system.

    lam    branching rate (events per unit time), finite and > 0
    p      probability a branch event yields two offspring, in (1/2, 1]
    mu     OU mean-reversion rate, finite and > 0
    sigma  OU diffusion coefficient, finite and > 0
    dim    spatial dimension, >= 1
    x0     start position, length ``dim``, finite

    ``p = 1`` (pure birth, no deaths) is admitted as a useful analytic
    test case even though the supercritical window is open at 1.
    """

    lam: float
    p: float
    mu: float
    sigma: float
    dim: int = 1
    x0: tuple[float, ...] = field(default=(0.0,))

    def __post_init__(self):
        if not (0.5 < self.p <= 1.0):
            raise InvalidParameterError(f"p must lie in (1/2, 1], got {self.p}")
        for name in ("lam", "mu", "sigma"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise InvalidParameterError(f"{name} must be positive and finite")
        if self.dim < 1:
            raise InvalidParameterError("dim must be a positive integer")
        x0 = tuple(float(c) for c in self.x0)
        if len(x0) != self.dim:
            raise InvalidParameterError(
                f"x0 has length {len(x0)}, expected dim={self.dim}"
            )
        if not all(map(math.isfinite, x0)):
            raise InvalidParameterError("x0 must be finite")
        object.__setattr__(self, "x0", x0)


@dataclass(frozen=True)
class DerivedConstants:
    """Closed-form quantities derived from :class:`ModelParams`.

    growth_rate      exponential growth rate of the expected population,
                     (2p - 1) * lam
    extinction_prob  probability of eventual extinction, (1 - p) / p
    limit_exp_rate   rate of the exponential limit of the normalized
                     population size conditioned on survival, (2p - 1) / p
    stationary_var   per-coordinate variance of the OU stationary law,
                     sigma^2 / (2 mu)
    """

    growth_rate: float
    extinction_prob: float
    limit_exp_rate: float
    stationary_var: float


@dataclass(frozen=True)
class Regime:
    """Branching regime together with the comparison that defines it."""

    tag: RegimeTag
    growth_rate: float
    twice_mu: float

    @property
    def is_slow(self) -> bool:
        return self.tag is RegimeTag.SLOW

    @property
    def is_critical(self) -> bool:
        return self.tag is RegimeTag.CRITICAL

    @property
    def is_fast(self) -> bool:
        return self.tag is RegimeTag.FAST


def derive(params: ModelParams) -> DerivedConstants:
    """Compute the derived constants for valid parameters."""
    two_p_minus_1 = 2.0 * params.p - 1.0
    return DerivedConstants(
        growth_rate=two_p_minus_1 * params.lam,
        extinction_prob=(1.0 - params.p) / params.p,
        limit_exp_rate=two_p_minus_1 / params.p,
        stationary_var=params.sigma**2 / (2.0 * params.mu),
    )


def classify(params: ModelParams, tol: float = 1e-12) -> Regime:
    """Classify the regime by comparing the growth rate with ``2 mu``.

    Equality is tested with relative tolerance ``tol`` so that critical
    cases constructed analytically (mu = growth_rate / 2) do not fall into
    a neighbouring regime by rounding.
    """
    growth = derive(params).growth_rate
    twice_mu = 2.0 * params.mu
    if abs(growth - twice_mu) <= tol * max(growth, twice_mu):
        tag = RegimeTag.CRITICAL
    elif growth < twice_mu:
        tag = RegimeTag.SLOW
    else:
        tag = RegimeTag.FAST
    return Regime(tag=tag, growth_rate=growth, twice_mu=twice_mu)


def w_moments(consts: DerivedConstants) -> tuple[float, float]:
    """Mean of the survival-conditioned population limit and the
    unconditioned limit variance.

    The limit conditioned on survival is exponential with rate
    ``limit_exp_rate``, so its mean is the reciprocal rate.  The
    unconditioned limit has variance 1 / (2p - 1).
    """
    rate = consts.limit_exp_rate
    w_mean = 1.0 / rate
    p = 1.0 / (2.0 - rate)
    v_inf_var = 1.0 / (2.0 * p - 1.0)
    return w_mean, v_inf_var


def extinction_by(t: float, params: ModelParams) -> float:
    """Probability that the population has died out by time ``t``.

    Closed-form solution of the backward flow q' = lam (p q^2 - q + 1 - p),
    q(0) = 0; increases to ``extinction_prob`` as t grows.
    """
    if t < 0:
        raise InvalidParameterError("t must be nonnegative")
    c = derive(params)
    if params.p == 1.0:
        return 0.0
    e = math.exp(c.growth_rate * t)
    return c.extinction_prob * (e - 1.0) / (e - c.extinction_prob)
