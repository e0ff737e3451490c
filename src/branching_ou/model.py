"""Model constants, regime classification and the population law.

The system is a binary branching particle system: each particle lives an
Exp(lam) lifetime, is replaced by two offspring with probability ``p`` or by
none with probability ``1 - p``, and moves between events as an
Ornstein-Uhlenbeck diffusion with drift ``mu`` and diffusion coefficient
``sigma``.

The population N_t is a linear birth-death chain, +1 at rate b = lam p and
-1 at rate d = lam (1 - p), with a closed-form law (Kendall 1948); only this
module reads ``lam`` and ``p``, and every other layer takes that law here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum


# The highest kernel arity any layer supports: the U-from-V expansion
# merges Bell(6) = 203 kernels, and the exact-moment oracle sums 3,797
# split trees, at this arity.
MAX_ARITY = 6


def head_splits(labels: tuple[int, ...]):
    """Each split of a nonempty label tuple into the block holding its first
    label and the labels left over, as (block, rest) pairs: blocks by size,
    then in combination order.  Set partitions and split trees both recurse
    on the rest."""
    head, rest = labels[0], labels[1:]
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            yield (head, *extra), tuple(i for i in rest if i not in extra)


# Relative tolerance within which the growth rate equals 2 mu, so that
# critical cases constructed analytically (mu = growth_rate / 2) do not
# fall into a neighbouring regime by rounding.
CRITICAL_RTOL = 1e-12


class InvalidParameterError(ValueError):
    """Model parameters outside their admissible range."""


class ArityCapError(ValueError):
    """Requested kernel arity above ``MAX_ARITY``."""


class BudgetExceededError(RuntimeError):
    """A computation's up-front work estimate exceeds its budget."""


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
    birth_rate       rate of splitting into two, lam * p
    death_rate       rate of dying childless, lam * (1 - p)
    """

    growth_rate: float
    extinction_prob: float
    birth_rate: float
    death_rate: float


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
        birth_rate=params.lam * params.p,
        death_rate=params.lam * (1.0 - params.p),
    )


def classify(params: ModelParams) -> Regime:
    """Classify the regime by comparing the growth rate with ``2 mu``, equal
    within the relative tolerance ``CRITICAL_RTOL``."""
    growth = derive(params).growth_rate
    twice_mu = 2.0 * params.mu
    if abs(growth - twice_mu) <= CRITICAL_RTOL * max(growth, twice_mu):
        tag = RegimeTag.CRITICAL
    elif growth < twice_mu:
        tag = RegimeTag.SLOW
    else:
        tag = RegimeTag.FAST
    return Regime(tag=tag, growth_rate=growth, twice_mu=twice_mu)


def extinction_by(t: float, params: ModelParams) -> float:
    """Probability that the population has died out by time ``t``.

    Closed-form solution of the backward flow q' = lam (p q^2 - q + 1 - p),
    q(0) = 0; increases to ``extinction_prob`` as t grows, which it equals
    at t = inf.  A negative or NaN ``t`` is refused.
    """
    if not t >= 0:
        raise InvalidParameterError(f"t must be nonnegative, got {t}")
    c = derive(params)
    if params.p == 1.0:
        return 0.0
    e = math.exp(-c.growth_rate * t)  # in (0, 1], so nothing overflows
    q = c.extinction_prob
    return q * (1.0 - e) / (1.0 - q * e)


def count_step(dt: float, params: ModelParams) -> tuple[float, float]:
    """N's law over a step ``dt`` > 0: with h = expm1(r dt) / r, r the growth
    rate, a particle leaves descendants with probability survival =
    exp(r dt) / (1 + b h), taken as 1 - d h / (1 + b h) (exactly 1 at p = 1),
    and then a Geometric number on {1, 2, ...} of success 1 / (1 + b h)."""
    c = derive(params)
    h = math.expm1(c.growth_rate * dt) / c.growth_rate
    return (1.0 - c.death_rate * h / (1.0 + c.birth_rate * h),
            1.0 / (1.0 + c.birth_rate * h))


def w_survival_mean(params: ModelParams) -> float:
    """The mean p / (2p - 1) of W = lim exp(-r t) N_t, exponential on survival."""
    return params.p / (2.0 * params.p - 1.0)


def fluctuation_variance(s: float, params: ModelParams) -> float:
    """Var N_s / (E N_s)^2 = (1 - exp(-r s)) / (2p - 1): N_s has mean
    exp(r s) and variance exp(r s) (exp(r s) - 1) / (2p - 1)."""
    return -math.expm1(-derive(params).growth_rate * s) / (2.0 * params.p - 1.0)


def expected_births(params: ModelParams) -> float:
    """2 p lam / growth: a replica expects about this many births times
    exp(growth t) by time t."""
    return 2.0 * params.p * params.lam / derive(params).growth_rate
