"""Exact Ornstein-Uhlenbeck transitions, the semigroup on polynomials, and
integration against the stationary Gaussian law.

The transition over a step ``dt`` starting at ``x`` is
``x * exp(-mu dt) + relax(dt) * G`` where ``G`` is a draw from the
stationary law (centered Gaussian, per-coordinate variance
``sigma^2 / (2 mu)``) and ``relax(dt) = sqrt(1 - exp(-2 mu dt))``.  This is
exact in distribution, so no time discretization error enters anywhere.

Slot functions are polynomials, so their stationary integrals are exact
Gaussian moments and the semigroup maps them to polynomials in closed form.
The Gauss-Hermite rule here integrates nothing for a slot function: it
places black-box kernels' averaging nodes and the kernel test points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams


def stationary_std(params: ModelParams) -> float:
    """Per-coordinate standard deviation of the stationary law."""
    return params.sigma / math.sqrt(2.0 * params.mu)


def relax(dt, mu: float):
    """Fraction of the stationary noise acquired over a step of length dt."""
    return np.sqrt(-np.expm1(-2.0 * mu * np.asarray(dt, dtype=float)))


# ---------------------------------------------------------------------------
# polynomial helpers (coefficients ascending in the power basis)


def _double_factorial(k: int) -> float:
    # (k-1)!! for even k >= 0, i.e. the standard normal moment E G^k
    out = 1.0
    for j in range(k - 1, 0, -2):
        out *= j
    return out


def gaussian_moment(k: int, std: float) -> float:
    """E G^k for centered Gaussian G with standard deviation ``std``."""
    if k % 2:
        return 0.0
    return _double_factorial(k) * std**k


def poly_eval(coeffs: np.ndarray, x):
    return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), coeffs)


def poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.convolve(a, b)


def poly_derivative(a: np.ndarray) -> np.ndarray:
    if len(a) <= 1:
        return np.zeros(1)
    return a[1:] * np.arange(1, len(a))


def poly_phi_mean(coeffs: np.ndarray, params: ModelParams) -> float:
    """Integral of the polynomial against the 1-D stationary law."""
    std = stationary_std(params)
    return float(
        sum(c * gaussian_moment(k, std) for k, c in enumerate(coeffs) if c != 0.0)
    )


def evolve_poly(coeffs: np.ndarray, t: float, params: ModelParams) -> np.ndarray:
    """Closed-form action of the semigroup on a polynomial.

    With a = exp(-mu t) and b = relax(t) * stationary_std, the result is
    the polynomial x -> E f(a x + b G), G standard normal.
    """
    a = math.exp(-params.mu * t)
    b = float(relax(t, params.mu)) * stationary_std(params)
    deg = len(coeffs) - 1
    out = np.zeros(deg + 1)
    for k, c in enumerate(coeffs):
        if c == 0.0:
            continue
        for m in range(k + 1):
            j = k - m
            if j % 2:
                continue
            out[m] += c * math.comb(k, m) * a**m * _double_factorial(j) * b**j
    return out


# ---------------------------------------------------------------------------
# 1-D slot functions


@dataclass(frozen=True)
class Func1D:
    """A 1-D polynomial, by its coefficients in ascending powers."""

    poly: tuple[float, ...]

    @staticmethod
    def polynomial(coeffs) -> "Func1D":
        arr = np.atleast_1d(np.asarray(coeffs, dtype=float))
        return Func1D(poly=tuple(arr.tolist()))

    @property
    def coeffs(self) -> np.ndarray:
        return np.asarray(self.poly, dtype=float)

    def __call__(self, x):
        return poly_eval(self.coeffs, x)

    def times(self, other: "Func1D") -> "Func1D":
        return Func1D.polynomial(poly_mul(self.coeffs, other.coeffs))


FUNC_ONE = Func1D.polynomial([1.0])
FUNC_X = Func1D.polynomial([0.0, 1.0])


# ---------------------------------------------------------------------------
# quadrature against the stationary law


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite rule rescaled to the stationary law, for kernels: it
    places the averaging nodes of black-box kernels and the points at which
    canonicality and degeneracy order are tested.

    Integrates polynomials up to degree ``2 * len(nodes) - 1`` exactly;
    the weights are probability weights (they sum to one).  There is no
    adaptive fallback, so accuracy for rough kernels is the caller's
    responsibility.
    """

    nodes: np.ndarray
    weights: np.ndarray

    @staticmethod
    def for_invariant(params: ModelParams, n_nodes: int = 64) -> "QuadratureRule":
        x, w = np.polynomial.hermite.hermgauss(n_nodes)
        scale = math.sqrt(2.0) * stationary_std(params)
        return QuadratureRule(nodes=x * scale, weights=w / math.sqrt(math.pi))


def default_rule(params: ModelParams, n_nodes: int = 64) -> QuadratureRule:
    return QuadratureRule.for_invariant(params, n_nodes)


# ---------------------------------------------------------------------------
# transitions and stationary integrals


def ou_transition_sample(
    x: np.ndarray, dt: float, params: ModelParams, rng: np.random.Generator
) -> np.ndarray:
    """Exact-in-distribution OU step of length ``dt`` from position(s) x.

    Works on a single position of shape (dim,) or a batch (m, dim).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = np.asarray(x, dtype=float)
    decay = math.exp(-params.mu * dt)
    scale = float(relax(dt, params.mu)) * stationary_std(params)
    return x * decay + scale * rng.standard_normal(x.shape)


def invariant_integral(f, params: ModelParams) -> float:
    """Exact integral of ``f`` against the stationary law.

    ``f`` may be a Func1D or a sequence of per-coordinate Func1D (a product
    function on R^d), in which case the tensorized integral factorizes.
    """
    factors = (f,) if isinstance(f, Func1D) else tuple(f)
    return math.prod(poly_phi_mean(g.coeffs, params) for g in factors)
