"""Exact Ornstein-Uhlenbeck transitions and integration against the
stationary Gaussian law.

The transition over a step ``dt`` starting at ``x`` is
``x * exp(-mu dt) + relax(dt) * G`` where ``G`` is a draw from the
stationary law (centered Gaussian, per-coordinate variance
``sigma^2 / (2 mu)``) and ``relax(dt) = sqrt(1 - exp(-2 mu dt))``.  This is
exact in distribution, so no time discretization error enters anywhere.

Slot functions are polynomials, so their stationary integrals are exact
Gaussian moments.  The Gauss-Hermite rule here integrates nothing for a
slot function: it places black-box kernels' averaging nodes and the kernel
test points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.polynomial.polynomial import polyval

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


# ---------------------------------------------------------------------------
# slot functions


class Factor:
    """One kernel slot: a polynomial on R^d held as one coefficient array,
    ``coeffs[k_1, ..., k_d]`` multiplying x_1^k_1 ... x_d^k_d.

    Equality and hashing go by value, so equal slots share cached sums.
    """

    __slots__ = ("coeffs", "_key")

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.array(coeffs, dtype=float))
        arr.flags.writeable = False
        self.coeffs = arr
        self._key = (arr.shape, tuple(arr.ravel().tolist()))

    @staticmethod
    def polynomial(coeffs) -> "Factor":
        """The 1-D polynomial with the given ascending coefficients."""
        return Factor(np.ravel(coeffs))

    @staticmethod
    def from_polys(coeff_vectors: Sequence) -> "Factor":
        """The product over coordinates of 1-D polynomials, one ascending
        coefficient vector per coordinate."""
        vectors = [np.asarray(c, dtype=float) for c in coeff_vectors]
        if not vectors or any(v.ndim != 1 or not v.size for v in vectors):
            raise ValueError("a slot needs one nonempty coefficient vector "
                             "per coordinate")
        return Factor(functools.reduce(np.multiply.outer, vectors))

    @staticmethod
    def constant(value: float, dim: int) -> "Factor":
        return Factor(np.full((1,) * dim, float(value)))

    @staticmethod
    def combine(terms: Iterable[tuple[float, "Factor"]]) -> "Factor":
        """The sum of coef * F over the (coef, F) pairs, like terms
        collected."""
        terms = list(terms)
        out = np.zeros(np.max([f.coeffs.shape for _, f in terms], axis=0))
        for coef, f in terms:
            out[tuple(map(slice, f.coeffs.shape))] += coef * f.coeffs
        return Factor(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Factor) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Factor({self.coeffs.tolist()!r})"

    @property
    def dim(self) -> int:
        return self.coeffs.ndim

    def __call__(self, x) -> np.ndarray:
        """Values at the rows of ``x``, of shape (m, dim); returns (m,)."""
        x = np.asarray(x, dtype=float).reshape(-1, self.dim)
        out = polyval(x[:, 0], self.coeffs)
        for c in range(1, self.dim):
            out = polyval(x[:, c], out, tensor=False)
        return out

    def phi_mean(self, params: ModelParams) -> float:
        """Integral against the stationary law: a sum of Gaussian moments."""
        std = stationary_std(params)
        return float(sum(
            c * math.prod(gaussian_moment(k, std) for k in idx)
            for idx, c in np.ndenumerate(self.coeffs) if c != 0.0))

    def centered(self, params: ModelParams) -> "Factor":
        m = self.phi_mean(params)
        if m == 0.0:
            return self
        return Factor.combine([(1.0, self), (-m, Factor.constant(1.0, self.dim))])

    def times(self, other: "Factor") -> "Factor":
        """The product polynomial, like terms collected."""
        a, b = self.coeffs, other.coeffs
        if a.ndim != b.ndim:
            raise ValueError("dimension mismatch in product")
        if a.ndim == 1:
            return Factor(np.convolve(a, b))
        out = np.zeros([i + j - 1 for i, j in zip(a.shape, b.shape)])
        for idx in zip(*np.nonzero(a)):
            out[tuple(slice(i, i + n) for i, n in zip(idx, b.shape))] += a[idx] * b
        return Factor(out)

    def derivative(self, axis: int) -> "Factor":
        """The partial derivative along the 0-based coordinate ``axis``."""
        c = np.moveaxis(self.coeffs, axis, 0)
        if len(c) <= 1:
            d = np.zeros((1,) + c.shape[1:])
        else:
            d = c[1:] * np.arange(1, len(c)).reshape((-1,) + (1,) * (c.ndim - 1))
        return Factor(np.moveaxis(d, 0, axis))


# The 1-D case keeps its own name; ``Func1D.polynomial(c)`` builds it.
Func1D = Factor


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


def default_rule(params: ModelParams, n_nodes: int = 64) -> QuadratureRule:
    """The ``n_nodes``-point rule for the stationary law of ``params``; its
    arrays are new on every call."""
    x, w = _hermgauss(n_nodes)
    scale = math.sqrt(2.0) * stationary_std(params)
    return QuadratureRule(nodes=x * scale, weights=w / math.sqrt(math.pi))


@functools.lru_cache(maxsize=4)
def _hermgauss(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Hermite nodes and weights, computed once per node count
    (about 1.4 ms at 64 nodes) and read-only."""
    x, w = np.polynomial.hermite.hermgauss(n_nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


# ---------------------------------------------------------------------------
# transitions


def ou_leg(x: np.ndarray, dt: np.ndarray, mu: float, s_std: float,
           rng: np.random.Generator) -> np.ndarray:
    """Exact OU transition of the rows of ``x`` over the times ``dt``, one
    per row; ``s_std`` is the stationary standard deviation.  This is the
    step the simulator takes."""
    scale = relax(dt, mu) * s_std
    return x * np.exp(-mu * dt)[:, None] + scale[:, None] * \
        rng.standard_normal(x.shape)
