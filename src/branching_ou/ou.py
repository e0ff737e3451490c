"""The Ornstein-Uhlenbeck motion along a tree and integration against the
stationary Gaussian law.

Over a step of length ``dt``, e^{-mu (dt - u)} X at u into the step is a
Brownian motion run in the clock ``clock(u, dt, mu)`` =
e^{-2 mu (dt - u)} (1 - e^{-2 mu u}), scaled by the stationary standard
deviation s = sigma / sqrt(2 mu) (Doob 1942): it starts at e^{-mu dt} X at
the step's start and ends at X at the step's end.  So the simulator moves
each tree line by one Gaussian increment of variance s^2 times the clock's
increase along the line, exact in distribution, with no time
discretization error anywhere.

Slot functions are polynomials, and each stationary integral of one is read
from its Hermite array (``Factor.hermite``); the oracle keeps its own
Isserlis route.  The Gauss-Hermite rule here integrates nothing for a slot
function: it places black-box kernels' averaging nodes and test points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import ModelParams


def stationary_std(params: ModelParams) -> float:
    """Per-coordinate standard deviation of the stationary law."""
    return params.sigma / math.sqrt(2.0 * params.mu)


def clock(elapsed, dt: float, mu: float):
    """The clock of the OU motion over a step of length ``dt`` at
    ``elapsed`` (a number or an array) into it: e^{-2 mu (dt - elapsed)}
    (1 - e^{-2 mu elapsed}), which grows from 0 at the step's start to
    1 - e^{-2 mu dt} at its end.  Two lines that part at ``elapsed`` from
    one position at the step's start have per-coordinate covariance s^2
    times this at its end, s = ``stationary_std``.  Both factors are at most
    1 for elapsed in [0, dt], so no mu dt overflows."""
    two_mu = 2.0 * mu
    return np.exp(-two_mu * (dt - elapsed)) * -np.expm1(-two_mu * elapsed)


# ---------------------------------------------------------------------------
# polynomial helpers (coefficients ascending in the power basis)


def poly_times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product of two polynomials held as coefficient arrays with one
    axis per variable, ascending powers along each: b shifted to each
    nonzero index of a, times that coefficient, summed in index order.  A
    variable of degree 0 in one factor (an axis of length 1) makes the
    product an outer product along that axis."""
    out = np.zeros([i + j - 1 for i, j in zip(a.shape, b.shape)])
    for idx in zip(*np.nonzero(a)):
        out[tuple(slice(i, i + n) for i, n in zip(idx, b.shape))] += a[idx] * b
    return out


def _horner(coeffs: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``coeffs`` (one axis per coordinate) at the points whose coordinates
    are the rows of ``cols``: Horner's rule along the first coordinate, in
    place, a coefficient being the rest's polynomial's value (not added when
    zero); for finite x, ``polyval``'s bits up to the sign of a zero."""
    x, n = cols[0], len(coeffs) - 1
    value = (lambda c: c) if coeffs.ndim == 1 else (lambda c: _horner(c, cols[1:]))
    out = x * value(coeffs[n]) if n else x * 0.0 + value(coeffs[0])
    for j in range(n - 1, -1, -1):
        if coeffs[j].any():
            out += value(coeffs[j])
        if j:
            out *= x
    return out


def _power_to_hermite(n: int) -> np.ndarray:
    """M[j, k] of x^j = sum_k M[j, k] He_k(x), j, k < n: the integer
    C(j, 2m) (2m - 1)!! for j - k = 2m, rounded once."""
    out = np.zeros((n, n))
    for j in range(n):
        for m in range(j // 2 + 1):
            out[j, j - 2 * m] = math.comb(j, 2 * m) * math.prod(range(2 * m - 1, 0, -2))
    return out


def hermite_norms(shape: tuple[int, ...]) -> np.ndarray:
    """k! = prod_c k_c! at each multi-index k of ``shape``: the stationary
    mean of He_k(x / s)^2, s = ``stationary_std``."""
    return functools.reduce(np.multiply.outer, [
        np.array([float(math.factorial(k)) for k in range(n)]) for n in shape])


# ---------------------------------------------------------------------------
# slot functions


class Factor:
    """One kernel slot: a polynomial on R^d held as one coefficient array,
    ``coeffs[k_1, ..., k_d]`` multiplying x_1^k_1 ... x_d^k_d.

    Equality and hashing go by value, so equal slots share cached sums.
    """

    __slots__ = ("coeffs", "_key", "_hermite")

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.array(coeffs, dtype=float))
        arr.flags.writeable = False
        self.coeffs = arr
        self._key = (arr.shape, tuple(arr.ravel().tolist()))
        self._hermite = {}

    @staticmethod
    def polynomial(coeffs) -> "Factor":
        """The 1-D polynomial with the given ascending coefficients."""
        return Factor(np.ravel(coeffs))

    @staticmethod
    def from_polys(coeff_vectors: Sequence) -> "Factor":
        """The product over coordinates of 1-D polynomials, one ascending
        coefficient vector per coordinate.  The products are rounded to
        float64 power coefficients, so a high degree loses its polynomial
        before any use: He_k(x/s) in each of 3 coordinates holds only up to
        k of about 16, and the slow-regime variance of the stored array is
        off by a relative 7.4e-11 at k = 20 and 3.6e-4 at k = 24."""
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
        """Values at the rows of ``x``, of shape (m, dim); returns (m,), by
        the one polynomial evaluator, ``_horner``: the bits of ``polyval``
        in 1-D (up to the sign of a zero), with O(dim) arrays of length m."""
        return _horner(self.coeffs, np.asarray(x, dtype=float).reshape(-1, self.dim).T)

    def hermite(self, params: ModelParams) -> np.ndarray:
        """Coefficients h_k in the basis prod_c He_{k_c}(x_c / s) of the
        stationary law, s = ``stationary_std``, by one basis-change matrix
        per axis, once per s; read-only.  The mean is h_0, <F, G> = sum_k
        f_k g_k k! (``hermite_norms``) and the mean of dF/dx_i is h_{e_i}/s."""
        std = stationary_std(params)
        if std not in self._hermite:
            h = self.coeffs
            for n in self.coeffs.shape:  # each contraction moves its axis last
                basis = std ** np.arange(n)[:, None] * _power_to_hermite(n)
                h = np.tensordot(h, basis, axes=(0, 0))
            h.flags.writeable = False
            self._hermite[std] = h
        return self._hermite[std]

    def phi_mean(self, params: ModelParams) -> float:
        """Integral against the stationary law: h_0 of ``hermite``."""
        return float(self.hermite(params).flat[0])

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
        return Factor(np.convolve(a, b) if a.ndim == 1 else poly_times(a, b))


# The 1-D case keeps its own name; ``Func1D.polynomial(c)`` builds it.
Func1D = Factor


# ---------------------------------------------------------------------------
# quadrature against the stationary law


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite rule rescaled to the stationary law, for kernels: it
    places the averaging nodes of black-box kernels and the points at which
    their canonicality and degeneracy order are tested.

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
