"""Independent oracles for the test suite.

Everything here deliberately avoids the package's own evaluation paths:
expectations come from scipy quadrature / ODE integration, closed forms
derived by hand, or brute-force enumeration over raw Python floats.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate, signal


def phi_quad(fn, params, limit: float = 12.0) -> float:
    """Integral of fn against the 1-D stationary Gaussian via scipy."""
    s2 = params.sigma**2 / (2.0 * params.mu)
    std = math.sqrt(s2)

    def integrand(x):
        return fn(x) * math.exp(-0.5 * x * x / s2) / math.sqrt(2 * math.pi * s2)

    val, _ = integrate.quad(integrand, -limit * std, limit * std, limit=400)
    return val


def semigroup_quad(fn, t, x, params, limit: float = 12.0) -> float:
    """E fn(x e^{-mu t} + relax(t) G) via scipy quadrature."""
    decay = math.exp(-params.mu * t)
    mix = math.sqrt(1.0 - math.exp(-2.0 * params.mu * t))
    return phi_quad(lambda y: fn(x * decay + mix * y), params, limit)


def extinction_ode(t: float, lam: float, p: float) -> float:
    """Extinction-by-t probability by integrating the backward flow."""

    def rhs(_s, q):
        return lam * (p * q**2 - q + (1.0 - p))

    sol = integrate.solve_ivp(rhs, (0.0, t), [0.0], rtol=1e-10, atol=1e-12)
    return float(sol.y[0, -1])


def second_moment_linear(t: float, params) -> float:
    """E (sum of particle positions)^2 by the hand-derived closed form:
    single-ancestor variance term plus the branching pair integral."""
    lam, p, mu = params.lam, params.p, params.mu
    g = (2 * p - 1) * lam
    s2 = params.sigma**2 / (2 * mu)
    x0 = params.x0[0]
    mean2 = x0**2 * math.exp(-2 * mu * t)
    term1 = math.exp(g * t) * (mean2 + s2 * (1.0 - math.exp(-2 * mu * t)))

    def pair(u):
        cov = s2 * math.exp(-2 * mu * u) * (1.0 - math.exp(-2 * mu * (t - u)))
        return math.exp(g * u) * (mean2 + cov)

    integral, _ = integrate.quad(pair, 0.0, t, limit=400)
    return term1 + 2 * p * lam * math.exp(g * t) * integral


def yule_second_moment(t: float, lam: float) -> float:
    return 2.0 * math.exp(2 * lam * t) - math.exp(lam * t)


def mixed_moment_forward(t: float, params, factors) -> float:
    """E prod_i <X_t, f_i> by integrating the forward moment equations.

    factors[i][c] lists the power coefficients of f_i in coordinate c.  For
    each label set A, M_A(s, x) = E_x prod_{i in A} <X_s, f_i> is a
    polynomial in x that solves dM_A/ds = (L + g) M_A + p lam sum M_B M_C
    over the ordered splits A = B + C, with M_A(0) = prod_{i in A} f_i and
    the OU generator L = -mu x . grad + (sigma^2 / 2) Laplacian; its
    coefficient arrays go to scipy's DOP853 integrator.  No split tree and
    no Gaussian moment enters.
    """
    n, d = len(factors), params.dim
    shape = tuple(sum(len(f[c]) - 1 for f in factors) + 1 for c in range(d))
    sets = [s for r in range(1, n + 1) for s in itertools.combinations(range(n), r)]
    where = {s: k for k, s in enumerate(sets)}
    splits = {s: [(where[b], where[tuple(i for i in s if i not in b)])
                  for r in range(1, len(s)) for b in itertools.combinations(s, r)]
              for s in sets}

    def axis(c):
        return [-1 if j == c else 1 for j in range(d)]

    start = np.zeros((len(sets), *shape))
    for s in sets:
        prod = np.ones([1] * d)
        for i in s:
            for c in range(d):
                prod = signal.convolve(prod, np.reshape(factors[i][c], axis(c)),
                                       method="direct")
        start[(where[s], *(slice(0, k) for k in prod.shape))] = prod
    powers = np.indices(shape)
    rate = (2 * params.p - 1) * params.lam - params.mu * powers.sum(axis=0)
    crop = tuple(slice(0, k) for k in shape)

    def along(c, part):
        return (slice(None), *(part if j == c else slice(None) for j in range(d)))

    def rhs(_s, y):
        m = y.reshape(start.shape)
        out = rate * m
        for c in range(d):
            k = np.arange(max(shape[c] - 2, 0)).reshape(axis(c))
            out[along(c, slice(0, -2))] += \
                0.5 * params.sigma**2 * (k + 2) * (k + 1) * m[along(c, slice(2, None))]
        for s in sets:
            for b, c in splits[s]:
                out[where[s]] += params.p * params.lam * \
                    signal.convolve(m[b], m[c], method="direct")[crop]
        return out.ravel()

    sol = integrate.solve_ivp(rhs, (0.0, t), start.ravel(), method="DOP853",
                              rtol=1e-13, atol=1e-14)
    final = sol.y[:, -1].reshape(start.shape)[where[tuple(range(n))]]
    at_x0 = np.prod([params.x0[c] ** powers[c] for c in range(d)], axis=0)
    return float(np.sum(final * at_x0))


def brute_v(positions: np.ndarray, fn, n: int) -> float:
    """V-statistic by direct enumeration; fn takes n scalar/vector args."""
    m = len(positions)
    total = 0.0
    for idx in itertools.product(range(m), repeat=n):
        total += fn(*(positions[i] for i in idx))
    return total


def brute_u(positions: np.ndarray, fn, n: int) -> float:
    """U-statistic by direct enumeration over injective tuples."""
    m = len(positions)
    total = 0.0
    for idx in itertools.permutations(range(m), n):
        total += fn(*(positions[i] for i in idx))
    return total


def var_se(x) -> tuple[float, float]:
    x = np.asarray(x, dtype=float)
    n = len(x)
    m2 = x.var(ddof=1)
    m4 = np.mean((x - x.mean()) ** 4)
    return float(m2), math.sqrt(max(m4 - m2**2 * (n - 3) / (n - 1), 0.0) / n)


def mean_se(x) -> tuple[float, float]:
    x = np.asarray(x, dtype=float)
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(len(x)))
