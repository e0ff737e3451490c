"""Independent oracles for the test suite, the slot functions 1 and x
that the tests share, and the loader of the benchmark tracer.

Every oracle here deliberately avoids the package's own evaluation paths:
expectations come from scipy quadrature / ODE integration, closed forms
derived by hand, or brute-force enumeration over raw Python floats.  The
one reference sampler, ``full_tree_farm``, draws every lifetime of the
genealogy and moves it by one exact OU transition (``ou_leg``), where the
package's farm draws only the reconstructed tree and moves it in the
clock ``ou.clock``.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
from scipy import integrate, signal

from branching_ou.ou import Func1D, stationary_std
from branching_ou.simulator import FarmLevel

FUNC_ONE = Func1D.polynomial([1.0])
FUNC_X = Func1D.polynomial([0.0, 1.0])

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    """``benchmarks/tracer.py`` as a module; its ``Tracer`` patches the
    package's layer entry points."""
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def phi_quad(fn, params, limit: float = 12.0) -> float:
    """Integral of fn against the 1-D stationary Gaussian via scipy."""
    s2 = params.sigma**2 / (2.0 * params.mu)
    std = math.sqrt(s2)

    def integrand(x):
        return fn(x) * math.exp(-0.5 * x * x / s2) / math.sqrt(2 * math.pi * s2)

    val, _ = integrate.quad(integrand, -limit * std, limit * std, limit=400)
    return val


def normal_moment(k: int, std: float) -> float:
    """E G^k for a centered Gaussian G of standard deviation ``std``:
    (k - 1)!! std^k for even k, the double factorial an exact integer."""
    return 0.0 if k % 2 else math.prod(range(k - 1, 0, -2)) * std**k


def pair_moment_series(n: int) -> list[int]:
    """The coefficients in rho of E[X^n Y^n] for standard normals X and Y of
    correlation rho, as exact integers: Y = rho X + sqrt(1 - rho^2) Z with
    Z independent, expanded by the binomial theorem, (1 - rho^2)^r too."""
    def moment(m):  # E G^m for even m
        return math.prod(range(m - 1, 0, -2))

    out = [0] * (n + 1)
    for i in range(n % 2, n + 1, 2):
        r = (n - i) // 2
        for q in range(r + 1):
            out[i + 2 * q] += ((-1) ** q * math.comb(r, q) * math.comb(n, i)
                               * moment(n + i) * moment(n - i))
    return out


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


def critical_ratio_moment(params, t: float) -> float:
    """E[S_t^2 / (t N_t) | N_t > 0] for a replica started at the origin,
    S_t the 1-D position sum and N_t the count, by quadrature of a
    closed form derived by hand.

    Given survival, the reconstructed tree at t is a coalescent point
    process (Popovic 2004; Lambert and Stadler 2013): node depths H_1,
    H_2, ... are i.i.d. with P(H > h) = 1 / F(h), F(h) = 1 + (b / r)
    (e^{rh} - 1) (b = lam p, r = (2p - 1) lam), N_t is the first i with
    H_i > t, and tips i < j coalesce at depth max(H_i, ..., H_{j-1}).  Two
    tips coalescing at depth h have position covariance
    s^2 (e^{-2 mu h} - e^{-2 mu t}), s^2 the stationary variance.  With G
    the law of H given H < t and q = 1 - 1 / F(t), summing the pairs at
    lag k against the Geometric law of N_t gives

        E[S^2 / N] = s^2 [ 1 - e^{-2 mu t}
                           + int_0^t 4 mu e^{-2 mu h} B(G(h)) dh ],

    B(x) = E[(1 / N) sum_{k<N} (N - k) x^k], which is, with y = 1 - x and
    z = q y / (1 - q), x q / (1 - q) (z - log(1 + z)) / z^2."""
    b = params.lam * params.p
    r = (2.0 * params.p - 1.0) * params.lam
    mu = params.mu
    s2 = params.sigma**2 / (2.0 * mu)

    def inv_tail(h):  # 1 / F(h) = P(H > h)
        return 1.0 / (1.0 + b / r * math.expm1(r * h))

    eps = inv_tail(t)
    q = 1.0 - eps

    def b_of(h):
        y = (inv_tail(h) - eps) / q  # 1 - G(h)
        if y <= 0.0:
            return 0.0
        z = q * y / eps
        w = 0.5 - z / 3 + z * z / 4 if z < 1e-5 else (z - math.log1p(z)) / z**2
        return (1.0 - y) * q / eps * w

    pairs, _ = integrate.quad(lambda h: 4.0 * mu * math.exp(-2.0 * mu * h) * b_of(h),
                              0.0, t, limit=400)
    return s2 / t * (-math.expm1(-2.0 * mu * t) + pairs)


def relax(dt, mu: float):
    """Fraction of the stationary noise acquired over a step of length dt:
    sqrt(1 - exp(-2 mu dt))."""
    return np.sqrt(-np.expm1(-2.0 * mu * np.asarray(dt, dtype=float)))


def ou_leg(x: np.ndarray, dt: np.ndarray, mu: float, s_std: float,
           rng) -> np.ndarray:
    """Exact OU transition of the rows of ``x`` over the times ``dt``, one
    per row: x exp(-mu dt) + s_std relax(dt) G, ``s_std`` the stationary
    standard deviation and G standard normal.  ``full_tree_farm`` moves
    every lifetime by it, independently of the package's ``ou.clock``."""
    scale = relax(dt, mu) * s_std
    return x * np.exp(-mu * dt)[:, None] + scale[:, None] * \
        rng.standard_normal(x.shape)


def full_tree_farm(params, t_grid, n_replicas: int, seed: int) -> list[FarmLevel]:
    """A farm drawn by another algorithm than ``simulate_farm``'s: every
    particle of the whole genealogy lives an Exp(lam) lifetime, and
    generation after generation every lifetime is drawn.  A particle whose
    lifetime spans grid times takes exact OU legs to each of them and is
    recorded there; one that branches before the last grid time takes a
    leg to its branching time and leaves two children there.  One levels
    list per grid time, in increasing time order, rows sorted by replica;
    no caps."""
    rng = np.random.default_rng(seed)
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    mu, s_std, t_end = params.mu, stationary_std(params), t_grid[-1]
    rep = np.arange(n_replicas)
    birth = np.zeros(n_replicas)
    pos = np.tile(np.asarray(params.x0, dtype=float), (n_replicas, 1))
    rec_rep, rec_pos = [[] for _ in t_grid], [[] for _ in t_grid]
    while rep.size:
        death = birth + rng.exponential(1.0 / params.lam, size=rep.size)
        splits = rng.random(rep.size) < params.p
        # the lifetime [birth, death) spans the grid times t_grid[lo:hi]
        lo = np.searchsorted(t_grid, birth)
        hi = np.searchsorted(t_grid, death)
        for k in range(len(t_grid)):
            j = np.flatnonzero((lo <= k) & (k < hi))
            pos[j] = ou_leg(pos[j], t_grid[k] - birth[j], mu, s_std, rng)
            birth[j] = t_grid[k]
            rec_rep[k].append(rep[j])
            rec_pos[k].append(pos[j])
        br = np.flatnonzero(splits & (death < t_end))
        pos = np.repeat(ou_leg(pos[br], death[br] - birth[br], mu, s_std, rng),
                        2, axis=0)
        rep = np.repeat(rep[br], 2)
        birth = np.repeat(death[br], 2)
    levels = []
    for k, t in enumerate(t_grid):
        reps = np.concatenate(rec_rep[k])
        order = np.argsort(reps, kind="stable")
        levels.append(FarmLevel(float(t), np.concatenate(rec_pos[k])[order],
                                np.bincount(reps, minlength=n_replicas)))
    return levels


def yule_second_moment(t: float, lam: float) -> float:
    return 2.0 * math.exp(2 * lam * t) - math.exp(lam * t)


def mixed_moment_forward(t: float, params, factors) -> float:
    """E prod_i <X_t, f_i> by integrating the forward moment equations.

    factors[i][c] lists the power coefficients of f_i in coordinate c.  For
    each label set A, M_A(s, x) = E_x prod_{i in A} <X_s, f_i> is a
    polynomial in x that solves dM_A/ds = (L + g) M_A + p lam sum M_B M_C
    over the ordered splits A = B + C, with M_A(0) = prod_{i in A} f_i and
    the OU generator L = -mu x . grad + (sigma^2 / 2) Laplacian; its
    coefficient arrays go to scipy's DOP853 integrator.  L + g acts on the
    flattened coefficients as one dense matrix, and every split product is
    one gather-multiply-scatter over an index map built once.  No split
    tree and no Gaussian moment enters.
    """
    n, d = len(factors), params.dim
    shape = tuple(sum(len(f[c]) - 1 for f in factors) + 1 for c in range(d))
    sets = [s for r in range(1, n + 1) for s in itertools.combinations(range(n), r)]
    where = {s: k for k, s in enumerate(sets)}

    start = np.zeros((len(sets), *shape))
    for s in sets:
        prod = np.ones([1] * d)
        for i in s:
            for c in range(d):
                prod = signal.convolve(prod, np.reshape(factors[i][c], [-1 if j == c else 1
                                                                        for j in range(d)]),
                                       method="direct")
        start[(where[s], *(slice(0, k) for k in prod.shape))] = prod
    size = math.prod(shape)
    powers = np.indices(shape).reshape(d, size)
    # L + g: the drift and growth on the diagonal, and the Laplacian taking
    # the coefficient of x^(k + 2 e_c) to that of x^k
    gen = np.diag((2 * params.p - 1) * params.lam - params.mu * powers.sum(axis=0))
    for c in range(d):
        up = powers.copy()
        up[c] += 2
        ok = up[c] < shape[c]
        k = powers[c, ok]
        gen[np.flatnonzero(ok), np.ravel_multi_index(up[:, ok], shape)] += \
            0.5 * params.sigma**2 * (k + 2) * (k + 1)
    # the product M_B M_C, cropped to the shape: x^i x^j lands on x^(i + j)
    total = powers[:, :, None] + powers[:, None, :]
    i, j = np.nonzero((total < np.reshape(shape, (d, 1, 1))).all(axis=0))
    lands = np.ravel_multi_index(total[:, i, j], shape)
    split = np.array([(where[s], where[b], where[tuple(a for a in s if a not in b)])
                      for s in sets for r in range(1, len(s))
                      for b in itertools.combinations(s, r)], dtype=int).reshape(-1, 3)
    target, left, right = ((split[:, [k]] * size + idx).ravel()
                           for k, idx in enumerate((lands, i, j)))

    def rhs(_s, y):
        out = y.reshape(len(sets), size) @ gen.T
        return out.ravel() + params.p * params.lam * np.bincount(
            target, weights=y[left] * y[right], minlength=y.size)

    sol = integrate.solve_ivp(rhs, (0.0, t), start.ravel(), method="DOP853",
                              rtol=1e-13, atol=1e-14)
    final = sol.y[:, -1].reshape(len(sets), *shape)[where[tuple(range(n))]]
    at_x0 = np.prod([params.x0[c] ** powers[c].reshape(shape) for c in range(d)], axis=0)
    return float(np.sum(final * at_x0))


def involution_number(n: int) -> int:
    """Number of partial pairings of n points by I(n) = I(n-1) + (n-1) I(n-2)."""
    a, b = 1, 1  # I(0), I(1)
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b


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
