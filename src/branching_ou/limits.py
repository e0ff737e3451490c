"""Asymptotic variances and samplers for the three limit laws.

Every limit law needs only stationary integrals of the kernel's slot
functions, which are polynomials, so each integral below is an exact
Gaussian moment in closed form.

Slow regime: the normalized U-statistic of a canonical tensor-sum kernel
converges to a signed sum over partial pairings (Feynman diagrams) of
products of stationary pair integrals and a centered Gaussian family whose
covariance adds the stationary product integral and an exponentially tilted
semigroup time integral.  The semigroup is diagonal in the Hermite basis of
the stationary law, so both are finite sums over exponentials.

Critical regime: the limit tensorizes into a product of Gaussians indexed
by the factors, with covariance built from pairings against the gradient
of the stationary density; by Gaussian integration by parts
<F, d phi / d x_l> = -<d F / d x_l, phi>.

Fast regime: the limit is a polynomial in the position-sum martingale
limit, with coefficients given by stationary means of kernel derivatives;
the martingale limit is approximated by its value at a long finite horizon,
where the position sum is drawn from its exact Gaussian law given the
skeleton of the genealogy: the lines alive at the horizon and their
ancestors, drawn from the reconstructed birth-death process.

All limit laws are sampled through these finite Gaussian-polynomial
representations, which are exact in distribution for tensor-sum kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import hermite_e

from .kernels import Factor, Kernel, is_canonical
from .model import ModelParams, classify, derive, expected_births
from . import simulator
from .ou import stationary_std
from .simulator import position_sum
# ``benchmarks/tracer.py`` binds its simulator shim to ``limits.simulate``,
# so the name stays here although the sampler no longer calls it
from .simulator import simulate  # noqa: F401
from .ustats import Partition, partition_coefficients, set_partitions


class RegimeError(ValueError):
    """Operation invoked outside its branching regime."""


class CenteringError(ValueError):
    """A factor that must integrate to zero against the stationary law
    does not."""


class NonPolynomialError(ValueError):
    """Operation requires a tensor-sum kernel of polynomial slot functions."""


# A covariance eigenvalue below -PSD_CLIP times the largest is refused as
# not positive semidefinite; smaller negative ones are rounding, set to 0.
PSD_CLIP = 1e-10


# ---------------------------------------------------------------------------
# Feynman diagrams: a partial pairing is a set partition into blocks of size
# at most 2, and its sign (-1)^{#edges} is that partition's Moebius weight


def enumerate_diagrams(n: int) -> list[Partition]:
    """All partial pairings of {1..n}, as the sorted set partitions whose
    blocks have size 1 or 2: the 2-blocks are the edges, the 1-blocks the
    unpaired labels; the count is the involution number.  Arities above
    ``model.MAX_ARITY`` raise ``ArityCapError``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [J for J in set_partitions(n) if all(len(b) <= 2 for b in J)]


# ---------------------------------------------------------------------------
# factor-level integrals


def _poly2herme(v: np.ndarray) -> np.ndarray:
    h = hermite_e.poly2herme(v)
    return np.pad(h, (0, len(v) - len(h)))


def _herme(F: Factor, std: float, shape: tuple[int, ...]) -> np.ndarray:
    """F in the Hermite basis prod_c He_{k_c}(x_c / std), zero-padded to
    ``shape``: the basis change runs along each axis in turn."""
    out = np.zeros(shape)
    out[tuple(map(slice, F.coeffs.shape))] = F.coeffs
    out = out * std ** np.indices(shape).sum(axis=0)
    for axis in range(out.ndim):
        out = np.apply_along_axis(_poly2herme, axis, out)
    return out


def _pair_spectrum(F: Factor, G: Factor, params: ModelParams) -> np.ndarray:
    """Coefficients c_1, c_2, ... of <phi, (T_s F)(T_s G)> = sum_n c_n
    exp(-2 mu n s).

    In the Hermite basis He_k(x / std) of the stationary law, multi-indexed
    over the coordinates, the semigroup is diagonal (Mehler: T_s He_k =
    exp(-mu |k| s) He_k) and orthogonal with <phi, He_j He_k> = k! [j = k],
    so c_n = sum over |k| = n of F_k G_k k!.  The constant term c_0 is the
    product of the stationary means and is left out: it vanishes for
    centered slot functions.
    """
    shape = tuple(np.maximum(F.coeffs.shape, G.coeffs.shape))
    hf = _herme(F, stationary_std(params), shape)
    hg = _herme(G, stationary_std(params), shape)
    k = np.indices(shape)
    norms = np.prod(np.vectorize(math.factorial, otypes=[float])(k), axis=0)
    series = np.bincount(k.sum(axis=0).ravel(), weights=(hf * hg * norms).ravel())
    return np.trim_zeros(series, "b")[1:]


def _tilted_integrals(n_terms: int, params: ModelParams) -> np.ndarray:
    """2 lam p int_0^inf exp(growth s) exp(-2 mu n s) ds for n = 1..n_terms."""
    regime = classify(params)
    if not regime.is_slow:
        raise RegimeError("slow-regime time integrals need growth < 2 mu")
    n = np.arange(1, n_terms + 1)
    return 2.0 * derive(params).birth_rate / (regime.twice_mu * n - regime.growth_rate)


def gradient_phi_mean(F: Factor, params: ModelParams) -> np.ndarray:
    """Stationary means of the partial derivatives of F, one per
    coordinate; the pairings of F with the stationary density gradient are
    their negatives."""
    return np.array([F.derivative(i).phi_mean(params) for i in range(F.dim)])


# ---------------------------------------------------------------------------
# asymptotic variances


def sigma_slow(f: Factor, params: ModelParams) -> float:
    """Slow-regime asymptotic variance of the linear statistic of a
    polynomial ``f``: the stationary variance of the centered function
    plus its tilted semigroup time integral."""
    return float(slow_covariance([f], params).covariance[0, 0])


def sigma_critical(f: Factor, params: ModelParams) -> float:
    """Critical-regime asymptotic variance: scaled sum over coordinates of
    the squared pairings with the stationary density gradient."""
    regime = classify(params)
    if not regime.is_critical:
        raise RegimeError("critical-regime variance needs growth = 2 mu")
    w = gradient_phi_mean(f, params)
    return derive(params).birth_rate * params.sigma**2 / params.mu * float(w @ w)


# ---------------------------------------------------------------------------
# Gaussian families and samplers


@dataclass(frozen=True)
class GaussianFamily:
    """Centered Gaussian vector over kernel slot functions."""

    covariance: np.ndarray
    transform: np.ndarray  # draws = standard normals @ transform.T

    @staticmethod
    def from_covariance(cov: np.ndarray) -> "GaussianFamily":
        cov = np.asarray(cov, dtype=float)
        sym = 0.5 * (cov + cov.T)
        vals, vecs = np.linalg.eigh(sym)
        if vals.min() < -PSD_CLIP * max(1.0, float(vals.max())):
            raise ValueError(f"covariance not PSD: min eigenvalue {vals.min():.3g}")
        vals = np.clip(vals, 0.0, None)
        return GaussianFamily(covariance=sym, transform=vecs * np.sqrt(vals))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        z = rng.standard_normal((size, self.transform.shape[1]))
        return z @ self.transform.T


def _require_tensor_sum(f: Kernel):
    if not f.is_tensor_sum:
        raise NonPolynomialError(
            "limit samplers require a tensor-sum kernel; supply a tensor-sum "
            "approximation for black-box kernels"
        )


def slow_covariance(funcs: list[Factor], params: ModelParams) -> GaussianFamily:
    """Covariance of the slow-regime Gaussian family over the centered
    versions of polynomial slot functions: the stationary covariance plus
    the tilted semigroup time integral."""
    m = len(funcs)
    cov = np.zeros((m, m))
    for a in range(m):
        for b in range(a, m):
            c = _pair_spectrum(funcs[a], funcs[b], params)
            cov[a, b] = cov[b, a] = c @ (1.0 + _tilted_integrals(len(c), params))
    return GaussianFamily.from_covariance(cov)


def slow_limit_sampler(
    f: Kernel,
    params: ModelParams,
    rng: np.random.Generator,
    size: int = 1,
) -> np.ndarray:
    """Draws of the slow-regime limit law of a canonical polynomial
    tensor-sum kernel: the signed diagram sum with stationary pair
    integrals on edges and the Gaussian family on unpaired labels.

    Canonicity lets every slot be replaced by its centered version, which
    is what the edge weights and the Gaussian family are computed from."""
    regime = classify(params)
    if not regime.is_slow:
        raise RegimeError("slow sampler needs growth < 2 mu")
    _require_tensor_sum(f)
    if not is_canonical(f, params):
        raise CenteringError("slow-regime limit is defined for canonical kernels")
    n = f.arity
    funcs = [s for _, slots in f.terms for s in slots]
    family = slow_covariance(funcs, params)
    draws = family.sample(rng, size)  # (size, L*n)
    edge_w = {}
    for l, (_, slots) in enumerate(f.terms):
        for j in range(n):
            for k in range(j + 1, n):
                edge_w[(l, j + 1, k + 1)] = float(
                    _pair_spectrum(slots[j], slots[k], params).sum())
    signs = partition_coefficients(n)
    out = np.zeros(size)
    for gamma in enumerate_diagrams(n):
        edges = [b for b in gamma if len(b) == 2]
        unpaired = [r for b in gamma if len(b) == 1 for r in b]
        for l, (coef, _) in enumerate(f.terms):
            piece = np.full(size, float(signs[gamma]) * coef)
            for (j, k) in edges:
                piece *= edge_w[(l, j, k)]
            for r in unpaired:
                piece = piece * draws[:, l * n + (r - 1)]
            out += piece
    return out


def critical_limit_sampler(
    f: Kernel,
    params: ModelParams,
    rng: np.random.Generator,
    size: int = 1,
) -> np.ndarray:
    """Draws of the critical-regime limit law of a canonical polynomial
    tensor-sum kernel: products over slots of a Gaussian family with
    gradient-pairing covariance.  The law reads only the slots' gradient
    means, which centering leaves unchanged, so a canonical kernel's slots
    are taken as they are, centered or not."""
    regime = classify(params)
    if not regime.is_critical:
        raise RegimeError("critical sampler needs growth = 2 mu")
    _require_tensor_sum(f)
    if not is_canonical(f, params):
        raise CenteringError("critical-regime limit is defined for canonical kernels")
    scale = math.sqrt(derive(params).birth_rate * params.sigma**2 / params.mu)
    g = rng.standard_normal((size, f.dim))
    return f.contract(lambda _, s: g @ (-scale * gradient_phi_mean(s, params)))


def default_fast_horizon(params: ModelParams) -> float:
    """Horizon for approximating the position-sum martingale limit: 14 /
    (growth - 2 mu), for a negligible squared gap, capped where a replica
    expects 1% of ``simulator.MAX_PARTICLES`` births.  At lam = 1, p =
    0.75 and mu = 0.1 the cap binds: 20.83, not 14/0.3 = 46.7.  The cap
    still counts births of the whole tree, although ``MAX_PARTICLES`` now
    counts only the lines of the reconstructed tree that ``position_sum``
    draws, so the horizon stays that of a full genealogy, 20.83."""
    consts = derive(params)
    gap_rate = consts.growth_rate - 2.0 * params.mu
    if gap_rate <= 0:
        raise RegimeError("fast horizon needs growth > 2 mu")
    births = 0.01 * simulator.MAX_PARTICLES / expected_births(params, 0.0)
    return min(14.0 / gap_rate, math.log(max(2.0, births)) / consts.growth_rate)


def h_polynomial_value(f: Kernel, h: np.ndarray, params: ModelParams) -> np.ndarray:
    """The fast-regime limit polynomial at each row of ``h`` (m, dim), a
    martingale value per row: sum over terms of the product over slots of
    the slot's gradient-mean vector dotted with the row."""
    _require_tensor_sum(f)
    h = np.atleast_2d(np.asarray(h, dtype=float))
    return f.contract(lambda _, s: h @ gradient_phi_mean(s, params))


def fast_limit_sampler(
    f: Kernel,
    params: ModelParams,
    rng: np.random.Generator,
    size: int = 1,
    *,
    t_approx: float,
) -> np.ndarray:
    """Draws of the fast-regime limit law: the limit polynomial evaluated
    at the position-sum martingale at the horizon ``t_approx``, one fresh
    replica per draw, its position sum drawn by ``simulator.position_sum``
    from the exact Gaussian law given the skeleton of its genealogy, which
    takes one uniform per skeleton line and one normal per coordinate of a
    survivor.  An extinct replica gives exactly 0, so the nonzero draws
    follow the law on survival.  The caller picks the horizon:
    ``harness.run_clt`` takes the config's or ``default_fast_horizon``."""
    regime = classify(params)
    if not regime.is_fast:
        raise RegimeError("fast sampler needs growth > 2 mu")
    _require_tensor_sum(f)
    consts = derive(params)
    scale = math.exp((params.mu - consts.growth_rate) * t_approx)
    h = np.empty((size, params.dim))
    for i in range(size):
        h[i] = scale * position_sum(params, t_approx, rng)[1]
    return h_polynomial_value(f, h, params)
