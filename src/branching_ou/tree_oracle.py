"""Exact mixed moments of the particle system via a split-tree expansion.

The n-th mixed moment E prod_i <X_t, f_i> expands over rooted trees whose
root has a single child, whose inner vertices are binary, and whose leaves
carry the blocks of a partition of {1..n}.  Each tree contributes an
integral over its split times of an explicit Gaussian polynomial moment.
Split times t_i run backward from the horizon t.  Given them, the leaf
positions are Gaussian with mean x0 e^{-mu t}, variance s^2 (1 - e^{-2 mu t})
and, for leaves a != b, covariance s^2 (e^{-2 mu t_L} - e^{-2 mu t}), where
L is their lowest common inner ancestor.  The moment is therefore a
polynomial in u_i = (e^{2 mu (t - t_i)} - 1) / (e^{2 mu t} - 1), one
variable per inner vertex, of total degree at most half the summed degree
of the factors; each monomial times the growth weight prod_i e^{g t_i}
integrates exactly over the tree's nested time simplex.

Child order does not affect a tree's integrand, so trees are enumerated
with unordered children and carry the multiplicity 2^(number of inner
vertices) accounting for the ordered-split derivation.

This oracle never touches the simulator's code paths: only exact
split-time integration and exact Gaussian moments enter.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .kernels import ProductFunc
from .model import ModelParams, derive
from .ou import Func1D, poly_mul, stationary_std


class TreeCapError(ValueError):
    """Requested arity above the configured enumeration cap."""


class OracleKernelError(ValueError):
    """The oracle requires polynomial factors."""


@dataclass(frozen=True)
class LabeledTree:
    """Rooted split tree; vertex 0 is the root and parents precede children.

    kinds[i] is "root", "inner" or "leaf"; leaf_labels maps each leaf to a
    block of the label partition; multiplicity counts the ordered-children
    variants this canonical shape stands for.
    """

    parent: tuple[int, ...]
    kinds: tuple[str, ...]
    leaf_labels: tuple[tuple[int, tuple[int, ...]], ...]
    multiplicity: int

    @property
    def inner_nodes(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.kinds) if k == "inner")

    @property
    def leaves(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.kinds) if k == "leaf")

    @property
    def labels(self) -> dict[int, tuple[int, ...]]:
        return dict(self.leaf_labels)


def _structures(labels: tuple[int, ...]):
    """All canonical subtree structures over a nonempty label tuple."""
    out = [("leaf", labels)]
    if len(labels) == 1:
        return out
    head, rest = labels[0], labels[1:]
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            left = (head, *extra)
            right = tuple(i for i in rest if i not in extra)
            if not right:
                continue
            for ls in _structures(left):
                for rs in _structures(right):
                    out.append(("split", ls, rs))
    return out


def _linearize(struct) -> LabeledTree:
    parent = [-1]
    kinds = ["root"]
    leaf_labels = []
    queue = deque([(struct, 0)])
    while queue:
        node, par = queue.popleft()
        idx = len(parent)
        parent.append(par)
        if node[0] == "leaf":
            kinds.append("leaf")
            leaf_labels.append((idx, tuple(sorted(node[1]))))
        else:
            kinds.append("inner")
            queue.append((node[1], idx))
            queue.append((node[2], idx))
    n_inner = kinds.count("inner")
    return LabeledTree(
        parent=tuple(parent),
        kinds=tuple(kinds),
        leaf_labels=tuple(sorted(leaf_labels)),
        multiplicity=2**n_inner,
    )


def enumerate_trees(n: int, cap: int = 4) -> list[LabeledTree]:
    """Duplicate-free enumeration of the split-tree class for arity n."""
    if n < 1:
        raise ValueError("arity must be positive")
    if n > cap:
        raise TreeCapError(f"arity {n} above the enumeration cap {cap}")
    return [_linearize(s) for s in _structures(tuple(range(1, n + 1)))]


# ---------------------------------------------------------------------------
# Gaussian moments of leaf positions


def _normalize_assignment(f_assignment, dim: int) -> list[ProductFunc]:
    out = []
    for f in f_assignment:
        if isinstance(f, ProductFunc):
            pf = f
        elif isinstance(f, Func1D):
            pf = ProductFunc((f,))
        else:
            pf = ProductFunc((Func1D.polynomial(f),))
        if pf.dim != dim:
            raise OracleKernelError("assignment dimension mismatch")
        if not pf.is_polynomial:
            raise OracleKernelError("the tree oracle requires polynomial factors")
        out.append(pf)
    return out


def _leaf_covariance(tree: LabeledTree, t: float, shared: dict[int, float],
                     params: ModelParams) -> tuple[tuple[int, ...], np.ndarray]:
    """Per-coordinate covariance matrix of the leaf positions (identical
    across coordinates); leaves a != b covary by shared[L] at their lowest
    common inner ancestor L."""
    s2 = stationary_std(params) ** 2
    leaves = tree.leaves

    def chain(j: int) -> list[int]:
        return [j, *chain(tree.parent[j])] if j > 0 else []

    ancestors = [chain(tree.parent[leaf]) for leaf in leaves]
    cov = np.full((len(leaves), len(leaves)), -s2 * math.expm1(-2.0 * params.mu * t))
    for a, b in itertools.combinations(range(len(leaves)), 2):
        lowest = next(i for i in ancestors[a] if i in ancestors[b])
        cov[a, b] = cov[b, a] = shared[lowest]
    return leaves, cov


def _moment_recursive(mean: np.ndarray, cov: np.ndarray,
                      counts: tuple[int, ...], memo: dict) -> float:
    if not any(counts):
        return 1.0
    if counts in memo:
        return memo[counts]
    a = next(i for i, c in enumerate(counts) if c)
    lowered = list(counts)
    lowered[a] -= 1
    lowered_t = tuple(lowered)
    val = mean[a] * _moment_recursive(mean, cov, lowered_t, memo)
    for b, k in enumerate(lowered_t):
        if k and cov[a, b] != 0.0:
            twice = list(lowered_t)
            twice[b] -= 1
            val += cov[a, b] * k * _moment_recursive(mean, cov, tuple(twice), memo)
    memo[counts] = val
    return val


def _gaussian_poly_product_moment(mean: np.ndarray, cov: np.ndarray,
                                  polys: list[np.ndarray]) -> float:
    """E prod_a P_a(Z_a) for Z ~ N(mean, cov)."""
    memo: dict = {}
    total = 0.0
    ranges = [range(len(p)) for p in polys]
    for combo in itertools.product(*ranges):
        coef = 1.0
        for a, k in enumerate(combo):
            coef *= polys[a][k]
        if coef == 0.0:
            continue
        total += coef * _moment_recursive(mean, cov, combo, memo)
    return total


def _leaf_moment(tree: LabeledTree, t: float, shared: dict[int, float],
                 params: ModelParams, fs: list[ProductFunc]) -> float:
    """E prod_a f_a(position of the leaf carrying label a) as a function of
    the covariances shared[i] set up at the inner vertices; a polynomial
    in them."""
    leaves, cov = _leaf_covariance(tree, t, shared, params)
    labels = tree.labels
    out = 1.0
    for c in range(params.dim):
        polys = []
        for leaf in leaves:
            merged = np.array([1.0])
            for a in labels[leaf]:
                merged = poly_mul(merged, fs[a - 1].funcs[c].coeffs)
            polys.append(merged)
        mean = np.full(len(leaves), params.x0[c] * math.exp(-params.mu * t))
        out *= _gaussian_poly_product_moment(mean, cov, polys)
    return out


def gaussian_position_moments(
    tree: LabeledTree,
    t: float,
    split_times: dict[int, float],
    params: ModelParams,
    f_assignment,
) -> float:
    """E prod_a f_a(position of the leaf carrying label a) for the branching
    walk on the tree with the given split times, started at params.x0."""
    for i in tree.inner_nodes:
        parent_t = t if tree.parent[i] == 0 else split_times[tree.parent[i]]
        if not (0.0 <= split_times[i] <= min(t, parent_t) + 1e-12):
            raise ValueError("split times violate the tree constraints")
    fs = _normalize_assignment(f_assignment, params.dim)
    shared = {i: -stationary_std(params) ** 2 * math.exp(-2.0 * params.mu * ti)
              * math.expm1(-2.0 * params.mu * (t - ti)) for i, ti in split_times.items()}
    return _leaf_moment(tree, t, shared, params, fs)


# ---------------------------------------------------------------------------
# split-time integration


def _nonnegative_expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a matrix with no negative entry, accurate entry by entry:
    the Taylor series of a / 2^s and the s squarings add no negative term,
    so nothing cancels."""
    squarings = math.ceil(math.log2(2.0 * max(a.sum(axis=1).max(), 0.5)))
    a = a / 2.0**squarings
    out = term = np.eye(len(a))
    for k in itertools.count(1):
        term = term @ a / k
        if not (term > 1e-17 * out).any():
            break
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _chain_integral(t: float, order: tuple[int, ...], powers: dict[int, int],
                    growth: float, mu: float) -> float:
    """Integral of prod_i e^{growth t_i} u_i^{powers[i]} over the chain
    t >= t_(1) >= ... >= t_(m) >= 0 of the inner vertices in ``order``, where
    u_i = (e^{2 mu (t - t_i)} - 1) / (e^{2 mu t} - 1) runs from 0 to 1.
    In forward time s = t - t_i the powers (1, u, ..., u^K) solve
    d u^p / ds = 2 mu p (u^p + u^{p-1} / (e^{2 mu t} - 1)) and multiplying by
    u^k shifts them by k, so the integral is a corner entry of the exponential
    of a nonnegative block matrix (Van Loan); resonance needs no special case."""
    m, size = len(order), sum(powers.values()) + 1
    ramp = 2.0 * mu * t / math.expm1(2.0 * mu * t) if t > 0.0 else 1.0
    k = np.arange(size)
    flow = np.diag(2.0 * mu * t * k) + np.diag(ramp * k[1:], -1)
    gen = np.kron(np.eye(m + 1), flow) + \
        np.kron(np.diag(growth * t * np.arange(m, -1, -1)), np.eye(size))
    for b, i in enumerate(reversed(order)):
        gen[b * size:(b + 1) * size, (b + 1) * size:(b + 2) * size] = \
            t * np.eye(size, k=powers[i])
    return _nonnegative_expm(gen)[0, m * size]


def tree_contribution(tree: LabeledTree, t: float, params: ModelParams,
                      f_assignment) -> float:
    """This tree's share of the mixed moment, multiplicity included.

    Inner vertex i adds the leaf variance times u_i (see ``_chain_integral``)
    to the covariance, so the leaf moment is a polynomial in the u_i, read
    off a tensor grid of Chebyshev points (one Vandermonde solve per axis).
    The time simplex is the union of one chain per parent-first order of the
    inner vertices, and each monomial is integrated exactly over each."""
    fs = _normalize_assignment(f_assignment, params.dim)
    growth = derive(params).growth_rate
    inner = tree.inner_nodes
    degree = sum(sum(len(f.funcs[c].coeffs) - 1 for f in fs) // 2
                 for c in range(params.dim))
    var = -stationary_std(params) ** 2 * math.expm1(-2.0 * params.mu * t)
    nodes = np.polynomial.chebyshev.chebpts1(degree + 1)
    coefs = np.empty((degree + 1,) * len(inner))
    for idx in np.ndindex(coefs.shape):
        shared = {i: var * nodes[k] for i, k in zip(inner, idx)}
        coefs[idx] = _leaf_moment(tree, t, shared, params, fs)
    vander = np.vander(nodes, increasing=True)
    for axis in range(len(inner)):
        moved = np.moveaxis(coefs, axis, 0)
        solved = np.linalg.solve(vander, moved.reshape(degree + 1, -1))
        coefs = np.moveaxis(solved.reshape(moved.shape), 0, axis)
    orders = [o for o in itertools.permutations(inner)
              if all(tree.parent[i] not in o or o.index(tree.parent[i]) < o.index(i)
                     for i in o)]
    total = 0.0
    for powers in np.ndindex(coefs.shape):
        if sum(powers) <= degree:
            total += coefs[powers] * sum(
                _chain_integral(t, o, dict(zip(inner, powers)), growth, params.mu)
                for o in orders)
    return (params.p * params.lam) ** len(inner) * math.exp(growth * t) * \
        tree.multiplicity * total


def exact_mixed_moment(n: int, t: float, params: ModelParams, f_list, cap: int = 4,
                       n_nodes: int = 64, check: bool = True) -> float:
    """E prod_{i=1..n} <X_t, f_i> by summing all tree contributions.

    Equals the expectation of the order-n V-statistic of the tensor kernel
    with the given 1-D (or product) polynomial factors.  ``n_nodes`` and
    ``check`` are accepted and unused: the split-time integration is exact,
    and the benchmark's tracer (``benchmarks/tracer.py``) still reads them
    from each call."""
    if len(f_list) != n:
        raise ValueError("need exactly n factors")
    return sum(tree_contribution(tree, t, params, f_list)
               for tree in enumerate_trees(n, cap=cap))
