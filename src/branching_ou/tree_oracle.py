"""Exact mixed moments of the particle system via a split-tree expansion.

The n-th mixed moment E prod_i <X_t, f_i> expands over rooted trees whose
root has a single child, whose inner vertices are binary, and whose leaves
carry the blocks of a partition of {1..n}.  Each tree contributes an
integral over its split times of an explicit Gaussian polynomial moment.
Split times t_i run backward from the horizon t.  Given them, the leaf
positions are Gaussian with mean x0 e^{-mu t}, variance s^2 (1 - e^{-2 mu t})
and, for leaves a != b, covariance s^2 (e^{-2 mu t_L} - e^{-2 mu t}), where
L is their lowest common inner ancestor.  That covariance is the variance
times u_L, with u_i = (e^{2 mu (t - t_i)} - 1) / (e^{2 mu t} - 1) one
variable per inner vertex, so Isserlis' recursion run on coefficient arrays
gives the leaf moment exactly as a polynomial in the u_i, of total degree at
most half the summed degree of the factors.  Each of its nonzero monomials
times the growth weight prod_i e^{g t_i} integrates exactly over the tree's
nested time simplex; nothing is interpolated or sampled.

Child order does not affect a tree's integrand, so trees are enumerated
with unordered children and carry the multiplicity 2^(number of inner
vertices) accounting for the ordered-split derivation.

This oracle never touches the simulator's code paths: only exact
split-time integration and exact Gaussian moments enter.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, derive
from .ou import Factor, stationary_std


class TreeCapError(ValueError):
    """Requested arity above the configured enumeration cap."""


class OracleKernelError(ValueError):
    """A factor assignment does not match the model dimension."""


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


def _leaf_moment_coefficients(tree: LabeledTree, t: float, params: ModelParams,
                              f_assignment: list[Factor]) -> np.ndarray:
    """Exact coefficients of E prod_a f_a(position of the leaf carrying label
    a) as a polynomial in the u_i, axis k for the k-th inner vertex.

    The dim * |leaves| leaf coordinates form one Gaussian vector with mean
    x0 e^{-mu t}, variance var = s^2 (1 - e^{-2 mu t}), covariance var * u_L
    between one coordinate of leaves a != b with lowest common inner
    ancestor L, and none across coordinates.  Isserlis' recursion
    E Z_a Z^k = mean_a E Z^k + sum_b cov_ab k_b E Z^(k - e_b) runs on
    coefficient arrays, where a covariance is var times a shift along axis
    L, so a coefficient that is zero stays exactly zero."""
    if any(f.dim != params.dim for f in f_assignment):
        raise OracleKernelError("assignment dimension mismatch")
    leaves, inner, labels = tree.leaves, tree.inner_nodes, tree.labels
    width = len(leaves)
    # each leaf's polynomial, the product of the factors it carries
    polys = [functools.reduce(Factor.times, [f_assignment[a - 1] for a in labels[leaf]])
             .coeffs for leaf in leaves]
    # Gaussian coordinate c * width + k is coordinate c of the k-th leaf
    mean = [params.x0[c] * math.exp(-params.mu * t)
            for c in range(params.dim) for _ in leaves]
    degree = sum(sum(p.shape[c] - 1 for p in polys) // 2 for c in range(params.dim))
    var = -stationary_std(params) ** 2 * math.expm1(-2.0 * params.mu * t)

    def ancestors(j: int) -> list[int]:
        return [j, *ancestors(tree.parent[j])] if j > 0 else []

    chains = [ancestors(tree.parent[leaf]) for leaf in leaves]
    # partners[a]: each b covarying with a, with the axis of u_L (None for b = a)
    partners = [[(c * width + kb, None if ka == kb else inner.index(
                     next(i for i in chains[ka] if i in chains[kb])))
                 for kb in range(width)]
                for c in range(params.dim) for ka in range(width)]

    one = np.zeros((degree + 1,) * len(inner))
    one[(0,) * len(inner)] = 1.0
    memo = {(0,) * len(mean): one}

    def moment(counts: tuple[int, ...]) -> np.ndarray:
        if counts in memo:
            return memo[counts]
        a = next(i for i, k in enumerate(counts) if k)
        lowered = list(counts)
        lowered[a] -= 1
        val = mean[a] * moment(tuple(lowered))
        for b, axis in partners[a]:
            if lowered[b]:
                twice = list(lowered)
                twice[b] -= 1
                # times u_L: a shift along axis L; the degree bound keeps the
                # top entry zero, so nothing wraps around
                term = var * lowered[b] * moment(tuple(twice))
                val = val + (term if axis is None else np.roll(term, 1, axis))
        memo[counts] = val
        return val

    # a monomial per leaf, its powers laid out as the Gaussian coordinates
    monomials = [[(k, p[k]) for k in zip(*np.nonzero(p))] for p in polys]
    total = np.zeros_like(one)
    for combo in itertools.product(*monomials):
        coef = math.prod(c for _, c in combo)
        if coef != 0.0:
            total += coef * moment(tuple(int(k[c]) for c in range(params.dim)
                                         for k, _ in combo))
    return total


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
    coefs = _leaf_moment_coefficients(tree, t, params, f_assignment)
    span = -math.expm1(-2.0 * params.mu * t)
    for i in tree.inner_nodes:
        # u_i = (e^{-2 mu t_i} - e^{-2 mu t}) / (1 - e^{-2 mu t}); at t = 0
        # the variance vanishes and u_i does not matter
        u = -math.exp(-2.0 * params.mu * split_times[i]) * \
            math.expm1(-2.0 * params.mu * (t - split_times[i])) / span if span else 0.0
        coefs = np.polynomial.polynomial.polyval(u, coefs)
    return float(coefs)


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


@functools.lru_cache(maxsize=4096)
def _chain_integral(t: float, powers: tuple[int, ...], growth: float,
                    mu: float) -> float:
    """Integral of prod_j e^{growth t_(j)} u_(j)^{powers[j]} over the chain
    t >= t_(1) >= ... >= t_(m) >= 0, where u_i = (e^{2 mu (t - t_i)} - 1) /
    (e^{2 mu t} - 1) runs from 0 to 1.  Only the powers along the chain
    matter, so many parent-first orders of many trees share one value.
    In forward time s = t - t_i the powers (1, u, ..., u^K) solve
    d u^p / ds = 2 mu p (u^p + u^{p-1} / (e^{2 mu t} - 1)) and multiplying by
    u^k shifts them by k, so the integral is a corner entry of the exponential
    of a nonnegative block matrix (Van Loan); resonance needs no special case."""
    m, size = len(powers), sum(powers) + 1
    ramp = 2.0 * mu * t / math.expm1(2.0 * mu * t) if t > 0.0 else 1.0
    k = np.arange(size)
    flow = np.diag(2.0 * mu * t * k) + np.diag(ramp * k[1:], -1)
    gen = np.kron(np.eye(m + 1), flow) + \
        np.kron(np.diag(growth * t * np.arange(m, -1, -1)), np.eye(size))
    for b, k_b in enumerate(reversed(powers)):
        gen[b * size:(b + 1) * size, (b + 1) * size:(b + 2) * size] = \
            t * np.eye(size, k=k_b)
    return _nonnegative_expm(gen)[0, m * size]


def tree_contribution(tree: LabeledTree, t: float, params: ModelParams,
                      f_assignment) -> float:
    """This tree's share of the mixed moment, multiplicity included.

    The leaf moment is a polynomial in the u_i (see ``_chain_integral``)
    whose exact coefficients come from ``_leaf_moment_coefficients``.  The
    time simplex is the union of one chain per parent-first order of the
    inner vertices, and each nonzero monomial is integrated exactly over
    each."""
    growth = derive(params).growth_rate
    inner = tree.inner_nodes
    coefs = _leaf_moment_coefficients(tree, t, params, f_assignment)
    orders = [o for o in itertools.permutations(inner)
              if all(tree.parent[i] not in o or o.index(tree.parent[i]) < o.index(i)
                     for i in o)]
    total = 0.0
    for powers in map(tuple, np.argwhere(coefs)):
        power_of = dict(zip(inner, map(int, powers)))
        total += coefs[powers] * sum(
            _chain_integral(t, tuple(power_of[i] for i in o), growth, params.mu)
            for o in orders)
    return (params.p * params.lam) ** len(inner) * math.exp(growth * t) * \
        tree.multiplicity * total


def exact_mixed_moment(n: int, t: float, params: ModelParams, f_list, cap: int = 4,
                       n_nodes: int = 64, check: bool = True) -> float:
    """E prod_{i=1..n} <X_t, f_i> by summing all tree contributions.

    Equals the expectation of the order-n V-statistic of the one-term
    tensor kernel f_1 x ... x f_n of polynomial slots (``Factor``).  ``n_nodes`` and
    ``check`` are accepted and unused: the split-time integration is exact,
    and the benchmark's tracer (``benchmarks/tracer.py``) still reads them
    from each call."""
    if len(f_list) != n:
        raise ValueError("need exactly n factors")
    return sum(tree_contribution(tree, t, params, f_list)
               for tree in enumerate_trees(n, cap=cap))
