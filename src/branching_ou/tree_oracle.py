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

Work that depends only on the arity and the factors is done once: the
trees of each arity are built once per process, and a factor multiset,
sorted, is planned once (``_plan``, eight deep) into its u-degree bound
and, shape by shape, each tree's nonzero monomial combinations.  A moment
then makes one pass per shape: it builds the shape's Isserlis memo at
(t, params), evaluates every tree of the shape from it and drops it, and
integrates the coefficients through memoized time integrals.  The trees'
values are summed in enumeration order.

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

from .model import (MAX_ARITY, ArityCapError, BudgetExceededError, ModelParams, derive,
                    head_splits)
from .ou import Factor, stationary_std

# A call whose work estimate, in coefficient-array entries, exceeds this is
# refused before anything is planned or integrated (see ``exact_mixed_moment``).
ORACLE_BUDGET = 5e7


class OracleKernelError(ValueError):
    """A factor assignment does not match the model dimension."""


@dataclass(frozen=True)
class LabeledTree:
    """Rooted split tree; vertex 0 is the root and parents precede children.

    ``parent`` is the tree's shape: the root and the inner vertices are the
    vertices with children.  leaf_labels maps each leaf to a block of the
    label partition; multiplicity counts the ordered-children variants this
    canonical shape stands for.
    """

    parent: tuple[int, ...]
    leaf_labels: tuple[tuple[int, tuple[int, ...]], ...]
    multiplicity: int

    @property
    def inner_nodes(self) -> tuple[int, ...]:
        return _shape(self.parent).inner

    @property
    def leaves(self) -> tuple[int, ...]:
        return _shape(self.parent).leaves


def _structures(labels: tuple[int, ...]):
    """All canonical subtree structures over a nonempty label tuple: a leaf,
    or a split whose left subtree holds the first label."""
    return [("leaf", labels)] + [("split", ls, rs)
                                 for left, right in head_splits(labels) if right
                                 for ls in _structures(left)
                                 for rs in _structures(right)]


def _linearize(struct) -> LabeledTree:
    parent = [-1]
    leaf_labels = []
    queue = deque([(struct, 0)])
    while queue:
        node, par = queue.popleft()
        idx = len(parent)
        parent.append(par)
        if node[0] == "leaf":
            leaf_labels.append((idx, tuple(sorted(node[1]))))
        else:
            queue.append((node[1], idx))
            queue.append((node[2], idx))
    n_inner = len(parent) - 1 - len(leaf_labels)
    return LabeledTree(parent=tuple(parent), leaf_labels=tuple(sorted(leaf_labels)),
                       multiplicity=2**n_inner)


def enumerate_trees(n: int, cap: int = MAX_ARITY) -> list[LabeledTree]:
    """Duplicate-free enumeration of the split-tree class for arity n; an
    arity above ``model.MAX_ARITY`` raises ``ArityCapError``.  The trees are
    built once per n; each call returns a new list of the (frozen) trees.
    ``cap`` is accepted and unused: the benchmark's tracer
    (``benchmarks/tracer.py``) still passes it."""
    if n < 1:
        raise ValueError("arity must be positive")
    if n > MAX_ARITY:
        raise ArityCapError(f"arity {n} above the maximum {MAX_ARITY}")
    return list(_trees(n))


@functools.cache
def _trees(n: int) -> tuple[LabeledTree, ...]:
    """The trees of arity n in enumeration order."""
    return tuple(_linearize(s) for s in _structures(tuple(range(1, n + 1))))


# ---------------------------------------------------------------------------
# per-shape work, shared by every labelling and factor assignment


@dataclass(frozen=True)
class _Shape:
    inner: tuple[int, ...]
    leaves: tuple[int, ...]
    # lca[ka][kb]: the axis (position in ``inner``) of the lowest common
    # inner ancestor of the ka-th and kb-th leaves, None when ka = kb
    lca: tuple[tuple[int | None, ...], ...]
    # the parent-first orders of the inner vertices, as tuples of axes
    orders: tuple[tuple[int, ...], ...]


@functools.lru_cache(maxsize=128)
def _shape(parent: tuple[int, ...]) -> _Shape:
    inner = tuple(sorted(set(parent[1:]) - {0}))
    leaves = tuple(i for i in range(1, len(parent)) if i not in parent)

    def ancestors(j: int) -> list[int]:
        return [j, *ancestors(parent[j])] if j > 0 else []

    chains = [ancestors(parent[leaf]) for leaf in leaves]
    lca = tuple(tuple(None if ka == kb else inner.index(next(i for i in a if i in b))
                      for kb, b in enumerate(chains)) for ka, a in enumerate(chains))
    orders = tuple(tuple(inner.index(i) for i in o)
                   for o in itertools.permutations(inner)
                   if all(parent[i] not in o or o.index(parent[i]) < o.index(i)
                          for i in o))
    return _Shape(inner, leaves, lca, orders)


class _Moments(dict):
    """count tuple -> E prod Z^counts as a read-only coefficient array in the
    u_i (axis k for the k-th inner vertex, size degree + 1), each missing
    entry computed on lookup and kept.

    The dim * |leaves| leaf coordinates form one Gaussian vector with mean
    x0 e^{-mu t}, variance var = s^2 (1 - e^{-2 mu t}), covariance var * u_L
    between one coordinate of leaves a != b with lowest common inner
    ancestor L, and none across coordinates.  Isserlis' recursion
    E Z_a Z^k = mean_a E Z^k + sum_b cov_ab k_b E Z^(k - e_b) runs on
    coefficient arrays, where a covariance is var times a shift along axis
    L, so a coefficient that is zero stays exactly zero.  The memo refers
    to nothing that refers back to it, so it is freed as soon as its
    shape's pass ends, not at the next garbage collection."""

    def __init__(self, shape: _Shape, t: float, params: ModelParams, degree: int):
        n_inner, width = len(shape.inner), len(shape.leaves)
        # Gaussian coordinate c * width + k is coordinate c of the k-th leaf
        self.mean = [x * math.exp(-params.mu * t) for x in params.x0 for _ in range(width)]
        self.var = -stationary_std(params) ** 2 * math.expm1(-2.0 * params.mu * t)
        self.width, self.lca = width, shape.lca
        # times u_L moves entries one step up axis L; the degree bound keeps
        # the top entry zero, so nothing is dropped
        self.lift = [(slice(None),) * k + (slice(1, None),) for k in range(n_inner)]
        self.keep = [(slice(None),) * k + (slice(None, -1),) for k in range(n_inner)]
        self.one = np.zeros((degree + 1,) * n_inner)
        self.one.flat[0] = 1.0
        self.one.flags.writeable = False
        super().__init__({(0,) * len(self.mean): self.one})

    def __missing__(self, counts: tuple[int, ...]) -> np.ndarray:
        a = next(i for i, k in enumerate(counts) if k)
        lowered = list(counts)
        lowered[a] -= 1
        # ``out`` keeps the 0-d case of a tree without inner vertices an array
        val = np.multiply(self.mean[a], self[tuple(lowered)],
                          out=np.empty_like(self.one))
        c, ka = divmod(a, self.width)
        for kb, axis in enumerate(self.lca[ka]):
            b = c * self.width + kb
            if lowered[b]:
                twice = list(lowered)
                twice[b] -= 1
                term = self.var * lowered[b] * self[tuple(twice)]
                if axis is None:
                    val += term
                else:
                    val[self.lift[axis]] += term[self.keep[axis]]
        val.flags.writeable = False
        self[counts] = val
        return val


# ---------------------------------------------------------------------------
# the plan: what a moment needs from its factors, whatever t and params


class _Planner:
    """Plans the trees of one factor list.  For a tree it gives the nonzero
    monomial combinations, one monomial per leaf, in ``itertools.product``
    order: their coefficients and their count tuples (the powers laid out
    as the Gaussian coordinates), as two tuples.  Each leaf block's product
    polynomial and monomials are built once, and equal coefficients and
    count tuples are one object, so a plan holds each once."""

    def __init__(self, factors):
        self.factors, self.dim = factors, factors[0].dim
        self.blocks: dict[tuple[int, ...], list] = {}
        self.shared: dict = {}

    def _leaf(self, block: tuple[int, ...]) -> list:
        """The (index, coefficient) monomials of a leaf's polynomial, the
        product of the factors it carries."""
        if block not in self.blocks:
            p = functools.reduce(Factor.times, [self.factors[a - 1] for a in block]).coeffs
            self.blocks[block] = [(k, p[k]) for k in zip(*np.nonzero(p))]
        return self.blocks[block]

    def __call__(self, tree: LabeledTree) -> tuple[tuple, tuple]:
        coefs, counts = [], []
        for combo in itertools.product(*(self._leaf(block) for _, block in tree.leaf_labels)):
            coef = float(math.prod(c for _, c in combo))
            if coef != 0.0:
                key = tuple(int(k[c]) for c in range(self.dim) for k, _ in combo)
                coefs.append(self.shared.setdefault(coef, coef))
                counts.append(self.shared.setdefault(key, key))
        return tuple(coefs), tuple(counts)


@functools.lru_cache(maxsize=8)
def _plan(factors: tuple[Factor, ...]) -> tuple[int, tuple]:
    """The moment of these sorted factors planned once for every (t, params):
    the u-degree bound of every leaf moment, and per shape (``parent``
    tuple) its trees as (enumeration index, multiplicity, ``_Planner``
    output).  In each coordinate the leaves' degrees sum to the factors'
    degrees, and a leaf moment's u-degree is at most half of that sum, so
    one bound serves every tree.  Eight plans deep, like ``ustats``'."""
    degree = sum(sum(f.coeffs.shape[c] - 1 for f in factors) // 2
                 for c in range(factors[0].dim))
    planner = _Planner(factors)
    shapes: dict[tuple[int, ...], list] = {}
    for i, tree in enumerate(_trees(len(factors))):
        shapes.setdefault(tree.parent, []).append((i, tree.multiplicity, *planner(tree)))
    return degree, tuple(shapes.items())


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


@functools.lru_cache(maxsize=1 << 14)
def _order_sum(parent: tuple[int, ...], powers: tuple[int, ...], t: float,
               growth: float, mu: float) -> float:
    """The integral of prod_k u_k^{powers[k]} times the growth weight over
    a shape's time simplex: ``_chain_integral`` summed over the parent-first
    orders of its inner vertices, in their enumeration order.  Every tree
    of the shape shares it."""
    return sum(_chain_integral(t, tuple(powers[k] for k in o), growth, mu)
               for o in _shape(parent).orders)


def exact_mixed_moment(n: int, t: float, params: ModelParams, f_list,
                       cap: int = MAX_ARITY, n_nodes: int = 64,
                       check: bool = True) -> float:
    """E prod_{i=1..n} <X_t, f_i> by summing all tree contributions.

    Equals the expectation of the order-n V-statistic of the one-term
    tensor kernel f_1 x ... x f_n of polynomial slots (``Factor``).  An
    arity above ``model.MAX_ARITY`` raises ``ArityCapError``.

    Each factor multiset is planned once and kept (``_plan``).  A call
    makes one pass per tree shape: it builds the shape's Isserlis memo at
    (t, params), an array per count tuple of at most (degree + 1)^(n - 1)
    entries, sums each tree's planned monomial combinations into the leaf
    moment's coefficients and integrates the nonzero ones over the shape's
    time simplex (``_order_sum``).  Estimated work above ``ORACLE_BUDGET``
    entries raises ``BudgetExceededError`` before anything is planned.
    ``cap``, ``n_nodes`` and ``check`` are accepted and unused: the
    benchmark's tracer (``benchmarks/tracer.py``) still reads them from
    each call.  A horizon ``t`` that is not finite and nonnegative raises
    ``ValueError``."""
    if len(f_list) != n:
        raise ValueError("need exactly n factors")
    if not 0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")
    n_trees = len(enumerate_trees(n))
    bound = sum(sum(f.coeffs.shape) - f.dim for f in f_list) // 2
    work = (n_trees * math.prod(np.count_nonzero(f.coeffs) for f in f_list)
            + math.prod(f.coeffs.size for f in f_list)) * (bound + 1) ** (n - 1)
    if work > ORACLE_BUDGET:
        raise BudgetExceededError(f"oracle work estimate {work:.3g} exceeds the "
                                  f"budget {ORACLE_BUDGET:g} coefficient entries")
    if any(f.dim != params.dim for f in f_list):
        raise OracleKernelError("assignment dimension mismatch")
    degree, shapes = _plan(tuple(sorted(f_list, key=lambda f: f._key)))
    consts = derive(params)
    growth = consts.growth_rate
    values = [0.0] * n_trees
    for parent, trees in shapes:
        shape = _shape(parent)
        moment = _Moments(shape, t, params, degree)
        scale = consts.birth_rate ** len(shape.inner) * math.exp(growth * t)
        for i, multiplicity, monomial_coefs, monomial_counts in trees:
            # the leaf moment's exact coefficients, a polynomial in the u_i
            coefs = np.zeros((degree + 1,) * len(shape.inner))
            for coef, counts in zip(monomial_coefs, monomial_counts):
                coefs += coef * moment[counts]
            total = 0.0
            for powers in map(tuple, np.argwhere(coefs).tolist()):
                total += coefs[powers] * _order_sum(parent, powers, t, growth, params.mu)
            values[i] = scale * multiplicity * total
    return sum(values)
