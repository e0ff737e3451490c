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
gives the leaf moment exactly as a polynomial in the leaf mean, the variance
and the u_i, of u-degree at most half the summed degree of the factors.
Each u-monomial times the growth weight prod_i e^{g t_i} integrates exactly
over the tree's nested time simplex; nothing is interpolated or sampled.

Child order does not affect a tree's integrand, so trees are enumerated
with unordered children and carry the multiplicity 2^(number of inner
vertices) accounting for the ordered-split derivation.

Work that depends only on the arity and the factors is done once: the
trees of each arity are built once per process, and a factor multiset,
sorted, is planned once (``_plan``, eight deep).  The plan runs Isserlis'
recursion once per shape on one coordinate, the mean and variance formal;
the coordinates are independent, so it multiplies their entries as it
folds all trees into one matrix from the monomials prod_c m_c^(K_c - 2 j_c)
v^|j| to the shapes' u-monomials, which no (t, params) enters.  A moment
then evaluates those monomials and the memoized time integrals, and takes
one matrix product.

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
from .ou import Factor, poly_times, stationary_std

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
    return list(_trees(n))


@functools.cache
def _trees(n: int) -> tuple[LabeledTree, ...]:
    """The trees of arity n in enumeration order; an arity below 1 raises
    ``ValueError`` and one above ``model.MAX_ARITY`` ``ArityCapError``."""
    if n < 1:
        raise ValueError("arity must be positive")
    if n > MAX_ARITY:
        raise ArityCapError(f"arity {n} above the maximum {MAX_ARITY}")
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


class _SymbolicMoments(dict):
    """count tuple -> E prod Z^counts of one coordinate as a read-only
    coefficient array over the pair count j and the u_i (one axis per inner
    vertex), each axis of size K // 2 + 1 for K the tuple's total, each
    missing entry computed on lookup and kept.

    The |leaves| leaf values of one coordinate form one Gaussian vector
    with mean m, variance v and covariance v * u_L between leaves a != b
    with lowest common inner ancestor L.  Isserlis' recursion
    E Z_a Z^k = m E Z^k + sum_b cov_ab k_b E Z^(k - e_b) runs with m and v
    formal: entry j stands for m^(K - 2j) v^j, so a mean leaves the array
    as it is and a covariance shifts it one step along j and, across
    leaves, along axis L.  No (t, params) enters an entry, and the
    coordinates, independent, share the memo."""

    def __init__(self, shape: _Shape):
        self.lca, self.n_inner = shape.lca, len(shape.inner)
        one = np.ones((1,) * (1 + self.n_inner))
        one.flags.writeable = False
        super().__init__({(0,) * len(shape.leaves): one})

    def __missing__(self, counts: tuple[int, ...]) -> np.ndarray:
        # lower the largest count, which reaches fewer entries than the first
        a = max(range(len(counts)), key=counts.__getitem__)
        lowered = tuple(k - (i == a) for i, k in enumerate(counts))
        size = sum(counts) // 2 + 1
        val = np.zeros((size,) * (1 + self.n_inner))
        low = self[lowered]
        val[tuple(map(slice, low.shape))] = low
        for b, axis in enumerate(self.lca[a]):
            if lowered[b]:
                term = self[tuple(k - (i == b) for i, k in enumerate(lowered))]
                # one u-degree lower: times u_L fits without dropping an entry
                lift = tuple(slice(int(i == axis), size - int(i != axis))
                             for i in range(self.n_inner))
                val[(slice(1, size),) + lift] += term if lowered[b] == 1 else lowered[b] * term
        val.flags.writeable = False
        self[counts] = val
        return val


# ---------------------------------------------------------------------------
# the plan: what a moment needs from its factors, whatever t and params


def _fold(parent: tuple[int, ...], terms: dict, dim: int, degree: int) -> dict:
    """A shape's summed monomial terms (count tuple -> coefficient) as
    {(mean powers..., variance power): u-coefficient array}, by Isserlis'
    recursion on one coordinate with the leaf mean and variance formal.
    The coordinates are independent, so a term's leaf moment is the product
    of one memo entry per coordinate: their pair counts side by side, their
    u-polynomials multiplied (``ou.poly_times``).  The coordinates are
    multiplied in from the last, and terms that agree on the ones still to
    come are summed first, so each (head, totals) group takes one product."""
    shape = _shape(parent)
    memo, width = _SymbolicMoments(shape), len(shape.leaves)
    # (counts of the coordinates still to come, totals of those multiplied in)
    blocks: dict[tuple, np.ndarray] = {}
    for counts, coef in terms.items():
        key = (counts[:-width], sum(counts[-width:]))
        blocks[key] = blocks.get(key, 0.0) + coef * memo[counts[-width:]]
    for _ in range(dim - 1):
        folded: dict[tuple, np.ndarray] = {}
        for (head, *totals), block in blocks.items():
            # the entry's pair count on a new first axis, an outer product
            # with the later ones; the u axes multiply as polynomials
            entry = memo[head[-width:]]
            entry = entry.reshape(entry.shape[:1] + (1,) * len(totals) + entry.shape[1:])
            key = (head[:-width], sum(head[-width:]), *totals)
            folded[key] = folded.get(key, 0.0) + poly_times(entry, block[None])
        blocks = folded
    rows: dict[tuple[int, ...], np.ndarray] = {}
    for (_, *totals), block in blocks.items():
        for pairs in np.ndindex(block.shape[:dim]):
            key = (*(k - 2 * j for k, j in zip(totals, pairs)), sum(pairs))
            row = rows.setdefault(key, np.zeros((degree + 1,) * memo.n_inner))
            row[tuple(map(slice, block.shape[dim:]))] += block[pairs]
    return rows


@dataclass(frozen=True)
class _Plan:
    """A moment at any (t, params) is e^{gt} mono @ matrix @ (osum b^inner):
    mono the rows' prod_c m_c^mean_powers[:, c] v^var_powers, osum each
    column's (shape, u-powers) ``_order_sum`` and b the birth rate."""

    mean_powers: np.ndarray
    var_powers: np.ndarray
    matrix: np.ndarray
    columns: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    inner: np.ndarray


@functools.lru_cache(maxsize=8)
def _plan(factors: tuple[Factor, ...]) -> _Plan:
    """The moment of these sorted factors planned once for every (t, params):
    each tree's monomial combinations times its multiplicity, summed per
    count tuple over its shape.  A leaf moment's u-degree is at most half
    the factors' summed degree in each coordinate, which sizes every row.
    Eight plans deep, like ``ustats``'."""
    dim, trees = factors[0].dim, _trees(len(factors))
    degree = sum(sum(f.coeffs.shape[c] - 1 for f in factors) // 2 for c in range(dim))
    leaf = {}  # leaf block -> its product polynomial's (index, coefficient) monomials
    for block in {block for tree in trees for _, block in tree.leaf_labels}:
        p = functools.reduce(Factor.times, [factors[a - 1] for a in block]).coeffs
        leaf[block] = [(k, p[k]) for k in zip(*np.nonzero(p))]
    shapes: dict[tuple[int, ...], dict] = {}
    for tree in trees:
        # the nonzero monomial combinations, one monomial per leaf, their
        # powers laid out as the Gaussian coordinates
        for combo in itertools.product(*(leaf[block] for _, block in tree.leaf_labels)):
            coef = float(math.prod(c for _, c in combo))
            if coef != 0.0:
                counts = tuple(int(k[c]) for c in range(dim) for k, _ in combo)
                terms = shapes.setdefault(tree.parent, {})
                terms[counts] = terms.get(counts, 0.0) + tree.multiplicity * coef
    keys: dict[tuple[int, ...], int] = {}
    columns, parts = [], []
    for parent, terms in shapes.items():
        rows = _fold(parent, terms, dim, degree)
        table = np.array(list(rows.values()))
        live = table.any(axis=0)
        parts.append(([keys.setdefault(k, len(keys)) for k in rows], len(columns),
                      table.reshape(len(rows), -1)[:, live.ravel()]))
        columns += [(parent, tuple(p)) for p in np.argwhere(live).tolist()]
    matrix = np.zeros((len(keys), len(columns)))
    for index, start, part in parts:
        matrix[index, start:start + part.shape[1]] = part
    powers = np.array(list(keys), dtype=int).reshape(-1, dim + 1)
    return _Plan(powers[:, :dim], powers[:, dim], matrix, tuple(columns),
                 np.array([len(_shape(parent).inner) for parent, _ in columns]))


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

    Each factor multiset is planned once and kept (``_plan``), Isserlis'
    recursion included.  A call works out the leaf-moment monomials
    m^(K - 2j) v^|j| at (t, params) and the time integral of each u-power
    column over its shape's simplex (``_order_sum``), and multiplies them
    through the plan's matrix.  Estimated work above ``ORACLE_BUDGET``
    entries raises ``BudgetExceededError`` before anything is planned.
    ``cap``, ``n_nodes`` and ``check`` are accepted and unused: the
    benchmark's tracer (``benchmarks/tracer.py``) still reads them from
    each call.  A horizon ``t`` that is not finite and nonnegative raises
    ``ValueError``."""
    if len(f_list) != n:
        raise ValueError("need exactly n factors")
    if not 0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")
    bound = sum(sum(f.coeffs.shape) - f.dim for f in f_list) // 2
    work = (len(_trees(n)) * math.prod(np.count_nonzero(f.coeffs) for f in f_list)
            + math.prod(f.coeffs.size for f in f_list)) * (bound + 1) ** (n - 1)
    if work > ORACLE_BUDGET:
        raise BudgetExceededError(f"oracle work estimate {work:.3g} exceeds the "
                                  f"budget {ORACLE_BUDGET:g} coefficient entries")
    if any(f.dim != params.dim for f in f_list):
        raise OracleKernelError("assignment dimension mismatch")
    plan = _plan(tuple(sorted(f_list, key=lambda f: f._key)))
    consts = derive(params)
    growth = consts.growth_rate
    mean = np.array([x * math.exp(-params.mu * t) for x in params.x0])
    var = -stationary_std(params) ** 2 * math.expm1(-2.0 * params.mu * t)
    mono = np.prod(mean ** plan.mean_powers, axis=1) * var ** plan.var_powers
    osum = np.array([_order_sum(parent, powers, t, growth, params.mu)
                     for parent, powers in plan.columns])
    return math.exp(growth * t) * \
        float(mono @ plan.matrix @ (osum * consts.birth_rate ** plan.inner))
