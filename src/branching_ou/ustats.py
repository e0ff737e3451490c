"""U- and V-statistics of particle snapshots.

The V-statistic sums the kernel over all index tuples (repeats allowed);
the U-statistic over injective tuples only.  The U-statistic is an
integer combination of V-statistics of merged kernels over the set
partitions of the argument slots, weighted by the closed-form Moebius
function of the partition lattice.  For a tensor-sum kernel both are
polynomials in per-replica block sums, a block being the slots that one
particle feeds, summed over the particles of its slots' values multiplied.
One plan per kernel collects their like terms, so arity 4 of one repeated
slot takes 5 products where the expansion has 15 merged kernels, and
evaluates each distinct slot once per call: no slot polynomials are
multiplied.  A black box is enumerated replica by replica, over all m^n
index tuples of m particles at arity n for its V-statistic and over those
masked to the injective ones for its U-statistic;
``u_statistic(..., strategy="naive")`` runs that masked enumeration for
any kernel: the reference the expansion is tested against.
``kernels.index_chunks`` refuses more than ``BLACKBOX_BUDGET`` tuples before
the first evaluation.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import Factor, Kernel, index_chunks
# unused here, but ``benchmarks/tracer.py`` patches this name on ``ustats``
from .kernels import substitute_partition  # noqa: F401
from .model import (
    MAX_ARITY,
    ArityCapError,
    DerivedConstants,
    Regime,
    head_splits,
)
from .simulator import FarmLevel


Partition = tuple[tuple[int, ...], ...]


def set_partitions(n: int) -> list[Partition]:
    """All set partitions of {1..n}, blocks and block lists sorted; arities
    above ``MAX_ARITY`` are refused, so the U-from-V expansion and the
    slow sampler's diagrams share this one check."""
    if n > MAX_ARITY:
        raise ArityCapError(f"arity {n} above the maximum {MAX_ARITY}")

    def rec(items: tuple[int, ...]) -> list[Partition]:
        if not items:
            return [()]
        return [tuple(sorted((block,) + sub))
                for block, rest in head_splits(items) for sub in rec(rest)]

    return sorted(set(rec(tuple(range(1, n + 1)))))


@lru_cache(maxsize=None)
def partition_coefficients(n: int) -> dict[Partition, int]:
    """Integer weights a_J with sum over injective tuples of f equal to
    sum_J a_J * (V-statistic of the J-merged kernel), keyed in sorted order.

    These are the Moebius weights mu(J, 1) of the partition lattice:
    a_J = prod over blocks B of (-1)^(|B| - 1) (|B| - 1)!.
    """
    return {J: math.prod((-1) ** (len(b) - 1) * math.factorial(len(b) - 1) for b in J)
            for J in set_partitions(n)}


# ---------------------------------------------------------------------------
# statistics
#
# The statistics are computed for every replica of a ``FarmLevel`` at once;
# a snapshot is a one-replica level, and the per-snapshot functions unpack
# its one value, so a level of several replicas is refused.  A plan
# evaluates each distinct slot once per particle and takes each block's
# per-replica sums by one segment-sum pass over a running product of slot
# values; black boxes are enumerated replica by replica.


def _enumerate(positions: np.ndarray, f: Kernel, injective: bool) -> float:
    """The kernel summed over one replica's index tuples by batched
    enumeration: all of them, or with ``injective`` the pairwise-distinct
    ones, each argument gathered through the chunk's mask."""
    total = 0.0
    for idx in index_chunks((positions.shape[0],) * f.arity):
        mask = slice(None)
        if injective:
            mask = np.ones(idx[0].shape[0], dtype=bool)
            for a, b in itertools.combinations(idx, 2):
                mask &= a != b
        total += float(f.evaluate([positions[i[mask]] for i in idx]).sum())
    return total


def _blackbox_sums(level: FarmLevel, f: Kernel, injective: bool) -> np.ndarray:
    """``_enumerate`` per replica; with ``injective`` a replica of fewer
    particles than the arity holds no tuple and gives 0 unevaluated."""
    return np.array([_enumerate(s.positions, f, injective)
                     if s.count >= f.arity or not injective else 0.0 for s in level])


def _check_dim(level: FarmLevel, f: Kernel) -> None:
    if f.dim != level.positions.shape[1]:
        raise ValueError("kernel dimension does not match snapshot")


def _trie(blocks: dict[tuple[Factor, ...], int]) -> tuple:
    """The blocks, keyed to their indices, as a trie over their slots: per
    node, (slot, index, child) triples, ``index`` being the block that ends
    there (None if none) and ``child`` the node of the longer blocks."""
    out = []
    for s in dict.fromkeys(b[0] for b in blocks):
        rest = {b[1:]: i for b, i in blocks.items() if b[0] == s}
        out.append((s, rest.pop((), None), _trie(rest)))
    return tuple(out)


def _block_sums(node: tuple, values: dict, level: FarmLevel, prefix, sums: dict,
                owned: bool = False) -> None:
    """Store in ``sums`` the per-replica sums of the blocks below a
    ``_trie`` node, given ``prefix``, the earlier slots' values multiplied
    (None for 1), ``owned`` if this walk made it: one running product per
    depth, the last sibling's in place, so x^k gets its running power's bits."""
    for k, (s, index, child) in enumerate(node):
        if prefix is None:
            run = values[s]
        elif owned and k == len(node) - 1:
            run = np.multiply(prefix, values[s], out=prefix)
        else:
            run = prefix * values[s]
        if index is not None:
            sums[index] = level.segment_sum(run)
        if child:
            _block_sums(child, values, level, run, sums, prefix is not None)


@dataclass(frozen=True)
class _Plan:
    """A tensor-sum statistic as a polynomial in per-replica block sums."""

    slots: tuple[Factor, ...]                     # the distinct slot functions
    trie: tuple                                   # the blocks, see ``_trie``
    # like terms collected: (coefficient, block indices in product order)
    terms: tuple[tuple[float, tuple[int, ...]], ...]

    def values(self, level: FarmLevel) -> np.ndarray:
        """The polynomial per replica, each slot evaluated and each block
        summed once; a product takes its coefficient, then its block sums."""
        sums: dict = {}
        values = {f: f(level.positions) for f in self.slots}
        _block_sums(self.trie, values, level, None, sums)
        out = np.zeros(len(level))
        for coef, idx in self.terms:
            prod = coef
            for i in idx:
                prod = prod * sums[i]
            out += prod
        return out


@lru_cache(maxsize=8)
def _plan(f: Kernel, injective: bool) -> _Plan:
    """The plan of a tensor-sum kernel's V-statistic, or with ``injective``
    of its U-statistic: sum_J a_J (V-statistic of the J-merged kernel)
    over the set partitions J.  Per J and term, a block is the sorted
    tuple of the slot functions one particle feeds; terms of one block
    multiset are collected, summing their weighted coefficients, and terms
    that cancel are dropped with their slots.  Memoized for the last few
    kernels, so a loop over snapshots plans its kernel once."""
    expansion = (partition_coefficients(f.arity).items() if injective
                 else [(tuple((i,) for i in range(1, f.arity + 1)), 1)])
    collected: dict[frozenset, list] = {}
    for J, a in expansion:
        for coef, slots in f.terms:
            blocks = tuple(tuple(sorted((slots[i - 1] for i in b), key=lambda s: s._key))
                           for b in J)
            key = frozenset(Counter(blocks).items())
            collected.setdefault(key, [0, blocks])[0] += a * coef
    numbered: dict = {}  # block -> its position
    terms = tuple((c, tuple(numbered.setdefault(b, len(numbered)) for b in blocks))
                  for c, blocks in collected.values() if c != 0.0)
    slots = tuple(dict.fromkeys(s for b in numbered for s in b))
    return _Plan(slots, _trie(numbered), terms)


def v_statistics(level: FarmLevel, f: Kernel) -> np.ndarray:
    """Per-replica sums of the kernel over all index tuples (with
    repetition); extinct replicas give 0."""
    _check_dim(level, f)
    if not f.is_tensor_sum:
        return _blackbox_sums(level, f, False)
    return _plan(f, False).values(level)


def u_statistics(level: FarmLevel, f: Kernel) -> np.ndarray:
    """Per-replica sums of the kernel over pairwise-distinct index tuples:
    a tensor sum's by the partition expansion over merged V-statistics, a
    black box's by enumerating them; replicas with fewer particles than the
    arity give 0."""
    _check_dim(level, f)
    if not f.is_tensor_sum:
        return _blackbox_sums(level, f, True)
    total = _plan(f, True).values(level)
    total[level.counts < f.arity] = 0.0
    return total


def v_statistic(snap: FarmLevel, f: Kernel) -> float:
    """Sum of the kernel over all index tuples (with repetition)."""
    (value,) = v_statistics(snap, f)
    return float(value)


def u_statistic(
    snap: FarmLevel,
    f: Kernel,
    strategy: str = "inclusion-exclusion",
) -> float:
    """Sum of the kernel over pairwise-distinct index tuples.

    ``strategy`` is "naive" (direct enumeration of injective tuples) or
    "inclusion-exclusion" (``u_statistics``).  For a tensor sum the two
    agree as integer-weighted sums of the same kernel evaluations; a black
    box is enumerated either way, so both give the same bits.
    """
    if strategy == "inclusion-exclusion":
        (value,) = u_statistics(snap, f)
        return float(value)
    if strategy != "naive":
        raise ValueError(f"unknown strategy {strategy!r}")
    (m,) = snap.counts
    return _enumerate(snap.positions, f, True) if m >= f.arity else 0.0


def normalized_u_statistics(
    level: FarmLevel,
    f_centered: Kernel,
    order_k: int,
    regime: Regime,
    consts: DerivedConstants,
) -> np.ndarray:
    """Regime- and degeneracy-appropriate normalization of the per-replica
    U-statistics of an already-centered kernel whose first non-null
    projection has order ``order_k``."""
    n = f_centered.arity
    k = order_k
    if np.count_nonzero(level.counts) < len(level):
        raise ValueError("empty snapshot cannot be normalized")
    m = level.counts.astype(float)
    t = level.t
    u = u_statistics(level, f_centered)
    if regime.is_slow:
        return u * m ** -(n - k / 2.0)
    if regime.is_critical:
        return u * t ** -(k / 2.0) * m ** -(n - k / 2.0)
    return u * math.exp(-(consts.growth_rate * n - regime.twice_mu / 2.0 * k) * t)


def normalized_u_statistic(
    snap: FarmLevel,
    f_centered: Kernel,
    order_k: int,
    regime: Regime,
    consts: DerivedConstants,
) -> float:
    """The one-replica case of ``normalized_u_statistics``."""
    (value,) = normalized_u_statistics(snap, f_centered, order_k, regime, consts)
    return float(value)
