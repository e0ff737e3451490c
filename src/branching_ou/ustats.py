"""U- and V-statistics of particle snapshots.

The V-statistic sums the kernel over all index tuples (repeats allowed);
the U-statistic over injective tuples only.  The U-statistic is an
integer combination of V-statistics of merged kernels over the set
partitions of the argument slots, weighted by the closed-form Moebius
function of the partition lattice.  For a tensor-sum kernel both are
polynomials in the per-replica sums of its slot functions, merged or not.
One plan per kernel collects their like terms, so arity 4 of one repeated
slot takes 5 products where the expansion has 15 merged kernels, and
writes each slot sum as a combination of per-replica monomial sums, each
monomial summed once per call.  A black box is enumerated replica by
replica, over all m^n index tuples of m particles at arity n for its
V-statistic and over those masked to the injective ones for its
U-statistic; ``u_statistic(..., strategy="naive")`` runs that masked
enumeration for any kernel: the reference the expansion is tested against.
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

from .kernels import Kernel, index_chunks, substitute_partition
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
# its one value, so a level of several replicas is refused.  A plan takes
# each monomial's per-replica sums by one segment-sum pass, over one
# running power per coordinate (x^k = x^(k-1) x), so no table of powers is
# held; black boxes are enumerated replica by replica.


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


def _trie(monomials: dict[tuple[int, ...], int]) -> tuple:
    """The exponent tuples, keyed to their indices, as a trie over the
    coordinates: per node, (exponent, child) pairs in increasing exponent,
    a child being the next coordinate's node or, at the last coordinate,
    the monomial's index."""
    heads = sorted({k[0] for k in monomials})
    out = []
    for e in heads:
        rest = {k[1:]: i for k, i in monomials.items() if k[0] == e}
        out.append((e, rest[()] if () in rest else _trie(rest)))
    return tuple(out)


def _monomial_sums(node: tuple, level: FarmLevel, c: int, prefix, sums: list) -> None:
    """Store in ``sums`` the per-replica sums of the monomials below a
    ``_trie`` node of coordinate ``c``, given ``prefix``, the values of the
    earlier coordinates' powers (None for 1).  Along the coordinate one
    running array is multiplied up from the prefix, so a unit monomial gets
    exactly the bits of Horner's rule."""
    col = level.positions[:, c]
    run, owned, power = prefix, False, 0
    for e, child in node:
        for _ in range(e - power):
            if run is None:
                run = col
            elif owned:
                np.multiply(run, col, out=run)
            else:
                run, owned = run * col, True
        power = e
        if isinstance(child, tuple):
            _monomial_sums(child, level, c + 1, run, sums)
        elif run is None:
            sums[child] = level.counts.astype(float)
        else:
            sums[child] = level.segment_sum(run)


@dataclass(frozen=True)
class _Plan:
    """A tensor-sum statistic as a polynomial in per-replica slot sums."""

    trie: tuple                                   # the monomials, see ``_trie``
    n_monomials: int
    # per distinct slot function: its (monomial index, coefficient) pairs
    slots: tuple[tuple[tuple[int, float], ...], ...]
    # like terms collected: (coefficient, slot indices in product order)
    terms: tuple[tuple[float, tuple[int, ...]], ...]

    def values(self, level: FarmLevel) -> np.ndarray:
        """The polynomial per replica: each product takes its coefficient
        first, then its slot sums in order."""
        sums: list = [None] * self.n_monomials
        _monomial_sums(self.trie, level, 0, None, sums)
        slot_sums = []
        for pairs in self.slots:
            if len(pairs) == 1 and pairs[0][1] == 1.0:
                slot_sums.append(sums[pairs[0][0]])
                continue
            total = 0.0
            for k, c in pairs:
                total = total + c * sums[k]
            slot_sums.append(total)
        out = np.zeros(len(level))
        for coef, idx in self.terms:
            prod = coef
            for i in idx:
                prod = prod * slot_sums[i]
            out += prod
        return out


@lru_cache(maxsize=8)
def _plan(f: Kernel, injective: bool) -> _Plan:
    """The plan of a tensor-sum kernel's V-statistic, or with ``injective``
    of its U-statistic: sum_J a_J (V-statistic of the J-merged kernel)
    over the set partitions J, merged by ``substitute_partition``.  Terms
    whose slot functions form one multiset are collected, summing their
    weighted coefficients, and terms that cancel are dropped.  Memoized for
    the last few kernels, so a loop over snapshots plans its kernel once."""
    expansion = ([(a, substitute_partition(f, J))
                  for J, a in partition_coefficients(f.arity).items()]
                 if injective else [(1, f)])
    collected: dict[frozenset, list] = {}
    for a, g in expansion:
        for coef, slots in g.terms:
            key = frozenset(Counter(slots).items())
            if key in collected:
                collected[key][0] += a * coef
            else:
                collected[key] = [a * coef, slots]
    index: dict = {}  # slot function -> its position in ``slots``
    terms = tuple((c, tuple(index.setdefault(s, len(index)) for s in slots))
                  for c, slots in collected.values() if c != 0.0)
    monomials: dict[tuple[int, ...], int] = {}
    slots = tuple(tuple((monomials.setdefault(k, len(monomials)), float(fac.coeffs[k]))
                        for k in map(tuple, np.argwhere(fac.coeffs).tolist()))
                  for fac in index)
    return _Plan(_trie(monomials), len(monomials), slots, terms)


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
