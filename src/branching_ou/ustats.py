"""U- and V-statistics of particle snapshots.

The V-statistic sums the kernel over all index tuples (repeats allowed);
the U-statistic over injective tuples only.  Tensor-sum kernels admit a
fast V path through per-slot particle sums, and the U-statistic reduces to
an integer combination of V-statistics of merged kernels over the set
partitions of the argument slots, weighted by the closed-form Moebius
function of the partition lattice.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .kernels import BLACKBOX_BUDGET, Kernel, index_chunks, substitute_partition
from .model import (
    MAX_ARITY,
    ArityCapError,
    BudgetExceededError,
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
# its one value, so a level of several replicas is refused.  A tensor-sum
# kernel's V-statistic is a product of per-slot particle sums, taken for
# all replicas by one segment-sum pass per distinct slot function.


def _blackbox_v(positions: np.ndarray, f: Kernel) -> float:
    """V-statistic of a black box on one replica, by batched enumeration."""
    m = positions.shape[0]
    if m**f.arity > BLACKBOX_BUDGET:
        raise BudgetExceededError(
            f"{m}^{f.arity} black-box evaluations exceed the budget {BLACKBOX_BUDGET:g}"
        )
    total = 0.0
    for idx in index_chunks((m,) * f.arity):
        total += float(f.evaluate([positions[i] for i in idx]).sum())
    return total


def _v(level: FarmLevel, f: Kernel, slot_sums: dict) -> np.ndarray:
    """Per-replica V-statistics; ``slot_sums`` caches the segment sums of
    each slot function across the kernels of one call."""
    if f.dim != level.positions.shape[1]:
        raise ValueError("kernel dimension does not match snapshot")
    if not f.is_tensor_sum:
        return np.array([_blackbox_v(s.positions, f) if s.count else 0.0
                         for s in level])

    def sums(_, fac):
        if fac not in slot_sums:
            slot_sums[fac] = level.segment_sum(fac(level.positions))
        return slot_sums[fac]

    return f.contract(sums)


@lru_cache(maxsize=4)
def _expansion(f: Kernel) -> tuple[tuple[int, Kernel], ...]:
    """The (weight, merged kernel) pairs of the U-from-V expansion of
    ``f``, memoized for the last few kernels, so a loop over snapshots
    merges its kernel once."""
    return tuple((a, substitute_partition(f, J))
                 for J, a in partition_coefficients(f.arity).items())


def v_statistics(level: FarmLevel, f: Kernel) -> np.ndarray:
    """Per-replica sums of the kernel over all index tuples (with
    repetition); extinct replicas give 0."""
    return _v(level, f, {})


def u_statistics(level: FarmLevel, f: Kernel) -> np.ndarray:
    """Per-replica sums of the kernel over pairwise-distinct index tuples,
    by the partition expansion over merged V-statistics; replicas with
    fewer particles than the arity give 0."""
    slot_sums: dict = {}
    total = np.zeros(len(level))
    # a black box merges into a mere closure, and callers build fresh ones
    # call by call, so only tensor sums are cached
    expand = _expansion if f.is_tensor_sum else _expansion.__wrapped__
    for a, g in expand(f):
        total += a * _v(level, g, slot_sums)
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
    "inclusion-exclusion" (partition expansion over merged V-statistics);
    the two agree as integer-weighted sums of the same kernel evaluations.
    """
    if strategy == "inclusion-exclusion":
        (value,) = u_statistics(snap, f)
        return float(value)
    if strategy != "naive":
        raise ValueError(f"unknown strategy {strategy!r}")
    (m,) = snap.counts
    n = f.arity
    if m < n:
        return 0.0
    n_tuples = math.perm(m, n)
    if n_tuples > BLACKBOX_BUDGET:
        raise BudgetExceededError(
            f"{n_tuples} naive evaluations exceed the budget {BLACKBOX_BUDGET:g}"
        )
    total = 0.0
    for idx in index_chunks((m,) * n):
        injective = np.ones(idx[0].shape[0], dtype=bool)
        for a, b in itertools.combinations(idx, 2):
            injective &= a != b
        vals = f.evaluate([snap.positions[i[injective]] for i in idx])
        total += float(vals.sum())
    return total


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
    if np.any(level.counts == 0):
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
